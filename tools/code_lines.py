"""Count the code lines of Python sources.

A code line holds at least one token other than a comment, a newline or
an indent; a token spanning several lines (a multi-line string) counts
each of them.  Module, class and function docstrings are left out.

Usage: python tools/code_lines.py [PATH ...]

Each PATH is a .py file or a directory searched for .py files; the
default is src.  A file reached through several PATHs counts once.
Prints the total count and the paths counted.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(source: str) -> set[int]:
    """The line on which each module, class or function docstring begins."""
    starts = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                starts.add(first.value.lineno)
    return starts


def code_lines(source: str) -> int:
    docstrings = _docstring_lines(source)
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE or (tok.type == tokenize.STRING and tok.start[0] in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    paths = [Path(p) for p in argv] or [Path("src")]
    files = {f.resolve() for p in paths for f in (p.rglob("*.py") if p.is_dir() else [p])}
    total = sum(code_lines(f.read_text(encoding="utf-8")) for f in files)
    print(total, " ".join(map(str, paths)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
