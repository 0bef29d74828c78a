"""The code-line counter of tools/code_lines.py, which CHANGES.md quotes
for every change: what counts as a code line, and each file once."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps its line

# a comment alone


class Point:
    """Class docstring."""

    def norm(self):
        """Function docstring,
        over two lines."""
        text = """a string that is not a docstring
        counts on each
        of its lines"""
        return math.hypot(len(text), 0)
'''


def test_docstrings_and_comment_lines_are_left_out_and_other_strings_count_per_line():
    # import, class, def, the three lines of `text` and return.
    assert code_lines.code_lines(SOURCE) == 7
    assert code_lines.code_lines('"""Only a docstring."""\n# and a comment\n') == 0
    assert code_lines.code_lines('x = 1\n"""An expression string after code."""\n') == 2


def test_a_file_reached_through_several_paths_counts_once(tmp_path, capsys, monkeypatch):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "a.py").write_text(SOURCE, encoding="utf-8")
    (package / "b.py").write_text("y = 2\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)

    def total(*argv):
        assert code_lines.main(list(argv)) == 0
        return int(capsys.readouterr().out.split()[0])

    assert total() == total("src") == 8
    assert total("src", "src") == 8
    assert total("src", "src/pkg/a.py", str(package / "a.py")) == 8
    assert total("src/pkg/b.py", "src/pkg/../pkg/b.py") == 1
