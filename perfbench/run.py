"""Run one benchmark workload against the package in this checkout.

    python3 perfbench/run.py --workload spectral-pow2 --seed 1 --seconds 12 --trace 0

Prints a provenance line, one line per metric (name, value, unit), the
failures of timed calls (none is expected), the defect census, and as
its last line one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The timed loop leaves out every call on a
(function, case) of ``workloads.KNOWN_DEFECTS``; after it, those calls
run untimed on the round-0 inputs (the census), and their failures are
printed and counted in the per-layer metrics.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the run first
measures untraced rounds, then the same number of traced rounds, and
reports the per-layer metrics and the tracing overhead.  Exits 2 without
a result when the checkout holds no package source.
"""

from __future__ import annotations

import sys

from checkout import pin_blas

pin_blas()  # before numpy is first imported

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

import checkout  # noqa: E402
import harness  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 5
PROBE = Path(__file__).resolve().parent / "probe_setup.py"


def parse_args(argv):
    parser = argparse.ArgumentParser(description="circulants benchmark")
    parser.add_argument("--workload", required=True, choices=list(workloads.GENERATORS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(workload: str, seed: int) -> list[dict]:
    """Set-up time of SETUP_REPS fresh processes, each importing the package
    and warming up every operation kind once."""
    times = []
    for _ in range(SETUP_REPS):
        done = subprocess.run(
            [sys.executable, str(PROBE), "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=170, cwd=checkout.ROOT, check=False,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        times.append(json.loads(done.stdout.splitlines()[-1]))
    return times


def write_trace(workload: str, seed: int, spans) -> Path:
    checkout.OUT.mkdir(exist_ok=True)
    path = checkout.OUT / f"trace-{workload}-{seed}.json"
    fields = ("name", "start_ns", "end_ns", "parent", "request", "failure")
    path.write_text(json.dumps({"fields": fields, "spans": spans}))
    return path


def describe(failures) -> str:
    """Failures by function and class, then by function, case, class and
    exception type."""
    breakdown = {}
    for (name, _case, cls, _exc), count in sorted(failures.items()):
        by_class = breakdown.setdefault(name, {})
        by_class[cls] = by_class.get(cls, 0) + count
    detail = [[*key, count] for key, count in sorted(failures.items(), key=str)]
    return f"by function and class {json.dumps(breakdown)}; by function, case, class and exception {json.dumps(detail)}"


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        pkg = checkout.import_circulants()
    except checkout.CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    header = checkout.provenance(args.workload, args.seed, args.seconds, bool(args.trace))
    print("provenance " + json.dumps(header), flush=True)

    def make_round(r):
        return workloads.timed(workloads.bind(pkg, workloads.generate(args.workload, args.seed, r)))

    round0 = workloads.bind(pkg, workloads.generate(args.workload, args.seed, 0))
    loop = harness.Loop(pkg.CirculantError)
    for item in workloads.warmup_items(workloads.timed(round0)):
        loop.run_item(item, harness.Recorder(traced=False))

    if args.trace:
        untraced = loop.run(make_round, args.seconds / 2, traced=False)
        rec = loop.run(make_round, 0, traced=True, rounds=untraced.rounds)
        census = loop.run(lambda r: workloads.census(round0), 0, traced=False, rounds=1)
        traced_rate, untraced_rate = harness.good_ops_per_s(rec), harness.good_ops_per_s(untraced)
        metrics = harness.per_layer(rec, census, workloads.OP_NAMES, traced_rate, untraced_rate)
        print(f"tracing overhead: good_ops_per_s traced {traced_rate:.6g} - untraced {untraced_rate:.6g}"
              f" = {traced_rate - untraced_rate:+.6g} ({(traced_rate / untraced_rate - 1) * 100:+.2f}%)"
              f" over the same {rec.rounds} rounds")
        print(f"trace: {len(rec.spans)} spans written to {write_trace(args.workload, args.seed, rec.spans)}")
        attempted = untraced.attempted + rec.attempted
        failures = untraced.failures + rec.failures
        check_errors = untraced.check_errors + rec.check_errors
        warned = untraced.warnings + rec.warnings
    else:
        setup = measure_setup(args.workload, args.seed)
        percentile = workloads.TAIL_PERCENTILE[args.workload]
        rec = loop.run(make_round, args.seconds, traced=False, min_attempted=harness.min_attempted(percentile))
        metrics, detail = harness.end_to_end(rec, percentile)  # before the census can raise the peak RSS
        metrics["setup_s"] = (statistics.median(s["setup_s"] for s in setup), "s")
        census = loop.run(lambda r: workloads.census(round0), 0, traced=False, rounds=1)
        print(f"tail: p{percentile:g} of {detail['attempted']} operations, {detail['beyond_tail']} beyond;"
              f" {detail['rounds']} rounds")
        if detail["clamped_operations"]:
            print(f"speed correction stopped at the band edge for {detail['clamped_operations']} operations:"
                  f" kernel estimates {detail['kernel_local_range_ms']} ms, band {harness.KERNEL_BAND_MS} ms")
        print("raw (uncorrected) figures: " + json.dumps(detail))
        print("setup probes: " + json.dumps(setup))
        attempted, failures, check_errors, warned = rec.attempted, rec.failures, rec.check_errors, rec.warnings

    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    failed = sum(failures.values())
    print(f"failed_frac {failed / attempted!r} fraction")
    print("timed failures: " + describe(failures))
    print("warnings by function: " + json.dumps({f"{n} {c}": k for (n, c), k in sorted(warned.items())}))
    census_failed = sum(census.failures.values())
    print(f"defect census (round 0, untimed, every call of the {len(workloads.census(round0))} items that hold a"
          f" known-defect call): {census_failed} of {census.attempted} calls failed: " + describe(census.failures))
    print("census warnings by function: "
          + json.dumps({f"{n} {c}": k for (n, c), k in sorted(census.warnings.items())}))
    unknown = sorted((key for key in census.failures if key not in workloads.KNOWN_DEFECTS), key=str)
    check_errors = check_errors + census.check_errors
    if failures or unknown or check_errors:
        print(f"failures of timed calls: {sorted(failures, key=str)}; census failures outside the known"
              f" defects: {unknown}; check errors: {check_errors}")
    result = {
        "correct": not failures and not unknown and not check_errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
