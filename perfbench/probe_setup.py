"""One set-up measurement in a fresh process, for ``run.py``.

Generates the workload's round-0 inputs (not timed), then times the
package import plus one warm-up call of every operation kind, and prints
``{"setup_s": ...}``, corrected for the host's speed like every other
time (see harness.py), by a kernel timed before the package is imported.
Binding inputs to the package is excluded.
"""

from __future__ import annotations

import sys
import time

from checkout import pin_blas

pin_blas()  # before numpy is first imported

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402

import checkout  # noqa: E402
import harness  # noqa: E402
import workloads  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    args = parser.parse_args(argv)
    inputs = workloads.generate(args.workload, args.seed, 0)
    kernel_ns = [harness.time_kernel() for _ in range(20)][5:]  # the first runs are cold
    start = time.perf_counter()
    pkg = checkout.import_circulants()
    imported = time.perf_counter()
    items = workloads.warmup_items(workloads.timed(workloads.bind(pkg, inputs)))
    bound = time.perf_counter()
    loop = harness.Loop(pkg.CirculantError)
    for item in items:
        loop.run_item(item, harness.Recorder(traced=False))
    warmed = time.perf_counter()
    kernel_ms = statistics.median(kernel_ns) / 1e6
    raw = (imported - start) + (warmed - bound)
    scale = harness.KERNEL_REF_MS / min(max(kernel_ms, harness.KERNEL_BAND_MS[0]), harness.KERNEL_BAND_MS[1])
    print(json.dumps({"setup_s": raw * scale, "raw_setup_s": raw, "kernel_ms": kernel_ms}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
