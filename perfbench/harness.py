"""The closed loop: time each public call, check it after the timer stops,
record spans when traced, and reduce the record to metrics.

One caller, one thread: the next call starts when the previous call and
its check have finished.  A run is a whole number of rounds; every round
has the same operations on fresh inputs, so every run has the same mix.

On a shared 2-vCPU VM the same code's speed changed by 2x and more,
switching every second or so, so raw times of two runs are not
comparable.  Before each item the loop times a fixed calibration kernel
(:func:`speed_kernel`, the benchmark's own code).  A call's *corrected*
time is its measured time scaled by KERNEL_REF_MS / (median time of the
kernel runs within KERNEL_REACH_S of the call), that is, the time at the
speed where the kernel takes KERNEL_REF_MS.  A call longer than
LONG_CALL_MS is followed by one more kernel run, so that it has a
yardstick on both sides.  The kernel runs without trace or profile
hooks and without the garbage collector, and its time enters clamped
to the band the host's own drift produced (KERNEL_BAND_MS), so a
process-wide slowdown the package causes is not cancelled beyond it.  The metrics are taken over all
attempted operations at their corrected times; raw figures are printed
beside them.
"""

from __future__ import annotations

import gc
import math
import resource
import sys
import time
import warnings
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

import numpy as np

WRONG_VALUE = "wrong_value"
WRONG_VERDICT = "wrong_verdict"
UNTYPED = "untyped_exception"
FAILURE_CLASSES = (WRONG_VALUE, WRONG_VERDICT, UNTYPED)

#: Samples a tail percentile needs beyond it.
TAIL_SAMPLES = 10

#: The calibration kernel's time at the reference speed (its typical time
#: on a 2-vCPU x86-64 VM, Python 3.11, when that host runs fast).
KERNEL_REF_MS = 0.3
#: Kernel times (ms) that the correction follows; outside, it stops at the
#: nearest edge.  The band spans the speed estimates of the runs behind the
#: bounds in BENCHMARK.json (0.29 to 1.33 ms; once, briefly, 2.1 ms).
KERNEL_BAND_MS = (0.25, 1.5)
#: Kernel runs up to this long before a call starts or after it ends set
#: the call's speed estimate (the nearest run if there is none).
KERNEL_REACH_S = 0.25
#: A call longer than this gets a kernel run right after it.
LONG_CALL_MS = 20.0


def speed_kernel():
    """Fixed work like the package's: complex loops, Fractions, an FFT."""
    a = [complex(i, 1.0) for i in range(40)]
    out = [0j] * 40
    for i, x in enumerate(a):
        for j, y in enumerate(a):
            k = i + j
            if k >= 40:
                k -= 40
            out[k] += x * y
    s = Fraction(0)
    for k in range(1, 40):
        s += Fraction(1, k)
    np.fft.fft(np.arange(512.0))
    return out, s


def time_kernel() -> int:
    """One kernel run in ns, with the collector off and no trace or profile
    hook, so that neither the package's heap nor a hook it installs enters
    the yardstick (and is cancelled by it)."""
    collecting, trace, profile = gc.isenabled(), sys.gettrace(), sys.getprofile()
    gc.disable()
    sys.settrace(None)
    sys.setprofile(None)
    try:
        start = time.perf_counter_ns()
        speed_kernel()
        return time.perf_counter_ns() - start
    finally:
        sys.setprofile(profile)
        sys.settrace(trace)
        if collecting:
            gc.enable()


@dataclass(frozen=True)
class Step:
    """One timed public call.

    ``call`` gets the item's state (results kept by earlier steps).
    ``check`` returns a failure class for a returned value, or None.
    ``expect`` is set when the input calls for a typed error: it returns
    a failure class for the raised error (say, a wrong witness), or None.
    """

    name: str
    call: Callable[[dict], Any]
    check: Callable[[Any], str | None] | None = None
    expect: Callable[[BaseException], str | None] | None = None
    keep: str | None = None


@dataclass(frozen=True)
class Item:
    """One input and the steps run on it; one request of the trace.

    ``case`` names the input's order and class (say ``n=16
    well_conditioned``); failures are recorded under it.
    """

    kind: str
    case: str
    steps: tuple[Step, ...]


def classify(step: Step, out, err: BaseException | None, typed_error: type) -> str | None:
    if err is not None:
        if not isinstance(err, typed_error):
            return UNTYPED
        return step.expect(err) if step.expect is not None else WRONG_VERDICT
    if step.expect is not None:
        return WRONG_VERDICT
    return step.check(out) if step.check is not None else None


@dataclass
class Recorder:
    """Everything one phase of a run measured."""

    traced: bool
    starts_ns: list[int] = field(default_factory=list)
    latencies_ns: list[int] = field(default_factory=list)
    kernel_at_ns: list[int] = field(default_factory=list)  # before each item and after each long call
    kernel_ns: list[int] = field(default_factory=list)
    good: int = 0
    #: (step name, item case, failure class, exception type or None) -> count
    failures: Counter = field(default_factory=Counter)
    check_errors: list[str] = field(default_factory=list)
    warnings: Counter = field(default_factory=Counter)  # (step name, category) -> count
    #: (name, start_ns, end_ns, parent span index, request id, failure class)
    spans: list[tuple] = field(default_factory=list)
    requests: int = 0
    rounds: int = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies_ns)

    def sample_kernel(self) -> None:
        self.kernel_at_ns.append(time.perf_counter_ns())
        self.kernel_ns.append(time_kernel())


class Loop:
    """Runs items and records them; catches warnings per step."""

    def __init__(self, typed_error: type):
        self.typed_error = typed_error
        self.current = "harness"
        self.rec: Recorder | None = None

    def _on_warning(self, message, category, filename, lineno, file=None, line=None):
        if self.rec is not None:
            self.rec.warnings[(self.current, category.__name__)] += 1

    def run_item(self, item: Item, rec: Recorder) -> None:
        rec.sample_kernel()
        state: dict = {}
        request = rec.requests
        rec.requests += 1
        root = len(rec.spans)
        if rec.traced:
            rec.spans.append(None)  # the request's own span, filled in below
            root_start = time.perf_counter_ns()
        for step in item.steps:
            self.current = step.name
            err = out = None
            start = time.perf_counter_ns()
            try:
                out = step.call(state)
            except Exception as exc:  # every outcome is classified, none ends the run
                err = exc
            end = time.perf_counter_ns()
            try:
                failure = classify(step, out, err, self.typed_error)
            except Exception as exc:  # output too broken for the check itself
                failure = WRONG_VALUE
                if len(rec.check_errors) < 20:
                    rec.check_errors.append(f"{step.name}: {type(exc).__name__}: {exc}")
            if step.keep is not None and err is None:
                state[step.keep] = out
            rec.starts_ns.append(start)
            rec.latencies_ns.append(end - start)
            if end - start > LONG_CALL_MS * 1e6:
                rec.sample_kernel()
            if failure is None:
                rec.good += 1
            else:
                exc = type(err).__name__ if failure == UNTYPED else None
                rec.failures[(step.name, item.case, failure, exc)] += 1
            if rec.traced:
                rec.spans.append((step.name, start, end, root, request, failure))
        if rec.traced:
            rec.spans[root] = (f"request.{item.kind}", root_start, time.perf_counter_ns(), None, request, None)
        self.current = "harness"

    def run(self, make_round: Callable[[int], list[Item]], seconds: float, traced: bool,
            rounds: int | None = None, min_attempted: int = 0) -> Recorder:
        """Whole rounds 1, 2, ... until ``seconds`` have passed and at least
        ``min_attempted`` operations were made (or exactly ``rounds``);
        ``make_round(r)`` builds round r outside the timers."""
        rec = Recorder(traced=traced)
        self.rec = rec
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            warnings.showwarning = self._on_warning
            while True:
                items = make_round(rec.rounds + 1)
                gc.collect()  # every round starts with the generator's garbage gone
                for item in items:
                    self.run_item(item, rec)
                rec.rounds += 1
                if rounds is not None:
                    if rec.rounds >= rounds:
                        break
                elif time.perf_counter() - start >= seconds and rec.attempted >= min_attempted:
                    break
        self.rec = None
        return rec


def min_attempted(percentile: float) -> int:
    """Operations a run needs for TAIL_SAMPLES of them to lie beyond
    ``percentile``."""
    return math.ceil(TAIL_SAMPLES * 100.0 / (100.0 - percentile))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def local_kernel_ms(rec: Recorder) -> np.ndarray:
    """Each call's speed estimate, unclamped: the median kernel time of the
    runs within KERNEL_REACH_S of the call."""
    at = np.asarray(rec.kernel_at_ns)
    kernel = np.asarray(rec.kernel_ns, dtype=float) / 1e6
    starts = np.asarray(rec.starts_ns)
    reach = int(KERNEL_REACH_S * 1e9)
    lo = np.searchsorted(at, starts - reach)
    hi = np.searchsorted(at, starts + np.asarray(rec.latencies_ns) + reach)
    nearest = np.clip(np.searchsorted(at, starts) - 1, 0, at.size - 1)
    return np.array([np.median(kernel[a:b]) if b > a else kernel[k] for a, b, k in zip(lo, hi, nearest)])


def corrected_ms(rec: Recorder) -> np.ndarray:
    """Every operation's time at the reference speed, in order."""
    local = np.clip(local_kernel_ms(rec), *KERNEL_BAND_MS)
    lat = np.asarray(rec.latencies_ns, dtype=float) / 1e6
    return lat * KERNEL_REF_MS / local


def good_ops_per_s(rec: Recorder) -> float:
    """Good operations per second of corrected busy time."""
    return float(rec.good / (corrected_ms(rec).sum() / 1e3))


def end_to_end(rec: Recorder, percentile: float) -> tuple[dict, dict]:
    """The end-to-end metrics (setup_s aside), and the raw figures; the
    tail is taken at ``percentile``."""
    times = corrected_ms(rec)
    tail = float(np.percentile(times, percentile))
    metrics = {
        "good_ops_per_s": (good_ops_per_s(rec), "1/ref_s"),
        "latency_p50_ms": (float(np.percentile(times, 50)), "ref_ms"),
        "latency_tail_ms": (tail, "ref_ms"),
        "good_frac": (rec.good / rec.attempted, "fraction"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    raw = np.asarray(rec.latencies_ns, dtype=float) / 1e6
    kernel_ms = float(np.median(rec.kernel_ns)) / 1e6
    local = local_kernel_ms(rec)
    detail = {
        "tail_percentile": percentile,
        "beyond_tail": int(np.sum(times > tail)),
        "attempted": rec.attempted,
        "rounds": rec.rounds,
        "raw_good_ops_per_s": rec.good / (raw.sum() / 1e3),
        "raw_latency_p50_ms": float(np.percentile(raw, 50)),
        "raw_latency_tail_ms": float(np.percentile(raw, percentile)),
        "kernel_median_ms": kernel_ms,
        "kernel_local_range_ms": [float(local.min()), float(local.max())],
        "clamped_operations": int(np.sum((local < KERNEL_BAND_MS[0]) | (local > KERNEL_BAND_MS[1]))),
    }
    return metrics, detail


def per_layer(rec: Recorder, census: Recorder, op_names, traced_rate: float, untraced_rate: float) -> dict:
    """Per-function calls / busy_s from the spans (raw times) and failed
    from the spans and the defect census, plus the census totals, the
    failure classes, warnings and the traced and untraced throughput."""
    calls = Counter()
    busy = Counter()
    failed = Counter()
    for name, start, end, parent, _request, failure in rec.spans:
        if parent is None:
            continue
        calls[name] += 1
        busy[name] += end - start
        if failure is not None:
            failed[name] += 1
    for (name, _case, _cls, _exc), count in census.failures.items():
        failed[name] += count
    out = {}
    for name in op_names:
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.busy_s"] = (busy[name] / 1e9, "s")
        out[f"{name}.failed"] = (failed[name], "count")
    out["census.calls"] = (census.attempted, "count")
    out["census.failed"] = (sum(census.failures.values()), "count")
    by_class = Counter()
    for (_name, _case, cls, _exc), count in (rec.failures + census.failures).items():
        by_class[cls] += count
    for cls in FAILURE_CLASSES:
        out[f"failed.{cls}"] = (by_class[cls], "count")
    warned = rec.warnings + census.warnings
    out["numpy.runtime_warnings"] = (sum(c for (_n, cat), c in warned.items() if cat == "RuntimeWarning"), "count")
    out["trace.good_ops_per_s"] = (traced_rate, "1/ref_s")
    out["trace.untraced_good_ops_per_s"] = (untraced_rate, "1/ref_s")
    out["trace.kernel_median_ms"] = (float(np.median(rec.kernel_ns)) / 1e6, "ms")
    return out
