"""The benchmark's own tests.

    python3 -m pytest -q perfbench/selftest.py

Every workload runs at a tiny size, no defect-prone call is timed,
corrupted results count as failed, inputs follow the seed, and
BENCHMARK.json names what the runs print.
"""

from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction

import pytest

import checkout

checkout.pin_blas()

import harness  # noqa: E402
import refs  # noqa: E402
import workloads  # noqa: E402

pkg = checkout.import_circulants()
BENCH = json.loads((checkout.ROOT / "BENCHMARK.json").read_text())


def _items(workload, seed=1, round_index=1):
    return workloads.bind(pkg, workloads.generate(workload, seed, round_index))


def _step(workload, name, kind=None):
    for item in _items(workload):
        for step in item.steps:
            if step.name == name and (kind is None or item.kind == kind):
                return item, step
    raise LookupError(name)


@pytest.mark.parametrize("workload", list(workloads.GENERATORS))
def test_workload_runs_at_tiny_size(workload):
    loop = harness.Loop(pkg.CirculantError)
    tiny = workloads.warmup_items(workloads.timed(_items(workload)))
    rec = loop.run(lambda r: tiny, 0, traced=True, rounds=1)
    names = {step.name for item in tiny for step in item.steps}
    assert rec.attempted == sum(len(item.steps) for item in tiny)
    assert names <= set(workloads.OP_NAMES)
    assert not rec.check_errors
    assert not rec.failures
    census = loop.run(lambda r: workloads.census(_items(workload)[:3]), 0, traced=False, rounds=1)
    assert not census.check_errors
    assert set(census.failures) <= workloads.KNOWN_DEFECTS
    metrics = harness.per_layer(rec, census, workloads.OP_NAMES, 1.0, 1.0)
    assert sum(metrics[f"{n}.calls"][0] for n in names) == rec.attempted
    assert metrics["census.failed"][0] == sum(census.failures.values())


def test_no_defect_prone_call_is_timed():
    for workload in workloads.GENERATORS:
        items = _items(workload)
        timed = workloads.timed(items)
        assert not any((s.name, i.case) in workloads.DEFECT_PRONE for i in timed for s in i.steps)
        prone = sum((s.name, i.case) in workloads.DEFECT_PRONE for i in items for s in i.steps)
        in_census = sum((s.name, i.case) in workloads.DEFECT_PRONE for i in workloads.census(items) for s in i.steps)
        assert in_census == prone
        assert sum(len(i.steps) for i in timed) == sum(len(i.steps) for i in items) - prone
    # The case n=16 singular keeps its inverse and verdict timed; its forms go to the census.
    (item,) = [i for i in workloads.timed(_items("forms-inverse")) if i.case == "n=16 singular"]
    assert [s.name for s in item.steps] == ["forms.inverse", "forms.is_invertible"]


@pytest.mark.parametrize("workload", list(workloads.GENERATORS))
def test_seed_decides_inputs(workload):
    def fingerprints(seed, round_index):
        return [repr((inp.kind, sorted(inp.data.items()))) for inp in workloads.generate(workload, seed, round_index)]

    first = fingerprints(7, 1)
    assert first == fingerprints(7, 1)
    assert first != fingerprints(8, 1)
    assert first != fingerprints(7, 2)  # every round draws fresh values


def test_perturbed_product_counts_as_failed():
    item, step = _step("spectral-pow2", "spectral.fast_mul")
    good = step.call({"x": item.steps[0].call({}), "y": item.steps[1].call({})})
    assert harness.classify(step, good, None, pkg.CirculantError) is None
    bad = pkg.Circulant((good.coeffs[0] + 1e-6,) + good.coeffs[1:])
    assert harness.classify(step, bad, None, pkg.CirculantError) == harness.WRONG_VALUE


def test_wrong_witness_counts_as_failed():
    inp = next(i for i in workloads.generate("forms-inverse", 1, 1) if i.data["class"] == "singular")
    steps = {s.name: s for s in workloads.bind(pkg, [inp])[0].steps}
    (slot,) = inp.ref["zeros"]
    other = slot % len(inp.data["x"]) + 1
    verdict = pkg.InvertibilityVerdict(False, slot, 0j, 1.0)
    assert harness.classify(steps["forms.is_invertible"], verdict, None, pkg.CirculantError) is None
    wrong = pkg.InvertibilityVerdict(False, other, 0j, 1.0)
    assert harness.classify(steps["forms.is_invertible"], wrong, None, pkg.CirculantError) == harness.WRONG_VERDICT
    inverse = steps["forms.inverse"]
    right_error = pkg.SingularMatrixError("singular", witness=slot)
    assert harness.classify(inverse, None, right_error, pkg.CirculantError) is None
    wrong_error = pkg.SingularMatrixError("singular", witness=other)
    assert harness.classify(inverse, None, wrong_error, pkg.CirculantError) == harness.WRONG_VERDICT
    assert harness.classify(inverse, None, OverflowError("x"), pkg.CirculantError) == harness.UNTYPED


def test_corrupted_cli_output_counts_as_failed():
    item, step = _step("cli-documents", "cli.eig")
    code, out, err = step.call({})
    assert harness.classify(step, (code, out, err), None, pkg.CirculantError) is None
    doc = json.loads(out)
    doc["values"][0][0] = repr(float(doc["values"][0][0]) + 1e-3)
    corrupted = (code, json.dumps(doc), err)
    assert harness.classify(step, corrupted, None, pkg.CirculantError) == harness.WRONG_VALUE
    assert harness.classify(step, (1, out, err), None, pkg.CirculantError) == harness.WRONG_VERDICT


def test_known_defects_name_order_class_and_exception():
    item, step = _step("forms-inverse", "forms.forms", kind="forms")
    assert item.case == "n=8 well_conditioned"
    rec = harness.Recorder(traced=False)
    broken = harness.Step(step.name, lambda s: pkg.forms(None), step.check)
    harness.Loop(pkg.CirculantError).run_item(harness.Item(item.kind, item.case, (broken,)), rec)
    (key,) = rec.failures
    assert key[:3] == ("forms.forms", "n=8 well_conditioned", harness.UNTYPED)
    assert key not in workloads.KNOWN_DEFECTS
    assert ("forms.forms", "n=8 well_conditioned", harness.WRONG_VALUE, None) not in workloads.KNOWN_DEFECTS
    assert ("forms.is_invertible", "n=256", harness.UNTYPED, "OverflowError") in workloads.KNOWN_DEFECTS
    assert ("forms.is_invertible", "n=256", harness.UNTYPED, "TypeError") not in workloads.KNOWN_DEFECTS


def test_exact_reference_char_poly():
    # circ(2, 1, 1) has spectrum (4, 1, 1): (X - 4)(X - 1)^2.
    assert refs.char_poly_exact([Fraction(2), Fraction(1), Fraction(1)]) == (1, -6, 9, -4)
    assert refs.poly_from_roots([4, 1, 1]) == (1, -6, 9, -4)


def test_benchmark_json_names_what_runs_print():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.GENERATORS)
    rec = harness.Loop(pkg.CirculantError).run(lambda r: _items("spectral-pow2", 1, r), 0, traced=True, rounds=1)
    e2e, _ = harness.end_to_end(rec, workloads.TAIL_PERCENTILE["spectral-pow2"])
    assert [m["name"] for m in BENCH["end_to_end"]] == [*e2e, "setup_s"]
    layer = harness.per_layer(rec, rec, workloads.OP_NAMES, 1.0, 1.0)
    assert [m["name"] for m in BENCH["per_layer"]] == list(layer)
    units = {m["name"]: m["unit"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}
    assert all(units[name] == unit for name, (_v, unit) in {**e2e, **layer}.items())


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_the_result_line(trace):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "spectral-pow2", "--seed", "3", "--seconds", "0.01",
         "--trace", trace],
        cwd=checkout.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["attempted"] >= 1
    kind = "per_layer" if trace == "1" else "end_to_end"
    assert sorted(result["metrics"]) == sorted(m["name"] for m in BENCH[kind])
