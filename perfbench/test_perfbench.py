"""Tests of the benchmark's own machinery: tracing, answer checks, deadlines."""

import json
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import bench_tasks  # noqa: E402
import bench_trace  # noqa: E402
import run  # noqa: E402
import qperiods.cli  # noqa: E402,F401  (the tracer wraps every loaded layer)
from qperiods import localfield, qform, ratfunc  # noqa: E402


def test_wrapped_call_returns_identical_value_and_unwrap_restores():
    field = localfield.make_field(2)
    original = localfield.quadratic_defect
    original_mul = ratfunc.Poly.__dict__["__mul__"]
    p = ratfunc.Poly.var(0) + 1
    want_defect = original(field, 3)
    want_square = p * p
    tracer = bench_trace.Tracer()
    tracer.install()
    try:
        assert localfield.quadratic_defect is not original
        # the alias bound by `from .localfield import quadratic_defect`
        assert qform.quadratic_defect is localfield.quadratic_defect
        assert localfield.quadratic_defect(field, 3) == want_defect
        assert p * p == want_square
        metrics = tracer.metrics()
    finally:
        tracer.uninstall()
    assert localfield.quadratic_defect is original
    assert qform.quadratic_defect is original
    assert ratfunc.Poly.__dict__["__mul__"] is original_mul
    assert ratfunc.Poly.__dict__["__rmul__"] is original_mul
    assert metrics["localfield.quadratic_defect.calls"] == 1
    assert metrics["ratfunc.Poly.mul.calls"] >= 1
    assert metrics["localfield.quadratic_defect.self_s"] >= 0
    # every per-layer metric but the overhead comes from the tracer
    names = [name for name, _, _ in bench_trace.metric_specs()]
    assert sorted(metrics) == sorted(names[:-1])


def test_perturbed_fraction_is_reported_as_failure():
    tasks = {t["id"]: t for t in bench_tasks.build("deep-count", 0)}
    recorded = tasks["q3-quat-l8"]
    closed = tasks["q4-quat-l5"]
    for task, right in ((recorded, Fraction(recorded["expect"])),
                        (closed, Fraction(1, 4096))):
        assert bench_tasks.check(task, str(right))[0]
        wrong = right + Fraction(1, 10 ** 12)
        assert not bench_tasks.check(task, str(wrong))[0]


def test_period_value_outside_dirichlet_bracket_is_a_failure():
    from qperiods.periods import evaluate_period
    task = {"id": "p", "kind": "period", "n": 6, "alpha": 9, "p_max": 1000}
    pv = evaluate_period(6, 9, 1000)
    lo, hi = bench_tasks.period_bracket(6, 9)
    assert hi - lo < pv.tail_bound / 1000
    result = {"value": bench_tasks.frac_to_hex(pv.value),
              "tail": bench_tasks.frac_to_hex(pv.tail_bound)}
    assert bench_tasks.check(task, result)[0]
    result["value"] = bench_tasks.frac_to_hex(pv.value + 3 * pv.tail_bound)
    assert not bench_tasks.check(task, result)[0]


def test_tiny_deadline_counts_as_failure_without_hanging():
    tasks = [{"id": "row-3", "kind": "row", "n": 3}]
    t0 = perf_counter()
    result = run.run_pass(tasks, deadline=1e-6)
    assert perf_counter() - t0 < 60
    failed, wrong = run.check_pass(tasks, result, {})
    assert (failed, wrong) == (1, 0)
    assert "deadline" in result["records"][0]["error"]


def test_benchmark_json_lists_the_reported_metrics():
    with open(HERE.parent / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert ([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
            == bench_trace.metric_specs())
    assert {w["name"] for w in spec["workloads"]} <= set(bench_tasks.WORKLOADS)
