"""Tests of the benchmark itself, on tiny versions of its workloads."""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from vgsolve import engine  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_self_time_is_span_time_minus_child_cover():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 5.0, 6.0, 7.0, 7.5, 9.5, 10.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    with tracer.op("check"):                 # 0 .. 10
        verdict = tracer.begin("engine.verdict")  # 1 .. 7
        rank = tracer.begin("engine.rank")        # 2 .. 3
        tracer.end(rank)
        kernel = tracer.begin("engine.kernel")    # 5 .. 6
        tracer.end(kernel)
        tracer.end(verdict)
        exact = tracer.begin("engine.exact")      # 7.5 .. 9.5
        tracer.end(exact)
    assert spans.self_times(tracer.spans) == [10 - 6 - 2, 7 - 1 - 1 - 1, 1, 1, 2]
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 1, 0]
    assert {s.op for s in tracer.spans} == {0}
    metrics = spans.layer_metrics(tracer.spans, graphs_decided=1)
    assert metrics["engine.verdict.self_s"] == 4
    assert metrics["engine.factorizations_per_graph"] == 2


def test_wrong_verdict_counts_as_failed_op(tmp_path):
    original = engine.finite_solvability

    def flipped(*args, **kwargs):
        report = original(*args, **kwargs)
        return dataclasses.replace(report, finite_solvable=not report.finite_solvable)

    workload = workloads.Exact().tiny()
    inputs = workload.inputs(1, tmp_path)
    undo = spans.replace_everywhere(original, flipped)
    try:
        rep = run.run_rep(workload, inputs)
    finally:
        spans.restore(undo)
    assert rep.failed == len(workload.graphs)  # every check op, no exact-rank op
    assert run.run_rep(workload, inputs).failed == 0


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == spans.PER_LAYER_UNITS


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_second_seed_runs_cleanly(name, tmp_path):
    workload = workloads.WORKLOADS[name].tiny()
    assert workload.inputs(1, tmp_path) != workload.inputs(2, tmp_path) or name == "mine"
    for trace, units in ((False, run.END_TO_END_UNITS), (True, spans.PER_LAYER_UNITS)):
        result = run.measure(workload, 2, 0, trace, tmp_path)
        assert (result["correct"], result["failed"]) == (True, 0)
        assert result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units
