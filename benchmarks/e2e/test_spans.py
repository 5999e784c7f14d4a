"""Span arithmetic, wrapper lifetime and the benchmark's declared metrics.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

import child
import run
import spans
import workloads

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def scripted_clock(*times: float):
    ticks = iter(times)
    return lambda: next(ticks)


def test_self_time_subtracts_the_time_children_cover():
    # root [0, 10] holds a [1, 3] (which holds b [1.5, 2]) and c [4, 5].
    recorder = spans.SpanRecorder(clock=scripted_clock(0, 1, 1.5, 2, 3, 4, 5, 10))
    root = recorder.open("root")
    a = recorder.open("a")
    b = recorder.open("b")
    recorder.close(b)
    recorder.close(a)
    c = recorder.open("c")
    recorder.close(c)
    recorder.close(root)
    stats = recorder.stats
    assert stats["root"].total_s == 10 and stats["root"].self_s == 7
    assert stats["a"].total_s == 2 and stats["a"].self_s == 1.5
    assert stats["b"].self_s == 0.5 and stats["c"].self_s == 1
    assert recorder.spans == [
        ("root", 0, 10, -1), ("a", 1, 3, 0), ("b", 1.5, 2, 1), ("c", 4, 5, 0),
    ]
    events = recorder.chrome_trace({})["traceEvents"]
    assert [(e["name"], e["args"]["parent"]) for e in events] == [
        ("root", -1), ("a", 0), ("b", 1), ("c", 0),
    ]


def test_raw_spans_are_capped_but_aggregates_count_every_call():
    recorder = spans.SpanRecorder(cap=2)
    for _ in range(5):
        with recorder.span("x"):
            pass
    assert len(recorder.spans) == 2 and recorder.dropped == 3
    assert recorder.stats["x"].calls == 5


def test_timed_iter_counts_items_and_the_final_stop():
    recorder = spans.SpanRecorder()
    assert list(spans.timed_iter(recorder, "it", [1, 2, 3])) == [1, 2, 3]
    stats = recorder.stats["it"]
    assert stats.calls - stats.raised == 3 and stats.raised == 1


def _snapshot(targets):
    """Owner-level value of every resolvable target attribute."""
    state = {}
    for module, path, *_rest in targets:
        try:
            owner, attribute, _current = spans._resolve(module, path)
        except (ImportError, AttributeError):
            continue
        state[(module, path)] = (owner, vars(owner).get(attribute, spans._ABSENT))
    return state


def test_missing_wrap_target_is_reported_and_skipped():
    targets = spans.TARGETS[:1] + (
        ("repro.fleet.controlplane", "ControlPlane.no_such_method", "x",
         spans.CALL, None, None),
        ("repro.no_such_module", "f", "y", spans.CALL, None, None),
    )
    before = _snapshot(targets)
    recorder = spans.SpanRecorder()
    with spans.traced(recorder, targets) as missing:
        assert missing == ["repro.fleet.controlplane:ControlPlane.no_such_method",
                           "repro.no_such_module:f"]
        from repro.sim import Environment

        Environment().run(until=1.0)
    assert recorder.stats["sim.run"].calls == 1
    assert _snapshot(targets) == before
    metrics = spans.layer_metrics(recorder, 1, 1.0, 1.0, missing)
    assert metrics["trace.missing_targets"] == 2


def test_traced_run_matches_untraced_and_removes_every_wrapper():
    before = _snapshot(spans.TARGETS)
    untraced = workloads.build("fleet-saturated", 0).iterate()
    traced = child.run_traced("fleet-saturated", 0, untraced_s=1.0)
    assert _snapshot(spans.TARGETS) == before
    assert traced["missing"] == []
    assert traced["outputs"][0]["digest"] == untraced.digest
    assert untraced.digest == run.load_pins()["fleet-saturated"]["0"]["digest"]
    layer = traced["per_layer"]
    assert layer["fleet.controlplane.dispatch.calls"] == 9275
    assert layer["fleet.controlplane.dispatch.scanned"] == 565_636
    assert layer["sim.events"] > 0 and layer["trace.overhead_ratio"] > 0


def test_benchmark_json_declares_what_the_driver_reports():
    bench = json.loads(BENCHMARK_JSON.read_text())
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert bench["paths"] == ["benchmarks/e2e"]
    gated = {w["name"] for w in bench["workloads"]}
    assert gated | {"shard-process"} == set(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (name, unit, better) for name, unit, better, _moves in spans.PER_LAYER]
    assert len(bench["end_to_end"]) <= 16 and len(bench["per_layer"]) <= 128
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"]) <= 0.25


@pytest.mark.parametrize("field", ["conserved", "digest"])
def test_a_failed_iteration_is_counted_not_fatal(field):
    good = {"digest": "d", "conserved": True}
    bad = dict(good, **{field: False if field == "conserved" else "other"})
    children = [{"offered_jobs": 5, "outputs": [good, good]},
                {"offered_jobs": 5, "outputs": [bad]}]
    check = run.verify("no-pins-for-this-workload", 0, children)
    assert (check["attempted"], check["failed"], check["digest"]) == (3, 1, "d")
