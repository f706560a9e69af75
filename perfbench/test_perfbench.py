"""Tests of the benchmark itself: span arithmetic, percentiles, wrapping, smoke runs.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import types

import pytest

from perlayer import PER_LAYER, per_layer_metrics
from tracer import Tracer, TraceTargetMissing, percentile, self_times

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)


def test_self_time_is_span_minus_children():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("a.child", 2.0, 3.0, 1),
        ("b", 5.0, 7.0, 0),
        ("leaf", 8.0, 8.5, 0),
    ]
    assert self_times(spans) == pytest.approx([10.0 - 3.0 - 2.0 - 0.5, 2.0, 1.0, 2.0, 0.5])


def test_self_time_counts_overlapping_children_once():
    spans = [("root", 0.0, 4.0, -1), ("x", 1.0, 3.0, 0), ("y", 2.0, 5.0, 0)]
    assert self_times(spans)[0] == pytest.approx(1.0)


@pytest.mark.parametrize(
    "values, q, want",
    [([5.0], 99, 5.0), ([1, 2, 3, 4], 50, 2.5), ([4, 1, 3, 2], 0, 1), ([1, 2, 3, 4], 100, 4),
     (list(range(101)), 99, 99.0), ([0, 10], 25, 2.5)],
)
def test_percentile(values, q, want):
    assert percentile(values, q) == pytest.approx(want)


def test_percentile_of_nothing_raises():
    with pytest.raises(ValueError):
        percentile([], 50)


def test_tracer_nests_counts_and_restores():
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    original = mod.outer
    tracer = Tracer()
    tracer.install([
        (mod, "outer", "m.outer", None),
        (mod, "inner", "m.inner", lambda args, kwargs, result: {"m.seen": args[0]}),
    ])
    try:
        assert mod.outer(1) == 4 and mod.outer(2) == 6
    finally:
        tracer.uninstall()
    assert mod.outer is original
    summary = tracer.summary()
    assert summary["m.outer"]["calls"] == 2 and summary["m.inner"]["calls"] == 2
    assert [s[3] for s in tracer.spans] == [-1, 0, -1, 2]
    assert tracer.counters == {"m.seen": 3}


def test_missing_target_fails_loudly_and_unwinds():
    mod = types.SimpleNamespace(kept=lambda: None)
    original = mod.kept
    tracer = Tracer()
    with pytest.raises(TraceTargetMissing, match="renamed_away"):
        tracer.install([(mod, "kept", "m.kept", None), (mod, "renamed_away", "m.gone", None)])
    assert mod.kept is original


def test_uncalled_layer_is_absent_not_zero():
    rows = per_layer_metrics({}, {}, {})
    assert all(absent and value == 0.0 for _, value, _, absent in rows)


def test_per_layer_list_matches_benchmark_json():
    assert [(n, u, b) for n, u, b, _ in PER_LAYER] == [
        (m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]
    ]


def _run(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_metric(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in want}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
