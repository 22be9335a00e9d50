"""The frozen benchmark in perfbench/ still traces the package it measures.

perfbench wraps package functions by name and raises TraceError when one
is gone, so a rename or a move in src/ breaks the benchmark.  This runs one
traced diagnose call, the workload that reaches rmt, in-process;
``python3 perfbench/selftest.py`` checks every workload but takes minutes.
"""

import importlib
from pathlib import Path

import powerlaw_ridge

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_diagnose_call_reaches_every_expected_span(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    workloads = importlib.import_module("workloads")
    workload = workloads.Diagnose(powerlaw_ridge, seed=1, scratch=tmp_path)
    inp = workload.input(0)
    with tracing.Tracer() as tracer:  # TraceError if a wrapped name is gone
        tracer.active = True
        report = workload.call(inp)
        tracer.active = False
    hits = {name: entry["calls"] for name, entry in tracer.layer_stats().items()}
    hits.update({name: tracer.counters[name] for name in tracing.HYP2F1_BRANCHES})
    assert [name for name in workload.reaches if not hits[name]] == []
    outcome = workload.check(inp, report, None)
    assert outcome.failed == 0, outcome.problems
