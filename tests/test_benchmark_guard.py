"""The frozen benchmark in perfbench/ still traces the package it measures.

perfbench wraps package functions by name and raises TraceError when one
is gone, so a rename or a move in src/ breaks the benchmark.  This runs one
traced call of each sweep workload and of diagnose, the workload that
reaches rmt, and one traced batch of theory queries, one per (alpha, gamma)
pair of that workload, in-process; a fit path or a root finder that stops
reaching a listed name fails here.  ``python3 perfbench/selftest.py`` checks
every workload but takes minutes.
"""

import importlib
from pathlib import Path

import powerlaw_ridge
import powerlaw_ridge.cli  # noqa: F401 - the sweep workloads call pr.cli.main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def run_traced(name, calls, monkeypatch, tmp_path):
    """Make `calls` traced calls of workload `name`; return the names it did
    not reach, the operations that failed and the problems found."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    workloads = importlib.import_module("workloads")
    workload = getattr(workloads, name)(powerlaw_ridge, seed=1, scratch=tmp_path)
    failed, problems = 0, []
    with tracing.Tracer() as tracer:  # TraceError if a wrapped name is gone
        for i in range(calls):
            inp = workload.input(i)
            tracer.active = True
            try:
                result, error = workload.call(inp), None
            except Exception as exc:  # noqa: BLE001 - the check counts it as failed
                result, error = None, exc
            tracer.active = False
            outcome = workload.check(inp, result, error)
            failed += outcome.failed
            problems += outcome.problems
    hits = {name: entry["calls"] for name, entry in tracer.layer_stats().items()}
    hits.update({name: tracer.counters[name] for name in tracing.HYP2F1_BRANCHES})
    return [name for name in workload.reaches if not hits.get(name)], failed, problems


def test_traced_diagnose_call_reaches_every_expected_span(monkeypatch, tmp_path):
    assert run_traced("Diagnose", 1, monkeypatch, tmp_path) == ([], 0, [])


def test_traced_theory_batch_reaches_every_expected_span(monkeypatch, tmp_path):
    # 25 queries cycle once through the workload's 5 x 5 (alpha, gamma)
    # pairs, gamma = 0 among them
    assert run_traced("Theory", 25, monkeypatch, tmp_path) == ([], 0, [])


def test_traced_tradeoff_call_reaches_every_expected_span(monkeypatch, tmp_path):
    assert run_traced("Tradeoff", 1, monkeypatch, tmp_path) == ([], 0, [])


def test_traced_normgrowth_call_reaches_every_expected_span(monkeypatch, tmp_path):
    assert run_traced("NormGrowth", 1, monkeypatch, tmp_path) == ([], 0, [])
