"""Benchmark of the powerlaw_ridge package: one workload per run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tradeoff --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): tradeoff, normgrowth, theory, diagnose.
BENCHMARK.json names the workloads it gates and the metrics a run reports.
It gates all but theory: its pure-Python timings spread too far
from run to run on a shared 2-core host to hold any bound the contract
allows.  It stays runnable, and it is the only workload that reaches every
hyp2f1 branch.

With ``--trace 0`` the run makes calls until they have taken ``--seconds``
of wall time, with tracing off, and reports the end-to-end metrics.  With
``--trace 1`` it makes the workload's fixed number of calls
(``trace_calls``) untraced, repeats the same calls with every listed
package function wrapped in a span, and reports the per-layer metrics, the
tracing overhead and two probes (hyp2f1 accuracy against mpmath, single-
over multi-threaded fit_ridge).  The count is fixed so that per-layer
totals cover the same work on any host.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record,
with provenance, every call latency and the sha256 of every sweep export,
goes to ``perfbench/out/<workload>-seed<seed>-trace<t>.json``; a traced
run also writes its spans next to it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from common import (
    BENCH_DIR,
    OUT_DIR,
    REPO_ROOT,
    THREAD_VARS,
    cap_blas_threads,
    import_package,
    nproc,
)

# the thread cap must precede the first numpy import, which workloads makes
cap_blas_threads()
import workloads  # noqa: E402

WORKLOAD_NAMES = tuple(workloads.WORKLOADS)
# fresh interpreters timed per run for setup_s, spread evenly over the
# measured time; the median is reported
SETUP_REPEATS = 9
# a tail percentile is reported only with at least this many calls beyond it
TAIL_BEYOND = 10


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="import and prepare the workload, then exit (timed for setup_s)",
    )
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def prepare(pr, name: str, seed: int, scratch: Path):
    """Everything before the first timed call, after the package import."""
    import importlib

    importlib.import_module("powerlaw_ridge.cli")
    workload = workloads.WORKLOADS[name](pr, seed, scratch)
    workload.input(0)
    return workload


def time_setup(args: argparse.Namespace) -> float:
    """Wall time of a fresh interpreter that imports and prepares the workload."""
    command = [
        sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--setup-only",
    ]  # fmt: skip
    start = time.perf_counter()
    # no timeout: with one, the wait polls in steps of up to 50 ms, and
    # the timings come out rounded to that step
    subprocess.run(command, cwd=REPO_ROOT, check=True)
    return time.perf_counter() - start


def run_calls(workload, seconds: float | None = None, count: int | None = None,
              tracer=None, after_call=None):  # fmt: skip
    """Closed loop of calls until they took `seconds`, or exactly `count` calls.

    Only the call itself is timed and traced; its output check is not.
    ``after_call(timed_s)`` runs after each call, outside the timing.
    Returns (latency_s, Outcome) per call.
    """
    records = []
    timed = 0.0
    i = 0
    while (count is None and timed < seconds) or (count is not None and i < count):
        inp = workload.input(i)
        if tracer is not None:
            tracer.call_id = i
            tracer.active = True
        start = time.perf_counter()
        try:
            result, error = workload.call(inp), None
        except Exception as exc:  # noqa: BLE001 - counted as a failed operation
            result, error = None, exc
        latency = time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
        records.append((latency, workload.check(inp, result, error)))
        timed += latency
        i += 1
        if after_call is not None:
            after_call(timed)
    return records


def tail_latency(latencies: list[float]) -> dict | None:
    """Highest of p50, p90, p99, ... with at least TAIL_BEYOND calls above it."""
    ordered = sorted(latencies)
    best = None
    for q in (0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999):
        rank = math.ceil(q * len(ordered))
        beyond = len(ordered) - rank
        if rank < 1 or beyond < TAIL_BEYOND:
            break
        best = {
            "percentile": 100.0 * q,
            "value_ms": ordered[rank - 1] * 1e3,
            "beyond": beyond,
            "samples": len(ordered),
        }
    return best


def git_state() -> dict:
    if not (REPO_ROOT / ".git").exists():
        return {"sha": None, "dirty": None}
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(REPO_ROOT.parent))

    def git(*cmd: str) -> str:
        return subprocess.run(
            ["git", *cmd], cwd=REPO_ROOT, env=env, capture_output=True,
            text=True, timeout=30, check=True,
        ).stdout.strip()  # fmt: skip

    try:
        return {"sha": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))}
    except (OSError, subprocess.SubprocessError):
        return {"sha": None, "dirty": None}


def provenance() -> dict:
    import numpy
    import scipy

    config = numpy.show_config(mode="dicts") or {}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "git": git_state(),
        "platform": platform.platform(),
    }


def tally(records) -> tuple[int, int, list[str], list[dict]]:
    attempted = sum(o.attempted for _, o in records)
    failed = sum(o.failed for _, o in records)
    problems = [p for _, o in records for p in o.problems]
    exports = [e for _, o in records for e in o.exports]
    return attempted, failed, problems, exports


def load_spec() -> dict:
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def measure_end_to_end(pr, args, scratch: Path, spec: dict) -> dict:
    setup_runs = [time_setup(args)]

    def spread_setups(timed: float) -> None:
        # host speed drifts over a few seconds, so the fresh interpreters
        # are timed across the whole run rather than back to back
        while len(setup_runs) < min(SETUP_REPEATS, 1 + SETUP_REPEATS * timed / args.seconds):
            setup_runs.append(time_setup(args))

    workload = prepare(pr, args.workload, args.seed, scratch)
    records = run_calls(workload, seconds=args.seconds, after_call=spread_setups)
    spread_setups(args.seconds)
    attempted, failed, problems, exports = tally(records)
    latencies = [lat for lat, _ in records]
    values = {
        "ops_per_s": (attempted - failed) / sum(latencies),
        "call_p50_ms": statistics.median(latencies) * 1e3,
        "setup_s": statistics.median(setup_runs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    tail = tail_latency(latencies)
    return {
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]
        },
        "reported_only": {
            "fail_frac": {"value": failed / attempted, "unit": "frac"},
            "call_tail_ms": (
                {"value": tail["value_ms"], "unit": "ms", **tail}
                if tail
                else {"value": None, "unit": "ms", "samples": len(latencies)}
            ),
        },
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "exports": exports,
        "setup_runs_s": setup_runs,
        "calls": len(records),
        "latencies_s": latencies,
        "missing": [],
    }


def measure_per_layer(pr, args, scratch: Path, spec: dict, stem: str) -> dict:
    import probes
    import tracing

    workload = prepare(pr, args.workload, args.seed, scratch)
    plain = run_calls(workload, count=workload.trace_calls)
    with tracing.Tracer() as tracer:
        traced = run_calls(workload, count=workload.trace_calls, tracer=tracer)
    plain_s = sum(lat for lat, _ in plain)
    traced_s = sum(lat for lat, _ in traced)
    values = tracing.per_layer_metrics(
        tracer,
        {
            "specfun.hyp2f1.max_rel_err": probes.hyp2f1_max_rel_err(pr),
            "regression.blas_scaling": probes.blas_scaling(),
            "trace.overhead_frac": traced_s / plain_s - 1.0,
        },
    )
    stats = tracer.layer_stats()
    hits = {name: entry["calls"] for name, entry in stats.items()}
    hits.update({name: tracer.counters[name] for name in tracing.HYP2F1_BRANCHES})
    missing = [name for name in workload.reaches if not hits[name]]
    spans_file = OUT_DIR / f"{stem}.spans.npz"
    tracer.write_spans(spans_file)
    attempted, failed, problems, exports = tally(plain + traced)
    gated = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return {
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in gated.items()},
        "reported_only": {
            name: {"value": v, "unit": ""} for name, v in values.items() if name not in gated
        },
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "exports": exports,
        "calls": len(traced),
        "latencies_s": {"untraced": [lat for lat, _ in plain], "traced": [lat for lat, _ in traced]},
        "layer_stats": stats,
        "missing": missing,
        "spans_file": spans_file.name,
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    pr = import_package()
    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        if args.setup_only:
            prepare(pr, args.workload, args.seed, scratch)
            return 0
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        spec = load_spec()
        if args.trace:
            result = measure_per_layer(pr, args, scratch, spec, stem)
        else:
            result = measure_end_to_end(pr, args, scratch, spec)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    correct = result["failed"] == 0 and not result["missing"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "provenance": provenance(),
        **result,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace}: {result['calls']} calls, "
        f"{result['attempted']} operations, {result['failed']} failed"
    )
    for problem in result["problems"][:20]:
        print(f"  check failed: {problem}")
    for name in result["missing"]:
        print(f"  trace never reached {name}")
    for name, entry in dict(result["metrics"], **result["reported_only"]).items():
        if entry["value"] is None:
            text, note = "n/a", f" ({entry['samples']} calls: too few for a tail percentile)"
        else:
            text, note = f"{entry['value']:.6g}", ""
        if "percentile" in entry:
            note = f" (p{entry['percentile']:g}; {entry['beyond']} of {entry['samples']} calls beyond)"
        print(f"  {name:<44} {text:>14} {entry['unit']}{note}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
