"""Self-test of the benchmark: coverage of the trace, and correctness.

Run from the root of a checkout:

    python3 perfbench/selftest.py

For every workload it makes one short untraced run and one traced run and
asserts that

* each run reports correct, with no failed operation;
* every function the trace wraps was reached on each workload expected to
  reach it (``reaches`` in workloads.py; run.py lists the misses), and every
  wrapped function is expected on at least one workload, so a later rename
  or move cannot silently report zero.

A run that cannot compute a metric BENCHMARK.json names exits with an error,
which fails the self-test too.  It exits 0 when all of that holds and 1
otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys

from common import BENCH_DIR, REPO_ROOT
import workloads
from tracing import SPAN_NAMES


def run(workload: str, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [
            sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
            "--seed", "1", "--seconds", "1", "--trace", str(trace),
        ],  # fmt: skip
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads(
        (BENCH_DIR / "out" / f"{workload}-seed1-trace{trace}.json").read_text(encoding="utf-8")
    )
    return result, record


def main() -> int:
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    errors = []
    if not {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS):
        errors.append("BENCHMARK.json names a workload workloads.py does not have")
    reached_somewhere = set()
    for name, workload in workloads.WORKLOADS.items():
        reached_somewhere.update(workload.reaches)
        for trace in (0, 1):
            result, record = run(name, trace)
            tag = f"{name} trace={trace}"
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                errors.append(f"{tag}: not correct: {record['problems'][:3]}")
            if record["missing"]:
                errors.append(f"{tag}: never reached {record['missing']}")
            print(f"selftest {tag}: {'ok' if not errors else 'errors so far'}", flush=True)
    never_expected = set(SPAN_NAMES) - reached_somewhere
    if never_expected:
        errors.append(f"wrapped but expected on no workload: {sorted(never_expected)}")
    for error in errors:
        print(f"selftest FAILED: {error}")
    print("selftest passed" if not errors else f"selftest: {len(errors)} failures")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
