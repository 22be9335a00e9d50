"""Per-layer probes that do not come from spans.

* ``hyp2f1_max_rel_err``: worst relative error of specfun.hyp2f1 against
  mpmath at 40 digits on a fixed probe set; it repeats exactly.
* ``blas_scaling``: fit_ridge time on the tradeoff shape with one BLAS
  thread over the same time with nproc threads, each measured in a child
  process started as ``python3 perfbench/probes.py fit-time``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

from common import BENCH_DIR, REPO_ROOT, THREAD_VARS, cap_blas_threads, import_package, nproc

PROBE_ALPHAS = (1.0001, 1.001, 1.01, 1.1, 1.75, 4.0)
# z from 0 to -1e12, with points on both sides of each branch cut
PROBE_Z = (0.0, -1e-3, -0.1, -0.4999, -0.5, -0.9, -1.5, -1.9999, -2.0, -3.0) + tuple(
    -(10.0**e) for e in range(1, 13)
)
FIT_REPEATS = 9


def hyp2f1_max_rel_err(pr) -> float:
    import mpmath

    worst = 0.0
    with mpmath.workdps(40):
        for alpha in PROBE_ALPHAS:
            b = 1.0 / alpha
            for a in (1.0, 2.0):
                for z in PROBE_Z:
                    got = pr.hyp2f1(pr.HypergeometricArgs(a, b, 1.0 + b, z))
                    ref = mpmath.hyp2f1(a, mpmath.mpf(b), mpmath.mpf(b) + 1, mpmath.mpf(z))
                    worst = max(worst, float(abs((mpmath.mpf(got) - ref) / ref)))
    return worst


def fit_ridge_seconds() -> float:
    """Median fit_ridge time on the tradeoff shape (n=1000, p=2000)."""
    pr = import_package()
    regime = pr.AsymptoticRegime(alpha=1.75, gamma_star=0.5)
    _, _, rho_n = pr.select_regularizer(regime, 0.4, 1000)
    data = pr.generate(pr.DataModel(n=1000, p=2000, alpha=1.75, sigma_sq=1.0, seed=11))
    times = []
    for _ in range(FIT_REPEATS):
        start = time.perf_counter()
        pr.fit_ridge(data, rho_n)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _fit_time_in_child(threads: int) -> float:
    env = dict(os.environ, **{var: str(threads) for var in THREAD_VARS})
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "probes.py"), "fit-time"],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(json.loads(done.stdout.strip().splitlines()[-1])["fit_ridge_s"])


def blas_scaling() -> float:
    return _fit_time_in_child(1) / _fit_time_in_child(nproc())


if __name__ == "__main__":
    if sys.argv[1:] != ["fit-time"]:
        sys.exit("usage: probes.py fit-time")
    cap_blas_threads()
    print(json.dumps({"fit_ridge_s": fit_ridge_seconds()}))
