"""Paths, thread limits and the package import shared by the benchmark scripts.

Every script in this directory is started from the root of a checkout with
``python3 perfbench/<script>.py``; the package under test is imported from
that checkout's ``src/`` and never from an installed copy.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# environment variables that size the BLAS thread pool
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def nproc() -> int:
    """Cores this process may run on (what the ``nproc`` command prints)."""
    return len(os.sched_getaffinity(0))


def cap_blas_threads() -> None:
    """Let BLAS use at most nproc threads; must run before numpy is imported."""
    limit = nproc()
    for var in THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, limit))
        except ValueError:
            wanted = limit
        os.environ[var] = str(min(max(wanted, 1), limit))


def import_package():
    """Import powerlaw_ridge from this checkout's src/, or exit with code 2."""
    if not (SRC_DIR / "powerlaw_ridge" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC_DIR / 'powerlaw_ridge'}")
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
    import powerlaw_ridge

    if Path(powerlaw_ridge.__file__).resolve().parent.parent != SRC_DIR:
        sys.exit(f"perfbench: imported powerlaw_ridge from {powerlaw_ridge.__file__}")
    return powerlaw_ridge
