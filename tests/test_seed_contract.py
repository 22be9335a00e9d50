"""The seed contract: one small run of each command against committed values.

A redraw, a new seed formula or a moved root changes these numbers; the
BLAS thread count and build move only their last bits.  Every number is
compared at RTOL relative: 1 and 2 OpenBLAS threads differ by at most
3.2e-13 on tradeoff exports and 4.6e-15 on diagnose reports, while a root
solve that moves the exports by 2e-10 fails.  Booleans, integers and
strings must match exactly.

After an intended change to the contract, re-pin with

    PYTHONPATH=src python tests/test_seed_contract.py

and say in CHANGES.md which values moved and by how much.
"""

import json
import math
from dataclasses import asdict
from pathlib import Path

import pytest

from powerlaw_ridge import AsymptoticRegime, SweepConfig
from powerlaw_ridge.harness import (
    result_payload,
    run_diagnostics,
    run_norm_growth_sweep,
    run_tradeoff_sweep,
)

REFERENCE = Path(__file__).with_name("seed_contract.json")
RTOL = 1e-11


def tradeoff_run():
    regime = AsymptoticRegime(alpha=1.75, gamma_star=0.5)
    config = SweepConfig(regime, grid=(0.05, 0.3, 0.55, 0.8), trials_per_point=2, base_seed=3)
    return result_payload(run_tradeoff_sweep(config, n=150))


def normgrowth_run():
    regime = AsymptoticRegime(alpha=1.25, gamma_star=2.0 / 3.0)
    config = SweepConfig(regime, grid=(100.0, 170.0, 300.0), trials_per_point=2, base_seed=3)
    result, fit = run_norm_growth_sweep(config, tau=0.2)
    return {**result_payload(result), "fit": asdict(fit)}


def diagnose_run():
    regime = AsymptoticRegime(alpha=1.75, gamma_star=0.5)
    return asdict(run_diagnostics(regime, n=64, seed=3, trials=2))


RUNS = {"tradeoff": tradeoff_run, "normgrowth": normgrowth_run, "diagnose": diagnose_run}


def mismatches(got, want, where=""):
    """Paths at which got and want differ, numbers compared at RTOL."""
    if isinstance(want, dict):
        if set(got) != set(want):
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        return [m for key in want for m in mismatches(got[key], want[key], f"{where}.{key}")]
    if isinstance(want, (list, tuple)):
        if len(got) != len(want):
            return [f"{where}: length {len(got)} != {len(want)}"]
        pairs = zip(got, want)
        return [m for i, (g, w) in enumerate(pairs) for m in mismatches(g, w, f"{where}[{i}]")]
    if isinstance(want, float) and not isinstance(got, bool):
        if isinstance(got, (int, float)) and abs(got - want) <= RTOL * abs(want):
            return []
        if isinstance(got, float) and math.isnan(got) and math.isnan(want):
            return []
    elif type(got) is type(want) and got == want:
        return []
    return [f"{where}: {got!r} != {want!r}"]


@pytest.mark.parametrize("command", sorted(RUNS))
def test_small_run_matches_committed_values(command):
    want = json.loads(REFERENCE.read_text(encoding="utf-8"))[command]
    got = json.loads(json.dumps(RUNS[command]()))  # tuples to lists, as stored
    assert mismatches(got, want, command) == []


if __name__ == "__main__":
    values = {command: run() for command, run in RUNS.items()}
    REFERENCE.write_text(json.dumps(values, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE}")
