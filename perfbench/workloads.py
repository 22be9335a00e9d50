"""The four benchmark workloads: inputs from a seed, one timed call, its checks.

Every workload drives public entry points of the package from this process
and makes one call at a time (a closed loop with one client).  Call i's
inputs depend only on the workload seed and i, so a traced run can repeat
exactly the calls of an untraced one.

Operations, the unit of ``ops_per_s`` and of the failure count:
  tradeoff, normgrowth  one Monte-Carlo trial row of a sweep
  theory                one solve query
  diagnose              one diagnostics report
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
import re
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Deviation of a grid point's mean train or test error from theory may be at
# most this many single-trial standard deviations, pooled within points.  It
# catches a wrong fit or a wrong theory column, not finite-n bias: at n=200
# that bias reaches about three standard deviations.
DEVIATION_SIGMAS = 8.0
# criterion-3 thresholds for the norm-growth exponent fit
SLOPE_TOL = 0.25
MIN_R_SQUARED = 0.98


@dataclass
class Outcome:
    """Checked result of one call: operations attempted and failed."""

    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    exports: list[dict] = field(default_factory=list)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _finite(values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


class _CallSeeds:
    """Seed of call i, drawn in call order from the workload seed."""

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)
        self._drawn: list[int] = []

    def __getitem__(self, i: int) -> int:
        while len(self._drawn) <= i:
            self._drawn.append(self._rng.randrange(1 << 30))
        return self._drawn[i]


class Sweep:
    """In-process ``cli.main`` sweep with export into a scratch directory."""

    command = ""
    fmt = ""
    trials = 0
    # calls a traced run makes, once untraced and once traced
    trace_calls = 0
    # span names (tracing.SPAN_NAMES) a traced run of this workload must reach
    reaches: tuple[str, ...] = ()

    def __init__(self, pr, seed: int, scratch: Path) -> None:
        self.cli = pr.cli
        self.scratch = scratch
        self.seeds = _CallSeeds(seed)

    def points(self) -> int:
        raise NotImplementedError

    def argv(self, call_seed: int, out: Path) -> list[str]:
        raise NotImplementedError

    def input(self, i: int) -> dict:
        seed = self.seeds[i]
        out = self.scratch / f"{self.command}-{i}.{self.fmt}"
        return {"seed": seed, "out": out, "argv": self.argv(seed, out)}

    def call(self, inp: dict):
        printed = io.StringIO()
        with redirect_stdout(printed):
            code = self.cli.main(inp["argv"])
        return code, printed.getvalue()

    def check(self, inp: dict, result, error) -> Outcome:
        expected = self.points() * self.trials
        outcome = Outcome(attempted=expected, failed=0)
        try:
            if error is not None:
                raise RuntimeError(f"call raised {type(error).__name__}: {error}")
            code, printed = result
            if code != 0:
                raise RuntimeError(f"exit code {code}")
            files, rows, aggregates = self.read_export(inp["out"])
            outcome.exports = [
                {"call_seed": inp["seed"], "file": f.name, "sha256": _sha256(f)} for f in files
            ]
            if len(rows) != expected:
                raise RuntimeError(f"{len(rows)} rows, expected {expected}")
            bad_rows = sum(not _finite(row.values()) for row in rows)
            if bad_rows:
                outcome.failed = bad_rows
                outcome.problems.append(f"{bad_rows} rows with non-finite values")
            self.check_deviation(rows, aggregates)
            self.check_extra(rows, printed)
        except Exception as exc:  # noqa: BLE001 - every failure is counted, none stops the run
            outcome.failed = expected
            outcome.problems.append(str(exc))
        finally:
            for f in self.scratch.glob(f"{self.command}-*"):
                f.unlink()
        return outcome

    def read_export(self, out: Path):
        if self.fmt == "json":
            payload = json.loads(out.read_text(encoding="utf-8"))
            return [out], payload["rows"], payload["aggregates"]
        agg = out.with_suffix(".agg.csv")

        def table(path: Path) -> list[dict]:
            with path.open(newline="", encoding="utf-8") as fh:
                records = list(csv.DictReader(fh))
            return [
                {k: (v if k == "metric" else float(v) if v else None) for k, v in r.items()}
                for r in records
            ]

        return [out, agg], table(out), table(agg)

    @staticmethod
    def check_deviation(rows: list[dict], aggregates: list[dict]) -> None:
        theory = {
            (a["sweep_value"], a["metric"]): a["theory"]
            for a in aggregates
            if a["metric"] in ("train_mse", "test_mse")
        }
        for metric in ("train_mse", "test_mse"):
            by_point: dict[float, list[float]] = {}
            for row in rows:
                ref = theory[(row["sweep_value"], metric)]
                if not (ref is not None and math.isfinite(ref) and ref > 0.0):
                    raise RuntimeError(f"bad {metric} theory at {row['sweep_value']}")
                by_point.setdefault(row["sweep_value"], []).append(row[metric] / ref - 1.0)
            devs = [np.asarray(v) for v in by_point.values()]
            dof = sum(d.size - 1 for d in devs)
            if dof < 1:
                raise RuntimeError("need at least two trials per point")
            spread = math.sqrt(sum(float(np.sum((d - d.mean()) ** 2)) for d in devs) / dof)
            worst = max(abs(float(d.mean())) for d in devs)
            if not worst <= DEVIATION_SIGMAS * spread:
                raise RuntimeError(
                    f"{metric} deviates {worst:.4f} from theory, over "
                    f"{DEVIATION_SIGMAS:g} x trial spread {spread:.4f}"
                )

    def check_extra(self, rows: list[dict], printed: str) -> None:
        pass


class Tradeoff(Sweep):
    """Criterion-2 trade-off sweep scaled down: one large shape, tau grid."""

    command, fmt, trials = "tradeoff", "csv", 3
    trace_calls = 3
    reaches = (
        "cli.main",
        "harness.run_tradeoff_sweep",
        "harness.export",
        "eigenlearning.select_regularizer",
        "eigenlearning.check_train_error_monotone",
        "eigenlearning.integral_i",
        "eigenlearning.integral_j",
        "specfun.hyp2f1",
        "regression.generate",
        "regression.fit_ridge",
        "regression.analytic_test_mse",
        "regression.cho_factor",
        "regression.cho_solve",
    )

    def points(self) -> int:
        return 8

    def argv(self, call_seed: int, out: Path) -> list[str]:
        return [
            "tradeoff", "--alpha", "1.75", "--gamma", "0.5", "--n", "1000",
            "--tau-grid", "0.05:0.8:8", "--trials", str(self.trials),
            "--seed", str(call_seed), "--format", "csv", "--out", str(out),
        ]  # fmt: skip


class NormGrowth(Sweep):
    """Criterion-3 norm-growth sweep scaled down: many small shapes."""

    command, fmt, trials = "normgrowth", "json", 3
    trace_calls = 5
    alpha = 1.25
    n_grid = (200, 1500, 8)
    reaches = tuple(
        "harness.run_norm_growth_sweep" if name == "harness.run_tradeoff_sweep" else name
        for name in Tradeoff.reaches
    )

    def points(self) -> int:
        return len({int(round(v)) for v in np.geomspace(*self.n_grid)})

    def argv(self, call_seed: int, out: Path) -> list[str]:
        lo, hi, count = self.n_grid
        return [
            "normgrowth", "--alpha", str(self.alpha), "--gamma", repr(2.0 / 3.0),
            "--tau", "0.2", "--n-grid", f"{lo}:{hi}:{count}:log",
            "--trials", str(self.trials), "--seed", str(call_seed),
            "--format", "json", "--out", str(out),
        ]  # fmt: skip

    def check_extra(self, rows: list[dict], printed: str) -> None:
        found = re.search(r"slope=(\S+) .* r_squared=(\S+)", printed)
        if not found:
            raise RuntimeError("no exponent line in the normgrowth output")
        slope, r_squared = float(found.group(1)), float(found.group(2))
        if not abs(slope - self.alpha) <= SLOPE_TOL:
            raise RuntimeError(f"slope {slope} not within {SLOPE_TOL} of {self.alpha}")
        if not r_squared >= MIN_R_SQUARED:
            raise RuntimeError(f"r_squared {r_squared} below {MIN_R_SQUARED}")
        # the printed fit must be the fit of the exported rows
        ns = sorted({row["sweep_value"] for row in rows})
        norms = [np.mean([r["sq_norm"] for r in rows if r["sweep_value"] == n]) for n in ns]
        refit = np.polyfit(np.log(ns), np.log(norms), 1)[0]
        if not abs(refit - slope) <= 1e-5 * max(1.0, abs(slope)):
            raise RuntimeError(f"printed slope {slope} but exported rows give {refit}")


class Theory:
    """Solve queries: fresh regime plus select_regularizer, as CLI solve does."""

    alphas = (1.05, 1.25, 1.75, 2.5, 4.0)
    gammas = (0.0, 0.25, 0.5, 2.0 / 3.0, 0.9)
    tau_range = (0.05, 0.8)
    sample_counts = (200, 1000, 5000)
    # every (alpha, gamma) pair 200 times
    trace_calls = 5000
    reaches = (
        "eigenlearning.select_regularizer",
        "eigenlearning.integral_i",
        "eigenlearning.integral_j",
        "specfun.hyp2f1",
        "specfun.hyp2f1.branch.series",
        "specfun.hyp2f1.branch.pfaff",
        "specfun.hyp2f1.branch.large",
    )

    def __init__(self, pr, seed: int, scratch: Path) -> None:
        self.pr = pr
        self.rng = random.Random(seed)
        self.queries: list[tuple] = []
        self.combos = [(a, g) for a in self.alphas for g in self.gammas]

    def input(self, i: int) -> tuple:
        # cycle through every (alpha, gamma) pair; the seed jitters tau and n
        while len(self.queries) <= i:
            alpha, gamma = self.combos[len(self.queries) % len(self.combos)]
            lo, hi = self.tau_range
            tau = lo + (hi - lo) * self.rng.uniform(0.001, 0.999)
            self.queries.append((alpha, gamma, tau, self.rng.choice(self.sample_counts)))
        return self.queries[i]

    def call(self, inp: tuple):
        alpha, gamma, tau, n = inp
        regime = self.pr.AsymptoticRegime(alpha=alpha, gamma_star=gamma)
        return regime, self.pr.select_regularizer(regime, tau, n)

    def check(self, inp: tuple, result, error) -> Outcome:
        outcome = Outcome(attempted=1, failed=0)
        alpha, gamma, tau, n = inp
        try:
            if error is not None:
                raise RuntimeError(f"call raised {type(error).__name__}: {error}")
            regime, (k, r, rho_n) = result
            if not _finite((k, r, rho_n)):
                raise RuntimeError(f"non-finite result {(k, r, rho_n)}")
            if not k > self.pr.k_crit(regime):
                raise RuntimeError(f"k={k} not above k_crit")
            e_train = self.pr.asymptotic_errors(regime, k).e_train
            if not abs(e_train - tau) <= 1e-10 * regime.sigma_sq:
                raise RuntimeError(f"E_train(k)={e_train} misses tau={tau}")
            if not abs(rho_n - r * float(n) ** -alpha) <= 1e-12 * abs(rho_n):
                raise RuntimeError(f"rho_n={rho_n} is not r * n^-alpha")
        except Exception as exc:  # noqa: BLE001 - every failure is counted, none stops the run
            outcome.failed = 1
            outcome.problems.append(f"query {inp}: {exc}")
        return outcome


class Diagnose:
    """run_diagnostics at one regime, a fresh seed per report."""

    n = 1000
    trace_calls = 10
    reaches = (
        "harness.run_diagnostics",
        "rmt.positivity_check",
        "rmt.scaled_gram_eigenvalues",
        "rmt.esd_cdf",
        "rmt.limit_cdf",
        "rmt.self_consistent_residual",
        "eigenlearning.k_of_r",
        "eigenlearning.integral_i",
        "eigenlearning.integral_j",
        "specfun.hyp2f1",
    )

    def __init__(self, pr, seed: int, scratch: Path) -> None:
        self.pr = pr
        self.regime = pr.AsymptoticRegime(alpha=1.75, gamma_star=0.5)
        self.seeds = _CallSeeds(seed)

    def input(self, i: int) -> int:
        return self.seeds[i]

    def call(self, inp: int):
        return self.pr.run_diagnostics(self.regime, n=self.n, seed=inp)

    def check(self, inp: int, report, error) -> Outcome:
        outcome = Outcome(attempted=1, failed=0)
        try:
            if error is not None:
                raise RuntimeError(f"call raised {type(error).__name__}: {error}")
            values = [m for _, m in report.positivity] + [
                report.cdf_sup_deviation,
                report.residual_coarse,
                report.residual_fine,
            ]
            if not _finite(values):
                raise RuntimeError("non-finite diagnostics")
            failed = [
                name
                for name, ok in (
                    ("positivity", report.positivity_pass),
                    ("cdf", report.cdf_pass),
                    ("residual", report.residual_pass),
                )
                if not ok
            ]
            if failed:
                raise RuntimeError(f"verdicts failed: {failed}")
        except Exception as exc:  # noqa: BLE001 - every failure is counted, none stops the run
            outcome.failed = 1
            outcome.problems.append(f"seed {inp}: {exc}")
        return outcome


WORKLOADS = {
    "tradeoff": Tradeoff,
    "normgrowth": NormGrowth,
    "theory": Theory,
    "diagnose": Diagnose,
}
