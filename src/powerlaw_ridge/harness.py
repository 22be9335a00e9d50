"""Experiment orchestration: sweeps, diagnostics, aggregation, export.

Two sweeps mirror the two synthetic experiments.  Both take a
:class:`SweepConfig`, whose grid the runner reads as its own sweep variable,
and the value held fixed:

* ``run_tradeoff_sweep(config, n)`` sweeps the target train error at
  sample count n, validating the asymptotic trade-off curve against
  Monte-Carlo ridge fits;
* ``run_norm_growth_sweep(config, tau)`` sweeps the sample count at target
  train error tau, exposing the power-law growth of the squared coefficient
  norm, whose exponent is estimated by least squares in log-log space.

Trial t is seeded as base_seed + t at every grid point, so the grid points
are common random numbers: each trial draws one dataset at the largest
sample count and serves the whole grid from it.  A tau grid fits every
target on that one dataset in one :func:`fit_ridge` call; an n grid is
fitted largest first, each smaller design cut from the previous design
with :func:`nested`.  A row's data never
depends on how many trials run beside it, and output is byte-identical
across re-runs.  A failed trial aborts the sweep; silent NaN rows would
poison the quantile ribbons.

The export schema is the field list of :class:`TrialRow` and
:class:`AggregateRow`: CSV headers and JSON keys are read from it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import groupby
from pathlib import Path
from typing import Literal, NamedTuple

import numpy as np

from .eigenlearning import (
    AsymptoticRegime,
    asymptotic_errors,
    check_train_error_monotone,
    k_of_r,
    select_regularizer,
)
from .errors import ConfigError, SweepError
from .regression import (
    DataModel,
    feature_count,
    fit_ridge,
    generate,
    nested,
    power_law_spectrum,
)
from .rmt import (
    LimitCdf,
    SpectralMeasure,
    esd_cdf,
    limit_cdf,
    positivity_check,
    self_consistent_residual,
)


class TrialRow(NamedTuple):
    sweep_value: float
    trial: int
    seed: int
    k: float
    r: float
    rho_n: float
    train_mse: float
    test_mse: float
    sq_norm: float


class AggregateRow(NamedTuple):
    sweep_value: float
    metric: str
    mean: float
    q20: float
    q50: float
    q80: float
    theory: float  # nan when the metric has no closed-form prediction


CSV_HEADER = ",".join(TrialRow._fields)
AGG_HEADER = ",".join(AggregateRow._fields)

# regularizer factors r of the diagnostics' positivity check, and the number
# of points at which their spectral CDF check compares the two CDFs
_R_GRID = (0.1, 1.0, 10.0)
_CDF_GRID_SIZE = 10_000


@dataclass(frozen=True)
class SweepConfig:
    """Declarative description of one sweep: the grid holds target train
    errors for :func:`run_tradeoff_sweep` and sample counts for
    :func:`run_norm_growth_sweep`, which each check it."""

    regime: AsymptoticRegime
    grid: tuple[float, ...]
    trials_per_point: int = 10
    base_seed: int = 0

    def __post_init__(self) -> None:
        if not self.grid:
            raise ConfigError("sweep grid must be non-empty")
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ConfigError("sweep grid must be strictly increasing")
        if self.trials_per_point < 1:
            raise ConfigError("trials_per_point must be >= 1")
        if not self.regime.gamma_star > 0.0:
            raise ConfigError("sweeps need gamma_star > 0 to size the feature space")


@dataclass(frozen=True)
class SweepResult:
    rows: list[TrialRow]
    aggregates: list[AggregateRow]


@dataclass(frozen=True)
class ExponentFit:
    """Least-squares slope of log(y) against log(x)."""

    slope: float
    intercept: float
    r_squared: float


@dataclass(frozen=True)
class DiagnosticsReport:
    positivity: list[tuple[float, float]]
    positivity_pass: bool
    cdf_sup_deviation: float
    cdf_bound: float
    cdf_pass: bool
    residual_coarse_n: int
    residual_coarse: float
    residual_fine_n: int
    residual_fine: float
    residual_pass: bool


def fit_log_log(x: np.ndarray, y: np.ndarray) -> ExponentFit:
    """Ordinary least squares of log y on log x, with the fit's R^2."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 3:
        raise ConfigError(f"exponent fits need >= 3 points, got {x.size}")
    if np.any(x <= 0.0) or np.any(y <= 0.0):
        raise ConfigError("log-log fits need strictly positive data")
    lx, ly = np.log(x), np.log(y)
    design = np.column_stack([np.ones_like(lx), lx])
    coef, *_ = np.linalg.lstsq(design, ly, rcond=None)
    residuals = ly - design @ coef
    ss_res = float(np.sum(residuals**2))
    ss_tot = float(np.sum((ly - np.mean(ly)) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return ExponentFit(slope=float(coef[1]), intercept=float(coef[0]), r_squared=r_squared)


def trial_seed(base_seed: int, trial_index: int) -> int:
    return base_seed + trial_index


class _GridPoint(NamedTuple):
    sweep_value: float
    n: int
    k: float
    r: float
    rho_n: float
    theory_train: float
    theory_test: float


def _grid_point(
    regime: AsymptoticRegime, sweep_value: float, tau: float, n: int
) -> _GridPoint:
    """The penalty hitting train error tau at n, and the theory errors there."""
    k, r, rho_n = select_regularizer(regime, tau, n)
    theory = asymptotic_errors(regime, k)
    return _GridPoint(sweep_value, n, k, r, rho_n, theory.e_train, theory.e_test)


def _run_sweep(config: SweepConfig, points: list[_GridPoint]) -> SweepResult:
    """Every trial over the whole grid; rows point-major, trial-minor."""
    by_trial = [_run_trial(config, points, t) for t in range(config.trials_per_point)]
    rows: list[TrialRow] = []
    aggregates: list[AggregateRow] = []
    for point, point_rows in zip(points, zip(*by_trial)):
        rows.extend(point_rows)
        aggregates.extend(_aggregate(point, point_rows))
    return SweepResult(rows=rows, aggregates=aggregates)


def _run_trial(
    config: SweepConfig, points: list[_GridPoint], trial: int
) -> list[TrialRow]:
    """One draw at the grid's largest n, then one fit_ridge call per n,
    largest first; each smaller design is cut from the previous design,
    which is dropped before the cut is fitted, so a trial holds one design
    and its Gram."""
    regime = config.regime
    seed = trial_seed(config.base_seed, trial)

    def model(n: int) -> DataModel:
        return DataModel(
            n=n,
            p=feature_count(n, regime.gamma_star),
            alpha=regime.alpha,
            sigma_sq=regime.sigma_sq,
            seed=seed,
        )

    groups = [list(same_n) for _, same_n in groupby(points, key=lambda point: point.n)]
    rows: list[TrialRow] = []
    data = None
    try:
        for group in reversed(groups):  # a failed draw names its n's first value
            model_n = model(group[0].n)
            data = generate(model_n) if data is None else nested(data, model_n)
            fits = fit_ridge(data, [point.rho_n for point in group])
            rows[:0] = (  # largest n first, so prepending keeps grid order
                TrialRow(
                    sweep_value=point.sweep_value,
                    trial=trial,
                    seed=seed,
                    k=point.k,
                    r=point.r,
                    rho_n=point.rho_n,
                    train_mse=fit.train_mse,
                    test_mse=fit.test_mse_analytic,
                    sq_norm=fit.sq_norm,
                )
                for point, fit in zip(group, fits)
            )
    except Exception as exc:  # noqa: BLE001 - re-raised with trial context
        # fit_ridge gives the position of a penalty that failed to factor
        point = group[getattr(exc, "penalty_index", 0)]
        raise SweepError(point.sweep_value, trial, str(exc)) from exc
    return rows


def _aggregate(point: _GridPoint, rows: tuple[TrialRow, ...]) -> list[AggregateRow]:
    aggregates = []
    for metric, theory in (
        ("train_mse", point.theory_train),
        ("test_mse", point.theory_test),
        ("sq_norm", math.nan),
    ):
        values = np.array([getattr(row, metric) for row in rows])
        q20, q50, q80 = np.quantile(values, [0.2, 0.5, 0.8])
        aggregates.append(
            AggregateRow(
                sweep_value=point.sweep_value,
                metric=metric,
                mean=float(np.mean(values)),
                q20=float(q20),
                q50=float(q50),
                q80=float(q80),
                theory=theory,
            )
        )
    return aggregates


def run_tradeoff_sweep(config: SweepConfig, n: int) -> SweepResult:
    """Sweep the target train errors of the grid at sample count n, fitting
    ridge trials at each one."""
    regime = config.regime
    sig = regime.sigma_sq
    if n < 1:
        raise ConfigError(f"tradeoff sweeps need n >= 1, got {n}")
    if any(not 0.0 < tau < sig for tau in config.grid):
        raise ConfigError(f"tau grid values must lie in (0, sigma_sq) = (0, {sig})")
    check_train_error_monotone(regime)

    points = [_grid_point(regime, tau, tau, n) for tau in config.grid]
    return _run_sweep(config, points)


def run_norm_growth_sweep(
    config: SweepConfig, tau: float
) -> tuple[SweepResult, ExponentFit]:
    """Sweep the sample counts of the grid at target train error tau; fit
    the norm-growth exponent."""
    regime = config.regime
    sig = regime.sigma_sq
    if not 0.0 < tau < sig:
        raise ConfigError(f"norm-growth sweeps need tau in (0, sigma_sq) = (0, {sig})")
    if any(v < 1 or v != int(v) for v in config.grid):
        raise ConfigError("n grid values must be positive integers")
    check_train_error_monotone(regime)

    points = [_grid_point(regime, float(n), tau, n) for n in map(int, config.grid)]
    result = _run_sweep(config, points)
    norms = [agg for agg in result.aggregates if agg.metric == "sq_norm"]
    fit = fit_log_log(
        np.array([agg.sweep_value for agg in norms]), np.array([agg.mean for agg in norms])
    )
    return result, fit


def run_diagnostics(
    regime: AsymptoticRegime, n: int, seed: int, trials: int = 10
) -> DiagnosticsReport:
    """Three numeric checks of the random-matrix assumptions at finite n."""
    if n < 32:
        raise ConfigError(f"diagnostics need n >= 32, got {n}")
    alpha, gamma = regime.alpha, regime.gamma_star
    if not gamma > 0.0:
        raise ConfigError("diagnostics need gamma_star > 0")
    p = feature_count(n, gamma)

    positivity = positivity_check(alpha, gamma, n, list(_R_GRID), trials, seed)
    positivity_pass = all(mean > 0.0 for _, mean in positivity)

    # staircase vs. limit CDF of the n^alpha-scaled covariance spectrum; the
    # first step of the staircase sits in [g^alpha, g^alpha + 1/n], which the
    # sup-norm bound excludes
    atoms = (n / np.arange(1, p + 1, dtype=float)) ** alpha
    measure = SpectralMeasure(np.sort(atoms))
    limit = LimitCdf(alpha, gamma)
    t_grid = np.geomspace(gamma**alpha + 1.0 / n, float(n) ** alpha, _CDF_GRID_SIZE)
    deviation = float(np.max(np.abs(esd_cdf(measure, t_grid) - limit_cdf(limit, t_grid))))
    cdf_bound = 2.0 / p + gamma / n
    cdf_pass = deviation <= cdf_bound

    # Riemann-sum defect of the self-consistent equation at r = 1
    k = k_of_r(regime, 1.0)
    coarse_n = max(n // 4, 8)
    residuals = {}
    for m in (coarse_n, n):
        lam = power_law_spectrum(feature_count(m, gamma), alpha)
        residuals[m] = self_consistent_residual(lam, m, 1.0, k, alpha)
    residual_pass = residuals[n] < residuals[coarse_n]

    return DiagnosticsReport(
        positivity=positivity,
        positivity_pass=positivity_pass,
        cdf_sup_deviation=deviation,
        cdf_bound=cdf_bound,
        cdf_pass=cdf_pass,
        residual_coarse_n=coarse_n,
        residual_coarse=residuals[coarse_n],
        residual_fine_n=n,
        residual_fine=residuals[n],
        residual_pass=residual_pass,
    )


def format_diagnostics(report: DiagnosticsReport) -> str:
    lines = ["positivity of d/dr[r S(-r)] over random-design draws:"]
    for r, mean in report.positivity:
        lines.append(f"  r={r:<8g} mean={mean:.6e}")
    lines.append(f"  verdict: {'pass' if report.positivity_pass else 'FAIL'}")
    lines.append(
        f"spectral CDF sup-deviation: {report.cdf_sup_deviation:.6e} "
        f"(bound {report.cdf_bound:.6e}) "
        f"verdict: {'pass' if report.cdf_pass else 'FAIL'}"
    )
    lines.append(
        "self-consistent residual: "
        f"n={report.residual_coarse_n}: {report.residual_coarse:.6e}  "
        f"n={report.residual_fine_n}: {report.residual_fine:.6e}  "
        f"verdict: {'pass' if report.residual_pass else 'FAIL'}"
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------
def result_payload(result: SweepResult) -> dict:
    """JSON-ready mirror of the CSV schema (nan theory becomes null)."""
    return {
        "rows": [row._asdict() for row in result.rows],
        "aggregates": [agg._asdict() for agg in _blank_theory(result, None)],
    }


def _blank_theory(result: SweepResult, blank) -> list[AggregateRow]:
    # a metric without a closed-form prediction exports its theory as blank
    return [
        agg._replace(theory=blank) if math.isnan(agg.theory) else agg
        for agg in result.aggregates
    ]


def aggregate_path(path: str | Path) -> Path:
    path = Path(path)
    if path.suffix:
        return path.with_suffix(f".agg{path.suffix}")
    return path.with_name(path.name + ".agg")


def export(result: SweepResult, fmt: Literal["csv", "json"], path: str | Path) -> None:
    """Write a sweep result (and, for CSV, its aggregate sibling file)."""
    path = Path(path)
    try:
        if fmt == "csv":
            _write_table(path, CSV_HEADER, result.rows)
            _write_table(aggregate_path(path), AGG_HEADER, _blank_theory(result, ""))
        elif fmt == "json":
            payload = json.dumps(result_payload(result), indent=2, allow_nan=False)
            path.write_text(payload + "\n", encoding="utf-8")
        else:
            raise ConfigError(f"unknown export format {fmt!r}")
    except OSError as exc:
        raise type(exc)(f"export to {path} failed: {exc}") from exc


def _write_table(path: Path, header: str, rows) -> None:
    lines = [header]
    lines.extend(",".join(map(_cell, row)) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _cell(value) -> str:
    if isinstance(value, (str, int)):
        return str(value)
    return f"{value:.17g}"
