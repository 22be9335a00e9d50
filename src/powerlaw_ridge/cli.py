"""Command-line interface.

Subcommands:
  tradeoff    sweep target train errors at fixed n (theory vs. Monte Carlo)
  normgrowth  sweep n at fixed target train error; fit the norm exponent
  diagnose    run the random-matrix diagnostics at one regime
  solve       one-shot query: target train error -> (k, r, rho_n)

All options can also be supplied through a JSON file (--config) whose keys
mirror the long flag names with underscores; explicit flags win.

Exit codes: 0 success, 1 configuration error (usage errors included),
2 numerical failure, 3 I/O.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .eigenlearning import AsymptoticRegime, select_regularizer
from .errors import ConfigError, ConvergenceError, DomainError, SweepError
from .harness import (
    SweepConfig,
    export,
    format_diagnostics,
    run_diagnostics,
    run_norm_growth_sweep,
    run_tradeoff_sweep,
)

_COMMAND_DEFAULTS = {
    "tradeoff": {
        "alpha": 1.75,
        "gamma": 0.5,
        "sigma_sq": 1.0,
        "n": 2000,
        "trials": 10,
        "seed": 0,
        "format": "csv",
        "tau_grid": "0.05:0.8:16",
    },
    "normgrowth": {
        "alpha": 1.25,
        "gamma": 2.0 / 3.0,
        "sigma_sq": 1.0,
        "trials": 10,
        "seed": 0,
        "format": "csv",
        "tau": 0.2,
        "n_grid": "200:3000:10:log",
    },
    "diagnose": {
        "alpha": 1.75,
        "gamma": 0.5,
        "sigma_sq": 1.0,
        "n": 500,
        "seed": 0,
        "trials": 10,
    },
    "solve": {
        "alpha": 1.75,
        "gamma": 0.5,
        "sigma_sq": 1.0,
    },
}


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as ConfigError instead of exiting with status 2,
    which the exit-code contract reserves for numerical failures."""

    def error(self, message: str):
        raise ConfigError(message)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", type=float, help="power-law spectral exponent")
    parser.add_argument("--gamma", type=float, help="asymptotic ratio n/p")
    parser.add_argument("--sigma-sq", type=float, dest="sigma_sq", help="noise variance")
    parser.add_argument("--config", type=str, help="JSON file mirroring the flags")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="powerlaw-ridge",
        description="trade-off curves and Monte-Carlo validation for "
        "near-interpolating ridge regression under power-law spectra",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_trade = sub.add_parser("tradeoff", help="train-error sweep at fixed n")
    _add_common(p_trade)
    p_trade.add_argument("--n", type=int, help="training sample count")
    p_trade.add_argument("--trials", type=int, help="Monte-Carlo trials per point")
    p_trade.add_argument("--tau-grid", dest="tau_grid", help="lo:hi:count (linear)")
    p_trade.add_argument("--out", type=str, help="output file path")
    p_trade.add_argument("--format", choices=("csv", "json"), help="export format")

    p_norm = sub.add_parser("normgrowth", help="norm-growth sweep over n")
    _add_common(p_norm)
    p_norm.add_argument("--tau", type=float, help="target train error")
    p_norm.add_argument("--trials", type=int, help="Monte-Carlo trials per point")
    p_norm.add_argument("--n-grid", dest="n_grid", help="lo:hi:count:log|lin")
    p_norm.add_argument("--out", type=str, help="output file path")
    p_norm.add_argument("--format", choices=("csv", "json"), help="export format")

    p_diag = sub.add_parser("diagnose", help="random-matrix diagnostics")
    _add_common(p_diag)
    p_diag.add_argument("--n", type=int, help="sample count for the checks")
    p_diag.add_argument("--trials", type=int, help="random-design draws")

    p_solve = sub.add_parser("solve", help="tau -> (k, r, rho_n) query")
    _add_common(p_solve)
    p_solve.add_argument("--tau", type=float, help="target train error")
    p_solve.add_argument("--n", type=int, help="sample count fixing rho_n")

    for seeded in (p_trade, p_norm, p_diag):
        seeded.add_argument("--seed", type=int, help="base RNG seed")
    return parser


def _merge_options(args: argparse.Namespace) -> dict:
    merged = dict(_COMMAND_DEFAULTS[args.command])
    if getattr(args, "config", None):
        config_path = Path(args.config)
        try:
            file_values = json.loads(config_path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise type(exc)(f"cannot read config {config_path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {config_path} is not valid JSON: {exc}") from exc
        if not isinstance(file_values, dict):
            raise ConfigError(f"config {config_path} must hold a JSON object")
        allowed = (set(vars(args)) | set(merged)) - {"command", "config"}
        unknown = set(file_values) - allowed
        if unknown:
            raise ConfigError(f"config keys not understood: {sorted(unknown)}")
        merged.update(file_values)
    for key, value in vars(args).items():
        if key in ("command", "config") or value is None:
            continue
        merged[key] = value
    return merged


def _parse_grid(text: str, kind: str) -> tuple[float, ...]:
    parts = str(text).split(":")
    try:
        if kind == "tau":
            if len(parts) != 3:
                raise ValueError("expected lo:hi:count")
            lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
            if count < 1:
                raise ValueError("count must be >= 1")
            return tuple(float(v) for v in np.linspace(lo, hi, count))
        if len(parts) not in (3, 4):
            raise ValueError("expected lo:hi:count[:log|lin]")
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        scale = parts[3] if len(parts) == 4 else "log"
        if scale not in ("log", "lin"):
            raise ValueError(f"unknown spacing {scale!r}")
        if count < 1:
            raise ValueError("count must be >= 1")
        values = (
            np.geomspace(lo, hi, count) if scale == "log" else np.linspace(lo, hi, count)
        )
        grid = tuple(sorted({int(round(v)) for v in values}))
        return tuple(float(v) for v in grid)
    except ValueError as exc:
        raise ConfigError(f"bad {kind} grid {text!r}: {exc}") from exc


def _require(options: dict, key: str, command: str):
    if key not in options or options[key] is None:
        raise ConfigError(f"{command} requires --{key.replace('_', '-')}")
    return options[key]


def _regime(options: dict) -> AsymptoticRegime:
    try:
        return AsymptoticRegime(
            alpha=float(options["alpha"]),
            gamma_star=float(options["gamma"]),
            sigma_sq=float(options["sigma_sq"]),
        )
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc


def _export(result, options: dict) -> None:
    if options.get("out"):
        export(result, options["format"], options["out"])
        print(f"wrote {options['out']}")


def _cmd_tradeoff(options: dict) -> int:
    config = SweepConfig(
        regime=_regime(options),
        sweep_kind="tau_grid",
        grid=_parse_grid(options["tau_grid"], "tau"),
        trials_per_point=int(options["trials"]),
        base_seed=int(options["seed"]),
        n_fixed=int(options["n"]),
    )
    result = run_tradeoff_sweep(config)
    _export(result, options)
    for agg in result.aggregates:
        if agg.metric == "test_mse":
            print(
                f"tau={agg.sweep_value:.6g} mean_test={agg.mean:.6g} "
                f"theory_test={agg.theory:.6g}"
            )
    return 0


def _cmd_normgrowth(options: dict) -> int:
    config = SweepConfig(
        regime=_regime(options),
        sweep_kind="n_grid",
        grid=_parse_grid(options["n_grid"], "n"),
        trials_per_point=int(options["trials"]),
        base_seed=int(options["seed"]),
        tau_fixed=float(options["tau"]),
    )
    result, fit = run_norm_growth_sweep(config)
    _export(result, options)
    print(
        f"norm-growth exponent: slope={fit.slope:.6g} "
        f"intercept={fit.intercept:.6g} r_squared={fit.r_squared:.6g}"
    )
    return 0


def _cmd_diagnose(options: dict) -> int:
    report = run_diagnostics(
        _regime(options),
        n=int(options["n"]),
        seed=int(options["seed"]),
        trials=int(options["trials"]),
    )
    print(format_diagnostics(report))
    all_pass = report.positivity_pass and report.cdf_pass and report.residual_pass
    if not all_pass:
        raise ConvergenceError("one or more diagnostics failed; see report above")
    return 0


def _cmd_solve(options: dict) -> int:
    regime = _regime(options)
    tau = float(_require(options, "tau", "solve"))
    n = int(_require(options, "n", "solve"))
    try:
        k, r, rho_n = select_regularizer(regime, tau, n)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc
    print(f"k={k:.12g} r={r:.12g} rho_n={rho_n:.12g}")
    return 0


_COMMANDS = {
    "tradeoff": _cmd_tradeoff,
    "normgrowth": _cmd_normgrowth,
    "diagnose": _cmd_diagnose,
    "solve": _cmd_solve,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        options = _merge_options(args)
        return _COMMANDS[args.command](options)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (ConvergenceError, DomainError, SweepError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
