"""Command-line interface.

Subcommands:
  tradeoff    sweep target train errors at fixed n (theory vs. Monte Carlo)
  normgrowth  sweep n at fixed target train error; fit the norm exponent
  diagnose    run the random-matrix diagnostics at one regime
  solve       one-shot query: target train error -> (k, r, rho_n)

Every option is declared once: its type, choices and help in _OPTIONS, its
default per subcommand in _COMMANDS, and the parser is built from the two.
A JSON file (--config) may supply any option of its subcommand under the
long flag name with underscores.  Its values are read as flags placed
before the explicit ones, so they pass the same type, choice and required
checks, and explicit flags win; a JSON null leaves the option unset.

Exit codes: 0 success, 1 configuration error (usage errors included),
2 numerical failure, 3 I/O.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
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


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as ConfigError instead of exiting with status 2,
    which the exit-code contract reserves for numerical failures."""

    def error(self, message: str):
        raise ConfigError(message)


def _parse_grid(text: str, kind: str) -> tuple[float, ...]:
    parts = text.split(":")
    try:
        if len(parts) != 3 and not (kind == "n" and len(parts) == 4):
            raise ValueError("expected lo:hi:count, and :log or :lin for an n grid")
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 1:
            raise ValueError("count must be >= 1")
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValueError("grid ends must be finite")
        if kind == "tau":
            return tuple(float(v) for v in np.linspace(lo, hi, count))
        scale = parts[3] if len(parts) == 4 else "log"
        if scale not in ("log", "lin"):
            raise ValueError(f"unknown spacing {scale!r}")
        spacing = np.geomspace if scale == "log" else np.linspace
        grid = sorted({int(round(v)) for v in spacing(lo, hi, count)})
        return tuple(float(v) for v in grid)
    except (ValueError, OverflowError) as exc:
        raise argparse.ArgumentTypeError(f"bad {kind} grid {text!r}: {exc}") from exc


# type, choices and help of every option, by its name with underscores
_OPTIONS = {
    "alpha": dict(type=float, help="power-law spectral exponent"),
    "gamma": dict(type=float, help="asymptotic ratio n/p"),
    "sigma_sq": dict(type=float, help="noise variance"),
    "n": dict(type=int, help="sample count"),
    "tau": dict(type=float, help="target train error"),
    "trials": dict(type=int, help="Monte-Carlo trials (per grid point in sweeps)"),
    "seed": dict(type=int, help="base RNG seed"),
    "tau_grid": dict(type=partial(_parse_grid, kind="tau"), help="lo:hi:count"),
    "n_grid": dict(type=partial(_parse_grid, kind="n"), help="lo:hi:count[:log|lin]"),
    "out": dict(help="output file path"),
    "format": dict(choices=("csv", "json"), help="export format"),
    "config": dict(help="JSON file of option values; explicit flags win"),
}


def _regime(args: argparse.Namespace) -> AsymptoticRegime:
    try:
        return AsymptoticRegime(args.alpha, args.gamma, args.sigma_sq)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc


def _export(result, args: argparse.Namespace) -> None:
    if args.out:
        export(result, args.format, args.out)
        print(f"wrote {args.out}")


def _cmd_tradeoff(args: argparse.Namespace) -> int:
    """train-error sweep at fixed n"""
    config = SweepConfig(_regime(args), args.tau_grid, args.trials, args.seed)
    result = run_tradeoff_sweep(config, args.n)
    _export(result, args)
    for agg in result.aggregates:
        if agg.metric == "test_mse":
            print(
                f"tau={agg.sweep_value:.6g} mean_test={agg.mean:.6g} "
                f"theory_test={agg.theory:.6g}"
            )
    return 0


def _cmd_normgrowth(args: argparse.Namespace) -> int:
    """norm-growth sweep over n"""
    config = SweepConfig(_regime(args), args.n_grid, args.trials, args.seed)
    result, fit = run_norm_growth_sweep(config, args.tau)
    _export(result, args)
    print(
        f"norm-growth exponent: slope={fit.slope:.6g} "
        f"intercept={fit.intercept:.6g} r_squared={fit.r_squared:.6g}"
    )
    return 0


def _cmd_diagnose(args: argparse.Namespace) -> int:
    """random-matrix diagnostics"""
    report = run_diagnostics(_regime(args), n=args.n, seed=args.seed, trials=args.trials)
    print(format_diagnostics(report))
    all_pass = report.positivity_pass and report.cdf_pass and report.residual_pass
    if not all_pass:
        raise ConvergenceError("one or more diagnostics failed; see report above")
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    """tau -> (k, r, rho_n) query"""
    regime = _regime(args)
    try:
        k, r, rho_n = select_regularizer(regime, args.tau, args.n)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc
    print(f"k={k:.12g} r={r:.12g} rho_n={rho_n:.12g}")
    return 0


_REQUIRED = object()  # the default of an option that must be given
_REGIME = {"alpha": 1.75, "gamma": 0.5, "sigma_sq": 1.0}
_DRAWS = {"trials": 10, "seed": 0}
_EXPORT = {"out": None, "format": "csv"}
# per subcommand: its handler, whose docstring is its help, and the default
# of every option it takes
_COMMANDS = {
    "tradeoff": (
        _cmd_tradeoff,
        {**_REGIME, "n": 2000, "tau_grid": "0.05:0.8:16", **_DRAWS, **_EXPORT},
    ),
    "normgrowth": (
        _cmd_normgrowth,
        {
            **_REGIME,
            "alpha": 1.25,
            "gamma": 2.0 / 3.0,
            "tau": 0.2,
            "n_grid": "200:3000:10:log",
            **_DRAWS,
            **_EXPORT,
        },
    ),
    "diagnose": (_cmd_diagnose, {**_REGIME, "n": 500, **_DRAWS}),
    "solve": (_cmd_solve, {**_REGIME, "tau": _REQUIRED, "n": _REQUIRED}),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="powerlaw-ridge",
        description="trade-off curves and Monte-Carlo validation for "
        "near-interpolating ridge regression under power-law spectra",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, defaults) in _COMMANDS.items():
        command = sub.add_parser(name, help=handler.__doc__)
        for key, default in {**defaults, "config": None}.items():
            given = {"required": True} if default is _REQUIRED else {"default": default}
            command.add_argument("--" + key.replace("_", "-"), **_OPTIONS[key], **given)
    return parser


def _config_flags(command: str, path: str) -> list[str]:
    """The values of a config file, written as the flags they stand for."""
    try:
        values = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise type(exc)(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(values, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    unknown = set(values) - set(_COMMANDS[command][1])
    if unknown:
        raise ConfigError(f"config keys not understood: {sorted(unknown)}")
    flags = []
    for key, value in values.items():
        if value is None:
            continue
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise ConfigError(f"config value {key}={value!r} is not a number or a string")
        flags.append(f"--{key.replace('_', '-')}={value}")
    return flags


def _parse_args(argv: list[str]) -> argparse.Namespace:
    # joined as --option=value, a value that starts with "-" is not read as a flag
    flags = {"--" + key.replace("_", "-") for key in _OPTIONS}
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] in flags:
            argv[i - 1 : i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    if argv and argv[0] in _COMMANDS:
        finder = _Parser(add_help=False)
        finder.add_argument("--config")
        path = finder.parse_known_args(argv[1:])[0].config
        if path is not None:
            argv = [argv[0], *_config_flags(argv[0], path), *argv[1:]]
    return _build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
        return _COMMANDS[args.command][0](args)
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
