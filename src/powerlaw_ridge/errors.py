"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes: ConfigError and DomainError
exit with 1, ConvergenceError and SweepError with 2, I/O failures with 3.
So the one DomainError a CLI run raises from a computed value, the
negative-eigenvalue check of SpectralMeasure.from_eigenvalues, exits with
1 too; only a broken LAPACK reaches it.
"""

from __future__ import annotations


class PowerlawRidgeError(Exception):
    """Base class for all package errors."""


class DomainError(PowerlawRidgeError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConvergenceError(PowerlawRidgeError, RuntimeError):
    """A root solve, or a numerical check of the theory or diagnostics, failed."""


class ConfigError(PowerlawRidgeError, ValueError):
    """A sweep or CLI configuration violates its contract."""


class SweepError(PowerlawRidgeError, RuntimeError):
    """A Monte-Carlo trial failed; carries the offending point and trial."""

    def __init__(self, sweep_value: float, trial: int, message: str):
        super().__init__(
            f"trial failed at sweep value {sweep_value!r}, trial {trial}: {message}"
        )
        self.sweep_value = sweep_value
        self.trial = trial
