"""Spectral measures and random-matrix diagnostics.

A :class:`SpectralMeasure` is the uniform atomic measure on a matrix's
eigenvalues.  The module provides its CDF, the derivative d/dr [r S(-r)]
of its Stieltjes transform S, which controls coefficient-norm growth, the
scaled limiting CDF 1 - g t^(-1/alpha) of n^alpha-scaled power-law
covariances, the finite-n defect of the self-consistent equation linking
the regularizer factor r to the effective factor k, and the positivity of
the averaged derivative over random-design draws.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .regression import feature_count, power_law_spectrum

# eigenvalue noise below this fraction of the largest atom is clamped to zero
_CLAMP_REL = 1e-12


@dataclass(frozen=True, eq=False)
class SpectralMeasure:
    """Uniform atomic measure on a sorted set of eigenvalues."""

    atoms: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        atoms = np.asarray(self.atoms, dtype=float)
        if atoms.ndim != 1 or atoms.size == 0:
            raise DomainError("a spectral measure needs a non-empty 1-d atom list")
        if np.any(np.diff(atoms) < 0.0):
            raise DomainError("atoms must be sorted ascending")
        object.__setattr__(self, "atoms", atoms)

    @classmethod
    def from_eigenvalues(cls, values: np.ndarray) -> "SpectralMeasure":
        """Sort and clamp numerically-zero eigenvalues of a PSD matrix."""
        atoms = np.sort(np.asarray(values, dtype=float))
        if atoms.size == 0:
            raise DomainError("a spectral measure needs at least one eigenvalue")
        largest = atoms[-1]
        if largest > 0.0:
            cutoff = _CLAMP_REL * largest
            if atoms[0] < -cutoff:
                raise DomainError(
                    f"eigenvalue {atoms[0]} is negative beyond rounding noise"
                )
            atoms = np.where(np.abs(atoms) < cutoff, 0.0, atoms)
        elif np.any(atoms < 0.0):
            raise DomainError("eigenvalues of a PSD matrix must be nonnegative")
        return cls(atoms)


@dataclass(frozen=True)
class LimitCdf:
    """Limit distribution of the n^alpha-scaled power-law spectrum."""

    alpha: float
    gamma_star: float

    def __post_init__(self) -> None:
        if not self.alpha > 1.0:
            raise DomainError(f"alpha must exceed 1, got {self.alpha}")
        if not self.gamma_star > 0.0:
            raise DomainError(f"gamma_star must be positive, got {self.gamma_star}")


def esd_cdf(measure: SpectralMeasure, t):
    """Fraction of atoms <= t (right-continuous staircase), for a scalar or
    an array of t."""
    return np.searchsorted(measure.atoms, t, side="right") / measure.atoms.size


def limit_cdf(limit: LimitCdf, t):
    """CDF of the scaled limit: 1 - g t^(-1/alpha) on t >= g^alpha, else 0,
    for a scalar or an array of t."""
    g = limit.gamma_star
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):  # t <= 0 is masked
        tail = 1.0 - g * t ** (-1.0 / limit.alpha)
    return np.where(t < g**limit.alpha, 0.0, tail)[()]  # [()]: 0-d to scalar


def d_rS_dr(measure: SpectralMeasure, r: float) -> float:
    """d/dr [r S(-r)] evaluated exactly as mean of atom/(atom + r)^2."""
    if not r > 0.0:
        raise DomainError(f"r must be positive, got {r}")
    atoms = measure.atoms
    return float(np.mean(atoms / (atoms + r) ** 2))


def self_consistent_residual(
    eigenvalues: np.ndarray, n: int, r: float, k: float, alpha: float
) -> float:
    """Finite-n defect |1 - r/k - (1/n) sum 1/(1 + k n^-alpha / lambda_i)|.

    The sum is a Riemann approximation that tightens as n grows when
    (r, k) solve the asymptotic self-consistent equation.
    """
    if not k > 0.0:
        raise DomainError(f"k must be positive, got {k}")
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    lam = np.asarray(eigenvalues, dtype=float)
    kappa = k * float(n) ** -alpha
    positive = lam > 0.0
    total = float(np.sum(lam[positive] / (lam[positive] + kappa)))
    return abs(1.0 - r / k - total / n)


def scaled_gram_eigenvalues(
    n: int, p: int, alpha: float, rng: np.random.Generator
) -> np.ndarray:
    """Eigenvalues of n^alpha * Gram for one power-law random-design draw."""
    lam = power_law_spectrum(p, alpha)
    X = rng.standard_normal((p, n))
    X *= np.sqrt(lam)[:, None]
    gram = X.T @ X
    del X  # freed before eigvalsh copies the Gram
    gram /= n
    return float(n) ** alpha * np.linalg.eigvalsh(gram)


def positivity_check(
    alpha: float,
    gamma_star: float,
    n: int,
    r_grid: list[float],
    trials: int,
    seed: int,
) -> list[tuple[float, float]]:
    """Average d/dr [r S_esd(n^alpha Gram)(-r)] over independent draws.

    Returns one (r, mean derivative) pair per grid value; the norm-growth
    argument needs every mean to be strictly positive.  Each trial draws its
    own generator from (seed, trial index), so the aggregate is independent
    of evaluation order.
    """
    if not r_grid:
        raise DomainError("r_grid must be non-empty")
    if any(r <= 0.0 for r in r_grid):
        raise DomainError("r_grid values must be positive")
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    if not gamma_star > 0.0:
        raise DomainError(f"gamma_star must be positive, got {gamma_star}")
    p = feature_count(n, gamma_star)

    sums = np.zeros(len(r_grid))
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        measure = SpectralMeasure.from_eigenvalues(
            scaled_gram_eigenvalues(n, p, alpha, rng)
        )
        for i, r in enumerate(r_grid):
            sums[i] += d_rS_dr(measure, r)
    return [(r, float(s / trials)) for r, s in zip(r_grid, sums)]
