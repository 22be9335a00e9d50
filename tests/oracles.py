"""Independent oracles the tests check the package against.

An adaptive Gauss-Legendre quadrature of the Euler integral is the
independent check on the closed-form hypergeometric path.  The endpoint
singularity t^(b-1) is removed by the substitution t = u^(1/b), after which
the integrand is smooth:

    F(a, b; b+1; z) = integral_0^1 (1 - z*u^(1/b))^(-a) du.

The Stieltjes transform of a spectral measure and the Gram-to-covariance
Stieltjes identity check the spectral diagnostics.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from powerlaw_ridge.errors import ConvergenceError, DomainError
from powerlaw_ridge.rmt import SpectralMeasure
from powerlaw_ridge.specfun import HypergeometricArgs

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(15)


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerance and subdivision budget for the adaptive quadrature oracle."""

    abs_tol: float = 1e-14
    rel_tol: float = 1e-13
    max_subdivisions: int = 4000

    def __post_init__(self) -> None:
        if self.abs_tol <= 0.0 or self.rel_tol <= 0.0:
            raise DomainError("quadrature tolerances must be positive")
        if self.max_subdivisions < 1:
            raise DomainError("max_subdivisions must be >= 1")


def hyp2f1_oracle(args: HypergeometricArgs, quad: QuadratureSpec | None = None) -> float:
    """Quadrature of the Euler integral; the independent check on hyp2f1."""
    if quad is None:
        quad = QuadratureSpec()
    if args.z == 0.0:
        return 1.0
    inv_b = 1.0 / args.b
    neg_z = -args.z
    a = args.a

    def integrand(u: np.ndarray) -> np.ndarray:
        return (1.0 + neg_z * u**inv_b) ** (-a)

    return adaptive_gauss_legendre(integrand, 0.0, 1.0, quad)


def _gl_panel(f, lo: float, hi: float) -> float:
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    return half * float(np.dot(_GL_WEIGHTS, f(mid + half * _GL_NODES)))


def adaptive_gauss_legendre(f, lo: float, hi: float, quad: QuadratureSpec) -> float:
    """Globally adaptive 15-point Gauss-Legendre quadrature of f over [lo, hi].

    f must accept and return numpy arrays.  Panels are bisected worst-error
    first; the error estimate of a panel is the defect between its one-panel
    value and the sum over its two halves.
    """
    if not hi > lo:
        raise DomainError(f"empty integration interval [{lo}, {hi}]")

    coarse = _gl_panel(f, lo, hi)
    mid = 0.5 * (lo + hi)
    left = _gl_panel(f, lo, mid)
    right = _gl_panel(f, mid, hi)
    total = left + right
    err = abs(total - coarse)
    # heap of (-panel_error, lo, hi, panel_value); floor collects the error of
    # panels whose midpoint degenerates to an endpoint (machine resolution)
    heap = [(-err, lo, hi, total)]
    err_floor = 0.0
    n_subdivisions = 1

    while heap:
        if err + err_floor <= max(quad.abs_tol, quad.rel_tol * abs(total)):
            return total
        if n_subdivisions >= quad.max_subdivisions:
            raise ConvergenceError(
                f"quadrature used {n_subdivisions} subdivisions without "
                f"reaching tolerance (remaining error {err + err_floor:.3e})"
            )
        neg_e, a, b, value = heapq.heappop(heap)
        err += neg_e
        m = 0.5 * (a + b)
        if m <= a or m >= b:
            err_floor -= neg_e
            continue
        refined = 0.0
        for sub_lo, sub_hi in ((a, m), (m, b)):
            c = _gl_panel(f, sub_lo, sub_hi)
            s = 0.5 * (sub_lo + sub_hi)
            if s <= sub_lo or s >= sub_hi:
                refined += c
                continue
            fine = _gl_panel(f, sub_lo, s) + _gl_panel(f, s, sub_hi)
            e = abs(fine - c)
            refined += fine
            heapq.heappush(heap, (-e, sub_lo, sub_hi, fine))
            err += e
        total += refined - value
        n_subdivisions += 2

    if err_floor <= max(quad.abs_tol, quad.rel_tol * abs(total)):
        return total
    raise ConvergenceError(
        f"quadrature hit machine panel resolution with error {err_floor:.3e} "
        "above tolerance"
    )


def stieltjes(measure: SpectralMeasure, z: float) -> float:
    """S(z) = mean of 1/(atom - z), for z strictly below the support."""
    atoms = measure.atoms
    if z >= atoms[0]:
        raise DomainError(
            f"z = {z} is not strictly below the support (min atom {atoms[0]})"
        )
    return float(np.mean(1.0 / (atoms - z)))


def gram_to_covariance_check(X: np.ndarray, c: float, z: float) -> float:
    """Defect of S_esd(c*Cov)(z) = g S_esd(c*Gram)(z) - (1-g)/z for p > n.

    Cov = X X^T / n (p x p) and Gram = X^T X / n (n x n) share their nonzero
    spectrum; the p - n trailing zeros account for the -(1-g)/z term.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DomainError(f"X must be a p x n matrix, got shape {X.shape}")
    p, n = X.shape
    if p <= n:
        raise DomainError(f"the identity requires p > n, got p={p}, n={n}")
    if not z < 0.0:
        raise DomainError(f"z must be negative, got {z}")
    if not np.all(np.isfinite(X)):
        raise DomainError("X contains non-finite entries")
    gamma = n / p
    cov = SpectralMeasure.from_eigenvalues(c * np.linalg.eigvalsh(X @ X.T / n))
    gram = SpectralMeasure.from_eigenvalues(c * np.linalg.eigvalsh(X.T @ X / n))
    lhs = stieltjes(cov, z)
    rhs = gamma * stieltjes(gram, z) - (1.0 - gamma) / z
    return abs(lhs - rhs)
