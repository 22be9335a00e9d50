"""Asymptotic trade-off curve between training and testing error.

Everything here is driven by two integrals of the regularization profile
against the power-law spectral density,

    I(k) = integral_0^(1/g) dx / (1 + k x^alpha),
    J(k) = integral_0^(1/g) dx / (1 + k x^alpha)^2,

with g the asymptotic sample-to-feature ratio.  Both reduce to the Gauss
hypergeometric family that :mod:`powerlaw_ridge.specfun` checks and
scipy.special.hyp2f1 evaluates:

    I(k) = F(1, 1/alpha; 1 + 1/alpha; -k g^-alpha) / g,
    J(k) = F(2, 1/alpha; 1 + 1/alpha; -k g^-alpha) / g,

and for g = 0 the improper integrals have the closed forms
I(k) = k^(-1/alpha) * pi / (alpha sin(pi/alpha)) and J(k) = (1 - 1/alpha) I(k).

The curve is parametrized by the effective-regularizer factor k.  The
regularizer factor is r = R(k) = k (1 - I(k)), the asymptotic test error is
sigma^2 / (1 - J(k)), and the asymptotic train error is
sigma^2 (1 - I(k))^2 / (1 - J(k)).  R is increasing and positive exactly on
(k_crit, infinity), where k_crit is the largest root of R; inverting R
and the train-error map is what lets a caller dial in a target train error
and read off the finite-n ridge penalty rho_n = r * n^(-alpha).

The finite-n counterpart solves the effective-regularizer equation

    n = delta/kappa + sum_i lambda_i / (lambda_i + kappa),    delta = n*rho,

for kappa and propagates it through the overfitting coefficient
n * dkappa/ddelta to finite-n train/test error predictions.

k_crit, k_of_r and the k of select_regularizer share one bracket, grown
from just above k_crit, and every root here, kappa included, is converged
to a few ulps in k: Newton steps for the first two and kappa, bisection for
select_regularizer, which has no derivative at hand.  k_crit and k_of_r
agree with 40-digit roots to 2e-11 relative down to alpha = 1.0001.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConvergenceError, DomainError
from .specfun import HypergeometricArgs, hyp2f1

_MAX_ITERATIONS = 200
_EPS = float(np.finfo(float).eps)
# check_train_error_monotone's grid: this many k over (k_crit, k_crit + span)
_MONOTONE_NUM = 64
_MONOTONE_SPAN = 1e6


@dataclass(frozen=True)
class AsymptoticRegime:
    """Problem regime: spectral exponent, aspect ratio, noise level."""

    alpha: float
    gamma_star: float
    sigma_sq: float = 1.0

    def __post_init__(self) -> None:
        if not self.alpha > 1.0:
            raise DomainError(f"alpha must exceed 1, got {self.alpha}")
        if self.gamma_star < 0.0:
            raise DomainError(f"gamma_star must be >= 0, got {self.gamma_star}")
        if not self.sigma_sq > 0.0:
            raise DomainError(f"sigma_sq must be positive, got {self.sigma_sq}")

    @cached_property
    def k_crit(self) -> float:
        return _solve_k_crit(self)


@dataclass(frozen=True)
class EigenlearningPoint:
    """One solved point on the asymptotic trade-off curve."""

    k: float
    r: float
    e_train: float
    e_test: float
    i_of_k: float
    j_of_k: float


@dataclass(frozen=True)
class FiniteNPrediction:
    """Finite-n effective-regularizer solution and error predictions."""

    kappa: float
    delta: float
    e_coef: float
    e_test_n: float
    e_train_n: float
    signal_term_c: float


def _limit_constant(alpha: float) -> float:
    # integral_0^inf dy / (1 + y^alpha) = (pi/alpha) / sin(pi/alpha)
    return (math.pi / alpha) / math.sin(math.pi / alpha)


def integral_i(regime: AsymptoticRegime, k: float) -> float:
    """I(k), the resolvent-trace integral of first order."""
    return _resolvent_integral(regime, k, 1.0)


def integral_j(regime: AsymptoticRegime, k: float) -> float:
    """J(k), the squared-resolvent integral."""
    return _resolvent_integral(regime, k, 2.0)


def _resolvent_integral(regime: AsymptoticRegime, k: float, a: float) -> float:
    # integral_0^(1/g) dx / (1 + k x^alpha)^a for a in {1, 2}
    if k < 0.0:
        raise DomainError(f"k must be >= 0, got {k}")
    g = regime.gamma_star
    alpha = regime.alpha
    if g == 0.0:
        if k == 0.0:
            return math.inf
        # J = (1 - 1/alpha) I; 1.0 * x leaves I's rounding untouched
        scale = 1.0 if a == 1.0 else 1.0 - 1.0 / alpha
        return scale * k ** (-1.0 / alpha) * _limit_constant(alpha)
    b = 1.0 / alpha
    z = -k * g**-alpha
    return hyp2f1(HypergeometricArgs(a, b, 1.0 + b, z)) / g


def r_of_k(regime: AsymptoticRegime, k: float) -> float:
    """The regularizer factor R(k) = k (1 - I(k)); negative below k_crit."""
    if k == 0.0:
        return 0.0
    return k * (1.0 - integral_i(regime, k))


def k_crit(regime: AsymptoticRegime) -> float:
    """Largest k with R(k) = 0; the trade-off curve lives on (k_crit, inf)."""
    return regime.k_crit


def _solve_k_crit(regime: AsymptoticRegime) -> float:
    g = regime.gamma_star
    if g >= 1.0:
        # I(0) = 1/g <= 1 and I is strictly decreasing, so I < 1 for k > 0
        return 0.0
    if g == 0.0:
        # I(k) = 1 exactly at k = c_alpha^alpha
        return _limit_constant(regime.alpha) ** regime.alpha

    def f(k: float) -> float:
        return integral_i(regime, k) - 1.0

    def di_dk(k: float) -> float:
        # dI/dk = (J(k) - I(k)) / k, by differentiating under the integral
        return (integral_j(regime, k) - integral_i(regime, k)) / k

    return _root_above(0.0, f, di_dk, 1.0, "I(k) = 1")


def k_of_r(regime: AsymptoticRegime, r: float) -> float:
    """Invert R on (k_crit, inf): the unique k with R(k) = r, r > 0."""
    if not r > 0.0:
        raise DomainError(f"r must be positive, got {r}")
    kc = regime.k_crit

    def f(k: float) -> float:
        return r - r_of_k(regime, k)

    def f_prime(k: float) -> float:
        return integral_j(regime, k) - 1.0  # -dR/dk

    return _root_above(kc, f, f_prime, max(10.0 * r, 2.0 * kc, 1.0), f"R(k) = {r}")


def asymptotic_errors(regime: AsymptoticRegime, k: float) -> EigenlearningPoint:
    """Full trade-off point at eff-reg-factor k; requires k > k_crit."""
    kc = regime.k_crit
    if not k > kc:
        raise DomainError(f"k must exceed k_crit = {kc:.6g}, got {k}")
    i = integral_i(regime, k)
    j = integral_j(regime, k)
    if not j < 1.0:
        raise DomainError(f"J(k) = {j} >= 1; k is below the valid branch")
    denom = 1.0 - j
    sig = regime.sigma_sq
    return EigenlearningPoint(
        k=k,
        r=k * (1.0 - i),
        e_train=sig * (1.0 - i) ** 2 / denom,
        e_test=sig / denom,
        i_of_k=i,
        j_of_k=j,
    )


def train_error_of_k(regime: AsymptoticRegime, k: float) -> float:
    """Asymptotic train error at k, for k > k_crit."""
    return asymptotic_errors(regime, k).e_train


def select_regularizer(
    regime: AsymptoticRegime, tau: float, n: int
) -> tuple[float, float, float]:
    """Pick the ridge penalty hitting asymptotic train error tau.

    Solves E_train(k) = tau on (k_crit, inf), sets r = R(k) and
    rho_n = r * n^(-alpha).  Returns (k, r, rho_n).  E_train falls to its
    floor, sigma_sq (1 - 1/gamma_star) for gamma_star > 1 and 0 otherwise,
    as k falls to k_crit, and 1 - I(k) cancels on the way.  A tau below
    floor + 1e-8 sigma_sq is a DomainError; from there up, r and rho_n are
    within 1e-7 relative of the exact root (tested against 50-digit mpmath
    roots).  A rho_n that underflows to a subnormal is a DomainError too.
    """
    sig = regime.sigma_sq
    if not 0.0 < tau < sig:
        raise DomainError(f"tau must lie in (0, sigma_sq) = (0, {sig}), got {tau}")
    if not 1 <= n <= float(np.finfo(float).max):  # a Python float: n may be any int
        raise DomainError(f"n must lie in [1, {np.finfo(float).max:.3g}], got {n}")
    g = regime.gamma_star
    floor = sig * (1.0 - 1.0 / g) if g > 1.0 else 0.0
    if tau < floor + 1e-8 * sig:
        raise DomainError(
            f"tau = {tau} is below the smallest train error resolved in this "
            f"regime, floor + 1e-8 sigma_sq = {floor + 1e-8 * sig:.9g}"
        )

    def f(k: float) -> float:
        return tau - train_error_of_k(regime, k)

    kc = regime.k_crit
    # E_train has no derivative at hand here, so the solver bisects
    k = _root_above(kc, f, None, max(2.0 * kc, 1.0), f"E_train(k) = {tau}")
    point = asymptotic_errors(regime, k)
    residual = point.e_train - tau
    if abs(residual) > 1e-10 * sig:
        raise ConvergenceError(
            f"train-error solve stalled at tau = {tau} (residual {residual:.3e})"
        )
    rho_n = point.r * float(n) ** -regime.alpha
    if not rho_n >= np.finfo(float).tiny:
        raise DomainError(f"rho_n = r * n^(-alpha) underflows at n = {float(n):.3g}")
    return k, point.r, rho_n


def check_train_error_monotone(regime: AsymptoticRegime) -> None:
    """Grid sign-check that E_train is increasing in k on (k_crit, k_crit + span).

    The regularizer-selection bisection assumes this; a violation aborts the
    sweep with a diagnostic rather than silently returning a wrong root.
    """
    kc = regime.k_crit
    lo = max(kc, 1e-9) * (1.0 + 1e-6) + 1e-9
    ks = np.geomspace(lo, kc + _MONOTONE_SPAN, _MONOTONE_NUM)
    values = [train_error_of_k(regime, float(k)) for k in ks]
    diffs = np.diff(values)
    if np.any(diffs < -1e-12 * regime.sigma_sq):
        worst = int(np.argmin(diffs))
        raise ConvergenceError(
            "train error is not monotone in k: "
            f"E_train({ks[worst]:.6g}) = {values[worst]:.6g} > "
            f"E_train({ks[worst + 1]:.6g}) = {values[worst + 1]:.6g}"
        )


def finite_n_prediction(
    eigenvalues: np.ndarray,
    rho: float,
    sigma_sq: float,
    beta_star: np.ndarray,
    n: int,
) -> FiniteNPrediction:
    """Finite-n effective-regularizer prediction for a fixed spectrum.

    beta_star takes eigenfunction coordinates v_i = sqrt(lambda_i) * beta_i,
    not the coefficients of y = x^T beta + eps.  Solves
    n = delta/kappa + sum_i L_i with L_i = lambda_i/(lambda_i + kappa) and
    delta = n*rho, then
        e_coef  = n * dkappa/ddelta  (implicit differentiation),
        C       = sum_i (1 - L_i)^2 * v_i^2,
        E_test  = e_coef * (sigma_sq + C),
        E_train = (delta^2 / (n^2 kappa^2)) * E_test.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    beta = np.asarray(beta_star, dtype=float)
    if lam.size == 0:
        raise DomainError("eigenvalues must be non-empty")
    if lam.shape != beta.shape:
        raise DomainError(
            f"eigenvalues and beta_star disagree: {lam.shape} vs {beta.shape}"
        )
    if np.any(lam < 0.0):
        raise DomainError("eigenvalues must be nonnegative")
    if not rho > 0.0:
        raise DomainError(f"rho must be positive, got {rho}")
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")

    delta = n * rho
    kappa = _solve_kappa(lam, delta, n)

    s2 = float(np.sum(lam / (lam + kappa) ** 2))
    dkappa_ddelta = kappa / (delta + kappa**2 * s2)
    e_coef = n * dkappa_ddelta

    learnability = lam / (lam + kappa)
    signal_term_c = float(np.sum((1.0 - learnability) ** 2 * beta**2))
    e_test_n = e_coef * (sigma_sq + signal_term_c)
    e_train_n = (delta**2 / (n**2 * kappa**2)) * e_test_n
    return FiniteNPrediction(
        kappa=kappa,
        delta=delta,
        e_coef=e_coef,
        e_test_n=e_test_n,
        e_train_n=e_train_n,
        signal_term_c=signal_term_c,
    )


def _solve_kappa(lam: np.ndarray, delta: float, n: int) -> float:
    # the left side n - delta/kappa - sum lambda/(lambda+kappa) is increasing
    # in kappa, with the root pinned inside [delta/n, (delta + sum lambda)/n]
    lam_sum = float(np.sum(lam))
    lo = delta / n
    hi = (delta + lam_sum) / n
    if lam_sum == 0.0:
        return lo

    def g(kappa: float) -> float:
        return n - delta / kappa - float(np.sum(lam / (lam + kappa)))

    def g_prime(kappa: float) -> float:
        return delta / kappa**2 + float(np.sum(lam / (lam + kappa) ** 2))

    return _bisect_newton(g, g_prime, lo, hi, g(lo), g(hi))


def _root_above(kc: float, f, f_prime, hi: float, what: str) -> float:
    """Root on (kc, inf) of f, decreasing there and positive just above kc.

    The left edge starts 1e-12 above kc (relative to kc, or absolute below
    kc = 1) and moves toward kc, its gap cut 1024-fold, until f > 0; the
    right edge grows 4-fold from hi until f <= 0, and a right edge that
    fails becomes the left one.  Both edge values go to _bisect_newton.
    """
    lo = kc + 1e-12 * max(kc, 1.0)
    for _ in range(64):
        f_lo = f(lo)
        if f_lo > 0.0:
            break
        lo = kc + (lo - kc) / 1024.0
    else:
        raise DomainError(f"{what} has no root that doubles resolve above {kc:.6g}")
    for _ in range(200):
        f_hi = f(hi)
        if f_hi <= 0.0:
            return _bisect_newton(f, f_prime, lo, hi, f_lo, f_hi)
        lo, f_lo = hi, f_hi
        hi *= 4.0
    raise ConvergenceError(f"could not bracket {what}")


def _bisect_newton(f, f_prime, lo: float, hi: float, f_lo: float, f_hi: float) -> float:
    """Safeguarded root finder: Newton steps clipped to a shrinking bracket.

    Takes f at both edges, f_lo = f(lo) and f_hi = f(hi), which must differ
    in sign or be 0.  Takes the Newton step when f_prime is given and the
    step stays inside the bracket, else bisects.  Stops at an exact zero of
    f, or when the step or the bracket is at most 4 ulps wide.
    """
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise ConvergenceError(
            f"root not bracketed on [{lo}, {hi}]: f = ({f_lo}, {f_hi})"
        )
    increasing = f_hi > 0.0

    x = 0.5 * (lo + hi)
    for _ in range(_MAX_ITERATIONS):
        fx = f(x)
        if fx == 0.0:
            return x
        if (fx > 0.0) == increasing:
            hi = x
        else:
            lo = x
        x_new = 0.5 * (lo + hi)
        d = 0.0 if f_prime is None else f_prime(x)
        if d != 0.0 and math.isfinite(d) and lo < x - fx / d < hi:
            x_new = x - fx / d
        tol = 4.0 * _EPS * max(abs(lo), abs(hi))
        if hi - lo <= tol or abs(x_new - x) <= tol:
            return x_new
        x = x_new
    raise ConvergenceError("root finder exhausted its iteration budget")
