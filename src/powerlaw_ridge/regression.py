"""Random-design data generation and closed-form ridge regression.

The data model is the high-dimensional random design X = Sigma^(1/2) Z with
diagonal power-law covariance (lambda_i = i^-alpha), labels
y = X^T beta_star + eps, and Gaussian noise of variance sigma_sq.  Since
Sigma is diagonal, Sigma^(1/2) Z is a row scaling of an i.i.d. Gaussian
matrix; no matrix square root is ever formed.

Ridge fits use whichever closed form is cheaper: the primal normal
equations when p <= n, the Woodbury dual form
beta = X (X^T X + n rho I)^-1 y when p > n.  Both are solved with a
symmetric positive-definite factorization of the dataset's Gram matrix.
One fit_ridge call takes every penalty fitted on a dataset (a harness tau
grid) and computes the Gram, and checks it and the data finite, once;
each penalty but the last factors one copy of it, and the last the Gram
itself, in place, so a one-penalty fit holds one Gram-sized matrix.

Every BLAS call on this path (the Gram, the labels and the fit's
matrix-vector products) goes through scipy.linalg.blas, the same BLAS
library that cho_factor and cho_solve call.  numpy and scipy may each
bundle their own OpenBLAS with its own thread pool, and a pool's workers
spin for a while after each threaded call; alternating between the two
libraries leaves each call sharing the cores with the other pool's
spinning workers.

Draws are prefix-consistent: the design of a smaller (n, p) with the same
seed is the leading block of a larger one, so :func:`nested` can cut a
whole grid of sample counts out of a single draw.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

# the fit path's products, not numpy's @, so that they run in the BLAS (and
# thread pool) of cho_factor and cho_solve; see the module docstring.  Each
# passes X.T, which is Fortran-ordered for the C-ordered X the package
# draws, so f2py hands BLAS the data without a copy.
from scipy.linalg.blas import dgemv, dsyrk

from .errors import DomainError

# Definition of the estimator requires rho > 0; values this small only guard
# against accidental underflow to zero.
_RHO_FLOOR = 1e-300

# generate draws this many sample columns into a row-major buffer before
# writing them into X, and gram_matrix mirrors this many rows of the
# Gram's triangle at a time; 128 rows of p = 2000 are 2 MB.
_BLOCK_COLUMNS = 128


@dataclass(frozen=True)
class DataModel:
    """Specification of one synthetic regression instance."""

    n: int
    p: int
    alpha: float
    sigma_sq: float
    beta_star_scale: float | None = None  # per-coordinate variance; None -> 10/p
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 1 or self.p < 1:
            raise DomainError(f"n and p must be >= 1, got n={self.n}, p={self.p}")
        if not self.alpha > 1.0:
            raise DomainError(f"alpha must exceed 1, got {self.alpha}")
        if self.sigma_sq < 0.0:
            raise DomainError(f"sigma_sq must be >= 0, got {self.sigma_sq}")
        if self.beta_star_scale is not None and self.beta_star_scale < 0.0:
            raise DomainError("beta_star_scale must be >= 0")

    @property
    def beta_variance(self) -> float:
        return self.beta_star_scale if self.beta_star_scale is not None else 10.0 / self.p


@dataclass(frozen=True, eq=False)
class Dataset:
    """One realized instance; columns of X are samples."""

    X: np.ndarray = field(repr=False)  # (p, n)
    y: np.ndarray = field(repr=False)  # (n,)
    beta_star: np.ndarray = field(repr=False)  # (p,)
    eigenvalues: np.ndarray = field(repr=False)  # (p,), lambda_i = i^-alpha
    sigma_sq: float = 0.0


def gram_matrix(data: Dataset) -> np.ndarray:
    """The matrix fit_ridge factors, before the penalty: a new C-ordered
    X^T X (n x n) when p > n, X X^T / n (p x p) otherwise.

    This is a fit's one finiteness check: non-finite entries in X or y, or
    a Gram that overflows, raise DomainError.  BLAS syrk fills the lower
    triangle, which is mirrored into the upper one, so the Gram is exactly
    symmetric.
    """
    X = np.ascontiguousarray(data.X)
    if not (np.isfinite(X).all() and np.isfinite(data.y).all()):
        raise DomainError("data contains non-finite entries")
    p, n = X.shape
    # syrk's Fortran-ordered lower triangle is the C-ordered upper one that
    # numpy's X.T @ X computes, bit for bit; the upper triangle differs from
    # it in the last bits at some shapes
    gram = dsyrk(1.0, X.T, trans=0 if p > n else 1, lower=1).T
    _mirror_upper(gram)
    if p <= n:
        gram /= n
    if not np.isfinite(gram).all():
        raise DomainError("the Gram matrix of the design overflows")
    return gram


def _mirror_upper(a: np.ndarray) -> None:
    """Copy the upper triangle of the C-ordered square ``a`` into its lower
    one, in place, a block of rows at a time."""
    m = len(a)
    for i0 in range(0, m, _BLOCK_COLUMNS):
        i1 = min(i0 + _BLOCK_COLUMNS, m)
        a[i1:, i0:i1] = a[i0:i1, i1:].T
        block = a[i0:i1, i0:i1]
        lower = np.tril_indices(i1 - i0, -1)
        block[lower] = block.T[lower]


@dataclass(frozen=True, eq=False)
class RidgeFit:
    """Fitted coefficients with their closed-form metrics."""

    beta_hat: np.ndarray = field(repr=False)
    rho: float = 0.0
    train_mse: float = 0.0
    test_mse_analytic: float = 0.0
    sq_norm: float = 0.0


def generate(model: DataModel) -> Dataset:
    """Draw one dataset, bit-reproducibly in the model seed.

    Separate generator streams are derived for the coefficients, the noise,
    and each sample column, so columns could be produced in any order (or in
    parallel) without changing the result.  Columns are drawn as contiguous
    rows of a small block buffer, scaled there, and each block is written
    into the C-ordered X once, so no column is written with a stride.  X is
    not checked here; gram_matrix checks it once per fit_ridge call.
    """
    n, p = model.n, model.p
    lam = power_law_spectrum(p, model.alpha)
    sqrt_lam = np.sqrt(lam)
    streams = np.random.SeedSequence([model.seed, 3]).spawn(n)
    X = np.empty((p, n))
    block = np.empty((min(_BLOCK_COLUMNS, n), p))
    for j0 in range(0, n, _BLOCK_COLUMNS):
        rows = block[: min(_BLOCK_COLUMNS, n - j0)]
        for row, child in zip(rows, streams[j0 : j0 + len(rows)]):
            np.random.default_rng(child).standard_normal(out=row)
        rows *= sqrt_lam
        X[:, j0 : j0 + len(rows)] = rows.T
    return _label(model, X, lam)


def nested(full: Dataset, model: DataModel) -> Dataset:
    """The dataset generate(model) would draw, cut out of a larger draw.

    ``full`` must come from generate with the same seed and alpha and at
    least model's n and p.  Column j's stream does not depend on n and its
    first p normals do not depend on p, so X is the leading (p, n) block of
    full.X; only the coefficients and labels (p + n normals) are redrawn.
    """
    p_full, n_full = full.X.shape
    if model.p > p_full or model.n > n_full:
        raise DomainError(
            f"cannot cut (p, n) = ({model.p}, {model.n}) out of a "
            f"({p_full}, {n_full}) draw"
        )
    X = np.ascontiguousarray(full.X[: model.p, : model.n])
    return _label(model, X, power_law_spectrum(model.p, model.alpha))


def power_law_spectrum(p: int, alpha: float) -> np.ndarray:
    """The covariance eigenvalues lambda_i = i^-alpha, i = 1..p."""
    return np.arange(1, p + 1, dtype=float) ** -alpha


def feature_count(n: int, gamma: float) -> int:
    """Feature dimension p = round(n / gamma) of n samples at aspect ratio gamma."""
    return int(round(n / gamma))


def _label(model: DataModel, X: np.ndarray, lam: np.ndarray) -> Dataset:
    beta_rng = np.random.default_rng([model.seed, 1])
    beta_star = beta_rng.standard_normal(model.p) * np.sqrt(model.beta_variance)
    noise_rng = np.random.default_rng([model.seed, 2])
    eps = noise_rng.standard_normal(model.n) * np.sqrt(model.sigma_sq)
    y = dgemv(1.0, X.T, beta_star) + eps
    return Dataset(X=X, y=y, beta_star=beta_star, eigenvalues=lam, sigma_sq=model.sigma_sq)


def analytic_test_mse(beta_hat: np.ndarray, data: Dataset, sigma_sq: float) -> float:
    """Exact test MSE under the Gaussian design:
    sigma_sq + sum_i lambda_i (beta_hat_i - beta_star_i)^2."""
    beta_hat = np.asarray(beta_hat, dtype=float)
    if beta_hat.shape != data.beta_star.shape:
        raise DomainError(
            f"coefficient length {beta_hat.shape} does not match the model "
            f"dimension {data.beta_star.shape}"
        )
    diff = beta_hat - data.beta_star
    return float(sigma_sq + np.sum(data.eigenvalues * diff**2))


def fit_ridge(data: Dataset, rho: float | list[float]) -> RidgeFit | list[RidgeFit]:
    """Closed-form ridge fit; dual (Woodbury) form when p > n, primal else.

    One penalty returns one fit, and a sequence of penalties one fit per
    penalty, in order, all from one Gram (gram_matrix): each penalty but the
    last factors a reused copy of it, and the last the Gram itself, in
    place.  A penalty that is not positive, or that overflows the Gram's
    diagonal, raises DomainError before any factorization; one too small for
    the Cholesky factorization to succeed in floating point raises
    DomainError with the penalty's position as ``penalty_index``.
    """
    rhos = [rho] if np.ndim(rho) == 0 else list(rho)
    for value in rhos:
        if not value > 0.0:
            raise DomainError(f"rho must be positive, got {value}")
    rhos = [max(value, _RHO_FLOOR) for value in rhos]
    X, y = data.X, data.y
    p, n = X.shape
    dual = p > n
    name = "n*rho" if dual else "rho"
    # the Gram is exactly symmetric, so its transpose is the Fortran-ordered
    # matrix LAPACK wants; read the floor before the diagonal is overwritten
    gram = gram_matrix(data).T
    diagonal = np.diag_indices_from(gram)
    floor = float(np.max(gram[diagonal])) * np.finfo(float).eps
    penalties = [n * value if dual else value for value in rhos]
    for penalty in penalties:
        if not np.isfinite(gram[diagonal] + penalty).all():
            raise DomainError(f"penalty {name} = {penalty:.3g} overflows the Gram diagonal")
    copy = np.empty_like(gram) if len(rhos) > 1 else None
    rhs = y if dual else dgemv(1.0, X.T, y, trans=1) / n
    fits = []
    for index, (value, penalty) in enumerate(zip(rhos, penalties)):
        work = gram if index == len(rhos) - 1 else copy
        if work is copy:
            np.copyto(copy, gram)
        work[diagonal] += penalty
        try:
            factor = cho_factor(work, lower=False, overwrite_a=True, check_finite=False)
        except LinAlgError as exc:
            error = DomainError(
                f"Cholesky factorization failed ({exc}): penalty {name} = "
                f"{penalty:.3g} against the Gram's rounding floor max diagonal * eps "
                f"= {floor:.3g}"
            )
            error.penalty_index = index
            raise error from exc
        coef = cho_solve(factor, rhs, check_finite=False)
        beta_hat = dgemv(1.0, X.T, coef, trans=1) if dual else coef
        residual = dgemv(1.0, X.T, beta_hat) - y
        fits.append(
            RidgeFit(
                beta_hat=beta_hat,
                rho=value,
                train_mse=float(np.mean(residual**2)),
                test_mse_analytic=analytic_test_mse(beta_hat, data, data.sigma_sq),
                sq_norm=float(beta_hat @ beta_hat),
            )
        )
    return fits if np.ndim(rho) else fits[0]
