"""Data generation and closed-form ridge fits against independent solves."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

import powerlaw_ridge.regression as regression
from powerlaw_ridge.eigenlearning import AsymptoticRegime, select_regularizer
from powerlaw_ridge.errors import DomainError
from powerlaw_ridge.regression import (
    DataModel,
    analytic_test_mse,
    fit_ridge,
    generate,
    gram_matrix,
    nested,
)


def small_instance(n=5, p=8, alpha=1.75, sigma_sq=1.0, seed=3):
    return generate(DataModel(n=n, p=p, alpha=alpha, sigma_sq=sigma_sq, seed=seed))


class TestGenerate:
    def test_noiseless_labels_are_exact(self):
        data = small_instance(sigma_sq=0.0)
        assert np.array_equal(data.y, data.X.T @ data.beta_star)

    def test_power_law_eigenvalues(self):
        data = generate(DataModel(n=3, p=5, alpha=2.0, sigma_sq=1.0, seed=0))
        expected = np.array([1.0, 1 / 4, 1 / 9, 1 / 16, 1 / 25])
        assert np.allclose(data.eigenvalues, expected, rtol=1e-15)

    def test_deterministic_in_seed(self):
        model = DataModel(n=4, p=6, alpha=1.5, sigma_sq=0.3, seed=11)
        a, b = generate(model), generate(model)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.beta_star, b.beta_star)

    def test_seeds_decouple(self):
        a = generate(DataModel(n=4, p=6, alpha=1.5, sigma_sq=0.3, seed=11))
        b = generate(DataModel(n=4, p=6, alpha=1.5, sigma_sq=0.3, seed=12))
        assert not np.array_equal(a.X, b.X)

    def test_default_coefficient_variance_is_ten_over_p(self):
        model = DataModel(n=10, p=250, alpha=1.5, sigma_sq=1.0, seed=0)
        assert model.beta_variance == pytest.approx(10.0 / 250)
        override = DataModel(
            n=10, p=250, alpha=1.5, sigma_sq=1.0, beta_star_scale=0.0, seed=0
        )
        assert np.array_equal(generate(override).beta_star, np.zeros(250))

    def test_column_scaling_matches_spectrum(self):
        # each row i of X has variance lambda_i; check the first row's scale
        data = generate(DataModel(n=4000, p=3, alpha=2.0, sigma_sq=0.0, seed=5))
        row_vars = np.var(data.X, axis=1)
        assert row_vars == pytest.approx(data.eigenvalues, rel=0.15)

    @pytest.mark.parametrize("n, p", [(50, 100), (256, 512), (1000, 2000), (300, 150)])
    def test_equals_per_column_reference(self, n, p):
        # the reference draws each column into a strided column of X
        model = DataModel(n=n, p=p, alpha=1.75, sigma_sq=0.5, seed=23)
        sqrt_lam = np.sqrt(np.arange(1, p + 1, dtype=float) ** -model.alpha)
        reference = np.empty((p, n))
        for j, child in enumerate(np.random.SeedSequence([model.seed, 3]).spawn(n)):
            reference[:, j] = sqrt_lam * np.random.default_rng(child).standard_normal(p)
        data = generate(model)
        assert np.array_equal(data.X, reference)
        assert data.X.flags.c_contiguous
        eps = np.random.default_rng([model.seed, 2]).standard_normal(n) * np.sqrt(0.5)
        assert np.array_equal(data.y, reference.T @ data.beta_star + eps)

    def test_validation(self):
        with pytest.raises(DomainError):
            DataModel(n=0, p=3, alpha=2.0, sigma_sq=1.0)
        with pytest.raises(DomainError):
            DataModel(n=3, p=3, alpha=1.0, sigma_sq=1.0)
        with pytest.raises(DomainError):
            DataModel(n=3, p=3, alpha=2.0, sigma_sq=-1.0)


class TestNested:
    @pytest.mark.parametrize(
        "full_shape, shape",
        [((60, 90), (40, 60)), ((60, 90), (60, 30)), ((50, 50), (7, 13))],
    )
    def test_equals_a_fresh_draw_bitwise(self, full_shape, shape):
        (n_full, p_full), (n, p) = full_shape, shape
        full = generate(DataModel(n=n_full, p=p_full, alpha=1.25, sigma_sq=0.5, seed=41))
        model = DataModel(n=n, p=p, alpha=1.25, sigma_sq=0.5, seed=41)
        cut, fresh = nested(full, model), generate(model)
        for name in ("X", "y", "beta_star", "eigenvalues"):
            assert np.array_equal(getattr(cut, name), getattr(fresh, name)), name
        assert cut.sigma_sq == fresh.sigma_sq
        assert cut.X.flags.c_contiguous

    def test_rejects_a_larger_shape(self):
        full = small_instance(n=5, p=8)
        with pytest.raises(DomainError):
            nested(full, DataModel(n=6, p=8, alpha=1.75, sigma_sq=1.0, seed=3))
        with pytest.raises(DomainError):
            nested(full, DataModel(n=5, p=9, alpha=1.75, sigma_sq=1.0, seed=3))


class TestFitRidge:
    @pytest.mark.parametrize("shape", [(30, 70), (70, 30)], ids=["dual", "primal"])
    def test_grid_equals_single_penalty_fits(self, shape):
        # the first two penalties factor the reused copy of the Gram, the
        # last the Gram itself, in place
        n, p = shape
        model = DataModel(n=n, p=p, alpha=1.75, sigma_sq=1.0, seed=19)
        rhos = [1e-3, 0.7, 1e-3]
        data = generate(model)
        fits = fit_ridge(data, rhos)
        again = fit_ridge(data, rhos)  # the first call must not disturb the data
        assert len(fits) == len(again) == len(rhos)
        for rho, fit, repeat in zip(rhos, fits, again):
            for other in (fit_ridge(generate(model), rho), repeat):
                assert fit.rho == other.rho == rho
                assert np.array_equal(fit.beta_hat, other.beta_hat)
                assert fit.train_mse == other.train_mse
                assert fit.test_mse_analytic == other.test_mse_analytic
                assert fit.sq_norm == other.sq_norm

    @pytest.mark.parametrize(
        "rhos", [[0.1, -1.0, 0.2], [0.1, 0.2, 0.0], [0.1, np.inf]], ids=str
    )
    def test_bad_penalty_in_a_grid_fails_before_any_factorization(self, monkeypatch, rhos):
        def fail(*args, **kwargs):
            raise AssertionError("a factorization ran before the penalty checks")

        monkeypatch.setattr(regression, "cho_factor", fail)
        with pytest.raises(DomainError, match="must be positive|overflows"):
            fit_ridge(small_instance(n=5, p=8), rhos)

    @pytest.mark.parametrize(
        "shape, rhos, bound",
        [
            ((600, 1200), 0.01, 1.5),
            ((1200, 600), 0.01, 1.5),
            ((600, 1200), [0.01, 0.1, 1.0], 2.5),
            ((1200, 600), [0.01, 0.1, 1.0], 2.5),
        ],
        ids=["dual", "primal", "dual-grid", "primal-grid"],
    )
    def test_peak_memory_is_one_gram_plus_one_copy_for_a_grid(self, shape, rhos, bound):
        # a single penalty factors the Gram in place; a grid adds one copy
        n, p = shape
        data = generate(DataModel(n=n, p=p, alpha=1.5, sigma_sq=0.4, seed=5))
        gram_bytes = 8 * min(n, p) ** 2
        tracemalloc.start()
        try:
            fit_ridge(data, rhos)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound * gram_bytes

    @pytest.mark.parametrize(
        "shape",
        [(40, 90), (1500, 2250), (1126, 1689), (845, 1268), (90, 40), (700, 350), (1200, 800)],
        ids=["dual", "dual-1500", "dual-1126", "dual-845", "primal", "primal-700", "primal-1200"],
    )
    def test_equals_reference_factorization(self, shape):
        # the reference takes every product with numpy's @ and factors a
        # Fortran-ordered copy of its Gram with scipy's default finiteness
        # checks; the larger dual shapes are the norm-growth grid's own
        n, p = shape
        data = generate(DataModel(n=n, p=p, alpha=1.5, sigma_sq=0.4, seed=29))
        X, y = data.X, data.y
        gram = X.T @ X if p > n else X @ X.T / n
        assert np.array_equal(gram_matrix(data), gram)
        for rho in (1e-5, 0.02, 3.0):
            work = np.array(gram, order="F")
            work[np.diag_indices_from(work)] += n * rho if p > n else rho
            factor = cho_factor(work, lower=False, overwrite_a=True)
            if p > n:
                beta_hat = X @ cho_solve(factor, y)
            else:
                beta_hat = cho_solve(factor, X @ y / n)
            fit = fit_ridge(data, rho)
            assert np.array_equal(fit.beta_hat, beta_hat)
            residual = X.T @ beta_hat - y
            assert fit.train_mse == float(np.mean(residual**2))
            assert fit.sq_norm == float(beta_hat @ beta_hat)

    @pytest.mark.parametrize("shape", [(100, 4000), (4000, 100)], ids=["dual", "primal"])
    def test_products_copy_no_design(self, shape):
        # BLAS receives X.T, which is Fortran-ordered for a C-ordered X, so
        # neither the Gram nor a fit copies the design
        n, p = shape
        data = generate(DataModel(n=n, p=p, alpha=1.5, sigma_sq=0.4, seed=7))
        tracemalloc.start()
        try:
            gram_matrix(data)
            fit_ridge(data, 0.01)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < data.X.nbytes / 4

    @pytest.mark.parametrize(
        "shape, cut",
        [
            ((30, 70), np.s_[:, :]),
            ((70, 30), np.s_[:, :]),
            ((300, 900), np.s_[::2, ::3]),  # (p, n) = (450, 100)
            ((300, 900), np.s_[:100, ::2]),  # (p, n) = (100, 150)
        ],
        ids=["dual", "primal", "strided-dual", "strided-primal"],
    )
    def test_gram_is_exactly_symmetric(self, shape, cut):
        n, p = shape
        data = generate(DataModel(n=n, p=p, alpha=1.75, sigma_sq=1.0, seed=31))
        X = data.X[cut]
        data = replace(
            data,
            X=X,
            y=X.T @ data.beta_star[cut[0]],
            beta_star=data.beta_star[cut[0]],
            eigenvalues=data.eigenvalues[cut[0]],
        )
        gram = gram_matrix(data)
        assert np.array_equal(gram, gram.T)
        assert gram.shape == (min(X.shape),) * 2

    def test_rejects_non_finite_penalty(self):
        data = small_instance(n=5, p=8)
        with pytest.raises(DomainError, match="overflows the Gram diagonal"):
            fit_ridge(data, np.inf)
        with pytest.raises(DomainError, match="overflows the Gram diagonal"):
            fit_ridge(data, 1e308)  # n * rho overflows on the dual branch

    def test_rejects_non_finite_data(self):
        data = small_instance(n=5, p=8)
        X_nan = data.X.copy()
        X_nan[2, 3] = np.nan
        y_nan = data.y.copy()
        y_nan[1] = np.nan
        for bad in (replace(data, X=X_nan), replace(data, y=y_nan)):
            with pytest.raises(DomainError, match="non-finite entries"):
                fit_ridge(bad, 0.1)

    def test_rejects_an_overflowing_gram(self):
        data = small_instance(n=5, p=8)
        big = replace(data, X=data.X * 1e160, y=data.y * 1e160)
        with pytest.raises(DomainError, match="Gram matrix of the design overflows"):
            fit_ridge(big, 0.1)

    def test_failed_factorization_is_a_domain_error(self):
        # at alpha = 6 the selected n*rho_n sits near the Gram's rounding
        # floor and the Cholesky factorization breaks down
        regime = AsymptoticRegime(alpha=6.0, gamma_star=0.5, sigma_sq=1.0)
        _, _, rho_n = select_regularizer(regime, 0.2, 800)
        data = generate(DataModel(n=800, p=1600, alpha=6.0, sigma_sq=1.0, seed=0))
        with pytest.raises(DomainError, match=r"n\*rho = 8.41e-15 .* eps = 2.21e-15"):
            fit_ridge(data, rho_n)

    def test_dominant_ridge_shrinks_to_zero(self):
        data = small_instance()
        top = float(np.max(np.linalg.eigvalsh(data.X @ data.X.T / data.X.shape[1])))
        fit = fit_ridge(data, 1e9 * top)
        assert np.linalg.norm(fit.beta_hat) < 1e-6 * np.linalg.norm(data.beta_star)

    def test_interpolating_limit_noiseless(self):
        data = small_instance(n=5, p=12, sigma_sq=0.0)
        fit = fit_ridge(data, 1e-12)
        assert fit.train_mse < 1e-8

    @pytest.mark.parametrize("seed", range(20))
    def test_primal_dual_agreement(self, seed):
        data = small_instance(n=5, p=8, seed=seed)
        n = 5
        fit = fit_ridge(data, 0.3)
        primal = np.linalg.solve(
            data.X @ data.X.T / n + 0.3 * np.eye(8), data.X @ data.y / n
        )
        assert np.linalg.norm(fit.beta_hat - primal) <= 1e-10 * np.linalg.norm(primal)

    def test_primal_branch_matches_normal_equations(self):
        data = small_instance(n=9, p=4, seed=1)
        fit = fit_ridge(data, 0.2)
        direct = np.linalg.solve(
            data.X @ data.X.T / 9 + 0.2 * np.eye(4), data.X @ data.y / 9
        )
        assert np.allclose(fit.beta_hat, direct, rtol=1e-12, atol=1e-14)

    def test_metrics_recompute(self):
        data = small_instance(seed=8)
        fit = fit_ridge(data, 0.05)
        train = float(np.mean((data.X.T @ fit.beta_hat - data.y) ** 2))
        assert fit.train_mse == pytest.approx(train, abs=1e-10)
        assert fit.sq_norm == pytest.approx(float(fit.beta_hat @ fit.beta_hat))
        assert fit.test_mse_analytic >= data.sigma_sq

    def test_ridge_optimality_against_perturbations(self):
        data = small_instance(n=6, p=10, seed=13)
        rho = 0.1
        fit = fit_ridge(data, rho)

        def objective(beta):
            return float(
                np.mean((data.X.T @ beta - data.y) ** 2) + rho * beta @ beta
            )

        base = objective(fit.beta_hat)
        rng = np.random.default_rng(99)
        for _ in range(100):
            delta = rng.standard_normal(10) * 10.0 ** rng.uniform(-6, 0)
            assert objective(fit.beta_hat + delta) >= base

    def test_rejects_nonpositive_rho(self):
        data = small_instance()
        with pytest.raises(DomainError):
            fit_ridge(data, 0.0)
        with pytest.raises(DomainError):
            fit_ridge(data, -0.1)


class TestAnalyticTestMse:
    def test_truth_recovers_noise_floor(self):
        data = small_instance(sigma_sq=0.7)
        assert analytic_test_mse(data.beta_star, data, 0.7) == pytest.approx(0.7)

    def test_zero_estimate_on_unit_signal(self):
        data = generate(
            DataModel(n=3, p=4, alpha=2.0, sigma_sq=1.0, beta_star_scale=0.0, seed=0)
        )
        beta_star = np.zeros(4)
        beta_star[0] = 1.0
        data = type(data)(
            X=data.X,
            y=data.y,
            beta_star=beta_star,
            eigenvalues=data.eigenvalues,
            sigma_sq=1.0,
        )
        assert analytic_test_mse(np.zeros(4), data, 1.0) == pytest.approx(2.0)

    def test_matches_monte_carlo_oracle(self):
        data = small_instance(n=30, p=60, sigma_sq=0.5, seed=21)
        fit = fit_ridge(data, 0.02)
        analytic = analytic_test_mse(fit.beta_hat, data, 0.5)
        # large held-out draw; compare within three standard errors
        n_test = 100_000
        rng = np.random.default_rng(1234)
        X_test = np.sqrt(data.eigenvalues)[:, None] * rng.standard_normal((60, n_test))
        y_test = X_test.T @ data.beta_star + rng.standard_normal(n_test) * np.sqrt(0.5)
        sq_errors = (X_test.T @ fit.beta_hat - y_test) ** 2
        se = float(np.std(sq_errors) / np.sqrt(n_test))
        assert abs(float(np.mean(sq_errors)) - analytic) <= 3.0 * se

    def test_dimension_mismatch(self):
        data = small_instance()
        with pytest.raises(DomainError):
            analytic_test_mse(np.zeros(3), data, 1.0)


class TestSweepRho:
    """Fits along a sweep of rho on one dataset."""

    def test_norm_monotone_decreasing_in_rho(self):
        data = small_instance(n=6, p=12, seed=23)
        fits = [fit_ridge(data, rho) for rho in np.geomspace(1e-6, 10.0, 12)]
        norms = [fit.sq_norm for fit in fits]
        assert all(a >= b for a, b in zip(norms, norms[1:]))

    def test_train_mse_nondecreasing_in_rho(self):
        data = small_instance(n=6, p=12, seed=29)
        fits = [fit_ridge(data, rho) for rho in np.geomspace(1e-6, 10.0, 12)]
        train = [fit.train_mse for fit in fits]
        assert all(b >= a for a, b in zip(train, train[1:]))

    def test_grid_matches_independent_fits(self):
        data = small_instance(n=7, p=11, seed=31)
        for rho in np.geomspace(1e-4, 100.0, 16):
            shared = fit_ridge(data, rho)
            direct = fit_ridge(small_instance(n=7, p=11, seed=31), rho)
            assert np.array_equal(shared.beta_hat, direct.beta_hat)


class TestNormLowerBound:
    def test_expectation_identity_under_zero_signal(self):
        # with beta_star = 0 the norm lower bound holds with equality in
        # expectation: E||beta||^2 = sigma^2/n * tr((Cov + rho I)^-2 Cov);
        # compare the paired Monte-Carlo means within three standard errors
        n, p, trials = 40, 80, 200
        sigma_sq = 1.0
        rho = float(n) ** -1.75
        diffs = []
        for seed in range(trials):
            data = generate(
                DataModel(
                    n=n, p=p, alpha=1.75, sigma_sq=sigma_sq,
                    beta_star_scale=0.0, seed=seed,
                )
            )
            fit = fit_ridge(data, rho)
            s = np.linalg.svd(data.X, compute_uv=False)
            cov_eigs = s**2 / n
            trace_term = float(np.sum(cov_eigs / (cov_eigs + rho) ** 2))
            diffs.append(fit.sq_norm - sigma_sq / n * trace_term)
        diffs = np.array(diffs)
        se = float(np.std(diffs, ddof=1) / np.sqrt(trials))
        assert abs(float(np.mean(diffs))) <= 3.0 * se
