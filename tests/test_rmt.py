"""Spectral-measure operations and the random-matrix lemma identities."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import gram_to_covariance_check, stieltjes
from powerlaw_ridge import harness
from powerlaw_ridge.eigenlearning import AsymptoticRegime, k_of_r
from powerlaw_ridge.errors import DomainError
from powerlaw_ridge.harness import SweepConfig, run_tradeoff_sweep
from powerlaw_ridge.regression import DataModel, design_blocks, generate
from powerlaw_ridge.rmt import (
    LimitCdf,
    SpectralMeasure,
    d_rS_dr,
    esd_cdf,
    limit_cdf,
    positivity_check,
    scaled_gram_eigenvalues,
    self_consistent_residual,
)

atom_lists = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=40
)


def power_law_scaled_atoms(n, p, alpha):
    # spectrum of n^alpha * diag(i^-alpha) is (n/i)^alpha
    return np.sort((n / np.arange(1, p + 1, dtype=float)) ** alpha)


class TestEsdCdf:
    def test_scaled_power_law_count(self):
        # n=4, p=8, alpha=2: five of the eight atoms lie at or below 1
        measure = SpectralMeasure(power_law_scaled_atoms(4, 8, 2.0))
        assert esd_cdf(measure, 1.0) == pytest.approx(5.0 / 8.0)

    def test_below_and_above_support(self):
        measure = SpectralMeasure(np.array([0.5, 1.0, 2.0]))
        assert esd_cdf(measure, 0.4) == 0.0
        assert esd_cdf(measure, 2.5) == 1.0

    @given(atoms=atom_lists, t=st.floats(min_value=-1e6, max_value=2e6))
    def test_bounded_and_monotone(self, atoms, t):
        measure = SpectralMeasure(np.sort(np.asarray(atoms)))
        value = esd_cdf(measure, t)
        assert 0.0 <= value <= 1.0
        assert esd_cdf(measure, t + 1.0) >= value

    def test_validation(self):
        with pytest.raises(DomainError):
            SpectralMeasure(np.array([]))
        with pytest.raises(DomainError):
            SpectralMeasure(np.array([2.0, 1.0]))


class TestLimitCdf:
    def test_zero_at_left_edge(self):
        assert limit_cdf(LimitCdf(2.0, 0.5), 0.25) == 0.0

    def test_formula_value(self):
        assert limit_cdf(LimitCdf(2.0, 0.5), 1.0) == pytest.approx(0.5)

    def test_tends_to_one(self):
        assert limit_cdf(LimitCdf(2.0, 0.5), 1e12) == pytest.approx(1.0, abs=1e-5)

    def test_staircase_matches_limit_within_bound(self):
        n, p = 200, 400
        gamma = n / p
        for alpha in (1.25, 2.5):
            measure = SpectralMeasure(power_law_scaled_atoms(n, p, alpha))
            limit = LimitCdf(alpha, gamma)
            grid = np.geomspace(gamma**alpha + 1.0 / n, float(n) ** alpha, 2000)
            dev = max(
                abs(esd_cdf(measure, float(t)) - limit_cdf(limit, float(t)))
                for t in grid
            )
            assert dev <= 2.0 / p + gamma / n


class TestStieltjes:
    def test_unit_atoms(self):
        assert stieltjes(SpectralMeasure(np.ones(4)), -1.0) == pytest.approx(0.5)

    def test_hand_evaluated_sum(self):
        assert stieltjes(SpectralMeasure(np.array([2.0, 4.0])), -2.0) == pytest.approx(
            5.0 / 24.0
        )

    @given(atoms=atom_lists, r=st.floats(min_value=1e-6, max_value=1e6))
    def test_positive_below_support(self, atoms, r):
        measure = SpectralMeasure(np.sort(np.asarray(atoms)))
        assert stieltjes(measure, -r) > 0.0

    def test_rejects_z_in_support(self):
        measure = SpectralMeasure(np.array([0.0, 1.0]))
        with pytest.raises(DomainError):
            stieltjes(measure, 0.0)
        with pytest.raises(DomainError):
            stieltjes(measure, 0.5)


class TestDerivativeFormula:
    def test_zero_measure(self):
        assert d_rS_dr(SpectralMeasure(np.zeros(5)), 0.7) == 0.0

    def test_unit_atoms(self):
        assert d_rS_dr(SpectralMeasure(np.ones(3)), 1.0) == pytest.approx(0.25)

    def test_matches_finite_difference(self):
        rng = np.random.default_rng(42)
        measure = SpectralMeasure(np.sort(rng.uniform(0.0, 3.0, size=50)))
        r, h = 0.3, 1e-5
        fd = (
            (r + h) * stieltjes(measure, -(r + h))
            - (r - h) * stieltjes(measure, -(r - h))
        ) / (2 * h)
        assert d_rS_dr(measure, r) == pytest.approx(fd, abs=1e-6)

    def test_rejects_nonpositive_r(self):
        with pytest.raises(DomainError):
            d_rS_dr(SpectralMeasure(np.ones(2)), 0.0)


@pytest.fixture(scope="module")
def solved_pair():
    regime = AsymptoticRegime(alpha=1.75, gamma_star=0.5, sigma_sq=1.0)
    return 1.0, k_of_r(regime, 1.0)


class TestSelfConsistentResidual:
    def residual_at(self, n, r, k, alpha=1.75, gamma=0.5):
        p = int(round(n / gamma))
        lam = np.arange(1, p + 1, dtype=float) ** -alpha
        return self_consistent_residual(lam, n, r, k, alpha)

    def test_small_at_moderate_n(self, solved_pair):
        r, k = solved_pair
        assert self.residual_at(2000, r, k) < 0.02

    def test_refinement_ordering(self, solved_pair):
        r, k = solved_pair
        residuals = [self.residual_at(n, r, k) for n in (250, 500, 1000, 2000)]
        assert all(b < a for a, b in zip(residuals, residuals[1:]))

    def test_large_n_proxy(self, solved_pair):
        r, k = solved_pair
        assert self.residual_at(10_000, r, k) < 0.005

    def test_rejects_bad_k(self):
        with pytest.raises(DomainError):
            self_consistent_residual(np.ones(4), 4, 1.0, 0.0, 2.0)


class TestGramToCovariance:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_small_instances(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((10, 5))
        assert gram_to_covariance_check(X, 1.0, -1.0) < 1e-8

    @pytest.mark.parametrize("seed", range(20))
    def test_scaled_instances(self, seed):
        rng = np.random.default_rng(1000 + seed)
        X = rng.standard_normal((40, 20))
        assert gram_to_covariance_check(X, 20.0**1.75, -0.5) < 1e-8

    def test_zero_matrix(self):
        assert gram_to_covariance_check(np.zeros((10, 5)), 1.0, -1.0) < 1e-12

    def test_rejects_wide_matrices_and_bad_z(self):
        with pytest.raises(DomainError):
            gram_to_covariance_check(np.zeros((5, 10)), 1.0, -1.0)
        with pytest.raises(DomainError):
            gram_to_covariance_check(np.zeros((10, 5)), 1.0, 0.5)
        with pytest.raises(DomainError):
            gram_to_covariance_check(np.full((10, 5), np.nan), 1.0, -1.0)


class TestPositivity:
    def test_means_positive_for_random_design(self):
        results = positivity_check(
            alpha=1.75, gamma_star=0.5, n=200, r_grid=[0.1, 1.0, 10.0], trials=10, seed=0
        )
        assert [r for r, _ in results] == [0.1, 1.0, 10.0]
        assert all(mean > 0.0 for _, mean in results)

    def test_degenerate_spectrum_flags_violation(self):
        # an all-zero Gram spectrum sits exactly on the boundary of the
        # strict inequality the norm-growth argument needs
        mean = d_rS_dr(SpectralMeasure(np.zeros(16)), 1.0)
        assert mean == 0.0
        assert not mean > 0.0

    def test_stable_across_n(self):
        small = dict(positivity_check(1.75, 0.5, 200, [1.0], trials=10, seed=3))
        large = dict(positivity_check(1.75, 0.5, 800, [1.0], trials=10, seed=3))
        assert small[1.0] > 0.0 and large[1.0] > 0.0
        assert abs(small[1.0] - large[1.0]) < 0.2 * max(small[1.0], large[1.0])

    def test_deterministic_in_seed(self):
        a = positivity_check(1.75, 0.5, 100, [0.5, 2.0], trials=4, seed=9)
        b = positivity_check(1.75, 0.5, 100, [0.5, 2.0], trials=4, seed=9)
        assert a == b

    @pytest.mark.parametrize("seed", [0, 11])
    def test_inspects_the_designs_a_tradeoff_sweep_fits(self, seed, monkeypatch):
        # trial t of diagnose at seed s is the design that trial t of a
        # tradeoff sweep at seed s fits, so each mean is the one recomputed
        # from the blocked Gram of the sweep's designs
        n, r_grid = 200, [0.1, 1.0, 10.0]
        designs = []

        def record(model):
            data = generate(model)
            designs.append(data.X.copy())
            return data

        monkeypatch.setattr(harness, "generate", record)
        config = SweepConfig(AsymptoticRegime(1.75, 0.5), (0.3,), 3, seed)
        run_tradeoff_sweep(config, n)
        assert len(designs) == 3
        sums = np.zeros(len(r_grid))
        for X in designs:
            measure = SpectralMeasure.from_eigenvalues(blocked_reference(X))
            sums += [d_rS_dr(measure, r) for r in r_grid]
        expected = [(r, float(total / 3)) for r, total in zip(r_grid, sums)]
        assert positivity_check(1.75, 0.5, n, r_grid, trials=3, seed=seed) == expected

    def test_validation(self):
        with pytest.raises(DomainError):
            positivity_check(1.75, 0.5, 100, [], trials=2, seed=0)
        with pytest.raises(DomainError):
            positivity_check(1.75, 0.5, 100, [-1.0], trials=2, seed=0)
        with pytest.raises(DomainError):
            positivity_check(1.75, 0.5, 100, [1.0], trials=0, seed=0)


class TestSpectralMeasureClamping:
    def test_rounding_noise_clamped_to_zero(self):
        atoms = np.array([-1e-15, 2e-14, 1.0])
        measure = SpectralMeasure.from_eigenvalues(atoms)
        assert measure.atoms[0] == 0.0
        assert measure.atoms[1] == 0.0

    def test_large_negative_rejected(self):
        with pytest.raises(DomainError):
            SpectralMeasure.from_eigenvalues(np.array([-0.5, 1.0]))

    def test_gram_sampler_shape(self):
        values = scaled_gram_eigenvalues(20, 40, 1.5, 0)
        assert values.shape == (20,)

    @pytest.mark.parametrize("n, p", [(20, 40), (1000, 2000), (300, 150)])
    def test_gram_sampler_equals_reference(self, n, p):
        values = scaled_gram_eigenvalues(n, p, 1.75, 4)
        assert np.array_equal(values, blocked_reference(generated_design(n, p, 4)))

    def test_gram_sampler_calls_no_numpy_eigvalsh(self, monkeypatch):
        # the sampler decomposes in scipy's LAPACK, the fits' library, and
        # still matches numpy's eigvalsh bit for bit
        reference = blocked_reference(generated_design(300, 600, 6))

        def fail(*args, **kwargs):
            raise AssertionError("numpy.linalg.eigvalsh was called")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        values = scaled_gram_eigenvalues(300, 600, 1.75, 6)
        assert np.array_equal(values, reference)

    @pytest.mark.parametrize("n, p", [(20, 40), (1000, 2000), (300, 150), (129, 257)])
    @pytest.mark.parametrize("seed", [2, 3])
    def test_gram_sampler_agrees_with_one_shot_gram(self, n, p, seed):
        # oracle: eigenvalues of the one-shot X^T X, which sums the features
        # in another order; rounding moves each atom above 1e-8 of the
        # largest by far less than 1e-10 relative, and every atom by far
        # less than 1e-14 of the largest
        X = generated_design(n, p, seed)
        oracle = float(n) ** 1.75 * np.linalg.eigvalsh(X.T @ X / n)
        values = scaled_gram_eigenvalues(n, p, 1.75, seed)
        large = oracle > 1e-8 * oracle[-1]
        assert np.all(np.abs(values - oracle)[large] <= 1e-10 * oracle[large])
        assert np.all(np.abs(values - oracle) <= 1e-14 * oracle[-1])

    @pytest.mark.parametrize("n, p", [(20, 40), (300, 150), (129, 257)])
    def test_gram_sampler_blocks_are_the_generated_design(self, n, p):
        # the blocks the Gram sums are generate's X, bit for bit, for the
        # seeds positivity_check gives trials 0-2 at seed 8
        for seed in (8, 9, 10):
            blocks = [block.copy() for block in design_blocks(n, p, 1.75, seed)]
            assert [len(block) for block in blocks[:-1]] == [128] * (len(blocks) - 1)
            assert np.array_equal(np.concatenate(blocks), generated_design(n, p, seed))

    def test_gram_sampler_holds_only_the_gram_and_one_block(self):
        # the design is never held whole: 2000 x 1000 doubles would take the
        # peak to three times the Gram's bytes
        n, p = 1000, 2000
        tracemalloc.start()
        try:
            scaled_gram_eigenvalues(n, p, 1.75, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 8 * n * n


def generated_design(n, p, seed):
    return generate(DataModel(n, p, 1.75, 1.0, seed=seed)).X


def blocked_reference(X):
    # numpy's products summed over the sampler's 128-row feature blocks, then
    # numpy's eigvalsh, all into fresh arrays
    p, n = X.shape
    gram = np.zeros((n, n))
    for i0 in range(0, p, 128):
        block = X[i0 : i0 + 128]
        gram += block.T @ block
    return float(n) ** 1.75 * np.linalg.eigvalsh(gram / n)
