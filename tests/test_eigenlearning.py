"""Trade-off curve operations against quadrature and antiderivative oracles.

For alpha = 2 the defining integrals have elementary antiderivatives,

    I(k) = arctan(sqrt(k)/gamma) / sqrt(k),
    J(k) = 1/(2 gamma (1 + k/gamma^2)) + I(k)/2,

which pin the expected values independently of the hypergeometric code
path.  Other exponents are checked against adaptive quadrature of the
defining integrals.
"""

import math

import mpmath
import numpy as np
import pytest

import powerlaw_ridge.eigenlearning as eigenlearning
from oracles import QuadratureSpec, adaptive_gauss_legendre
from powerlaw_ridge.eigenlearning import (
    AsymptoticRegime,
    asymptotic_errors,
    check_train_error_monotone,
    finite_n_prediction,
    integral_i,
    integral_j,
    k_crit,
    k_of_r,
    r_of_k,
    select_regularizer,
    train_error_of_k,
)
from powerlaw_ridge.errors import ConvergenceError, DomainError
from powerlaw_ridge.regression import DataModel, fit_ridge, generate

REGIME_SQUARE = AsymptoticRegime(alpha=2.0, gamma_star=1.0, sigma_sq=1.0)
REGIME_HALF = AsymptoticRegime(alpha=2.0, gamma_star=0.5, sigma_sq=1.0)
REGIME_PAPER = AsymptoticRegime(alpha=1.75, gamma_star=0.5, sigma_sq=1.0)


def arctan_i(gamma, k):
    return math.atan(math.sqrt(k) / gamma) / math.sqrt(k)


def arctan_j(gamma, k):
    upper = 1.0 / gamma
    return upper / (2.0 * (1.0 + k * upper**2)) + 0.5 * arctan_i(gamma, k)


def quadrature_i(regime, k, a=1.0, upper=None):
    upper = 1.0 / regime.gamma_star if upper is None else upper
    spec = QuadratureSpec(abs_tol=1e-300, rel_tol=1e-12, max_subdivisions=4000)
    return adaptive_gauss_legendre(
        lambda x: (1.0 + k * x**regime.alpha) ** (-a), 0.0, upper, spec
    )


def mpmath_train_error_root(alpha, gamma_star, tau, k_start):
    """(k, R(k)) at the root of E_train(k) = tau, sigma_sq = 1, at 50 digits."""
    with mpmath.workdps(50):
        a = mpmath.mpf(alpha)
        b = 1 / a
        g = mpmath.mpf(gamma_star)

        def i_and_j(k):
            if g == 0:
                i = k**-b * mpmath.pi / (a * mpmath.sin(mpmath.pi / a))
                return i, (1 - b) * i
            z = -k * g**-a
            return mpmath.hyp2f1(1, b, 1 + b, z) / g, mpmath.hyp2f1(2, b, 1 + b, z) / g

        def e_train(k):
            i, j = i_and_j(k)
            return (1 - i) ** 2 / (1 - j)

        k = mpmath.findroot(lambda k: e_train(k) - mpmath.mpf(tau), mpmath.mpf(k_start))
        return k, k * (1 - i_and_j(k)[0])


class TestIntegrals:
    def test_i_at_zero_is_inverse_gamma(self):
        assert integral_i(REGIME_SQUARE, 0.0) == 1.0
        assert integral_i(REGIME_HALF, 0.0) == 2.0

    def test_i_arctan_values(self):
        assert integral_i(REGIME_SQUARE, 1.0) == pytest.approx(math.pi / 4, rel=1e-12)
        assert integral_i(REGIME_HALF, 1.0) == pytest.approx(math.atan(2.0), rel=1e-12)

    def test_j_at_zero_is_inverse_gamma(self):
        for gamma_star in (0.5, 1.0, 2.0):
            regime = AsymptoticRegime(alpha=1.75, gamma_star=gamma_star)
            assert integral_j(regime, 0.0) == 1.0 / gamma_star

    @pytest.mark.parametrize(
        "alpha", [1.0001, 1.001, 1.01, 1.1, 1.25, 1.75, 2.5, 4.0, 8.0]
    )
    @pytest.mark.parametrize("gamma_star", [0.5, 1.0, 2.0])
    def test_j_agrees_with_mpmath(self, alpha, gamma_star):
        # J comes from I by Gauss's contiguous relation; compared with
        # F(2, b; b+1; z) / g at 50 digits over z in [-1e12, 0], it is off by
        # at most 6.8e-16 relative, well inside the bound fixed beforehand
        regime = AsymptoticRegime(alpha=alpha, gamma_star=gamma_star)
        with mpmath.workdps(50):
            b, g = mpmath.mpf(1.0 / alpha), mpmath.mpf(gamma_star)
            for z in np.concatenate([[0.0], -np.geomspace(1e-6, 1e12, 37)]):
                k = float(-z * gamma_star**alpha)
                expected = mpmath.hyp2f1(2, b, 1 + b, -k * g ** -mpmath.mpf(alpha)) / g
                assert abs(integral_j(regime, k) - expected) <= 1e-13 * expected

    @pytest.mark.parametrize("alpha", [1.0001, 1.75, 8.0])
    def test_j_is_scaled_i_at_gamma_zero(self, alpha):
        regime = AsymptoticRegime(alpha=alpha, gamma_star=0.0)
        for k in map(float, np.geomspace(1e-6, 1e12, 10)):
            assert integral_j(regime, k) == (1 - 1 / alpha) * integral_i(regime, k)

    def test_j_arctan_values(self):
        assert integral_j(REGIME_SQUARE, 1.0) == pytest.approx(
            0.25 + math.pi / 8, rel=1e-12
        )
        assert integral_j(REGIME_HALF, 1.0) == pytest.approx(
            arctan_j(0.5, 1.0), rel=1e-12
        )

    def test_j_against_quadrature_off_family(self):
        regime = AsymptoticRegime(alpha=1.75, gamma_star=0.5)
        assert integral_j(regime, 10.0) == pytest.approx(
            quadrature_i(regime, 10.0, a=2.0), rel=1e-10
        )

    def test_gamma_zero_closed_forms_against_truncated_quadrature(self):
        regime = AsymptoticRegime(alpha=1.75, gamma_star=0.0)
        for k in (10.0, 1e3):
            assert integral_i(regime, k) == pytest.approx(
                quadrature_i(regime, k, a=1.0, upper=1e6), rel=1e-4
            )
            assert integral_j(regime, k) == pytest.approx(
                quadrature_i(regime, k, a=2.0, upper=1e6), rel=1e-4
            )

    def test_gamma_zero_at_zero_diverges(self):
        regime = AsymptoticRegime(alpha=2.0, gamma_star=0.0)
        assert integral_i(regime, 0.0) == math.inf
        assert integral_j(regime, 0.0) == math.inf

    def test_negative_k_rejected(self):
        with pytest.raises(DomainError):
            integral_i(REGIME_SQUARE, -0.5)
        with pytest.raises(DomainError):
            integral_j(REGIME_SQUARE, -0.5)

    def test_ordering_j_below_i_below_inverse_gamma(self):
        for regime in (REGIME_SQUARE, REGIME_HALF, REGIME_PAPER):
            for k in np.geomspace(1e-4, 1e5, 25):
                i = integral_i(regime, float(k))
                j = integral_j(regime, float(k))
                assert j <= i <= 1.0 / regime.gamma_star


class TestRegularizerFactor:
    def test_zero_at_zero(self):
        assert r_of_k(REGIME_SQUARE, 0.0) == 0.0
        assert r_of_k(REGIME_PAPER, 0.0) == 0.0

    def test_arctan_values(self):
        assert r_of_k(REGIME_SQUARE, 1.0) == pytest.approx(1 - math.pi / 4, rel=1e-12)
        # below k_crit the factor is negative
        assert r_of_k(REGIME_HALF, 1.0) == pytest.approx(1 - math.atan(2.0), rel=1e-12)

    def test_strictly_increasing_above_k_crit(self):
        for regime in (REGIME_SQUARE, REGIME_HALF, REGIME_PAPER):
            kc = k_crit(regime)
            ks = np.geomspace(kc + 1e-6, kc + 1e6, 40)
            values = [r_of_k(regime, float(k)) for k in ks]
            assert all(v2 > v1 for v1, v2 in zip(values, values[1:]))


class TestKCrit:
    def test_zero_when_gamma_at_least_one(self):
        assert k_crit(REGIME_SQUARE) == 0.0
        assert k_crit(AsymptoticRegime(alpha=1.5, gamma_star=2.0)) == 0.0

    def test_arctan_fixed_point(self):
        # gamma = 1/2, alpha = 2: I(k) = 1 means arctan(2 sqrt(k)) = sqrt(k)
        kc = k_crit(REGIME_HALF)
        u = math.sqrt(kc)
        assert math.atan(2.0 * u) == pytest.approx(u, abs=1e-12)
        assert abs(r_of_k(REGIME_HALF, kc)) < 1e-10

    def test_root_and_positivity_off_family(self):
        regime = AsymptoticRegime(alpha=1.25, gamma_star=2.0 / 3.0)
        kc = k_crit(regime)
        assert kc > 0.0
        assert abs(r_of_k(regime, kc)) < 1e-10
        assert r_of_k(regime, kc + 0.1) > 0.0

    def test_gamma_zero_closed_form(self):
        regime = AsymptoticRegime(alpha=2.0, gamma_star=0.0)
        # I(k) = (pi/2)/sqrt(k) hits 1 at k = (pi/2)^2
        assert k_crit(regime) == pytest.approx((math.pi / 2) ** 2, rel=1e-12)
        assert integral_i(regime, k_crit(regime)) == pytest.approx(1.0, rel=1e-12)


class TestKOfR:
    def test_inverse_of_arctan_value(self):
        assert k_of_r(REGIME_SQUARE, 1 - math.pi / 4) == pytest.approx(1.0, rel=1e-10)

    def test_residual_at_large_r(self):
        regime = AsymptoticRegime(alpha=1.75, gamma_star=0.5)
        k = k_of_r(regime, 5.0)
        assert abs(r_of_k(regime, k) - 5.0) < 1e-10

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            k_of_r(REGIME_SQUARE, 0.0)
        with pytest.raises(DomainError):
            k_of_r(REGIME_SQUARE, -1.0)

    def test_small_r_approaches_k_crit(self):
        for regime in (REGIME_HALF, REGIME_PAPER):
            kc = k_crit(regime)
            assert k_of_r(regime, 1e-9) == pytest.approx(kc, rel=1e-6)

    @pytest.mark.parametrize("regime", [REGIME_SQUARE, REGIME_HALF, REGIME_PAPER])
    def test_round_trip(self, regime):
        kc = k_crit(regime)
        for k in np.geomspace(kc + 1e-3, kc + 1e6, 30):
            k = float(k)
            assert k_of_r(regime, r_of_k(regime, k)) == pytest.approx(k, rel=1e-9)


class TestRootsAgainstMpmath:
    @pytest.mark.parametrize("alpha", [1.0001, 1.01, 1.25, 1.75, 2.5, 4.0])
    @pytest.mark.parametrize("gamma_star", [0.25, 0.5, 2.0 / 3.0])
    def test_k_crit_and_k_of_r_near_it(self, alpha, gamma_star):
        # roots of I(k) = 1 and R(k) = 1e-6 at 40 digits; R' is smallest
        # just above k_crit, and alpha near 1 is where hyp2f1 loses digits
        regime = AsymptoticRegime(alpha=alpha, gamma_star=gamma_star)
        kc = k_crit(regime)
        k_small_r = k_of_r(regime, 1e-6)
        with mpmath.workdps(40):
            b = 1 / mpmath.mpf(alpha)
            g = mpmath.mpf(gamma_star)

            def i_of_k(k):
                return mpmath.hyp2f1(1, b, 1 + b, -k * g ** -mpmath.mpf(alpha)) / g

            kc_ref = mpmath.findroot(lambda k: i_of_k(k) - 1, kc)
            k_small_r_ref = mpmath.findroot(
                lambda k: k * (1 - i_of_k(k)) - mpmath.mpf(1e-6), k_small_r
            )
        assert abs(kc - kc_ref) <= 2e-11 * kc_ref
        assert abs(k_small_r - k_small_r_ref) <= 2e-11 * k_small_r_ref

    @pytest.mark.parametrize("alpha", [1.25, 1.75, 2.5])
    @pytest.mark.parametrize("gamma_star", [0.0, 0.5, 2.0 / 3.0, 1.0, 2.0])
    def test_select_regularizer_down_to_its_floor(self, alpha, gamma_star):
        # the stated claim: from tau = floor + 1e-8 sigma_sq up, r and rho_n
        # are within 1e-7 relative of the exact root
        regime = AsymptoticRegime(alpha=alpha, gamma_star=gamma_star)
        floor = 1.0 - 1.0 / gamma_star if gamma_star > 1.0 else 0.0
        for offset in (1e-8, 1e-6, 1e-4, 1e-2, 0.3):
            k, r, rho_n = select_regularizer(regime, floor + offset, 1000)
            _, r_ref = mpmath_train_error_root(alpha, gamma_star, floor + offset, k)
            assert abs(r - r_ref) <= 1e-7 * r_ref
            assert abs(rho_n - r_ref * mpmath.mpf(1000) ** -alpha) <= 1e-7 * rho_n


class TestAsymptoticErrors:
    def test_arctan_point(self):
        point = asymptotic_errors(REGIME_SQUARE, 1.0)
        denom = 1.0 - (0.25 + math.pi / 8)
        assert point.e_test == pytest.approx(1.0 / denom, rel=1e-12)
        assert point.e_train == pytest.approx((1 - math.pi / 4) ** 2 / denom, rel=1e-12)
        assert point.r == pytest.approx(1 - math.pi / 4, rel=1e-12)

    def test_large_k_limits(self):
        for regime in (REGIME_HALF, REGIME_PAPER):
            point = asymptotic_errors(regime, 1e8)
            assert point.e_test == pytest.approx(regime.sigma_sq, rel=1e-3)
            assert point.e_train == pytest.approx(regime.sigma_sq, rel=1e-3)

    def test_rejects_k_at_or_below_critical(self):
        kc = k_crit(REGIME_HALF)
        with pytest.raises(DomainError):
            asymptotic_errors(REGIME_HALF, kc)
        with pytest.raises(DomainError):
            asymptotic_errors(REGIME_HALF, 0.5 * kc)

    def test_point_invariants_on_grid(self):
        for regime in (REGIME_SQUARE, REGIME_HALF, REGIME_PAPER):
            kc = k_crit(regime)
            sig = regime.sigma_sq
            for k in np.geomspace(kc + 1e-3, kc + 1e4, 20):
                point = asymptotic_errors(regime, float(k))
                assert point.r == pytest.approx(
                    point.k * (1 - point.i_of_k), abs=1e-10 * max(1.0, point.k)
                )
                assert point.e_train == pytest.approx(
                    point.e_test * (point.r / point.k) ** 2, rel=1e-10
                )
                assert point.e_test > sig
                assert 0.0 < point.e_train < sig
                assert point.j_of_k <= point.i_of_k < 1.0
                # rearranged self-consistent equation: 1 - r/k = I(k)
                assert 1.0 - point.r / point.k == pytest.approx(
                    point.i_of_k, abs=1e-10
                )

    def test_larger_alpha_worse_at_fixed_tau(self):
        def e_test(alpha, tau):
            regime = AsymptoticRegime(alpha=alpha, gamma_star=0.5)
            k, _, _ = select_regularizer(regime, tau, 100)
            return asymptotic_errors(regime, k).e_test

        assert e_test(2.5, 0.2) > e_test(1.25, 0.2)


class TestSelectRegularizer:
    def test_inverse_of_arctan_point(self):
        tau = (1 - math.pi / 4) ** 2 / (1.0 - (0.25 + math.pi / 8))
        k, r, rho_n = select_regularizer(REGIME_SQUARE, tau, 1000)
        assert k == pytest.approx(1.0, rel=1e-8)
        assert r == pytest.approx(1 - math.pi / 4, rel=1e-8)
        assert rho_n == pytest.approx(r * 1000.0**-2.0, rel=1e-12)

    def test_residual_contract(self):
        for tau in (0.05, 0.3, 0.9):
            k, _, _ = select_regularizer(REGIME_PAPER, tau, 500)
            assert abs(train_error_of_k(REGIME_PAPER, k) - tau) < 1e-10

    def test_rejects_tau_outside_open_interval(self):
        for tau in (0.0, 1.0, 1.5, -0.1):
            with pytest.raises(DomainError):
                select_regularizer(REGIME_PAPER, tau, 100)

    def test_rejects_unreachable_tau_when_underparameterized(self):
        # with gamma_star = 2 the train error cannot drop below
        # sigma_sq * (1 - 1/gamma_star) = 0.5
        regime = AsymptoticRegime(alpha=1.5, gamma_star=2.0, sigma_sq=1.0)
        with pytest.raises(DomainError, match="below the smallest"):
            select_regularizer(regime, 0.2, 100)
        k, _, _ = select_regularizer(regime, 0.8, 100)
        assert train_error_of_k(regime, k) == pytest.approx(0.8, abs=1e-10)

    def test_unbracketed_train_error_raises(self, monkeypatch):
        # a train error that never reaches tau leaves no sign change to find
        monkeypatch.setattr(
            eigenlearning, "train_error_of_k", lambda regime, k: 0.1 * regime.sigma_sq
        )
        with pytest.raises(ConvergenceError, match="could not bracket"):
            select_regularizer(REGIME_PAPER, 0.5, 100)

    @pytest.mark.parametrize("n", [0, 10**400])
    def test_n_outside_one_to_the_float_range_is_a_domain_error(self, n):
        with pytest.raises(DomainError, match="n must lie in"):
            select_regularizer(REGIME_PAPER, 0.5, n)

    @pytest.mark.parametrize("alpha", [1.75, 4.0, 1.5, 2.0, 2.5, 3.0, 5.0, 6.0, 8.0])
    @pytest.mark.parametrize("sigma_sq", [1.0, 0.3])
    def test_tau_on_reachable_floor(self, alpha, sigma_sq):
        # gamma_star = 2 puts the floor at sigma_sq / 2, which E_train only
        # approaches as k -> 0: the floor itself is out of the domain, and
        # 1e-6 sigma_sq above it is solved to the residual contract
        regime = AsymptoticRegime(alpha=alpha, gamma_star=2.0, sigma_sq=sigma_sq)
        floor = sigma_sq / 2.0
        with pytest.raises(DomainError, match="below the smallest train error"):
            select_regularizer(regime, floor, 100)
        tau = floor + 1e-6 * sigma_sq
        k, r, rho_n = select_regularizer(regime, tau, 100)
        assert abs(train_error_of_k(regime, k) - tau) <= 1e-10 * sigma_sq
        assert r == r_of_k(regime, k)
        assert rho_n == r * 100.0**-alpha

    def test_edge_values_are_not_evaluated_twice(self, monkeypatch):
        # the bracket search hands its edge values to the root finder, so a
        # solve evaluates hyp2f1 at no argument twice; the bisection to a few
        # ulps in k takes 54 calls, one per E_train.  The result is pinned to
        # the last bit, and the pins lie within 1e-14 of the 50-digit root
        regime = AsymptoticRegime(alpha=1.75, gamma_star=0.5, sigma_sq=1.0)
        regime.k_crit  # cached; its own solve is not counted
        calls = []
        hyp2f1 = eigenlearning.hyp2f1
        monkeypatch.setattr(
            eigenlearning, "hyp2f1", lambda args: calls.append(args) or hyp2f1(args)
        )
        k, r, rho_n = select_regularizer(regime, 0.3, 1000)
        assert len(set(calls)) == len(calls) <= 54
        pinned = (5.864074047158773, 2.715392980100591, 1.5269776868423377e-05)
        assert (k, r, rho_n) == pinned
        k_ref, r_ref = mpmath_train_error_root(1.75, 0.5, 0.3, k)
        references = (k_ref, r_ref, r_ref * mpmath.mpf(1000) ** -1.75)
        assert all(abs(p - q) <= 1e-14 * q for p, q in zip(pinned, references))

    def test_limit_directions(self):
        # tau near sigma_sq pushes k (and rho_n) up; tau near 0 pulls k down
        # to k_crit and r down to 0
        k_hi, _, rho_hi = select_regularizer(REGIME_PAPER, 0.99, 500)
        k_mid, _, rho_mid = select_regularizer(REGIME_PAPER, 0.5, 500)
        k_lo, r_lo, _ = select_regularizer(REGIME_PAPER, 1e-6, 500)
        assert k_hi > k_mid > k_lo
        assert rho_hi > rho_mid
        # the gap above k_crit closes like sqrt(tau)
        assert k_lo == pytest.approx(k_crit(REGIME_PAPER), rel=5e-3)
        assert 0.0 < r_lo < 1e-2

    def test_monotone_check_passes_for_standard_regimes(self):
        for regime in (REGIME_SQUARE, REGIME_HALF, REGIME_PAPER):
            check_train_error_monotone(regime)


class TestFiniteN:
    def test_degenerate_zero_spectrum(self):
        beta = np.array([1.0, 2.0, 0.0])
        pred = finite_n_prediction(np.zeros(3), 0.25, 1.0, beta, 8)
        assert pred.kappa == pytest.approx(0.25, rel=1e-14)
        assert pred.e_coef == pytest.approx(1.0, rel=1e-12)
        assert pred.e_test_n == pytest.approx(1.0 + 5.0, rel=1e-12)
        assert pred.e_train_n == pytest.approx(pred.e_test_n, rel=1e-12)

    def test_constant_spectrum_solves_quadratic(self):
        n, p, lam, rho = 20, 30, 0.7, 0.05
        pred = finite_n_prediction(np.full(p, lam), rho, 1.0, np.zeros(p), n)
        delta = n * rho
        residual = (
            n * pred.kappa**2 + (n * lam - delta - p * lam) * pred.kappa - delta * lam
        )
        assert abs(residual) < 1e-12

    def test_power_law_consistent_with_asymptotic_k(self):
        regime = REGIME_PAPER
        k = k_of_r(regime, 1.0)
        n, p = 200, 400
        lam = np.arange(1, p + 1, dtype=float) ** -regime.alpha
        pred = finite_n_prediction(lam, n**-regime.alpha, 1.0, np.zeros(p), n)
        assert pred.kappa * n**regime.alpha == pytest.approx(k, rel=0.02)

    def test_e_coef_matches_finite_difference_of_kappa(self):
        # implicit differentiation against a centered difference in delta
        n, p = 50, 120
        lam = np.arange(1, p + 1, dtype=float) ** -1.5
        rho = 2e-3
        pred = finite_n_prediction(lam, rho, 1.0, np.zeros(p), n)
        h = 1e-7 * pred.delta
        kp = finite_n_prediction(lam, (pred.delta + h) / n, 1.0, np.zeros(p), n).kappa
        km = finite_n_prediction(lam, (pred.delta - h) / n, 1.0, np.zeros(p), n).kappa
        assert pred.e_coef == pytest.approx(n * (kp - km) / (2 * h), rel=1e-6)

    def test_invariants(self):
        n, p = 64, 128
        lam = np.arange(1, p + 1, dtype=float) ** -2.0
        beta = np.arange(1, p + 1, dtype=float) ** -1.0
        pred = finite_n_prediction(lam, 1e-4, 0.5, beta, n)
        assert pred.kappa > 0.0
        assert pred.e_coef > 0.0
        assert pred.signal_term_c >= 0.0
        assert pred.e_train_n == pytest.approx(
            pred.delta**2 / (n**2 * pred.kappa**2) * pred.e_test_n, rel=1e-10
        )

    def test_converges_to_asymptotic_curve(self):
        regime = REGIME_PAPER
        k = k_of_r(regime, 1.0)
        point = asymptotic_errors(regime, k)
        gaps = {}
        for n in (500, 2000):
            p = 2 * n
            lam = np.arange(1, p + 1, dtype=float) ** -regime.alpha
            beta = np.arange(1, p + 1, dtype=float) ** -1.0
            pred = finite_n_prediction(lam, n**-regime.alpha, 1.0, beta, n)
            gaps[n] = abs(pred.e_test_n - point.e_test) / point.e_test
        assert gaps[2000] < gaps[500]

    @pytest.mark.parametrize("rho", [1e-4, 1e-3, 1e-2])
    def test_signal_dominated_matches_monte_carlo(self, rho):
        # unit-variance coefficients against noise 0.1: the signal term
        # sum (1 - L_i)^2 v_i^2 carries most of the test error, and the
        # prediction takes the eigenfunction coordinates v = sqrt(lambda) beta
        mc, predicted = [], []
        for seed in range(10):
            model = DataModel(
                n=500, p=1000, alpha=1.75, sigma_sq=0.1, beta_star_scale=1.0, seed=seed
            )
            data = generate(model)
            mc.append(fit_ridge(data, rho).test_mse_analytic)
            v = np.sqrt(data.eigenvalues) * data.beta_star
            pred = finite_n_prediction(data.eigenvalues, rho, 0.1, v, 500)
            predicted.append(pred.e_test_n)
        assert np.mean(predicted) == pytest.approx(np.mean(mc), rel=0.03)

    def test_validation(self):
        with pytest.raises(DomainError):
            finite_n_prediction(np.array([]), 0.1, 1.0, np.array([]), 4)
        with pytest.raises(DomainError):
            finite_n_prediction(np.ones(3), 0.0, 1.0, np.ones(3), 4)
        with pytest.raises(DomainError):
            finite_n_prediction(np.ones(3), 0.1, 1.0, np.ones(4), 4)
        with pytest.raises(DomainError):
            finite_n_prediction(-np.ones(3), 0.1, 1.0, np.ones(3), 4)


class TestRegimeValidation:
    def test_alpha_must_exceed_one(self):
        with pytest.raises(DomainError):
            AsymptoticRegime(alpha=1.0, gamma_star=0.5)

    def test_gamma_nonnegative(self):
        with pytest.raises(DomainError):
            AsymptoticRegime(alpha=2.0, gamma_star=-0.1)

    def test_sigma_positive(self):
        with pytest.raises(DomainError):
            AsymptoticRegime(alpha=2.0, gamma_star=0.5, sigma_sq=0.0)
