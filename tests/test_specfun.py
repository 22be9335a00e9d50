"""Hypergeometric evaluation against closed antiderivatives, quadrature and
mpmath."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import QuadratureSpec, adaptive_gauss_legendre, hyp2f1_oracle
from powerlaw_ridge.errors import ConvergenceError, DomainError
from powerlaw_ridge.specfun import HypergeometricArgs, hyp2f1


# (upper alpha edge, relative error bound) per band, in increasing alpha
_MPMATH_BOUNDS = ((1.001, 2e-11), (1.01, 2e-12), (1.1, 2e-13), (math.inf, 1e-13))


def args_for(a, alpha, z):
    b = 1.0 / alpha
    return HypergeometricArgs(a, b, 1.0 + b, z)


class TestHyp2f1:
    def test_unit_at_zero(self):
        assert hyp2f1(args_for(1.0, 2.0, 0.0)) == 1.0
        assert hyp2f1(args_for(2.0, 1.3, 0.0)) == 1.0

    def test_arctan_value(self):
        # for alpha = 2 the Euler integral is int_0^1 du/(1+u^2) = arctan(1)
        assert hyp2f1(args_for(1.0, 2.0, -1.0)) == pytest.approx(
            math.pi / 4.0, rel=1e-14
        )

    def test_squared_kernel_value(self):
        # int_0^1 du/(1+u^2)^2 = 1/4 + pi/8 by the standard antiderivative
        assert hyp2f1(args_for(2.0, 2.0, -1.0)) == pytest.approx(
            0.25 + math.pi / 8.0, rel=1e-14
        )

    def test_arctan_family_large_argument(self):
        # arctan(sqrt(K))/sqrt(K) from small to huge arguments
        for big_k in (0.25, 1.0, 3.0, 1e3, 1e8):
            expected = math.atan(math.sqrt(big_k)) / math.sqrt(big_k)
            assert hyp2f1(args_for(1.0, 2.0, -big_k)) == pytest.approx(
                expected, rel=1e-13
            )

    @pytest.mark.parametrize("a", [1.0, 2.0])
    @pytest.mark.parametrize("alpha", [1.25, 1.75, 2.5])
    @pytest.mark.parametrize("z", [0.0, -0.1, -1.0, -10.0, -1000.0])
    def test_agrees_with_quadrature_oracle(self, a, alpha, z):
        args = args_for(a, alpha, z)
        assert hyp2f1(args) == pytest.approx(hyp2f1_oracle(args), rel=1e-10)

    @settings(deadline=None)
    @given(
        a=st.sampled_from([1.0, 2.0]),
        log_gap=st.floats(min_value=-4.0, max_value=math.log10(99.0)),
        z=st.floats(min_value=-1e12, max_value=0.0),
    )
    def test_agrees_with_mpmath(self, a, log_gap, z):
        # alpha = 1 + 10^log_gap covers [1.0001, 100] evenly in log(alpha - 1);
        # the bounds sit 2-3x above the worst errors measured against 40
        # digits, which grow like eps / (alpha - 1) as alpha -> 1: 7.9e-12 on
        # [1.0001, 1.001), 8.0e-13 on [1.001, 1.01), 6.6e-14 on [1.01, 1.1)
        # and 8.3e-15 from 1.1 on
        alpha = 1.0 + 10.0**log_gap
        bound = next(tol for edge, tol in _MPMATH_BOUNDS if alpha < edge)
        args = args_for(a, alpha, z)
        with mpmath.workdps(40):
            b = mpmath.mpf(args.b)
            expected = mpmath.hyp2f1(a, b, 1 + b, z)
        assert abs(hyp2f1(args) - expected) <= bound * abs(expected)

    def test_strictly_decreasing_in_magnitude(self):
        for a in (1.0, 2.0):
            for alpha in (1.25, 2.5):
                values = [
                    hyp2f1(args_for(a, alpha, z))
                    for z in np.concatenate([[0.0], -np.geomspace(1e-3, 1e6, 40)])
                ]
                assert all(v1 > v2 for v1, v2 in zip(values, values[1:]))

    @given(
        a=st.sampled_from([1.0, 2.0]),
        alpha=st.floats(min_value=1.05, max_value=8.0),
        z=st.floats(min_value=-1e12, max_value=0.0),
    )
    def test_bounded_in_unit_interval(self, a, alpha, z):
        value = hyp2f1(args_for(a, alpha, z))
        assert 0.0 < value <= 1.0

    def test_rejects_positive_argument(self):
        with pytest.raises(DomainError):
            HypergeometricArgs(1.0, 0.5, 1.5, 0.1)

    def test_rejects_bad_second_parameter(self):
        with pytest.raises(DomainError):
            HypergeometricArgs(1.0, 1.5, 2.5, -1.0)
        with pytest.raises(DomainError):
            HypergeometricArgs(1.0, 0.0, 1.0, -1.0)

    def test_rejects_inconsistent_third_parameter(self):
        with pytest.raises(DomainError):
            HypergeometricArgs(1.0, 0.5, 1.7, -1.0)

    def test_rejects_out_of_family_first_parameter(self):
        with pytest.raises(DomainError):
            HypergeometricArgs(3.0, 0.5, 1.5, -1.0)


class TestOracle:
    def test_unit_at_zero(self):
        assert hyp2f1_oracle(args_for(1.0, 2.0, 0.0)) == pytest.approx(1.0, abs=1e-12)

    def test_closed_antiderivative(self):
        # alpha = 2 family: F(1, 1/2; 3/2; -K) = arctan(sqrt(K))/sqrt(K)
        got = hyp2f1_oracle(args_for(1.0, 2.0, -4.0))
        assert got == pytest.approx(math.atan(2.0) / 2.0, rel=1e-12)

    def test_mutual_consistency_off_grid(self):
        args = HypergeometricArgs(2.0, 0.8, 1.8, -10.0)
        assert hyp2f1_oracle(args) == pytest.approx(hyp2f1(args), rel=1e-10)

    def test_respects_tolerance_budget(self):
        spec = QuadratureSpec(abs_tol=1e-14, rel_tol=1e-13, max_subdivisions=1)
        with pytest.raises(ConvergenceError):
            adaptive_gauss_legendre(
                lambda u: 1.0 / np.sqrt(np.abs(u - 1.0 / 3.0) + 1e-30),
                0.0,
                1.0,
                spec,
            )

    def test_quadrature_spec_validation(self):
        with pytest.raises(DomainError):
            QuadratureSpec(abs_tol=0.0)
        with pytest.raises(DomainError):
            QuadratureSpec(max_subdivisions=0)


class TestAdaptiveQuadrature:
    def test_polynomial_is_exact(self):
        spec = QuadratureSpec()
        value = adaptive_gauss_legendre(lambda x: x**3, 0.0, 1.0, spec)
        assert value == pytest.approx(0.25, rel=1e-14)

    def test_oscillatory_integral(self):
        spec = QuadratureSpec()
        value = adaptive_gauss_legendre(np.sin, 0.0, math.pi, spec)
        assert value == pytest.approx(2.0, rel=1e-12)

    def test_boundary_layer(self):
        # mass concentrated near zero on a huge interval, like the truncated
        # improper integrals the gamma_star = 0 checks use
        spec = QuadratureSpec(abs_tol=1e-300, rel_tol=1e-9, max_subdivisions=4000)
        k = 1e6
        value = adaptive_gauss_legendre(
            lambda x: 1.0 / (1.0 + k * x**2), 0.0, 1e6, spec
        )
        expected = math.atan(1e6 * math.sqrt(k)) / math.sqrt(k)
        assert value == pytest.approx(expected, rel=1e-8)

    def test_empty_interval_rejected(self):
        with pytest.raises(DomainError):
            adaptive_gauss_legendre(np.sin, 1.0, 1.0, QuadratureSpec())
