"""End-to-end acceptance gate.

Each test covers one numbered criterion, prints a one-line pass/fail
verdict (visible with ``pytest -s``), and asserts the stated tolerance.
The two Monte-Carlo criteria (2 and 3) dominate the runtime; run

    pytest tests/test_acceptance.py -v -s

to watch the verdict lines as they complete.
"""

import time

import numpy as np
import pytest

from oracles import (
    QuadratureSpec,
    adaptive_gauss_legendre,
    gram_to_covariance_check,
    stieltjes,
)
from powerlaw_ridge.eigenlearning import (
    AsymptoticRegime,
    asymptotic_errors,
    integral_i,
    integral_j,
    k_crit,
    k_of_r,
    select_regularizer,
)
from powerlaw_ridge.harness import SweepConfig, run_norm_growth_sweep, run_tradeoff_sweep
from powerlaw_ridge.regression import DataModel, fit_ridge, generate
from powerlaw_ridge.rmt import (
    LimitCdf,
    SpectralMeasure,
    d_rS_dr,
    esd_cdf,
    limit_cdf,
    positivity_check,
    self_consistent_residual,
)


def verdict(number: int, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {status} - {detail}")


def quadrature_of_integrand(alpha, k, a, upper, rel_tol=1e-10):
    spec = QuadratureSpec(abs_tol=1e-300, rel_tol=rel_tol, max_subdivisions=4000)
    return adaptive_gauss_legendre(
        lambda x: (1.0 + k * x**alpha) ** (-a), 0.0, upper, spec
    )


def test_criterion_1_closed_forms_match_quadrature():
    start = time.time()
    worst = 0.0
    for alpha in (1.25, 1.75, 2.5):
        for gamma in (0.25, 0.5, 1.0):
            regime = AsymptoticRegime(alpha=alpha, gamma_star=gamma)
            for k in np.geomspace(1e-3, 1e3, 12):
                k = float(k)
                for a, closed in (
                    (1.0, integral_i(regime, k)),
                    (2.0, integral_j(regime, k)),
                ):
                    oracle = quadrature_of_integrand(alpha, k, a, upper=1.0 / gamma)
                    worst = max(worst, abs(closed - oracle) / abs(oracle))
    finite_ok = worst <= 1e-8

    # gamma_star = 0 closed forms against quadrature truncated at 1e6; the k
    # values keep the truncated tail below the 1e-4 comparison tolerance
    worst_zero = 0.0
    for alpha, ks in ((1.25, (1e14, 1e15)), (1.75, (1e2, 1e3)), (2.5, (1.0, 1e3))):
        regime = AsymptoticRegime(alpha=alpha, gamma_star=0.0)
        for k in ks:
            for a, closed in (
                (1.0, integral_i(regime, k)),
                (2.0, integral_j(regime, k)),
            ):
                truncated = quadrature_of_integrand(
                    alpha, k, a, upper=1e6, rel_tol=1e-7
                )
                worst_zero = max(worst_zero, abs(closed - truncated) / abs(closed))
    zero_ok = worst_zero <= 1e-4

    elapsed = time.time() - start
    passed = finite_ok and zero_ok and elapsed < 5.0
    verdict(
        1,
        "closed-form vs quadrature",
        passed,
        f"finite-gamma rel {worst:.2e} (<=1e-8), gamma=0 rel {worst_zero:.2e} "
        f"(<=1e-4), {elapsed:.1f}s (<5s)",
    )
    assert finite_ok and zero_ok
    assert elapsed < 5.0


def test_criterion_2_tradeoff_reproduction():
    start = time.time()
    regime = AsymptoticRegime(alpha=1.75, gamma_star=0.5, sigma_sq=1.0)
    config = SweepConfig(
        regime=regime,
        grid=tuple(float(v) for v in np.linspace(0.05, 0.8, 8)),
        trials_per_point=20,
        base_seed=2024,
    )
    result = run_tradeoff_sweep(config, n=2000)
    worst_train = worst_test = 0.0
    for agg in result.aggregates:
        if agg.metric == "train_mse":
            worst_train = max(worst_train, abs(agg.mean - agg.sweep_value) / agg.sweep_value)
        elif agg.metric == "test_mse":
            worst_test = max(worst_test, abs(agg.mean - agg.theory) / agg.theory)
    elapsed = time.time() - start
    passed = worst_train < 0.05 and worst_test < 0.05 and elapsed < 600.0
    verdict(
        2,
        "trade-off reproduction",
        passed,
        f"train rel {worst_train:.3f} (<0.05), test rel {worst_test:.3f} "
        f"(<0.05), {elapsed:.0f}s (<600s)",
    )
    assert worst_train < 0.05
    assert worst_test < 0.05
    assert elapsed < 600.0


def test_criterion_3_norm_growth_exponent():
    start = time.time()
    grid = tuple(float(v) for v in sorted({int(round(x)) for x in np.geomspace(200, 3000, 10)}))
    fits = {}
    for alpha in (1.25, 2.5):
        config = SweepConfig(
            regime=AsymptoticRegime(alpha=alpha, gamma_star=2.0 / 3.0, sigma_sq=1.0),
            grid=grid,
            trials_per_point=10,
            base_seed=77,
        )
        _, fits[alpha] = run_norm_growth_sweep(config, tau=0.2)
    elapsed = time.time() - start
    slopes_ok = all(abs(fits[a].slope - a) <= 0.25 for a in fits)
    r2_ok = all(fits[a].r_squared >= 0.98 for a in fits)
    passed = slopes_ok and r2_ok and elapsed < 900.0
    detail = ", ".join(
        f"alpha={a}: slope {fits[a].slope:.3f} r2 {fits[a].r_squared:.4f}" for a in fits
    )
    verdict(3, "norm-growth exponent", passed, f"{detail}, {elapsed:.0f}s (<900s)")
    for alpha in (1.25, 2.5):
        assert abs(fits[alpha].slope - alpha) <= 0.25
        assert fits[alpha].r_squared >= 0.98
    assert elapsed < 900.0


def test_criterion_4_asymptotic_limits():
    start = time.time()
    regime = AsymptoticRegime(alpha=1.75, gamma_star=0.5, sigma_sq=1.0)
    kc = k_crit(regime)
    ks = np.geomspace(kc + 1e-6, 1e4, 50)
    above_floor = all(
        asymptotic_errors(regime, float(k)).e_test > regime.sigma_sq for k in ks
    )
    excess_at_huge_k = asymptotic_errors(regime, 1e6).e_test - regime.sigma_sq
    elapsed = time.time() - start
    passed = above_floor and excess_at_huge_k < 1e-3 * regime.sigma_sq and elapsed < 1.0
    verdict(
        4,
        "asymptotic limits",
        passed,
        f"all 50 points above noise floor: {above_floor}, excess at k=1e6 "
        f"{excess_at_huge_k:.2e} (<1e-3), {elapsed:.2f}s (<1s)",
    )
    assert above_floor
    assert excess_at_huge_k < 1e-3 * regime.sigma_sq
    assert elapsed < 1.0


def test_criterion_5_self_consistent_residual_decay():
    start = time.time()
    regime = AsymptoticRegime(alpha=1.75, gamma_star=0.5, sigma_sq=1.0)
    k = k_of_r(regime, 1.0)
    residuals = {}
    for n in (500, 2000):
        p = int(round(n / regime.gamma_star))
        lam = np.arange(1, p + 1, dtype=float) ** -regime.alpha
        residuals[n] = self_consistent_residual(lam, n, 1.0, k, regime.alpha)
    elapsed = time.time() - start
    passed = residuals[2000] < residuals[500] and residuals[2000] < 0.02 and elapsed < 1.0
    verdict(
        5,
        "self-consistent residual decay",
        passed,
        f"residual(500)={residuals[500]:.4f}, residual(2000)={residuals[2000]:.4f} "
        f"(<0.02 and decreasing), {elapsed:.2f}s (<1s)",
    )
    assert residuals[2000] < residuals[500]
    assert residuals[2000] < 0.02
    assert elapsed < 1.0


def test_criterion_6_positivity_condition():
    start = time.time()
    results = positivity_check(
        alpha=1.75,
        gamma_star=0.5,
        n=400,
        r_grid=[0.01, 0.1, 1.0, 10.0, 100.0],
        trials=10,
        seed=0,
    )
    elapsed = time.time() - start
    all_positive = all(mean > 0.0 for _, mean in results)
    passed = all_positive and elapsed < 60.0
    detail = ", ".join(f"r={r:g}: {mean:.3e}" for r, mean in results)
    verdict(6, "positivity condition", passed, f"{detail}, {elapsed:.1f}s (<60s)")
    assert all_positive
    assert elapsed < 60.0


def test_criterion_7_scaled_spectral_cdf():
    start = time.time()
    n, p = 1000, 2000
    gamma = n / p
    worst = {}
    for alpha in (1.25, 2.5):
        atoms = np.sort((n / np.arange(1, p + 1, dtype=float)) ** alpha)
        measure = SpectralMeasure(atoms)
        limit = LimitCdf(alpha, gamma)
        grid = np.geomspace(gamma**alpha + 1.0 / n, float(n) ** alpha, 10_000)
        worst[alpha] = max(
            abs(esd_cdf(measure, float(t)) - limit_cdf(limit, float(t))) for t in grid
        )
    bound = 2.0 / p + gamma / n
    elapsed = time.time() - start
    within = all(dev <= bound for dev in worst.values())
    passed = within and elapsed < 5.0
    detail = ", ".join(f"alpha={a}: dev {worst[a]:.2e}" for a in worst)
    verdict(
        7,
        "scaled spectral CDF",
        passed,
        f"{detail} (bound {bound:.2e}), {elapsed:.1f}s (<5s)",
    )
    assert within
    assert elapsed < 5.0


def test_criterion_8_oracle_identities():
    start = time.time()

    # Woodbury primal/dual equality on both stated shapes
    woodbury_ok = True
    for p, n in ((10, 5), (40, 20)):
        for seed in range(20):
            rng = np.random.default_rng([811, p, seed])
            X = rng.standard_normal((p, n))
            y = rng.standard_normal(n)
            rho = 0.2
            primal = np.linalg.solve(X @ X.T / n + rho * np.eye(p), X @ y / n)
            dual = X @ np.linalg.solve(X.T @ X + n * rho * np.eye(n), y)
            woodbury_ok &= (
                np.linalg.norm(primal - dual) <= 1e-8 * np.linalg.norm(primal)
            )

    # Gram-to-covariance identity
    gram_ok = all(
        gram_to_covariance_check(
            np.random.default_rng([812, seed]).standard_normal((10, 5)), 1.0, -1.0
        )
        < 1e-8
        for seed in range(20)
    )

    # derivative formula against centered finite differences
    derivative_ok = True
    for seed in range(20):
        rng = np.random.default_rng([813, seed])
        measure = SpectralMeasure(np.sort(rng.uniform(0.0, 2.0, size=50)))
        r, h = 0.3, 1e-5
        fd = (
            (r + h) * stieltjes(measure, -(r + h))
            - (r - h) * stieltjes(measure, -(r - h))
        ) / (2 * h)
        derivative_ok &= abs(d_rS_dr(measure, r) - fd) < 1e-6

    # norm lower bound holds with equality in expectation when beta_star = 0
    n, p, trials = 100, 200, 200
    rho = float(n) ** -1.75
    diffs = []
    for seed in range(trials):
        data = generate(
            DataModel(n=n, p=p, alpha=1.75, sigma_sq=1.0, beta_star_scale=0.0, seed=seed)
        )
        fit = fit_ridge(data, rho)
        s = np.linalg.svd(data.X, compute_uv=False)
        cov_eigs = s**2 / n
        diffs.append(fit.sq_norm - np.sum(cov_eigs / (cov_eigs + rho) ** 2) / n)
    diffs = np.array(diffs)
    se = float(np.std(diffs, ddof=1) / np.sqrt(trials))
    bound_ok = abs(float(np.mean(diffs))) <= 3.0 * se

    elapsed = time.time() - start
    passed = woodbury_ok and gram_ok and derivative_ok and bound_ok and elapsed < 120.0
    verdict(
        8,
        "oracle identities",
        passed,
        f"woodbury {woodbury_ok}, gram-to-cov {gram_ok}, derivative {derivative_ok}, "
        f"norm bound mean {float(np.mean(diffs)):.2e} vs 3se {3 * se:.2e}, "
        f"{elapsed:.0f}s (<120s)",
    )
    assert woodbury_ok
    assert gram_ok
    assert derivative_ok
    assert bound_ok
    assert elapsed < 120.0


def test_criterion_9_steeper_spectra_trade_off_worse():
    start = time.time()

    def e_test(alpha, tau):
        regime = AsymptoticRegime(alpha=alpha, gamma_star=0.5, sigma_sq=1.0)
        k, _, _ = select_regularizer(regime, tau, 1000)
        return asymptotic_errors(regime, k).e_test

    ratio_steep = e_test(2.5, 0.05) / e_test(2.5, 0.5)
    ratio_shallow = e_test(1.25, 0.05) / e_test(1.25, 0.5)
    elapsed = time.time() - start
    passed = ratio_steep > ratio_shallow and elapsed < 1.0
    verdict(
        9,
        "excess-error ratio ordering",
        passed,
        f"alpha=2.5 ratio {ratio_steep:.4f} > alpha=1.25 ratio {ratio_shallow:.4f}, "
        f"{elapsed:.2f}s (<1s)",
    )
    assert ratio_steep > ratio_shallow
    assert elapsed < 1.0
