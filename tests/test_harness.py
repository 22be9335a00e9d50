"""Sweep orchestration, aggregation, export, and the command line."""

import json
import math
import re

import numpy as np
import pytest
from scipy.linalg import LinAlgError, cho_factor

import powerlaw_ridge
import powerlaw_ridge.cli as cli
import powerlaw_ridge.harness as harness
import powerlaw_ridge.regression as regression
from powerlaw_ridge.cli import main as cli_main
from powerlaw_ridge.eigenlearning import AsymptoticRegime, asymptotic_errors
from powerlaw_ridge.errors import ConfigError, SweepError
from powerlaw_ridge.harness import (
    AGG_HEADER,
    CSV_HEADER,
    DiagnosticsReport,
    ExponentFit,
    SweepConfig,
    SweepResult,
    aggregate_path,
    export,
    fit_log_log,
    format_diagnostics,
    result_payload,
    run_diagnostics,
    run_norm_growth_sweep,
    run_tradeoff_sweep,
    trial_seed,
)
from powerlaw_ridge.regression import DataModel, feature_count, fit_ridge, generate

REGIME = AsymptoticRegime(alpha=1.75, gamma_star=0.5, sigma_sq=1.0)
# the fixed sample count of the tiny tau sweeps, the fixed tau of the n sweeps
TINY_N = 48
TINY_TAU = 0.2


@pytest.fixture
def no_solve_or_draw(monkeypatch):
    """Fails any theory solve or draw: a runner checks its input before them."""

    def fail(*args, **kwargs):
        raise AssertionError("a theory solve or draw ran before the input checks")

    for name in ("check_train_error_monotone", "select_regularizer", "generate"):
        monkeypatch.setattr(harness, name, fail)


def tiny_tau_config(**overrides):
    base = dict(regime=REGIME, grid=(0.2, 0.5), trials_per_point=2, base_seed=11)
    base.update(overrides)
    return SweepConfig(**base)


def tiny_n_config(**overrides):
    base = dict(
        regime=AsymptoticRegime(alpha=1.25, gamma_star=2.0 / 3.0, sigma_sq=1.0),
        grid=(48.0, 96.0, 192.0),
        trials_per_point=2,
        base_seed=5,
    )
    base.update(overrides)
    return SweepConfig(**base)


class TestExponentFit:
    def test_exact_power_law(self):
        ns = np.array([200.0, 500.0, 1200.0, 3000.0])
        fit = fit_log_log(ns, 0.37 * ns**1.75)
        assert fit.slope == pytest.approx(1.75, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(0.37), abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_needs_three_points(self):
        with pytest.raises(ConfigError):
            fit_log_log(np.array([1.0, 2.0]), np.array([1.0, 2.0]))

    def test_needs_positive_values(self):
        with pytest.raises(ConfigError):
            fit_log_log(np.array([1.0, 2.0, 3.0]), np.array([1.0, -2.0, 3.0]))


class TestSeedSchedule:
    def test_formula(self):
        assert trial_seed(7, 0) == 7
        assert trial_seed(7, 11) == 7 + 11

    @pytest.mark.parametrize("kind", ["tau_grid", "n_grid"])
    def test_rows_equal_fits_on_fresh_draws(self, kind):
        # every grid point of trial t sees the draw of seed base_seed + t,
        # whether it is shared (tau grid) or cut out of a larger one (n grid)
        if kind == "tau_grid":
            config = tiny_tau_config()
            rows = run_tradeoff_sweep(config, TINY_N).rows
        else:
            config = tiny_n_config()
            rows = run_norm_growth_sweep(config, TINY_TAU)[0].rows
        regime = config.regime
        assert [(row.sweep_value, row.trial) for row in rows] == [
            (v, t) for v in config.grid for t in range(config.trials_per_point)
        ]
        for row in rows:
            n = TINY_N if kind == "tau_grid" else int(row.sweep_value)
            model = DataModel(
                n=n,
                p=feature_count(n, regime.gamma_star),
                alpha=regime.alpha,
                sigma_sq=regime.sigma_sq,
                seed=config.base_seed + row.trial,
            )
            fit = fit_ridge(generate(model), row.rho_n)
            assert row.seed == model.seed
            assert row.train_mse == fit.train_mse
            assert row.test_mse == fit.test_mse_analytic
            assert row.sq_norm == fit.sq_norm

    def test_adding_trials_keeps_existing_rows(self):
        rows_2 = run_tradeoff_sweep(tiny_tau_config(trials_per_point=2), TINY_N).rows
        rows_3 = run_tradeoff_sweep(tiny_tau_config(trials_per_point=3), TINY_N).rows
        by_key_3 = {(r.sweep_value, r.trial): r for r in rows_3}
        for row in rows_2:
            assert by_key_3[(row.sweep_value, row.trial)] == row


class TestTradeoffSweep:
    def test_rows_and_aggregates_shape(self):
        result = run_tradeoff_sweep(tiny_tau_config(), TINY_N)
        assert len(result.rows) == 4
        assert len(result.aggregates) == 6  # 2 points x 3 metrics
        assert {row.trial for row in result.rows} == {0, 1}

    def test_theory_columns_recompute(self):
        result = run_tradeoff_sweep(tiny_tau_config(), TINY_N)
        for agg in result.aggregates:
            point = asymptotic_errors(
                REGIME,
                next(r.k for r in result.rows if r.sweep_value == agg.sweep_value),
            )
            if agg.metric == "train_mse":
                assert agg.theory == pytest.approx(point.e_train, rel=1e-12)
            elif agg.metric == "test_mse":
                assert agg.theory == pytest.approx(point.e_test, rel=1e-12)
            else:
                assert math.isnan(agg.theory)

    def test_quantile_ordering_and_mean_bounds(self):
        result = run_tradeoff_sweep(tiny_tau_config(trials_per_point=12), 96)
        for agg in result.aggregates:
            assert agg.q20 <= agg.q50 <= agg.q80
            rows = [
                getattr(r, agg.metric)
                for r in result.rows
                if r.sweep_value == agg.sweep_value
            ]
            assert min(rows) <= agg.mean <= max(rows)
            if agg.metric == "test_mse":
                # sanity of the aggregation itself at >= 10 trials
                assert agg.q20 <= agg.mean <= agg.q80

    def test_failed_trial_aborts_with_context(self, monkeypatch):
        def boom(model):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(harness, "generate", boom)
        with pytest.raises(SweepError, match="sweep value 0.2, trial 0"):
            run_tradeoff_sweep(tiny_tau_config(), TINY_N)

    def test_failed_fit_names_its_grid_point(self, monkeypatch):
        # one fit_ridge call fits the whole tau grid of a trial; its second
        # factorization is the second grid point's
        calls = []

        def fail_second(*args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                raise LinAlgError("synthetic failure")
            return cho_factor(*args, **kwargs)

        monkeypatch.setattr(regression, "cho_factor", fail_second)
        with pytest.raises(SweepError, match="sweep value 0.5, trial 0") as caught:
            run_tradeoff_sweep(tiny_tau_config(), TINY_N)
        assert (caught.value.sweep_value, caught.value.trial) == (0.5, 0)
        assert "Cholesky factorization failed (synthetic failure)" in str(caught.value)

    def test_wrong_kind_rejected(self, no_solve_or_draw):
        with pytest.raises(ConfigError, match="tau grid values"):
            run_tradeoff_sweep(tiny_n_config(), TINY_N)


class TestNormGrowthSweep:
    def test_failed_fit_names_its_grid_point(self, monkeypatch):
        # each sample count is fitted in a call of its own
        calls = []

        def fail_second(data, rho):
            calls.append(rho)
            if len(calls) == 2:
                raise RuntimeError("synthetic failure")
            return fit_ridge(data, rho)

        monkeypatch.setattr(harness, "fit_ridge", fail_second)
        with pytest.raises(SweepError, match="sweep value 96.0, trial 0"):
            run_norm_growth_sweep(tiny_n_config(), TINY_TAU)

    def test_regularizer_factor_fixed_across_n(self):
        result, fit = run_norm_growth_sweep(tiny_n_config(), TINY_TAU)
        rs = {row.r for row in result.rows}
        assert len(rs) == 1
        # rho_n = r * n^-alpha decreases along the grid
        rhos = [row.rho_n for row in sorted(result.rows, key=lambda r: r.sweep_value)]
        assert rhos[0] > rhos[-1]
        assert fit.r_squared > 0.9

    def test_norm_grows_with_n(self):
        result, fit = run_norm_growth_sweep(tiny_n_config(), TINY_TAU)
        means = {}
        for row in result.rows:
            means.setdefault(row.sweep_value, []).append(row.sq_norm)
        ns = sorted(means)
        assert np.mean(means[ns[-1]]) > np.mean(means[ns[0]])
        assert fit.slope > 0.0

    def test_wrong_kind_rejected(self, no_solve_or_draw):
        with pytest.raises(ConfigError, match="n grid values"):
            run_norm_growth_sweep(tiny_tau_config(), TINY_TAU)


class TestConfigValidation:
    def test_empty_or_unordered_grid(self):
        with pytest.raises(ConfigError):
            SweepConfig(regime=REGIME, grid=())
        with pytest.raises(ConfigError):
            SweepConfig(regime=REGIME, grid=(0.5, 0.2))

    def test_tau_bounds(self, no_solve_or_draw):
        with pytest.raises(ConfigError):
            run_tradeoff_sweep(SweepConfig(regime=REGIME, grid=(0.5, 1.5)), 4)

    def test_bad_fixed_value(self, no_solve_or_draw):
        with pytest.raises(ConfigError, match="n >= 1"):
            run_tradeoff_sweep(SweepConfig(regime=REGIME, grid=(0.2,)), 0)
        for tau in (0.0, 1.0):
            with pytest.raises(ConfigError, match="tau in"):
                run_norm_growth_sweep(SweepConfig(regime=REGIME, grid=(32.0,)), tau)

    def test_integer_n_grid(self, no_solve_or_draw):
        with pytest.raises(ConfigError):
            run_norm_growth_sweep(SweepConfig(regime=REGIME, grid=(32.5,)), 0.2)

    def test_trials_per_point_positive(self):
        with pytest.raises(ConfigError):
            tiny_tau_config(trials_per_point=0)


class TestExport:
    def test_csv_headers_and_determinism(self, tmp_path):
        result = run_tradeoff_sweep(tiny_tau_config(), TINY_N)
        path_a = tmp_path / "a.csv"
        path_b = tmp_path / "b.csv"
        export(result, "csv", path_a)
        export(run_tradeoff_sweep(tiny_tau_config(), TINY_N), "csv", path_b)
        assert path_a.read_bytes() == path_b.read_bytes()
        assert path_a.read_text().splitlines()[0] == CSV_HEADER
        agg = aggregate_path(path_a)
        assert agg.name == "a.agg.csv"
        assert agg.read_text().splitlines()[0] == AGG_HEADER

    def test_csv_theory_column_round_trips_17_digits(self, tmp_path):
        result = run_tradeoff_sweep(tiny_tau_config(), TINY_N)
        export(result, "csv", tmp_path / "out.csv")
        lines = (tmp_path / "out.agg.csv").read_text().splitlines()[1:]
        for line in lines:
            fields = line.split(",")
            tau, metric, theory = float(fields[0]), fields[1], fields[6]
            if metric == "sq_norm":
                assert theory == ""
                continue
            point = asymptotic_errors(
                REGIME, next(r.k for r in result.rows if r.sweep_value == tau)
            )
            expected = point.e_train if metric == "train_mse" else point.e_test
            assert float(theory) == expected  # 17 significant digits are lossless

    def test_json_round_trip(self, tmp_path):
        result = run_tradeoff_sweep(tiny_tau_config(), TINY_N)
        path = tmp_path / "out.json"
        export(result, "json", path)
        loaded = json.loads(path.read_text())
        assert loaded == result_payload(result)

    def test_empty_result_writes_headers_only(self, tmp_path):
        empty = SweepResult(rows=[], aggregates=[])
        export(empty, "csv", tmp_path / "empty.csv")
        assert (tmp_path / "empty.csv").read_text() == CSV_HEADER + "\n"
        assert (tmp_path / "empty.agg.csv").read_text() == AGG_HEADER + "\n"

    def test_io_error_carries_path(self, tmp_path):
        result = SweepResult(rows=[], aggregates=[])
        missing_dir = tmp_path / "nope" / "out.csv"
        with pytest.raises(OSError, match="nope"):
            export(result, "csv", missing_dir)


class TestDiagnostics:
    def test_all_verdicts_pass_at_moderate_n(self):
        report = run_diagnostics(REGIME, n=200, seed=0)
        assert report.positivity_pass
        assert report.cdf_pass
        assert report.residual_pass
        assert report.cdf_sup_deviation <= report.cdf_bound
        assert report.residual_fine < report.residual_coarse

    def test_format_mentions_verdicts(self):
        report = run_diagnostics(REGIME, n=120, seed=1)
        text = format_diagnostics(report)
        assert "verdict" in text
        assert "sup-deviation" in text


class TestCli:
    def test_solve_prints_single_line(self, capsys):
        code = cli_main(
            ["solve", "--alpha", "2", "--gamma", "1", "--tau", "0.2", "--n", "1000"]
        )
        out = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert len(out) == 1
        assert out[0].startswith("k=") and " r=" in out[0] and " rho_n=" in out[0]

    def test_solve_requires_tau(self, capsys):
        assert cli_main(["solve", "--n", "100"]) == 1
        assert "config error" in capsys.readouterr().err

    def test_bad_tau_is_config_error(self, capsys):
        code = cli_main(
            ["solve", "--tau", "2.0", "--n", "100", "--sigma-sq", "1.0"]
        )
        assert code == 1

    def test_tradeoff_writes_files(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = cli_main(
            [
                "tradeoff",
                "--n", "48",
                "--trials", "2",
                "--tau-grid", "0.2:0.5:2",
                "--seed", "11",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert out.exists() and aggregate_path(out).exists()

    def test_normgrowth_reports_slope(self, tmp_path, capsys):
        code = cli_main(
            [
                "normgrowth",
                "--n-grid", "48:192:3:log",
                "--trials", "2",
                "--tau", "0.2",
                "--out", str(tmp_path / "norm.json"),
                "--format", "json",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "norm-growth exponent" in out

    def test_diagnose_runs(self, capsys):
        code = cli_main(["diagnose", "--n", "128", "--seed", "0", "--trials", "4"])
        assert code == 0
        assert "verdict: pass" in capsys.readouterr().out

    def test_config_file_merging(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"alpha": 2.0, "gamma": 1.0, "tau": 0.2, "n": 50}))
        code = cli_main(["solve", "--config", str(config)])
        assert code == 0
        line_from_file = capsys.readouterr().out

        # an explicit flag overrides the file value
        code = cli_main(["solve", "--config", str(config), "--n", "100"])
        assert code == 0
        assert capsys.readouterr().out != line_from_file

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        small_sweep = {"n": 48, "trials": 1, "tau_grid": "0.2:0.5:2"}
        for argv, values in (
            (["solve", "--tau", "0.2", "--n", "9"], {"alhpa": 2.0}),
            # the held-out test-MSE option is gone
            (["tradeoff"], {"empirical_test_n": 50, **small_sweep}),
        ):
            config.write_text(json.dumps(values))
            assert cli_main([*argv, "--config", str(config)]) == 1
            assert "config keys not understood" in capsys.readouterr().err

    def test_missing_output_dir_is_io_error(self, tmp_path):
        code = cli_main(
            [
                "tradeoff",
                "--n", "48",
                "--trials", "1",
                "--tau-grid", "0.2:0.5:2",
                "--out", str(tmp_path / "missing" / "x.csv"),
            ]
        )
        assert code == 3

    def test_seed_only_on_seeded_commands(self, tmp_path, capsys):
        assert cli_main(["solve", "--tau", "0.2", "--n", "100", "--seed", "5"]) == 1
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"tau": 0.2, "n": 100, "seed": 5}))
        assert cli_main(["solve", "--config", str(config)]) == 1
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--bogus", "1"],
            [],
            ["solve", "--n", "abc"],
            ["tradeoff", "--empirical-test-n", "50"],
            ["normgrowth", "--n-grid", "1:inf:3"],
            ["tradeoff", "--tau-grid", "0.1:nan:3"],
            ["normgrowth", "--n-grid", "-inf:5:3:lin"],
            ["tradeoff", "--tau-grid", "-0.1:0.5:3"],
        ],
    )
    def test_usage_errors_are_config_errors(self, argv, capsys, recwarn):
        # exit 2 is reserved for numerical failures; a warning would print
        # to stderr ahead of the config error
        assert cli_main(argv) == 1
        assert capsys.readouterr().err.startswith("config error: ")
        assert not recwarn.list

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["normgrowth", "--n-grid", "-inf:5:3:lin"], "grid ends must be finite"),
            (["tradeoff", "--tau-grid", "-0.1:0.5:3"], "tau grid values must lie in"),
        ],
    )
    def test_grid_value_may_start_with_a_minus(self, argv, message, capsys):
        assert cli_main(argv) == 1
        assert message in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["solve", "--help"])
        assert exit_info.value.code == 0
        assert "--tau" in capsys.readouterr().out

    def test_bad_grid_is_config_error(self, capsys):
        assert cli_main(["tradeoff", "--tau-grid", "nope"]) == 1


SWEEP_FLAGS = ("--trials", "--seed", "--out", "--format")


class TestCliOptions:
    """The option set, defaults and config handling that the parser fixes."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Records what the subcommands pass to the runners and to export."""
        seen = {}

        def tradeoff(config, n):
            seen["tradeoff"] = (config, n)
            return SweepResult(rows=[], aggregates=[])

        def normgrowth(config, tau):
            seen["normgrowth"] = (config, tau)
            return SweepResult(rows=[], aggregates=[]), ExponentFit(1.0, 0.0, 1.0)

        def diagnose(regime, n, seed, trials):
            seen["diagnose"] = (regime, n, seed, trials)
            return DiagnosticsReport([], True, 0.0, 1.0, True, 8, 1.0, 32, 0.5, True)

        def solve(regime, tau, n):
            seen["solve"] = (regime, tau, n)
            return 1.0, 1.0, 1.0

        monkeypatch.setattr(cli, "run_tradeoff_sweep", tradeoff)
        monkeypatch.setattr(cli, "run_norm_growth_sweep", normgrowth)
        monkeypatch.setattr(cli, "run_diagnostics", diagnose)
        monkeypatch.setattr(cli, "select_regularizer", solve)
        monkeypatch.setattr(cli, "export", lambda result, fmt, path: seen.update(fmt=fmt))
        return seen

    @pytest.mark.parametrize(
        "command, count, extra",
        [
            ("tradeoff", 10, {"--n", "--tau-grid", *SWEEP_FLAGS}),
            ("normgrowth", 10, {"--tau", "--n-grid", *SWEEP_FLAGS}),
            ("diagnose", 7, {"--n", "--trials", "--seed"}),
            ("solve", 6, {"--tau", "--n"}),
        ],
    )
    def test_flag_sets(self, command, count, extra, capsys):
        with pytest.raises(SystemExit):
            cli_main([command, "--help"])
        flags = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) - {"--help"}
        assert flags == {"--alpha", "--gamma", "--sigma-sq", "--config", *extra}
        assert len(flags) == count

    def test_defaults(self, calls, capsys):
        assert cli_main(["tradeoff", "--out", "unused.csv"]) == 0
        assert calls["fmt"] == "csv"
        assert calls["tradeoff"] == (
            SweepConfig(
                regime=AsymptoticRegime(alpha=1.75, gamma_star=0.5, sigma_sq=1.0),
                grid=tuple(float(v) for v in np.linspace(0.05, 0.8, 16)),
                trials_per_point=10,
                base_seed=0,
            ),
            2000,
        )
        assert cli_main(["normgrowth"]) == 0
        n_grid = sorted({int(round(v)) for v in np.geomspace(200, 3000, 10)})
        assert calls["normgrowth"] == (
            SweepConfig(
                regime=AsymptoticRegime(alpha=1.25, gamma_star=2.0 / 3.0, sigma_sq=1.0),
                grid=tuple(float(v) for v in n_grid),
                trials_per_point=10,
                base_seed=0,
            ),
            0.2,
        )
        assert cli_main(["diagnose"]) == 0
        assert calls["diagnose"] == (REGIME, 500, 0, 10)
        assert cli_main(["solve", "--tau", "0.3", "--n", "9"]) == 0
        assert calls["solve"] == (REGIME, 0.3, 9)

    def test_flag_beats_config_beats_default(self, calls, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"alpha": 2.0, "n": 300, "seed": 4}))
        # the explicit --n wins wherever it stands relative to --config
        flag, from_file = ["--n", "400"], ["--config", str(config)]
        for argv in (flag + from_file, from_file + flag):
            assert cli_main(["tradeoff", *argv]) == 0
            sweep, n = calls["tradeoff"]
            assert n == 400
            assert sweep.base_seed == 4
            assert sweep.regime == AsymptoticRegime(alpha=2.0, gamma_star=0.5)

    @pytest.mark.parametrize("values", [{"n": "abc"}, {"n": 100.7}, {"alpha": "x"}])
    def test_config_values_checked_like_flags(self, values, calls, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"tau": 0.2, "n": 100, **values}))
        assert cli_main(["solve", "--config", str(config)]) == 1
        assert capsys.readouterr().err.startswith("config error: ")
        assert "solve" not in calls

    def test_config_choices_checked_before_the_sweep(self, calls, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"format": "xml", "out": str(tmp_path / "x.xml")}))
        assert cli_main(["tradeoff", "--config", str(config)]) == 1
        assert capsys.readouterr().err.startswith("config error: ")
        assert "tradeoff" not in calls

    def test_config_null_leaves_option_unset(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"tau": None, "n": 100}))
        assert cli_main(["solve", "--config", str(config)]) == 1  # --tau is required
        assert "--tau" in capsys.readouterr().err
        small_sweep = {"n": 48, "trials": 1, "tau_grid": "0.2:0.5:2", "out": None}
        config.write_text(json.dumps(small_sweep))
        assert cli_main(["tradeoff", "--config", str(config)]) == 0
        assert "wrote" not in capsys.readouterr().out
        assert [path.name for path in tmp_path.iterdir()] == ["cfg.json"]


def test_public_names_are_pinned():
    # perfbench/ reaches the package through these names; the quadrature and
    # Stieltjes oracles live in tests/oracles.py, and the held-out test-MSE
    # estimator is gone
    assert set(powerlaw_ridge.__all__) == {
        "AsymptoticRegime", "ConfigError", "ConvergenceError", "DataModel",
        "Dataset", "DiagnosticsReport", "DomainError", "EigenlearningPoint",
        "ExponentFit", "FiniteNPrediction", "HypergeometricArgs", "LimitCdf",
        "PowerlawRidgeError", "RidgeFit", "SpectralMeasure", "SweepConfig",
        "SweepError", "SweepResult", "analytic_test_mse", "asymptotic_errors",
        "d_rS_dr", "esd_cdf", "export", "finite_n_prediction", "fit_log_log",
        "fit_ridge", "generate", "hyp2f1", "integral_i", "integral_j",
        "k_crit", "k_of_r", "limit_cdf", "nested", "positivity_check",
        "r_of_k", "run_diagnostics", "run_norm_growth_sweep",
        "run_tradeoff_sweep", "select_regularizer", "self_consistent_residual",
    }
    for name in powerlaw_ridge.__all__:
        assert hasattr(powerlaw_ridge, name)
    for gone in (
        "QuadratureSpec", "hyp2f1_oracle", "adaptive_gauss_legendre",
        "stieltjes", "gram_to_covariance_check", "empirical_test_mse",
    ):
        assert not hasattr(powerlaw_ridge, gone)
