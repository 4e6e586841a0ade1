import json
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import faqr
from faqr import (
    DimensionError,
    FaqrFit,
    InputError,
    MissingValue,
    ParseError,
    WindowTooLarge,
)
from faqr.factor_model import DataMatrix
from faqr.harness import (
    NoiseSpec,
    PipelineConfig,
    evaluate_fit,
    fit_faqr,
    fit_qr_plain,
    generate_dgp,
    load_csv,
    rolling_backtest,
    run_power_study,
    run_simulation,
    sparse_signal_spec,
)
from faqr.harness import simulate
from faqr.harness.backtest import prediction_metrics
from faqr.harness.dgp import DgpSpec, DgpTruth
from faqr.harness.io import write_matrix_csv
from faqr.harness.cli import main as cli_main
from faqr.harness.pipeline import run_adequacy
from faqr.rng import derive_seed


def dummy_fit(beta, m=0):
    theta = np.concatenate([beta, np.zeros(m)])
    return FaqrFit(
        theta_hat=theta, lam=0.1, tau=0.5, h=0.2, sigma_hat=np.ones(theta.size),
        n_idio=len(beta), n_factors=m, n_outer_iters=1, final_objective=0.0,
        kkt_residual=0.0, converged=True,
    )


def dummy_truth(beta_star):
    d = len(beta_star)
    return DgpTruth(
        beta_star=np.asarray(beta_star, dtype=float),
        gamma_star=np.zeros(1), f=np.zeros((2, 1)), u=np.zeros((2, d)),
        b=np.zeros((d, 1)),
    )


class TestGenerateDgp:
    def test_null_signal_with_tiny_noise(self):
        spec = DgpSpec(
            n=50, d=8, m=2, beta_star=np.zeros(8), gamma_star=np.zeros(2),
            noise=NoiseSpec.gaussian(1e-12), replicate_seed=1,
        )
        data, _ = generate_dgp(spec)
        assert np.abs(data.y).max() <= 1e-10

    def test_deterministic_bit_identical(self):
        spec = sparse_signal_spec(n=40, d=12, replicate_seed=9)
        d1, _ = generate_dgp(spec)
        d2, _ = generate_dgp(spec)
        assert np.array_equal(d1.x, d2.x)
        assert np.array_equal(d1.y, d2.y)

    def test_loadings_fixed_across_replicates(self):
        spec = sparse_signal_spec(n=30, d=10, replicate_seed=1)
        _, t1 = generate_dgp(spec)
        _, t2 = generate_dgp(spec.for_replicate(2))
        assert np.array_equal(t1.b, t2.b)
        assert not np.array_equal(t1.f, t2.f)

    def test_analytic_response_variance(self):
        spec = sparse_signal_spec(n=10**4, d=200, replicate_seed=3)
        data, _ = generate_dgp(spec)
        # independent standard-normal factors and idiosyncratics:
        # var(Y) = |gamma|^2 + |beta|^2 + sd^2
        expected = 0.5**2 + 0.5**2 + 1.8**2 + 1.6**2 + 1.2**2 + 0.5**2
        assert expected == pytest.approx(7.99)
        assert data.y.var() == pytest.approx(expected, rel=0.05)

    def test_noise_validation(self):
        with pytest.raises(DimensionError):
            NoiseSpec("cauchy", 1.0)
        with pytest.raises(DimensionError):
            NoiseSpec.student_t(0.0)


class TestEvaluateFit:
    def test_perfect_recovery(self):
        beta = np.array([1.8, 1.6, -1.2, 0.0, 0.0])
        rpt = evaluate_fit(dummy_fit(beta), dummy_truth(beta))
        assert (rpt.l1_error, rpt.tpr, rpt.fpr) == (0.0, 1.0, 0.0)
        assert rpt.support_hat == frozenset({0, 1, 2})

    def test_null_estimate(self):
        beta_star = np.array([1.8, 1.6, -1.2, 0.0, 0.0])
        rpt = evaluate_fit(dummy_fit(np.zeros(5)), dummy_truth(beta_star))
        assert rpt.l1_error == pytest.approx(4.6)
        assert (rpt.tpr, rpt.fpr) == (0.0, 0.0)

    def test_counting_identities(self):
        rng = np.random.default_rng(0)
        beta_star = np.zeros(20)
        beta_star[:4] = 1.0
        beta_hat = rng.choice([0.0, 0.5], size=20)
        rpt = evaluate_fit(dummy_fit(beta_hat), dummy_truth(beta_star))
        assert rpt.tpr * 4 == int(round(rpt.tpr * 4))
        assert rpt.fpr * 16 == int(round(rpt.fpr * 16))


class TestRunSimulation:
    def test_smoke_run_and_summary_shape(self):
        spec = sparse_signal_spec(n=60, d=20, replicate_seed=5)
        summaries, records = run_simulation(spec, reps=10, tau=0.5)
        assert set(summaries) == {"faqr", "qr_plain"}
        assert len(records) == 20
        s = summaries["faqr"]
        assert 0.0 <= s.tpr_mean <= 1.0 and 0.0 <= s.fpr_mean <= 1.0
        assert s.l1_iqr >= 0.0

    def test_validation(self):
        spec = sparse_signal_spec(n=60, d=20)
        with pytest.raises(InputError):
            run_simulation(spec, reps=5)
        with pytest.raises(InputError):
            run_simulation(spec, reps=10, methods=("nope",))


class TestRunPowerStudy:
    def test_degenerate_single_replicate(self):
        spec = sparse_signal_spec(n=60, d=15, replicate_seed=7)
        pts = run_power_study(spec, [0.0], reps=1, b=100, method="multiplier", seed=1)
        assert pts[0].rejection_rate in (0.0, 1.0)
        assert pts[0].se == 0.0

    def test_grid_must_include_null(self):
        spec = sparse_signal_spec(n=60, d=15)
        with pytest.raises(InputError):
            run_power_study(spec, [0.1, 0.2], reps=1, b=100)

    def test_config_reaches_the_replicates(self):
        spec = sparse_signal_spec(n=60, d=15, replicate_seed=7)
        config = PipelineConfig(kernel_family="logistic")
        # the single null replicate, rerun by hand through the pipeline
        spec_0 = spec.for_replicate(derive_seed(1, simulate._DATA, 0, 0))
        data, _ = generate_dgp(replace(spec_0, beta_star=np.zeros(spec.d)))
        direct = run_adequacy(data, 0.5, replace(config, num_factors=spec.m), "residual",
                              100, derive_seed(1, simulate._BOOT, 0, 0))
        for level, rate in ((direct.p_value, 0.0), (direct.p_value + 1e-9, 1.0)):
            pts = run_power_study(spec, [0.0], reps=1, b=100, method="residual", seed=1,
                                  level=level, config=config)
            assert pts[0].rejection_rate == rate

    def test_unknown_method_is_an_input_error(self):
        spec = sparse_signal_spec(n=60, d=15, replicate_seed=7)
        data, _ = generate_dgp(spec)
        with pytest.raises(InputError):
            run_adequacy(data, 0.5, PipelineConfig(), "jackknife", 100, 0)
        with pytest.raises(InputError):
            run_power_study(spec, [0.0], reps=1, b=100, method="jackknife")


class TestBacktest:
    def test_metric_identities(self):
        rng = np.random.default_rng(1)
        y = rng.standard_normal(40)
        bench = np.full(40, np.quantile(y, 0.5))
        mape, r2 = prediction_metrics(y, y, bench, 0.5)
        assert (mape, r2) == (0.0, 1.0)
        mape, r2 = prediction_metrics(y, bench, bench, 0.5)
        assert r2 == 0.0

    def test_window_bounds(self):
        spec = sparse_signal_spec(n=30, d=5, gamma=(0.5,), replicate_seed=2)
        data, _ = generate_dgp(spec)
        with pytest.raises(WindowTooLarge):
            rolling_backtest(data, window=30, tau=0.5)
        with pytest.raises(WindowTooLarge):
            rolling_backtest(DataMatrix(x=data.x), window=10, tau=0.5)

    def test_unknown_method_is_an_input_error(self):
        spec = sparse_signal_spec(n=30, d=5, gamma=(0.5,), replicate_seed=2)
        data, _ = generate_dgp(spec)
        with pytest.raises(InputError, match="jackknife"):
            rolling_backtest(data, window=20, tau=0.5, method="jackknife")

    def test_no_look_ahead_poisoning(self):
        spec = sparse_signal_spec(n=60, d=8, signal=(1.0, -1.0), gamma=(0.5,),
                                  replicate_seed=3)
        data, _ = generate_dgp(spec)
        cfg = PipelineConfig(num_factors=1)
        base = rolling_backtest(data, window=30, tau=0.5, config=cfg, seed=4)
        t0 = 45
        x2 = data.x.copy()
        y2 = data.y.copy()
        x2[t0 + 1 :] += 100.0
        y2[t0 + 1 :] -= 55.0
        poisoned = rolling_backtest(
            DataMatrix(x=x2, y=y2), window=30, tau=0.5, config=cfg, seed=4
        )
        k = t0 - 30 + 1  # predictions for times 30..t0 use only rows <= t0
        assert np.array_equal(base.predictions[:k], poisoned.predictions[:k])
        assert not np.array_equal(base.predictions, poisoned.predictions)

    @pytest.mark.parametrize("method", ["faqr", "qr_plain"])
    def test_centered_predictions_ignore_column_shifts(self, method):
        spec = sparse_signal_spec(n=70, d=12, signal=(1.0, -1.0), gamma=(0.5,),
                                  replicate_seed=6)
        data, _ = generate_dgp(spec)
        shift = np.random.default_rng(7).uniform(-3.0, 3.0, data.d)
        cfg = PipelineConfig(num_factors=1, center=True)
        base = rolling_backtest(data, window=50, tau=0.5, method=method, config=cfg, seed=1)
        moved = rolling_backtest(DataMatrix(x=data.x + shift, y=data.y), window=50,
                                 tau=0.5, method=method, config=cfg, seed=1)
        assert np.abs(base.predictions - moved.predictions).max() <= 1e-8

    def test_first_window_failure_keeps_its_error_class(self, tmp_path):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((40, 5))
        x[:20, 0] = 1.0  # constant over the first window only
        y = x[:, 1] + rng.standard_normal(40)
        with pytest.raises(DimensionError):
            rolling_backtest(DataMatrix(x=x, y=y), window=20, tau=0.5, method="qr_plain")
        path = tmp_path / "constant.csv"
        write_matrix_csv(path, np.column_stack([y, x]), header=["y"] + [f"x{j}" for j in range(5)])
        assert cli_main(["backtest", "--data", str(path), "--response", "y",
                         "--window", "20", "--method", "qr_plain"]) == 2

    def test_mid_run_failures_reuse_the_last_good_fit(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((60, 5))
        x[:, 0] *= 10.0  # so that windows overlapping the constant stretch fit nonzero slopes
        x[25:50, 0] = 1.0  # constant in exactly the windows ending at 45..50
        y = 2.0 * x[:, 1] + 0.5 * rng.standard_normal(60)
        data = DataMatrix(x=x, y=y)
        rep = rolling_backtest(data, window=20, tau=0.5, method="qr_plain", seed=3)
        assert [f.split(":")[0] for f in rep.failures] == [
            f"window ending at {t}" for t in range(45, 51)]
        assert all(": DimensionError: " in f for f in rep.failures)

        def own_prediction(fit_end, t):
            train = DataMatrix(x=x[fit_end - 20 : fit_end], y=y[fit_end - 20 : fit_end])
            res = fit_qr_plain(train, 0.5, PipelineConfig().with_seed(derive_seed(3, fit_end)))
            return float(x[t] @ res.fit.theta_hat)

        for t in range(44, 52):  # the last good window, the failures, the first recovery
            fit_end = 44 if 45 <= t <= 50 else t
            assert rep.predictions[t - 20] == own_prediction(fit_end, t)

    def test_report_invariants(self):
        spec = sparse_signal_spec(n=50, d=6, signal=(1.0,), gamma=(0.5,),
                                  replicate_seed=8)
        data, _ = generate_dgp(spec)
        rep = rolling_backtest(
            data, window=25, tau=0.5, config=PipelineConfig(num_factors=1), seed=5
        )
        assert rep.predictions.shape == (25,)
        assert rep.pseudo_r2 <= 1.0
        assert rep.mape >= 0.0


class TestDesign:
    """The design's row map against the fitted z and the coefficient formulas."""

    @pytest.fixture(scope="class")
    def panel(self):
        data, _ = generate_dgp(sparse_signal_spec(n=80, d=30, signal=(1.0, -1.0),
                                                  gamma=(0.5, 0.5), replicate_seed=11))
        return DataMatrix(x=data.x[:70], y=data.y[:70]), data.x[70:]

    @pytest.mark.parametrize("center", [False, True])
    @pytest.mark.parametrize("pipeline", [fit_faqr, fit_qr_plain], ids=["faqr", "qr_plain"])
    def test_rows_reproduce_the_fitted_design(self, panel, pipeline, center):
        train, _ = panel
        design = pipeline(train, 0.5, PipelineConfig(center=center).with_seed(3)).design
        fm = design.factor_model
        z = design.data.x if fm is None else np.hstack([fm.u_hat, fm.f_hat])
        assert np.abs(design.rows(train.x) - z).max() <= 1e-10

    @pytest.mark.parametrize("center", [False, True])
    def test_faqr_predictions_are_x_beta_plus_f_varphi(self, panel, center):
        train, x_new = panel
        res = fit_faqr(train, 0.5, PipelineConfig(center=center).with_seed(3))
        x = x_new - (train.x.mean(axis=0) if center else 0.0)
        b = res.design.factor_model.b_hat
        f = np.linalg.solve(b.T @ b, b.T @ x.T).T
        expected = x @ res.fit.beta_hat + f @ res.fit.varphi_hat
        np.testing.assert_allclose(res.predict(x_new), expected, rtol=1e-12, atol=0)
        np.testing.assert_allclose(res.predict(x_new[0]), expected[0], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("center", [False, True])
    def test_plain_predictions_are_centered_x_theta(self, panel, center):
        train, x_new = panel
        res = fit_qr_plain(train, 0.5, PipelineConfig(center=center).with_seed(3))
        x = x_new - (train.x.mean(axis=0) if center else 0.0)
        assert np.array_equal(res.predict(x_new), x @ res.fit.theta_hat)
        assert res.predict(x_new[0]) == x[0] @ res.fit.theta_hat


class TestLoadCsv:
    def test_happy_path_with_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,y,b\n1,2,3\n4,5,6\n7,8,9\n")
        data = load_csv(path, response_column="y")
        assert data.x.shape == (3, 2)
        assert np.array_equal(data.y, [2.0, 5.0, 8.0])
        assert data.column_names == ("a", "b")

    def test_response_by_index_without_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2\n3,4\n")
        data = load_csv(path, response_column=1, has_header=False)
        assert np.array_equal(data.y, [2.0, 4.0])

    def test_nan_cell_reports_location(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2\n3,NaN\n")
        with pytest.raises(MissingValue) as err:
            load_csv(path)
        assert err.value.line == 3 and err.value.column == 2

    def test_empty_cell_is_missing(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,\n3,4\n")
        with pytest.raises(MissingValue):
            load_csv(path)

    def test_garbage_cell_is_parse_error(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,x2\n3,4\n")
        with pytest.raises(ParseError) as err:
            load_csv(path)
        assert err.value.line == 2 and err.value.column == 2

    def test_ragged_row_is_parse_error(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(ParseError):
            load_csv(path)

    def test_named_response_requires_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2\n3,4\n")
        with pytest.raises(ParseError):
            load_csv(path, response_column="y", has_header=False)

    def test_write_then_load_round_trips_bit_exactly(self, tmp_path):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((6, 4)) * np.array([1e-7, 1.0, 1e9, np.pi])
        path = tmp_path / "d.csv"
        write_matrix_csv(path, x, header=["c0", "c1", "c2", "c3"],
                         meta={"seed": 1})
        back = load_csv(path)
        assert np.array_equal(back.x, x)


class TestCli:
    @pytest.fixture()
    def csv_path(self, tmp_path):
        spec = sparse_signal_spec(n=60, d=10, signal=(1.2, -0.8), gamma=(0.5,),
                                  replicate_seed=13)
        data, _ = generate_dgp(spec)
        rows = np.column_stack([data.y, data.x])
        path = tmp_path / "data.csv"
        header = ["y"] + [f"x{j}" for j in range(10)]
        write_matrix_csv(path, rows, header=header)
        return path

    def test_fit_writes_json(self, csv_path, tmp_path):
        out = tmp_path / "fit.json"
        code = cli_main([
            "fit", "--data", str(csv_path), "--response", "y",
            "--factors", "1", "--seed", "3", "--out", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["beta"]) == 10 and len(doc["gamma"]) == 1
        assert doc["meta"]["seed"] == 3 and "rng" in doc["meta"]
        assert doc["kkt"] <= 1e-4

    def test_select_factors(self, csv_path, tmp_path):
        out = tmp_path / "fm.json"
        code = cli_main([
            "select-factors", "--data", str(csv_path), "--response", "y",
            "--m-max", "4", "--out", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["m"] >= 1
        assert len(doc["loadings"]) == 10

    def test_simulate_csv(self, tmp_path):
        out = tmp_path / "summary.csv"
        code = cli_main([
            "simulate", "--n", "60", "--d", "15", "--reps", "10",
            "--seed", "5", "--out", str(out), "--threads", "2",
        ])
        assert code == 0
        text = out.read_text()
        assert text.startswith("#")
        assert "faqr" in text and "qr_plain" in text

    def test_adequacy_json_and_histogram(self, csv_path, tmp_path):
        out = tmp_path / "adequacy.json"
        hist = tmp_path / "hist.csv"
        code = cli_main([
            "adequacy", "--data", str(csv_path), "--response", "y",
            "--method", "multiplier", "--reps", "120", "--factors", "1",
            "--seed", "7", "--out", str(out), "--hist-out", str(hist),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert 0.0 <= doc["p_value"] <= 1.0
        assert doc["b"] == 120
        assert doc["newton_steps"] >= 1  # the observed factor-only fit's
        lines = [l for l in hist.read_text().splitlines() if not l.startswith("#")]
        assert len(lines) == 121  # header plus one row per replicate

    def test_backtest_json(self, csv_path, tmp_path):
        out = tmp_path / "bt.json"
        code = cli_main([
            "backtest", "--data", str(csv_path), "--response", "y",
            "--window", "30", "--factors", "1", "--seed", "2",
            "--out", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["n_predictions"] == 30
        assert doc["pseudo_r2"] <= 1.0

    @pytest.mark.parametrize("method", ["faqr", "qr_plain"])
    def test_backtest_of_a_constant_response_writes_a_null_pseudo_r2(self, tmp_path, method):
        # the benchmark's check loss is 0, so the pseudo-R2 ratio is undefined
        x = np.random.default_rng(4).standard_normal((60, 5))
        path = tmp_path / "constant.csv"
        write_matrix_csv(path, np.column_stack([np.ones(60), x]),
                         header=["y"] + [f"x{j}" for j in range(5)])
        out = tmp_path / "bt.json"
        assert cli_main([
            "backtest", "--data", str(path), "--response", "y", "--window", "30",
            "--factors", "2", "--method", method, "--out", str(out),
        ]) == 0
        doc = json.loads(out.read_text())
        assert doc["n_predictions"] == 30
        assert doc["pseudo_r2"] is None

    @pytest.mark.parametrize("method", ["multiplier", "residual"])
    def test_adequacy_center_cancels_column_shifts(self, csv_path, tmp_path, method):
        rows = np.loadtxt(csv_path, delimiter=",", skiprows=1)
        rows[:, 1:] += np.random.default_rng(3).uniform(-3.0, 3.0, rows.shape[1] - 1)
        shifted = tmp_path / "shifted.csv"
        write_matrix_csv(shifted, rows, header=["y"] + [f"x{j}" for j in range(10)])
        docs = []
        for path in (csv_path, shifted):
            out = tmp_path / "adequacy.json"
            assert cli_main([
                "adequacy", "--data", str(path), "--response", "y", "--center",
                "--method", method, "--reps", "100", "--factors", "1",
                "--seed", "7", "--out", str(out),
            ]) == 0
            docs.append(json.loads(out.read_text()))
        assert abs(docs[0]["t_n"] - docs[1]["t_n"]) <= 1e-8
        assert abs(docs[0]["p_value"] - docs[1]["p_value"]) <= 1e-8

    @pytest.mark.parametrize("method", ["multiplier", "residual"])
    def test_adequacy_matches_the_pipeline(self, csv_path, tmp_path, method):
        out = tmp_path / "adequacy.json"
        assert cli_main([
            "adequacy", "--data", str(csv_path), "--response", "y",
            "--method", method, "--reps", "100", "--seed", "9", "--out", str(out),
        ]) == 0
        doc = json.loads(out.read_text())
        res = run_adequacy(load_csv(csv_path, response_column="y"), 0.5, PipelineConfig(),
                           method, 100, 9)
        assert doc["t_n"] == res.t_n
        assert doc["p_value"] == res.p_value
        assert doc["gamma_null"] == res.gamma_null.tolist()

    def test_unknown_adequacy_method_in_config_file_exits_2(self, csv_path, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"method": "jackknife"}))
        assert cli_main(["adequacy", "--data", str(csv_path), "--response", "y",
                         "--reps", "100", "--config", str(cfg)]) == 2

    def test_unknown_backtest_method_in_config_file_exits_2(self, csv_path, tmp_path, capsys):
        # a file's value is an argparse default, which `choices` does not check
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"method": "jackknife"}))
        assert cli_main(["backtest", "--data", str(csv_path), "--response", "y",
                         "--window", "55", "--config", str(cfg)]) == 2
        assert "unknown method 'jackknife'" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["tau", "seed", "lambda_c0", "lambda_sims"])
    def test_config_null_for_a_typed_option_exits_2(self, csv_path, tmp_path, capsys, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: None}))
        assert cli_main(["fit", "--data", str(csv_path), "--response", "y",
                         "--config", str(cfg)]) == 2
        assert f"{key!r} must not be null" in capsys.readouterr().err

    def test_config_null_keeps_working_where_the_default_is_none(self, csv_path, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bandwidth": None, "m_max": None, "threads": None}))
        outs = []
        for name, extra in (("file", ["--config", str(cfg)]), ("defaults", [])):
            out = tmp_path / f"{name}.json"
            assert cli_main(["fit", "--data", str(csv_path), "--response", "y",
                             "--out", str(out)] + extra) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def _residual_adequacy(self, csv_path, tmp_path, name, extra):
        out, hist = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
        assert cli_main([
            "adequacy", "--data", str(csv_path), "--response", "y",
            "--method", "residual", "--reps", "100", "--factors", "1",
            "--seed", "11", "--out", str(out), "--hist-out", str(hist),
        ] + extra) == 0
        return out.read_bytes(), hist.read_bytes()

    def test_residual_adequacy_honours_lambda_flags(self, csv_path, tmp_path):
        _, base = self._residual_adequacy(csv_path, tmp_path, "base", [])
        _, tuned = self._residual_adequacy(csv_path, tmp_path, "c0", ["--lambda-c0", "3"])
        assert base != tuned

    def test_default_lambda_flags_change_nothing(self, csv_path, tmp_path):
        base = self._residual_adequacy(csv_path, tmp_path, "base", [])
        explicit = self._residual_adequacy(csv_path, tmp_path, "explicit", [
            "--lambda-c0", "1.1", "--lambda-alpha", "0.1", "--lambda-sims", "1000",
        ])
        assert base == explicit

    @pytest.mark.parametrize("flag", [["--bandwidth", "0"], ["--m-max", "0"], ["--factors", "0"]])
    def test_zero_bandwidth_m_max_or_factors_exits_2(self, csv_path, flag):
        for command in ("fit", "backtest", "adequacy", "select-factors"):
            args = [command, "--data", str(csv_path), "--response", "y"] + flag
            if command == "backtest":
                args += ["--window", "55"]
            assert cli_main(args) == 2, command

    def test_import_leaves_out_scipy_integrate_and_optimize(self):
        src = os.path.dirname(os.path.dirname(faqr.__file__))
        code = ("import sys, faqr.harness.cli; "
                "print([m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules])")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_missing_file_exits_2(self, tmp_path):
        code = cli_main(["fit", "--data", str(tmp_path / "nope.csv"),
                         "--response", "y"])
        assert code == 2

    def test_automatic_factor_count_on_one_column_is_an_input_error(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((30, 1))
        y = x[:, 0] + rng.normal(0.0, 0.3, 30)
        message = "min(n, d) < 2, which leaves no factor count to select"
        with pytest.raises(InputError, match=r"30x1 panel has min\(n, d\) < 2") as exc:
            fit_faqr(DataMatrix(x=x, y=y), 0.5)
        assert message in str(exc.value)
        assert "--factors N" in str(exc.value) and "--plain" in str(exc.value)
        path = tmp_path / "one_column.csv"
        write_matrix_csv(path, np.column_stack([y, x]), header=["y", "x0"])
        for command in ("fit", "select-factors", "adequacy"):
            assert cli_main([command, "--data", str(path), "--response", "y"]) == 2
            assert message in capsys.readouterr().err
        # the documented ways out still work
        assert cli_main(["fit", "--data", str(path), "--response", "y", "--plain",
                         "--out", str(tmp_path / "plain.json")]) == 0

    def test_a_panel_without_a_response_is_an_input_error(self, csv_path, tmp_path, capsys):
        # the pipelines and both adequacy calibrations each name the missing
        # response once, from the library and as the CLI's exit 2
        data = load_csv(csv_path)
        assert data.y is None
        for pipeline in (fit_faqr, fit_qr_plain):
            with pytest.raises(InputError, match="needs a response column"):
                pipeline(data, 0.5)
        for method in ("multiplier", "residual"):
            with pytest.raises(InputError, match="needs a response column"):
                run_adequacy(data, 0.5, PipelineConfig(), method, 100, 0)
        for argv in (["fit"], ["fit", "--plain"], ["adequacy", "--method", "multiplier"],
                     ["adequacy", "--method", "residual"]):
            out = tmp_path / "out.json"
            assert cli_main(argv + ["--data", str(csv_path), "--out", str(out)]) == 2, argv
            assert "needs a response column" in capsys.readouterr().err
            assert not out.exists()

    def test_numerical_failure_exits_3(self, tmp_path):
        path = tmp_path / "rank1.csv"
        col = np.arange(1.0, 9.0)
        rows = np.column_stack([col, 2 * col, 3 * col])
        write_matrix_csv(path, rows, header=["a", "b", "c"])
        code = cli_main(["select-factors", "--data", str(path), "--factors", "3"])
        assert code == 3

    def test_bad_flag_exits_2(self, csv_path):
        with pytest.raises(SystemExit) as exc:
            cli_main(["fit", "--data", str(csv_path), "--kernel", "cosine"])
        assert exc.value.code == 2

    def test_config_file_defaults_and_flag_override(self, csv_path, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tau": 0.25, "factors": "1"}))
        out1 = tmp_path / "a.json"
        assert cli_main(["fit", "--data", str(csv_path), "--response", "y",
                         "--config", str(cfg), "--out", str(out1)]) == 0
        assert json.loads(out1.read_text())["tau"] == 0.25
        out2 = tmp_path / "b.json"
        assert cli_main(["fit", "--data", str(csv_path), "--response", "y",
                         "--config", str(cfg), "--tau", "0.6",
                         "--out", str(out2)]) == 0
        assert json.loads(out2.read_text())["tau"] == 0.6

    def test_config_file_keys_act_as_flag_defaults(self, csv_path, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": "simulate", "config": "x", "center": True,
                                   "lambda_c0": 2, "lambda_sims": "500"}))

        def fit(name, extra):
            out = tmp_path / f"{name}.json"
            assert cli_main(["fit", "--data", str(csv_path), "--response", "y",
                             "--out", str(out)] + extra) == 0
            return out.read_bytes()

        from_file = fit("file", ["--config", str(cfg)])
        assert from_file == fit("flags", ["--center", "--lambda-c0", "2", "--lambda-sims", "500"])
        assert from_file != fit("defaults", [])
        assert json.loads(from_file)["lambda_rule"]["c0"] == 2.0
        # an explicit flag beats the file's value; the file's other keys still apply
        assert fit("file_and_flag", ["--config", str(cfg), "--lambda-c0", "3"]) == fit(
            "flags_only", ["--center", "--lambda-c0", "3", "--lambda-sims", "500"])

    @pytest.mark.parametrize("command", ["fit", "select-factors", "simulate", "adequacy",
                                         "backtest"])
    def test_help_renders_with_defaults(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main([command, "--help"])
        assert exc.value.code == 0
        assert "quantile level (default 0.5)" in " ".join(capsys.readouterr().out.split())

    def test_rerun_is_byte_identical(self, csv_path, tmp_path):
        args = ["adequacy", "--data", str(csv_path), "--response", "y",
                "--method", "residual", "--reps", "100", "--factors", "1",
                "--seed", "11"]
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert cli_main(args + ["--out", str(out1)]) == 0
        assert cli_main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_backtest_bytes_do_not_depend_on_threads(self, csv_path, tmp_path):
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"bt{threads}.json"
            assert cli_main([
                "backtest", "--data", str(csv_path), "--response", "y", "--window", "45",
                "--seed", "4", "--threads", threads, "--out", str(out),
            ]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        docs = {"backtest": json.loads(outs[0])}
        for command, extra in (("fit", []), ("adequacy", ["--reps", "100"])):
            out = tmp_path / f"{command}.json"
            assert cli_main([command, "--data", str(csv_path), "--response", "y",
                             "--seed", "4", "--out", str(out)] + extra) == 0
            docs[command] = json.loads(out.read_text())
        assert {c: doc["meta"]["rng"] for c, doc in docs.items()} == dict.fromkeys(
            docs, faqr.rng.ALGORITHM)


@pytest.mark.parametrize("n, d", [(40, 60), (60, 30)])
def test_auto_fit_decomposes_once(monkeypatch, n, d):
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    data, _ = generate_dgp(sparse_signal_spec(n=n, d=d, replicate_seed=4))
    fit_faqr(data, 0.5, PipelineConfig())
    assert len(calls) == 1
