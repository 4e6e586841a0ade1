import numpy as np
import pytest
from scipy import integrate

import faqr.inference
import faqr.smoothed_loss
import faqr.tuning
from faqr import (
    FactorModel,
    KernelSpec,
    QuantileProblem,
    Singular,
    adequacy_test_multiplier,
    adequacy_test_residual,
    fit_factor_only,
    kernel_density,
    score_statistic,
    weighted_project,
)
from faqr.factor_model import DataMatrix, estimate_factors
from faqr.harness import generate_dgp, sparse_signal_spec
from faqr.smoothed_loss import default_bandwidth

from oracles import golden_section


def benchmark_pieces(n=200, d=200, seed=0, w=0.0, noise=None):
    spec = sparse_signal_spec(n=n, d=d, noise=noise, signal=(w, w, w), replicate_seed=seed)
    data, truth = generate_dgp(spec)
    fm = estimate_factors(data, 2)
    h = default_bandwidth(n, d, 2, 0.5)
    return data, fm, KernelSpec("gaussian", h)


class TestFitFactorOnly:
    def test_intercept_matches_golden_section(self):
        rng = np.random.default_rng(1)
        y = rng.standard_normal(80) + 1.2
        k = KernelSpec("gaussian", 0.35)
        gamma = fit_factor_only(np.ones((80, 1)), y, 0.3, k)
        from faqr import loss_value

        p = QuantileProblem(np.ones((80, 1)), y, 0.3, k, sigma_hat=np.ones(1))
        ref = golden_section(lambda t: loss_value(p, np.array([t])), y.min(), y.max())
        assert abs(gamma[0] - ref) <= 1e-6

    def test_zero_response_gives_zero_fit(self):
        rng = np.random.default_rng(2)
        f = rng.standard_normal((50, 2))
        k = KernelSpec("gaussian", 0.4)
        gamma = fit_factor_only(f, np.zeros(50), 0.5, k)
        assert np.abs(gamma).max() <= 1e-9

    def test_monte_carlo_consistency(self):
        k = KernelSpec("gaussian", 0.2)
        gamma_star = np.array([0.8, -0.4])
        errs = {}
        for n in (500, 4500):
            per_rep = []
            for rep in range(8):
                rng = np.random.default_rng(300 + rep)
                f = rng.standard_normal((n, 2))
                y = f @ gamma_star + rng.normal(0.0, 0.5, n)
                gamma = fit_factor_only(f, y, 0.5, k)
                per_rep.append(np.linalg.norm(gamma - gamma_star))
            errs[n] = np.mean(per_rep)
        assert errs[4500] < errs[500]
        ratio = errs[500] / errs[4500]
        assert 1.8 <= ratio <= 9.0  # root-n shrinkage, wide Monte Carlo band
        assert errs[4500] <= 0.05

    def test_each_candidate_step_forms_its_residuals_once(self, monkeypatch):
        # the start point's residuals plus one vector per candidate step tried;
        # every value evaluation (start and candidates) makes one smoothed_check call
        calls = {"residuals": 0, "values": 0}
        residuals, smoothed_check = QuantileProblem.residuals, faqr.smoothed_loss.smoothed_check

        def counting_residuals(problem, theta):
            calls["residuals"] += 1
            return residuals(problem, theta)

        def counting_check(*args):
            calls["values"] += 1
            return smoothed_check(*args)

        monkeypatch.setattr(QuantileProblem, "residuals", counting_residuals)
        monkeypatch.setattr(faqr.smoothed_loss, "smoothed_check", counting_check)
        rng = np.random.default_rng(1)
        f = rng.standard_normal((120, 3))
        y = f @ np.array([1.0, -0.5, 0.3]) + rng.standard_t(1, 120)
        # a narrow uniform kernel under Cauchy noise makes Levenberg reject candidates
        fit_factor_only(f, y, 0.2, KernelSpec("uniform", 0.05))
        assert calls["values"] > 2
        assert calls["residuals"] == calls["values"]

    def test_singular_design_raises(self):
        f = np.ones((30, 2))  # duplicated columns
        with pytest.raises(Singular):
            fit_factor_only(f, np.zeros(30), 0.5, KernelSpec("gaussian", 0.3))


class TestWeightedProject:
    def test_unit_weights_reduce_to_plain_projection(self):
        rng = np.random.default_rng(3)
        u = rng.standard_normal((25, 6))
        f = rng.standard_normal((25, 2))
        got = weighted_project(u, f, np.ones(25))
        ref = u - f @ np.linalg.lstsq(f, u, rcond=None)[0]
        assert np.abs(got - ref).max() <= 1e-10

    def test_defining_orthogonality(self):
        rng = np.random.default_rng(4)
        u = rng.standard_normal((40, 8))
        f = rng.standard_normal((40, 3))
        w = rng.uniform(0.1, 2.0, 40)
        u_star = weighted_project(u, f, w)
        assert np.abs(f.T @ (w[:, None] * u_star)).max() <= 1e-8

    def test_matches_dense_inverse_oracle(self):
        rng = np.random.default_rng(5)
        u = rng.standard_normal((10, 3))
        f = rng.standard_normal((10, 2))
        w = rng.uniform(0.5, 1.5, 10)
        got = weighted_project(u, f, w)
        kw = np.diag(w)
        ref = (
            np.eye(10) - kw @ f @ np.linalg.inv(f.T @ kw @ kw @ f) @ f.T @ kw
        ) @ u
        assert np.abs(got - ref).max() <= 1e-10

    def test_singular_gram_raises(self):
        u = np.ones((10, 2))
        f = np.ones((10, 2))  # rank 1
        with pytest.raises(Singular):
            weighted_project(u, f, np.ones(10))


class TestScoreStatistic:
    def test_zero_directions(self):
        f = np.ones((15, 1))
        s, t_n = score_statistic(np.zeros(1), np.zeros((15, 4)), f, np.ones(15), 0.5,
                                 KernelSpec("gaussian", 0.3))
        assert t_n == 0.0
        assert np.array_equal(s, np.zeros(4))

    def test_saturated_limit(self):
        rng = np.random.default_rng(6)
        u_star = rng.standard_normal((30, 5))
        f = rng.standard_normal((30, 1))
        y = np.full(30, 1e5)  # residuals far above the bandwidth
        s, t_n = score_statistic(np.zeros(1), u_star, f, y, 0.3,
                                 KernelSpec("gaussian", 0.5))
        ref = -0.3 * u_star.mean(axis=0)
        assert np.abs(s - ref).max() <= 1e-12

    def test_matches_quadrature_loop_oracle(self):
        rng = np.random.default_rng(7)
        n, d, m = 8, 3, 1
        u_star = rng.standard_normal((n, d))
        f = rng.standard_normal((n, m))
        y = rng.standard_normal(n)
        gamma = rng.standard_normal(m)
        tau, h = 0.4, 0.6
        k = KernelSpec("gaussian", h)
        s, t_n = score_statistic(gamma, u_star, f, y, tau, k)
        ref = np.zeros(d)
        for i in range(n):
            r_i = y[i] - f[i] @ gamma
            kbar, _ = integrate.quad(
                lambda v: kernel_density(k, v), -40.0, -r_i / h, limit=200
            )
            ref += (kbar - tau) * u_star[i]
        ref /= n
        assert np.abs(s - ref).max() <= 1e-8
        assert t_n == pytest.approx(np.abs(ref).max(), abs=1e-8)


class TestAdequacyTests:
    def test_multiplier_determinism(self):
        data, fm, k = benchmark_pieces(n=80, d=25, seed=9)
        r1 = adequacy_test_multiplier(data, fm, 0.5, k, 120, seed=21)
        r2 = adequacy_test_multiplier(data, fm, 0.5, k, 120, seed=21)
        assert np.array_equal(r1.boot_stats, r2.boot_stats)
        assert r1.p_value == r2.p_value
        assert r1.method == "multiplier"

    def test_residual_determinism(self):
        data, fm, k = benchmark_pieces(n=80, d=25, seed=10)
        r1 = adequacy_test_residual(data, fm, 0.5, k, 100, seed=22)
        r2 = adequacy_test_residual(data, fm, 0.5, k, 100, seed=22)
        assert np.array_equal(r1.boot_stats, r2.boot_stats)
        assert r1.p_value == r2.p_value
        assert r1.method == "residual"

    def test_residual_replicates_are_independent(self, monkeypatch):
        data, fm, k = benchmark_pieces(n=80, d=25, seed=15)
        fits = []

        def recording_fit(*args, **kwargs):
            gamma = fit_factor_only(*args, **kwargs)
            fits.append((np.array(args[1]), gamma))
            return gamma

        monkeypatch.setattr(faqr.inference, "fit_factor_only", recording_fit)
        res = adequacy_test_residual(data, fm, 0.5, k, 100, seed=6)
        replicates = fits[1:]  # the first call is the observed fit
        assert len(replicates) == res.b
        for i in (0, 1, res.b - 1):
            y_b, gamma_b = replicates[i]
            alone = fit_factor_only(fm.f_hat, y_b, 0.5, k)
            assert np.array_equal(alone, gamma_b)
            stat = score_statistic(alone, fm.u_hat, fm.f_hat, y_b, 0.5, k)[1]
            assert stat == res.boot_stats[i]

    @pytest.mark.parametrize("test", [adequacy_test_multiplier, adequacy_test_residual])
    def test_stream_count_does_not_grow_with_b(self, monkeypatch, test):
        data, fm, k = benchmark_pieces(n=60, d=15, seed=14)
        calls = []
        stream = faqr.inference.stream

        def counting_stream(*args):
            calls.append(args)
            return stream(*args)

        for module in (faqr.inference, faqr.tuning):
            monkeypatch.setattr(module, "stream", counting_stream)
        counts = []
        for b in (100, 400):
            calls.clear()
            test(data, fm, 0.5, k, b, seed=5)
            counts.append(len(calls))
        assert counts[0] == counts[1] >= 1

    def test_degenerate_zero_columns(self):
        rng = np.random.default_rng(11)
        f = rng.standard_normal((40, 2))
        y = f @ np.array([0.5, 0.5]) + rng.normal(0, 0.3, 40)
        fm = FactorModel(
            f_hat=f, b_hat=np.zeros((6, 2)), u_hat=np.zeros((40, 6)), m=2,
            eigenvalues=np.ones(2),
        )
        data = DataMatrix(x=np.asarray(rng.standard_normal((40, 6))), y=y)
        res = adequacy_test_multiplier(data, fm, 0.5, KernelSpec("gaussian", 0.3),
                                       150, seed=3)
        assert res.t_n == 0.0
        assert np.all(res.boot_stats == 0.0)
        assert res.p_value == 0.0  # strict-inequality count

    def test_p_value_granularity(self):
        data, fm, k = benchmark_pieces(n=60, d=20, seed=12)
        res = adequacy_test_multiplier(data, fm, 0.5, k, 128, seed=4)
        assert (res.p_value * res.b) == int(round(res.p_value * res.b))
        assert res.boot_stats.shape == (128,)
        assert np.all(res.boot_stats >= 0)

    def test_rejects_missing_response(self):
        rng = np.random.default_rng(13)
        data = DataMatrix(x=rng.standard_normal((30, 5)))
        fm = estimate_factors(data, 1)
        from faqr import InputError

        with pytest.raises(InputError):
            adequacy_test_multiplier(data, fm, 0.5, KernelSpec("gaussian", 0.3), 100, 0)

    def test_null_p_values_approximately_uniform(self):
        # strict-inequality bootstrap p-values under the null should track
        # Uniform(0,1); Kolmogorov-Smirnov distance over 500 runs.  Heavy
        # tails keep the multiplier calibration honest (with light-tailed
        # noise and a non-trivial bandwidth it runs conservative, which is
        # why size tables typically skip that cell).
        from faqr.harness import NoiseSpec

        pvals = []
        for rep in range(500):
            data, fm, k = benchmark_pieces(
                n=200, d=200, seed=20_000 + rep, noise=NoiseSpec.student_t(2)
            )
            res = adequacy_test_multiplier(data, fm, 0.5, k, 200, seed=rep)
            pvals.append(res.p_value)
        pvals = np.sort(pvals)
        grid = (np.arange(500) + 1) / 500
        ks = max(
            np.abs(pvals - grid).max(),
            np.abs(pvals - (np.arange(500) / 500)).max(),
        )
        assert ks <= 0.08
