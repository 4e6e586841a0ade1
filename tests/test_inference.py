import math
import sys
import tracemalloc

import numpy as np
import pytest
from scipy import integrate

import faqr.inference
import faqr.smoothed_loss
import faqr.tuning
from faqr import (
    FactorModel,
    KernelSpec,
    NumericalError,
    QuantileProblem,
    Singular,
    adequacy_test_multiplier,
    adequacy_test_residual,
    fit_factor_only,
    fit_penalized,
    kernel_density,
    kernel_pass,
    score_statistic,
    weighted_project,
)
from faqr.factor_model import DataMatrix, estimate_factors
from faqr.harness import generate_dgp, sparse_signal_spec
from faqr.rng import stream
from faqr.smoothed_loss import default_bandwidth

from oracles import golden_section


def benchmark_pieces(n=200, d=200, seed=0, w=0.0, noise=None):
    spec = sparse_signal_spec(n=n, d=d, noise=noise, signal=(w, w, w), replicate_seed=seed)
    data, truth = generate_dgp(spec)
    fm = estimate_factors(data, 2)
    h = default_bandwidth(n, d, 2, 0.5)
    return data, fm, KernelSpec("gaussian", h)


def levenberg_block():
    """Three factors, a narrow uniform kernel, and four responses: under the
    Cauchy noise of the first, Levenberg damping rejects candidate steps."""
    rng = np.random.default_rng(1)
    f = rng.standard_normal((120, 3))
    beta = np.array([1.0, -0.5, 0.3])
    cauchy = f @ beta + rng.standard_t(1, 120)
    easy = [f @ beta + rng.normal(0.0, 0.5, 120) for _ in range(3)]
    return f, np.stack([cauchy, *easy]), KernelSpec("uniform", 0.05)


class TestFitFactorOnly:
    def test_intercept_matches_golden_section(self):
        rng = np.random.default_rng(1)
        y = rng.standard_normal(80) + 1.2
        k = KernelSpec("gaussian", 0.35)
        gamma = fit_factor_only(np.ones((80, 1)), y, 0.3, k)[0]
        from faqr import loss_value

        p = QuantileProblem(np.ones((80, 1)), y, 0.3, k, sigma_hat=np.ones(1))
        ref = golden_section(lambda t: loss_value(p, np.array([t])), y.min(), y.max())
        assert abs(gamma[0] - ref) <= 1e-6

    def test_zero_response_gives_zero_fit(self):
        rng = np.random.default_rng(2)
        f = rng.standard_normal((50, 2))
        k = KernelSpec("gaussian", 0.4)
        gamma, steps, _, _ = fit_factor_only(f, np.zeros(50), 0.5, k)
        assert np.abs(gamma).max() <= 1e-9
        assert steps == 0  # least squares already sits at the optimum

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
                gamma = fit_factor_only(f, y, 0.5, k)[0]
                per_rep.append(np.linalg.norm(gamma - gamma_star))
            errs[n] = np.mean(per_rep)
        assert errs[4500] < errs[500]
        ratio = errs[500] / errs[4500]
        assert 1.8 <= ratio <= 9.0  # root-n shrinkage, wide Monte Carlo band
        assert errs[4500] <= 0.05

    def test_each_candidate_step_forms_its_residuals_once(self, monkeypatch):
        # the start's residual block plus one block per round of candidate
        # steps, each passed through the kernel once; a block takes as many
        # rounds as its slowest row, not one per row
        calls = {"residuals": 0, "passes": 0}
        residuals, kernel_pass = QuantileProblem.residuals, faqr.inference.kernel_pass

        def counting_residuals(problem, theta):
            calls["residuals"] += 1
            return residuals(problem, theta)

        def counting_pass(*args):
            calls["passes"] += 1
            return kernel_pass(*args)

        monkeypatch.setattr(QuantileProblem, "residuals", counting_residuals)
        monkeypatch.setattr(faqr.inference, "kernel_pass", counting_pass)
        f, block, k = levenberg_block()
        alone = []
        for row in block:
            calls.update(residuals=0, passes=0)
            fit_factor_only(f, row, 0.2, k)
            assert calls["residuals"] == calls["passes"]
            alone.append(calls["residuals"])
        assert alone[0] > 2 + max(alone[1:])  # the Cauchy row is rejected on the way
        calls.update(residuals=0, passes=0)
        fit_factor_only(f, block, 0.2, k)
        assert calls["residuals"] == calls["passes"] == max(alone)

    def test_block_rows_match_their_own_fits(self):
        f, block, k = levenberg_block()
        gamma, steps, _, _ = fit_factor_only(f, block, 0.2, k)
        assert gamma.shape == (4, 3) and steps.shape == (4,)
        for i, row in enumerate(block):
            gamma_i, steps_i, _, _ = fit_factor_only(f, row, 0.2, k)
            assert np.abs(gamma[i] - gamma_i).max() <= 1e-12
            assert steps[i] == steps_i
        assert steps[0] > steps[1:].max()

    def test_psi_and_weight_are_the_kernel_pass_at_gamma(self):
        # what the fit hands back is its last accepted pass: psi and K_h at
        # the returned gamma, per row of a block and for a single response
        f, block, k = levenberg_block()
        for y in (block, block[0]):
            gamma, _, psi, weight = fit_factor_only(f, y, 0.2, k)
            assert psi.shape == weight.shape == y.shape
            want = kernel_pass(y - gamma @ f.T, 0.2, k)
            assert np.abs(psi - want.psi).max() <= 1e-12
            assert np.abs(weight - want.weight).max() <= 1e-12

    def test_a_row_that_cannot_converge_fails_the_block(self):
        rng = np.random.default_rng(8)
        f = rng.standard_normal((60, 2))
        k = KernelSpec("gaussian", 0.05)
        easy = f @ np.array([0.5, -0.2]) + rng.normal(0.0, 0.5, 60)
        bad = np.full(60, 1e12)  # far beyond what a 0.05 bandwidth resolves in 200 steps
        with pytest.raises(NumericalError, match="stopped at gradient norm") as alone:
            fit_factor_only(f, bad, 0.3, k)
        with pytest.raises(NumericalError) as blocked:
            fit_factor_only(f, np.stack([easy, bad, easy]), 0.3, k)
        assert str(blocked.value) == str(alone.value)

    def test_singular_step_in_a_stack_is_damped_per_row(self, monkeypatch):
        # a stacked solve fails as a whole on one singular matrix; the rows
        # are then solved one by one, and only the singular one (here row 0,
        # on the first round) takes a damped retry
        solve = np.linalg.solve
        raised = []

        def solve_with_one_singular_row(a, b):
            if a.ndim == 3 and not raised or a.ndim == 2 and b.ndim == 1 and len(raised) == 1:
                raised.append(a.ndim)
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(a, b)

        f, block, k = levenberg_block()
        want, want_steps, _, _ = fit_factor_only(f, block, 0.2, k)
        monkeypatch.setattr(np.linalg, "solve", solve_with_one_singular_row)
        gamma, steps, _, _ = fit_factor_only(f, block, 0.2, k)
        assert raised == [3, 2]
        assert np.abs(gamma[1:] - want[1:]).max() <= 1e-12
        assert np.array_equal(steps[1:], want_steps[1:])
        assert np.abs(gamma[0] - want[0]).max() <= 1e-9

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
        k = KernelSpec("gaussian", 0.3)
        psi = kernel_pass(np.ones(15) - f @ np.zeros(1), 0.5, k).psi
        s, t_n = score_statistic(psi, np.zeros((15, 4)))
        assert t_n == 0.0
        assert np.array_equal(s, np.zeros(4))

    def test_saturated_limit(self):
        rng = np.random.default_rng(6)
        u_star = rng.standard_normal((30, 5))
        f = rng.standard_normal((30, 1))
        y = np.full(30, 1e5)  # residuals far above the bandwidth
        psi = kernel_pass(y - f @ np.zeros(1), 0.3, KernelSpec("gaussian", 0.5)).psi
        s, t_n = score_statistic(psi, u_star)
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
        s, t_n = score_statistic(kernel_pass(y - f @ gamma, tau, k).psi, u_star)
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
        fits, full = [], []

        def recording_fit(*args, **kwargs):
            out = fit_factor_only(*args, **kwargs)
            fits.append((np.array(args[1]), *out[:2]))
            return out

        def recording_penalized(*args, **kwargs):
            full.append(fit_penalized(*args, **kwargs))
            return full[-1]

        monkeypatch.setattr(faqr.inference, "fit_factor_only", recording_fit)
        monkeypatch.setattr(faqr.inference, "fit_penalized", recording_penalized)
        b, tau = 150, 0.5
        res = adequacy_test_residual(data, fm, tau, k, b, seed=6)
        # the observed fit, then one call per block of replicates, in order
        assert len(fits) == 1 + math.ceil(b / faqr.inference._BLOCK)
        y_blocks = np.concatenate([y_b for y_b, _, _ in fits[1:]])
        gammas = np.concatenate([gamma for _, gamma, _ in fits[1:]])
        steps = np.concatenate([s for _, _, s in fits[1:]])
        assert res.newton_steps == fits[0][2] + steps.sum()
        # the serial draws: one index row per replicate from the one bootstrap stream
        (fit,) = full
        z = np.hstack([fm.u_hat, fm.f_hat])
        eps = data.y - z @ fit.theta_hat
        pool = eps - np.quantile(eps, tau)
        gen = stream(6, faqr.inference._BOOTSTRAP)
        for i in range(b):
            y_i = fm.f_hat @ fit.gamma_hat + pool[gen.integers(0, data.n, data.n)]
            assert np.array_equal(y_blocks[i], y_i)
            # a replicate fitted alone, from its own least-squares start, takes the
            # same Newton steps to the same coefficients and statistic
            alone, steps_i, psi_i, _ = fit_factor_only(fm.f_hat, y_i, tau, k)
            assert steps[i] == steps_i
            assert np.abs(gammas[i] - alone).max() <= 1e-12
            stat = score_statistic(psi_i, fm.u_hat)[1]
            assert abs(stat - res.boot_stats[i]) <= 1e-12

    def test_residual_test_passes_each_residual_array_through_the_kernel_once(
            self, monkeypatch):
        # the projection weights, t_n and every replicate statistic come from
        # the factor-only fits' own kernel passes: no separate cdf or density
        # evaluation, and one pass per residual array that inference forms
        calls = {"residuals": 0, "passes": 0}
        residuals, kernel_pass = QuantileProblem.residuals, faqr.inference.kernel_pass

        def counting_residuals(problem, theta):
            if sys._getframe(1).f_globals["__name__"] == "faqr.inference":
                calls["residuals"] += 1
            return residuals(problem, theta)

        def counting_pass(*args):
            calls["passes"] += 1
            return kernel_pass(*args)

        def forbidden(*args):
            raise AssertionError("a separate kernel evaluation on the residual test's path")

        monkeypatch.setattr(QuantileProblem, "residuals", counting_residuals)
        monkeypatch.setattr(faqr.inference, "kernel_pass", counting_pass)
        for module in (faqr.smoothed_loss, faqr.inference):
            monkeypatch.setattr(module, "kernel_cdf", forbidden)
        monkeypatch.setattr(faqr.smoothed_loss, "kernel_density", forbidden)
        data, fm, k = benchmark_pieces(n=80, d=25, seed=10)
        adequacy_test_residual(data, fm, 0.5, k, 100, seed=22)
        assert calls["residuals"] == calls["passes"] > 0

    def test_residual_peak_memory_does_not_grow_with_b(self):
        # replicates are refitted in fixed blocks: going from 100 to 1000 of
        # them adds 7.2 kB of statistics, while one (b, n) array at b = 1000
        # would add 1.6 MB; numpy reports its buffers to tracemalloc
        data, fm, k = benchmark_pieces(n=200, d=40, seed=16)
        peaks = []
        for b in (100, 1000):
            tracemalloc.start()
            try:
                adequacy_test_residual(data, fm, 0.5, k, b, seed=2)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 64 * 1024

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
