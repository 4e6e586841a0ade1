import numpy as np
import pytest

import faqr.tuning
from faqr import DimensionError, KernelSpec, LambdaRule, QuantileProblem, select_lambda, simulate_pivotal


def make_problem(n=50, dim=10, tau=0.5, seed=7):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, dim))
    y = rng.standard_normal(n)
    return QuantileProblem(z, y, tau, KernelSpec("gaussian", 0.3), n_factors=2)


def tiny_problem(tau):
    return QuantileProblem(
        np.ones((1, 1)), np.zeros(1), tau, KernelSpec("gaussian", 1.0),
        sigma_hat=np.ones(1),
    )


class TestSimulatePivotal:
    def test_two_point_support(self):
        tau = 0.3
        p = tiny_problem(tau)
        draws = simulate_pivotal(p, LambdaRule(seed=5, n_sim=4000))
        assert set(np.round(draws, 12)) <= {tau, round(1 - tau, 12)}
        frac_high = np.mean(np.isclose(draws, 1 - tau))
        assert abs(frac_high - tau) <= 0.03  # P(e <= tau) = tau

    def test_column_rescaling_leaves_draws_unchanged(self):
        p = make_problem()
        rule = LambdaRule(seed=11, n_sim=200)
        base = simulate_pivotal(p, rule)
        z2 = p.z_hat.copy()
        z2[:, 3] *= 32.0  # power of two: scaling is exact in floats
        p2 = QuantileProblem(z2, p.y, p.tau, p.kernel, n_factors=2)
        assert np.array_equal(base, simulate_pivotal(p2, rule))
        z3 = p.z_hat.copy()
        z3[:, 3] *= 41.7
        p3 = QuantileProblem(z3, p.y, p.tau, p.kernel, n_factors=2)
        assert np.allclose(base, simulate_pivotal(p3, rule), rtol=1e-12)

    def test_matches_independent_monte_carlo_oracle(self):
        p = make_problem(n=50, dim=10, tau=0.5, seed=7)
        rule = LambdaRule(seed=7, n_sim=10**4)
        ours = np.quantile(simulate_pivotal(p, rule), 0.9)
        # independent re-implementation on a different bit generator; its 10**6
        # draws, in blocks of 10**4 rows, make the reference's own error small
        # beside the 10**4-draw estimate under test
        zs = p.z_hat / p.sigma_hat
        rng = np.random.Generator(np.random.PCG64(987654321))
        oracle_draws = []
        for _ in range(100):
            signs = p.tau - (rng.random((10**4, 50)) <= p.tau)
            oracle_draws.append(np.abs(signs @ zs).max(axis=1))
        ref = np.quantile(np.concatenate(oracle_draws), 0.9)
        assert abs(ours - ref) <= 0.01 * ref

    def test_matches_a_per_row_loop_on_the_same_block(self):
        p = make_problem(n=40, dim=6, tau=0.3, seed=5)
        rule = LambdaRule(seed=13, n_sim=150)
        u = faqr.tuning.stream(rule.seed).random((rule.n_sim, p.n))
        zs = p.z_hat / p.sigma_hat
        signs = np.array([p.tau - (row <= p.tau) for row in u])
        ref = np.abs(signs @ zs).max(axis=1)  # one GEMM, as per-row products round differently
        assert np.array_equal(simulate_pivotal(p, rule), ref)

    def test_requires_positive_sigma(self):
        p = QuantileProblem(
            np.ones((4, 1)), np.zeros(4), 0.5, KernelSpec("gaussian", 1.0),
            sigma_hat=np.zeros(1),
        )
        with pytest.raises(DimensionError):
            simulate_pivotal(p, LambdaRule())


class TestSelectLambda:
    def test_constant_distribution(self):
        # single observation at tau=0.5: every draw equals 0.5 exactly
        p = tiny_problem(0.5)
        rule = LambdaRule(c0=1.3, seed=2, n_sim=500)
        assert select_lambda(p, rule) == pytest.approx(1.3 * 0.5 / 1, abs=1e-15)

    def test_alpha_to_zero_picks_maximum(self):
        p = make_problem(seed=3)
        rule = LambdaRule(seed=9, alpha=1e-12, n_sim=200)
        draws = simulate_pivotal(p, rule)
        assert select_lambda(p, rule) == pytest.approx(
            1.1 * draws.max() / p.n, rel=1e-12
        )

    def test_monotone_in_quantile_level_and_c0(self):
        p = make_problem(seed=4)
        lams = [
            select_lambda(p, LambdaRule(seed=5, alpha=a, n_sim=400))
            for a in (0.5, 0.2, 0.1, 0.01)
        ]
        assert all(a <= b + 1e-15 for a, b in zip(lams, lams[1:]))
        low = select_lambda(p, LambdaRule(seed=5, c0=1.05, n_sim=400))
        high = select_lambda(p, LambdaRule(seed=5, c0=2.0, n_sim=400))
        assert low < high

    @pytest.mark.parametrize("n_sim", [100, 4000])
    def test_one_stream_per_call(self, monkeypatch, n_sim):
        calls = []
        stream = faqr.tuning.stream

        def counting_stream(*args):
            calls.append(args)
            return stream(*args)

        monkeypatch.setattr(faqr.tuning, "stream", counting_stream)
        select_lambda(make_problem(seed=6), LambdaRule(seed=17, n_sim=n_sim))
        assert calls == [(17,)]

    def test_deterministic_bit_for_bit(self):
        p = make_problem(seed=6)
        rule = LambdaRule(seed=123, n_sim=300)
        assert select_lambda(p, rule) == select_lambda(p, rule)

    def test_c0_times_order_statistic_over_n(self):
        p = make_problem(seed=8)
        rule = LambdaRule(c0=1.7, alpha=0.25, seed=3, n_sim=200)
        draws = np.sort(simulate_pivotal(p, rule))
        # the ceil(0.75 * 200) = 150th smallest draw, on the 1/n objective scale
        assert select_lambda(p, rule) == pytest.approx(1.7 * draws[149] / p.n, rel=1e-12)

    def test_rule_validation(self):
        with pytest.raises(DimensionError):
            LambdaRule(c0=1.0)
        with pytest.raises(DimensionError):
            LambdaRule(alpha=0.0)
        with pytest.raises(DimensionError):
            LambdaRule(n_sim=50)
