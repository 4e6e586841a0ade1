import numpy as np
import pytest

from faqr import (
    DimensionError,
    InnerLoopStall,
    KernelSpec,
    QuantileProblem,
    SolverConfig,
    fit_penalized,
    kernel_cdf,
    kkt_residual,
    loss_gradient,
    loss_hessian,
    loss_value,
    soft_threshold,
    warm_start_expectile,
)
from faqr.harness import NoiseSpec, generate_dgp, sparse_signal_spec
from faqr.factor_model import estimate_factors
from faqr.smoothed_loss import default_bandwidth
from faqr.tuning import LambdaRule, select_lambda

from oracles import (
    golden_section,
    lamm_iterate,
    lasso_cd_quarter,
    majorization_holds,
    prox_grad_reference,
)

TIGHT = SolverConfig(tol=1e-12, kkt_tol=1e-8, max_outer=20000)


@pytest.fixture
def residual_calls(monkeypatch):
    """One entry per QuantileProblem.residuals call made during the test."""
    calls = []
    residuals = QuantileProblem.residuals

    def counted(self, theta):
        calls.append(1)
        return residuals(self, theta)

    monkeypatch.setattr(QuantileProblem, "residuals", counted)
    return calls


def make_problem(n=40, dim=5, tau=0.5, h=0.5, seed=0, family="gaussian"):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, dim))
    theta_true = np.zeros(dim)
    theta_true[:2] = (1.0, -0.5)
    y = z @ theta_true + rng.standard_normal(n)
    return QuantileProblem(z, y, tau, KernelSpec(family, h), n_factors=1)


class TestSoftThreshold:
    def test_scalar_cases(self):
        assert soft_threshold(3.0, 1.0) == 2.0
        assert soft_threshold(-0.5, 1.0) == 0.0

    def test_componentwise(self):
        got = soft_threshold(np.array([2.0, -3.0, 0.1]), np.ones(3))
        assert np.array_equal(got, np.array([1.0, -2.0, 0.0]))

    def test_rejects_negative_threshold(self):
        with pytest.raises(DimensionError):
            soft_threshold(np.ones(2), np.array([1.0, -0.1]))


class TestLammIterate:
    def test_fixed_point_at_zero_gradient_and_zero_lambda(self):
        rng = np.random.default_rng(1)
        y = rng.standard_normal(30)
        k = KernelSpec("gaussian", 0.4)
        from scipy.optimize import brentq

        root = brentq(
            lambda th: np.mean(kernel_cdf(k, (th - y) / 0.4)) - 0.5,
            y.min() - 2, y.max() + 2, xtol=1e-15,
        )
        p = QuantileProblem(np.ones((30, 1)), y, 0.5, k, sigma_hat=np.ones(1))
        theta = np.array([root])
        out = lamm_iterate(p, 0.0, theta, 0.1)
        assert np.abs(out - theta).max() <= 1e-10

    def test_infinite_shrinkage_returns_zero(self):
        p = make_problem(seed=2)
        out = lamm_iterate(p, 1e12, np.full(p.dim, 0.3), 0.5)
        assert np.array_equal(out, np.zeros(p.dim))

    def test_matches_grid_search_on_surrogate(self):
        p = make_problem(n=25, dim=2, seed=3)
        theta_prev = np.array([0.4, -0.2])
        phi, lam = 0.7, 0.08
        got = lamm_iterate(p, lam, theta_prev, phi)
        g = loss_gradient(p, theta_prev)
        # the surrogate separates per coordinate: minimize each on a lattice
        for j in range(2):
            grid = np.arange(got[j] - 0.05, got[j] + 0.05, 1e-4)
            vals = (
                g[j] * (grid - theta_prev[j])
                + 0.5 * phi * (grid - theta_prev[j]) ** 2
                + lam * p.sigma_hat[j] * np.abs(grid)
            )
            best = grid[np.argmin(vals)]
            assert abs(best - got[j]) <= 2e-4


class TestMajorization:
    def test_zero_step_always_majorizes(self):
        p = make_problem(seed=4)
        theta = np.full(p.dim, 0.1)
        assert majorization_holds(p, theta, theta, 1e-9)

    def test_global_curvature_bound_majorizes(self):
        for seed in range(5):
            p = make_problem(seed=50 + seed)
            k_max = 1.0 / np.sqrt(2 * np.pi)  # gaussian kernel maximum
            lipschitz = (k_max / p.kernel.h) * np.linalg.eigvalsh(
                p.z_hat.T @ p.z_hat / p.n
            ).max()
            phi = 1.1 * lipschitz
            rng = np.random.default_rng(seed)
            theta_prev = rng.standard_normal(p.dim)
            theta_new = lamm_iterate(p, 0.05, theta_prev, phi)
            assert majorization_holds(p, theta_new, theta_prev, phi)

    def test_tiny_phi_with_large_step_fails(self):
        p = make_problem(seed=6)
        theta_prev = np.full(p.dim, 2.0)
        phi = 1e-9
        theta_new = lamm_iterate(p, 0.01, theta_prev, phi)
        assert not majorization_holds(p, theta_new, theta_prev, phi)


class TestFitPenalized:
    def test_kkt_at_origin_gives_exact_zero(self):
        p = make_problem(seed=7)
        g0 = loss_gradient(p, np.zeros(p.dim))
        lam = 1.5 * np.max(np.abs(g0) / p.sigma_hat)
        fit = fit_penalized(p, lam)
        assert np.array_equal(fit.theta_hat, np.zeros(p.dim))
        assert fit.converged

    def test_matches_golden_section_intercept_only(self):
        rng = np.random.default_rng(8)
        y = rng.standard_normal(60) * 1.3 + 0.4
        p = QuantileProblem(
            np.ones((60, 1)), y, 0.5, KernelSpec("gaussian", 0.3), sigma_hat=np.ones(1)
        )
        fit = fit_penalized(p, 0.0, TIGHT)
        ref = golden_section(
            lambda th: loss_value(p, np.array([th])), y.min() - 1, y.max() + 1
        )
        assert abs(fit.theta_hat[0] - ref) <= 1e-6

    def test_matches_slow_proximal_gradient_reference(self):
        rng = np.random.default_rng(9)
        n, dim = 100, 5
        z = rng.standard_normal((n, dim))
        theta_true = np.array([1.2, -0.8, 0.0, 0.0, 0.0])
        y = z @ theta_true + 0.4 * rng.standard_normal(n)
        h = 0.25
        p = QuantileProblem(z, y, 0.5, KernelSpec("gaussian", h), n_factors=0)
        lam = 0.08
        fit = fit_penalized(p, lam, TIGHT)
        k = KernelSpec("gaussian", h)
        ref = prox_grad_reference(
            z, y, 0.5, lambda t: kernel_cdf(k, t), h, lam * p.sigma_hat,
            step=1e-3, iters=10**6,
        )
        assert np.abs(fit.theta_hat - ref).max() <= 1e-4

    def test_max_iters_flag(self):
        p = make_problem(seed=10)
        cfg = SolverConfig(max_outer=1, tol=1e-16, kkt_tol=1e-18)
        fit = fit_penalized(p, 0.01, cfg, warm=np.zeros(p.dim))
        assert not fit.converged
        assert fit.n_outer_iters == 1

    def test_inner_loop_stall_raises(self):
        p = make_problem(seed=11)
        cfg = SolverConfig(max_inner=1, phi0=1e-12, tol=1e-12, kkt_tol=1e-18)
        with pytest.raises(InnerLoopStall):
            fit_penalized(p, 0.01, cfg, warm=np.full(p.dim, 3.0))

    def test_escalations_count_the_rejected_proposals(self, residual_calls):
        # phi0 far below the loss curvature: the first search must double its
        # way up about 40 times.  Every proposal, accepted or rejected, forms
        # one residual vector, and the start point one more, so the counts
        # add up exactly; the reported KKT residual reuses the last one.
        p = make_problem(seed=11)
        cfg = SolverConfig(phi0=1e-12, tol=1e-8, kkt_tol=1e-6)
        fit = fit_penalized(p, 0.01, cfg, warm=np.full(p.dim, 3.0))
        assert fit.converged
        assert fit.n_escalations >= 30
        assert len(residual_calls) == fit.n_outer_iters + fit.n_escalations + 1

    def test_descent_and_kkt_across_instances(self):
        for seed, tau, family in [(1, 0.5, "gaussian"), (2, 0.25, "logistic"),
                                  (3, 0.7, "laplacian"), (4, 0.5, "gaussian")]:
            p = make_problem(n=80, dim=6, tau=tau, seed=seed, family=family)
            fit = fit_penalized(p, 0.05)
            trace = np.array(fit.objective_trace)
            assert np.all(np.diff(trace) <= 1e-12)
            assert fit.final_objective <= trace[0] + 1e-12
            assert fit.converged
            assert fit.kkt_residual <= 1e-4
            assert kkt_residual(p, fit.theta_hat, fit.lam) == fit.kkt_residual

    def test_each_iterate_forms_its_residuals_once(self, residual_calls):
        # phi0 above the global curvature bound: every inner loop accepts its
        # first proposal, so each outer iteration forms exactly one residual
        # vector (the proposal's), and its gradient reuses it, as does the
        # reported KKT residual at the last iterate.  The fixed per-fit cost
        # is 1: the residuals at the start point.
        p = make_problem(n=80, dim=6, seed=12)
        k_max = 1.0 / np.sqrt(2 * np.pi)  # gaussian kernel maximum
        lipschitz = (k_max / p.kernel.h) * np.linalg.eigvalsh(p.z_hat.T @ p.z_hat / p.n).max()
        cfg = SolverConfig(phi0=1.1 * lipschitz, tol=1e-8, kkt_tol=1e-6)
        fit = fit_penalized(p, 0.05, cfg, warm=np.zeros(p.dim))
        assert fit.converged
        assert fit.n_outer_iters > 10
        assert fit.n_escalations == 0
        assert len(residual_calls) == fit.n_outer_iters + 1

    def test_scale_equivariance_of_penalty(self):
        rng = np.random.default_rng(13)
        n, dim = 80, 6
        z = rng.standard_normal((n, dim))
        y = z[:, 0] - 0.6 * z[:, 1] + 0.5 * rng.standard_normal(n)
        k = KernelSpec("gaussian", 0.3)
        p1 = QuantileProblem(z, y, 0.5, k, n_factors=0)
        c = 3.7
        z2 = z.copy()
        z2[:, 2] *= c
        p2 = QuantileProblem(z2, y, 0.5, k, n_factors=0)
        lam = 0.05
        fit1 = fit_penalized(p1, lam, TIGHT)
        fit2 = fit_penalized(p2, lam, TIGHT)
        assert np.abs(z @ fit1.theta_hat - z2 @ fit2.theta_hat).max() <= 1e-6
        assert abs(fit2.theta_hat[2] * c - fit1.theta_hat[2]) <= 1e-6


class TestWarmStart:
    def test_infinite_shrinkage(self):
        p = make_problem(seed=14)
        assert np.array_equal(warm_start_expectile(p, 1e12), np.zeros(p.dim))

    def test_quadratic_regime_matches_coordinate_descent(self):
        rng = np.random.default_rng(15)
        n, dim = 50, 4
        z = rng.standard_normal((n, dim))
        y = rng.uniform(-1.0, 1.0, n)  # bounded, so no residual exceeds the cutoff
        p = QuantileProblem(z, y, 0.5, KernelSpec("gaussian", 0.4), n_factors=0)
        lam = 0.02
        theta = warm_start_expectile(p, lam, TIGHT)
        c = 5.0 * min(
            np.median(np.abs(y - np.median(y))) * 1.4826, float(np.std(y))
        )
        assert np.abs(y - z @ theta).max() < c  # quadratic branch active throughout
        ref = lasso_cd_quarter(z, y, lam * p.sigma_hat, iters=4000)
        assert np.abs(theta - ref).max() <= 1e-5

    def test_symmetric_data_returns_center(self):
        y = 3.0 + np.array([-0.5, -0.25, 0.0, 0.25, 0.5])
        p = QuantileProblem(
            np.ones((5, 1)), y, 0.5, KernelSpec("gaussian", 0.4), sigma_hat=np.ones(1)
        )
        theta = warm_start_expectile(p, 0.0, TIGHT)
        assert abs(theta[0] - 3.0) <= 1e-6


_NOISES = {"gaussian": NoiseSpec("gaussian", 0.5), "t2": NoiseSpec("t", 2.0)}
_CURVATURE_CASES = [(tau, design, noise) for tau in (0.1, 0.5, 0.9)
                    for design in ("faqr", "plain") for noise in _NOISES]


def _curvature_case(tau, design, noise):
    """Design, response and kernel of one of the 12 carried-curvature problems."""
    data, _ = generate_dgp(sparse_signal_spec(
        n=100, d=100, noise=_NOISES[noise],
        replicate_seed=8001 if noise == "gaussian" else 8002))
    if design == "faqr":
        fm = estimate_factors(data, 2)
        z, m = np.hstack([fm.u_hat, fm.f_hat]), 2
    else:
        z, m = data.x, 0
    return z, data.y, KernelSpec("gaussian", default_bandwidth(100, 100, m, tau)), m


class TestCarriedCurvature:
    # Each outer iteration after the first starts its curvature search at the
    # Barzilai-Borwein quotient, rounded up to the grid phi0 * 2^(j/4).  These
    # problems pin that rule: it must land on the solution a much tighter fit
    # finds, do markedly less work than the halved carried curvature it
    # replaced, and, through the grid, not let round-off steer the iterates.
    @pytest.mark.parametrize("tau,design,noise", _CURVATURE_CASES)
    def test_default_fit_matches_a_tight_reference(self, tau, design, noise):
        z, y, kernel, m = _curvature_case(tau, design, noise)
        p = QuantileProblem(z, y, tau, kernel, n_factors=m)
        lam = select_lambda(p, LambdaRule(seed=0))
        fit = fit_penalized(p, lam)
        ref = fit_penalized(p, lam, SolverConfig(tol=1e-10, kkt_tol=1e-10))
        assert fit.converged
        assert fit.support == ref.support
        assert abs(fit.final_objective - ref.final_objective) <= 1e-8
        assert np.all(np.diff(fit.objective_trace) <= 0.0)

    @pytest.mark.parametrize("tau,design,noise", _CURVATURE_CASES)
    def test_column_shifts_do_not_steer_the_iterates(self, tau, design, noise):
        # z - mean(z) and (z + s) - mean(z + s) differ only by round-off; an
        # unrounded quotient turns that into gaps of up to 5.5e-6 in theta
        z, y, kernel, m = _curvature_case(tau, design, noise)
        s = np.random.default_rng(7).uniform(-3.0, 3.0, z.shape[1])
        p1 = QuantileProblem(z - z.mean(axis=0), y, tau, kernel, n_factors=m)
        p2 = QuantileProblem((z + s) - (z + s).mean(axis=0), y, tau, kernel, n_factors=m)
        lam = select_lambda(p1, LambdaRule(seed=0))
        gap = np.abs(fit_penalized(p1, lam).theta_hat - fit_penalized(p2, lam).theta_hat)
        assert gap.max() <= 1e-10

    def test_residual_evaluations_fall_by_a_quarter(self, residual_calls):
        # the 12 default fits above formed 5,044 residual vectors at commit
        # 9a93892, which started each search at max(phi0, last curvature / 2);
        # the bound is three quarters of that
        problems = []
        for tau, design, noise in _CURVATURE_CASES:
            z, y, kernel, m = _curvature_case(tau, design, noise)
            p = QuantileProblem(z, y, tau, kernel, n_factors=m)
            problems.append((p, select_lambda(p, LambdaRule(seed=0))))
        residual_calls.clear()
        for p, lam in problems:
            fit_penalized(p, lam)
        assert len(residual_calls) <= 3783


class TestBenchmarkProperties:
    def test_warm_start_does_not_increase_iterations(self):
        warm_iters, zero_iters = [], []
        for rep in range(50):
            spec = sparse_signal_spec(n=200, d=200, replicate_seed=4000 + rep)
            data, _ = generate_dgp(spec)
            fm = estimate_factors(data, 2)
            z = np.hstack([fm.u_hat, fm.f_hat])
            h = default_bandwidth(200, 200, 2, 0.5)
            p = QuantileProblem(z, data.y, 0.5, KernelSpec("gaussian", h), n_factors=2)
            lam = select_lambda(p, LambdaRule(seed=rep))
            warm_iters.append(fit_penalized(p, lam).n_outer_iters)
            zero_iters.append(
                fit_penalized(p, lam, warm=np.zeros(p.dim)).n_outer_iters
            )
        assert np.median(warm_iters) <= np.median(zero_iters)

    def test_support_recovery_at_scale(self):
        hits = 0
        reps = 50
        for rep in range(reps):
            spec = sparse_signal_spec(n=500, d=200, replicate_seed=7000 + rep)
            data, truth = generate_dgp(spec)
            fm = estimate_factors(data, 2)
            z = np.hstack([fm.u_hat, fm.f_hat])
            h = default_bandwidth(500, 200, 2, 0.5)
            p = QuantileProblem(z, data.y, 0.5, KernelSpec("gaussian", h), n_factors=2)
            lam = select_lambda(p, LambdaRule(seed=rep))
            fit = fit_penalized(p, lam)
            if fit.support == truth.support:
                hits += 1
        assert hits / reps >= 0.98
