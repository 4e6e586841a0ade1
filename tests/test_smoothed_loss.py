import math

import numpy as np
import pytest
from scipy import integrate
from scipy.optimize import brentq

from faqr import (
    DimensionError,
    KernelSpec,
    NonFinite,
    QuantileProblem,
    check_loss,
    default_bandwidth,
    kernel_cdf,
    kernel_pass,
)
from faqr.smoothed_loss import KERNEL_FAMILIES

from oracles import (
    fd_gradient,
    fd_jacobian,
    kernel_density,
    loss_gradient,
    loss_hessian,
    loss_value,
    smoothed_check,
    smoothed_check_by_quadrature,
)

FAMILIES = list(KERNEL_FAMILIES)


def make_problem(n=12, dim=4, family="gaussian", h=0.5, tau=0.5, seed=0):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, dim))
    y = rng.standard_normal(n)
    return QuantileProblem(z, y, tau, KernelSpec(family, h), n_factors=1)


class TestKernelPrimitives:
    def test_density_literals(self):
        k = KernelSpec("gaussian", 1.0)
        assert kernel_density(k, 0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-12)
        assert kernel_density(KernelSpec("uniform", 1.0), 2.0) == 0.0
        assert kernel_density(KernelSpec("epanechnikov", 1.0), 0.5) == pytest.approx(0.5625)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_density_symmetric_nonnegative(self, family):
        k = KernelSpec(family, 1.0)
        t = np.linspace(-4, 4, 41)
        vals = kernel_density(k, t)
        assert np.all(vals >= 0)
        assert np.allclose(vals, kernel_density(k, -t))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_density_integrates_to_one(self, family):
        k = KernelSpec(family, 1.0)
        lo, hi = (-1, 1) if family in ("uniform", "epanechnikov") else (-40, 40)
        total, _ = integrate.quad(lambda t: kernel_density(k, t), lo, hi, limit=200)
        assert abs(total - 1.0) <= 1e-8

    @pytest.mark.parametrize("family", FAMILIES)
    def test_cdf_basics(self, family):
        k = KernelSpec(family, 1.0)
        assert kernel_cdf(k, 0.0) == pytest.approx(0.5, abs=1e-12)
        t = np.linspace(-5, 5, 81)
        vals = kernel_cdf(k, t)
        assert np.all(np.diff(vals) >= -1e-15)
        assert np.allclose(kernel_cdf(k, -t), 1.0 - vals, atol=1e-12)
        assert kernel_cdf(k, np.inf) == 1.0
        assert kernel_cdf(k, -np.inf) == 0.0

    def test_cdf_literals(self):
        assert kernel_cdf(KernelSpec("uniform", 1.0), 0.5) == pytest.approx(0.75)
        got = kernel_cdf(KernelSpec("gaussian", 1.0), 1.0)
        assert got == pytest.approx(0.84134, abs=1e-5)
        quad, _ = integrate.quad(
            lambda s: kernel_density(KernelSpec("gaussian", 1.0), s), -40, 1.0, limit=200
        )
        assert got == pytest.approx(quad, abs=1e-9)


class TestLossValue:
    def test_single_point_gaussian_at_zero_residual(self):
        p = QuantileProblem(
            np.ones((1, 1)), np.zeros(1), 0.5, KernelSpec("gaussian", 1.0),
            sigma_hat=np.ones(1),
        )
        expected = 0.5 * math.sqrt(2.0 / math.pi)  # 0.5 E|Z| for Z standard normal
        assert loss_value(p, np.zeros(1)) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_quadrature_oracle(self, family):
        rng = np.random.default_rng(17)
        for _ in range(6):
            r = float(rng.uniform(-3, 3))
            tau = float(rng.uniform(0.1, 0.9))
            h = float(rng.uniform(0.2, 1.5))
            k = KernelSpec(family, h)
            got = smoothed_check(r, tau, k)
            ref = smoothed_check_by_quadrature(r, tau, k)
            assert got == pytest.approx(ref, abs=2e-8, rel=1e-7)

    @pytest.mark.parametrize("family", ["gaussian", "laplacian"])
    def test_check_loss_limit_halving(self, family):
        rng = np.random.default_rng(5)
        z = np.ones((6, 1))
        y = np.array([0.0, 0.7, -0.7, 1.2, -1.2, 2.1])
        theta = np.zeros(1)  # residual 0 present, so the gap is ~linear in h
        gaps = []
        for h in (0.1, 0.05, 0.025):
            p = QuantileProblem(z, y, 0.5, KernelSpec(family, h), sigma_hat=np.ones(1))
            gaps.append(loss_value(p, theta) - float(np.mean(check_loss(y, 0.5))))
        assert gaps[1] <= 0.6 * gaps[0]
        assert gaps[2] <= 0.6 * gaps[1]

    def test_asymptotic_linearity_far_from_origin(self):
        k = KernelSpec("gaussian", 1.0)
        r = 1e6
        assert smoothed_check(r, 0.3, k) == pytest.approx(0.3 * r, rel=1e-12)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_dominates_check_loss(self, family):
        rng = np.random.default_rng(23)
        r = rng.uniform(-4, 4, 200)
        for tau in (0.2, 0.5, 0.8):
            k = KernelSpec(family, 0.7)
            assert np.all(smoothed_check(r, tau, k) >= check_loss(r, tau) - 1e-12)

    def test_convexity_along_random_segments(self):
        p = make_problem(seed=2)
        rng = np.random.default_rng(3)
        for _ in range(25):
            a = rng.standard_normal(p.dim)
            b = rng.standard_normal(p.dim)
            w = rng.uniform()
            mid = loss_value(p, w * a + (1 - w) * b)
            assert mid <= w * loss_value(p, a) + (1 - w) * loss_value(p, b) + 1e-12

    def test_nonfinite_residuals_raise(self):
        p = make_problem()
        with pytest.raises(NonFinite):
            loss_value(p, np.full(p.dim, 1e308))
        with pytest.raises(NonFinite):
            loss_value(p, np.full(p.dim, np.nan))


class TestKernelPass:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_the_separate_kernel_functions(self, family):
        rng = np.random.default_rng(31)
        r = np.concatenate([rng.uniform(-4, 4, 300), [0.0, 0.3, -0.3, 1e6, -1e6]])
        for tau in (0.2, 0.5, 0.85):
            k = KernelSpec(family, 0.6)
            got = kernel_pass(r, tau, k)
            assert got.value == pytest.approx(np.mean(smoothed_check(r, tau, k)), abs=1e-12)
            assert np.allclose(got.psi, kernel_cdf(k, -r / k.h) - tau, rtol=0, atol=1e-12)
            assert np.allclose(got.weight, kernel_density(k, r / k.h) / k.h, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_value_matches_quadrature_oracle(self, family):
        rng = np.random.default_rng(37)
        r = rng.uniform(-3, 3, 4)
        tau, k = 0.3, KernelSpec(family, 0.8)
        ref = np.mean([smoothed_check_by_quadrature(float(ri), tau, k) for ri in r])
        assert kernel_pass(r, tau, k).value == pytest.approx(ref, abs=2e-8, rel=1e-7)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_block_rows_give_the_bits_of_single_rows(self, family):
        rng = np.random.default_rng(41)
        block = rng.standard_t(2, (5, 97))
        k = KernelSpec(family, 0.4)
        whole = kernel_pass(block, 0.35, k)
        assert whole.value.shape == (5,) and whole.psi.shape == whole.weight.shape == (5, 97)
        for i, row in enumerate(block):
            alone = kernel_pass(row, 0.35, k)
            assert isinstance(alone.value, float)
            assert alone.value == whole.value[i]
            assert np.array_equal(alone.psi, whole.psi[i])
            assert np.array_equal(alone.weight, whole.weight[i])


class TestLossGradient:
    def test_saturated_regime(self):
        rng = np.random.default_rng(8)
        z = rng.standard_normal((20, 3))
        y = np.full(20, 1e4)  # residuals far above h
        p = QuantileProblem(z, y, 0.3, KernelSpec("gaussian", 0.5), sigma_hat=np.ones(3))
        g = loss_gradient(p, np.zeros(3))
        assert np.abs(g + 0.3 * z.mean(axis=0)).max() <= 1e-10

    @pytest.mark.parametrize("family", FAMILIES)
    def test_finite_difference_oracle(self, family):
        worst = 0.0
        for draw in range(50):
            p = make_problem(family=family, seed=100 + draw, tau=0.2 + 0.6 * (draw % 7) / 6)
            rng = np.random.default_rng(1000 + draw)
            theta = rng.standard_normal(p.dim)
            g = loss_gradient(p, theta)
            ref = fd_gradient(lambda t: loss_value(p, t), theta)
            worst = max(worst, np.abs(g - ref).max() / (1.0 + np.abs(g).max()))
        assert worst <= 1e-5

    def test_zero_gradient_at_smoothed_quantile_intercept_only(self):
        rng = np.random.default_rng(4)
        y = rng.standard_normal(40)
        tau, h = 0.35, 0.4
        k = KernelSpec("gaussian", h)
        # independent 1-d root of the estimating equation mean(Kbar((theta-y)/h)) = tau
        root = brentq(
            lambda th: np.mean(kernel_cdf(k, (th - y) / h)) - tau,
            y.min() - 5 * h, y.max() + 5 * h, xtol=1e-14,
        )
        p = QuantileProblem(np.ones((40, 1)), y, tau, k, sigma_hat=np.ones(1))
        assert abs(loss_gradient(p, np.array([root]))[0]) <= 1e-10


class TestLossHessian:
    def test_single_point_literal(self):
        p = QuantileProblem(
            np.array([[1.0, 0.0]]), np.zeros(1), 0.5, KernelSpec("gaussian", 1.0),
            sigma_hat=np.ones(2),
        )
        hess = loss_hessian(p, np.zeros(2))
        expected = np.zeros((2, 2))
        expected[0, 0] = 1.0 / math.sqrt(2 * math.pi)
        assert np.abs(hess - expected).max() <= 1e-12

    @pytest.mark.parametrize("family", FAMILIES)
    def test_psd(self, family):
        p = make_problem(family=family, seed=6)
        hess = loss_hessian(p, np.zeros(p.dim))
        assert np.linalg.eigvalsh(hess).min() >= -1e-10

    @pytest.mark.parametrize("family", ["gaussian", "logistic", "laplacian"])
    def test_finite_difference_of_gradient(self, family):
        p = make_problem(family=family, seed=9)
        rng = np.random.default_rng(10)
        theta = rng.standard_normal(p.dim)
        hess = loss_hessian(p, theta)
        ref = fd_jacobian(lambda t: loss_gradient(p, t), theta)
        assert np.abs(hess - ref).max() <= 1e-5


class TestDefaultBandwidth:
    def test_benchmark_value(self):
        got = default_bandwidth(500, 200, 2, 0.5)
        expected = max(0.05, 0.5 * (math.log(202) / 500) ** 0.25)
        assert got == pytest.approx(expected, abs=1e-15)
        assert got == pytest.approx(0.1605, abs=3e-4)

    def test_floor_binds(self):
        assert default_bandwidth(10**9, 5, 1, 0.5) == 0.05
        assert default_bandwidth(200, 200, 2, 1e-9) == 0.05

    def test_requires_two_observations(self):
        with pytest.raises(DimensionError):
            default_bandwidth(1, 5, 1, 0.5)


class TestQuantileProblem:
    def test_rejects_constant_column(self):
        z = np.ones((10, 2))
        z[:, 1] = np.arange(10)
        with pytest.raises(DimensionError, match="constant"):
            QuantileProblem(z, np.zeros(10), 0.5, KernelSpec("gaussian", 1.0))

    def test_explicit_sigma_allows_intercept(self):
        z = np.ones((10, 1))
        p = QuantileProblem(z, np.zeros(10), 0.5, KernelSpec("gaussian", 1.0),
                            sigma_hat=np.ones(1))
        assert p.sigma_hat[0] == 1.0

    def test_tau_bounds(self):
        z = np.arange(10.0).reshape(5, 2)
        for tau in (0.0, 1.0, -0.1):
            with pytest.raises(DimensionError):
                QuantileProblem(z, np.zeros(5), tau, KernelSpec("gaussian", 1.0))

    def test_population_style_sigma(self):
        rng = np.random.default_rng(12)
        z = rng.standard_normal((9, 3))
        p = QuantileProblem(z, np.zeros(9), 0.5, KernelSpec("gaussian", 1.0))
        assert np.allclose(p.sigma_hat, z.std(axis=0))  # denominator n
