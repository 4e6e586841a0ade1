"""Convolution-smoothed quantile loss.

The check loss rho_tau(t) = t (tau - 1{t<0}) is replaced by its
convolution with a scaled kernel density K_h(t) = K(t/h)/h.  The result
is differentiable (twice, for smooth kernels), convex, and converges to
the check loss as h -> 0.  Writing u = r/h and A(u) = E|u + V| with
V ~ K, the smoothed loss of a residual r has the closed form

    l(r) = (tau - 1/2) r + (h/2) A(r/h),

which this module implements per kernel family together with the kernel
density K, its antiderivative Kbar, the gradient and Hessian of the
sample objective, and the default bandwidth rule.  The objective, its
gradient and its Hessian also take residuals already computed, so a
caller that holds them does not form them twice.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit, ndtr

from .errors import DimensionError, NonFinite

KERNEL_FAMILIES = ("gaussian", "laplacian", "epanechnikov", "logistic", "uniform")


@dataclass(frozen=True)
class KernelSpec:
    """A kernel family plus a bandwidth."""

    family: str
    h: float

    def __post_init__(self):
        if self.family not in KERNEL_FAMILIES:
            raise DimensionError(
                f"unknown kernel family {self.family!r}; choose from {KERNEL_FAMILIES}"
            )
        if not (self.h > 0 and np.isfinite(self.h)):
            raise DimensionError(f"bandwidth must be a positive finite real, got {self.h}")


def _gauss_pdf(t):
    # exponent is never positive; t*t may overflow to inf for extreme
    # arguments, in which case exp(-inf) = 0 is exactly the intended limit
    with np.errstate(over="ignore"):
        return np.exp(-0.5 * t * t) / np.sqrt(2.0 * np.pi)


def kernel_density(kernel, t):
    """Unscaled kernel density K(t).  K_h(t) is K(t/h)/h by composition."""
    t = np.asarray(t, dtype=float)
    fam = kernel.family
    if fam == "gaussian":
        out = _gauss_pdf(t)
    elif fam == "laplacian":
        out = 0.5 * np.exp(-np.abs(t))
    elif fam == "logistic":
        s = expit(t)
        out = s * (1.0 - s)
    elif fam == "uniform":
        out = np.where(np.abs(t) <= 1.0, 0.5, 0.0)
    else:  # epanechnikov
        tc = np.clip(t, -1.0, 1.0)
        out = np.where(np.abs(t) <= 1.0, 0.75 * (1.0 - tc * tc), 0.0)
    return out if out.ndim else float(out)


def kernel_cdf(kernel, t):
    """Kernel antiderivative Kbar(t), the integral of K over (-inf, t]."""
    t = np.asarray(t, dtype=float)
    fam = kernel.family
    if fam == "gaussian":
        out = ndtr(t)
    elif fam == "laplacian":
        a = np.exp(-np.abs(t))
        out = np.where(t < 0, 0.5 * a, 1.0 - 0.5 * a)
    elif fam == "logistic":
        out = expit(t)
    elif fam == "uniform":
        out = np.clip(0.5 * (t + 1.0), 0.0, 1.0)
    else:  # epanechnikov
        tc = np.clip(t, -1.0, 1.0)
        out = 0.5 + 0.75 * tc - 0.25 * tc**3
    return out if out.ndim else float(out)


def check_loss(r, tau):
    """Plain quantile check loss rho_tau, elementwise."""
    r = np.asarray(r, dtype=float)
    out = r * (tau - (r < 0))
    return out if out.ndim else float(out)


def _abs_mean(kernel, u):
    """A(u) = E|u + V| for V distributed with density K, elementwise."""
    fam = kernel.family
    if fam == "gaussian":
        return 2.0 * _gauss_pdf(u) + u * (2.0 * ndtr(u) - 1.0)
    if fam == "laplacian":
        a = np.abs(u)
        return a + np.exp(-a)
    if fam == "logistic":
        return u + 2.0 * np.logaddexp(0.0, -u)
    if fam == "uniform":
        a = np.abs(u)
        uc = np.clip(u, -1.0, 1.0)
        return np.where(a <= 1.0, 0.5 * (uc * uc + 1.0), a)
    # epanechnikov
    a = np.abs(u)
    uc = np.clip(u, -1.0, 1.0)
    return np.where(a <= 1.0, 0.375 + 0.75 * uc * uc - 0.125 * uc**4, a)


def smoothed_check(r, tau, kernel):
    """Smoothed check loss of residuals r, elementwise."""
    r = np.asarray(r, dtype=float)
    u = r / kernel.h
    out = (tau - 0.5) * r + 0.5 * kernel.h * _abs_mean(kernel, u)
    return out if out.ndim else float(out)


def default_bandwidth(n, d, m, tau):
    """Default bandwidth max(0.05, sqrt(tau(1-tau)) (log(d+m)/n)^(1/4))."""
    if n < 2:
        raise DimensionError("bandwidth rule needs n >= 2")
    if not 0.0 < tau < 1.0:
        raise DimensionError("tau must lie strictly between 0 and 1")
    return max(0.05, np.sqrt(tau * (1.0 - tau)) * (np.log(d + m) / n) ** 0.25)


@dataclass(frozen=True)
class QuantileProblem:
    """Design, response, and smoothing configuration of one regression.

    Rows of ``z_hat`` stack the d idiosyncratic columns first and the m
    factor columns last.  ``sigma_hat`` holds the per-column penalty
    weights; by default the population-style (denominator n) standard
    deviations of the columns, in which case constant columns are
    rejected.  Passing ``sigma_hat`` explicitly overrides the computation,
    e.g. to leave an intercept column unpenalized.
    """

    z_hat: np.ndarray
    y: np.ndarray
    tau: float
    kernel: KernelSpec
    sigma_hat: np.ndarray | None = None
    n_factors: int = 0
    n: int = field(init=False)
    dim: int = field(init=False)

    def __post_init__(self):
        z = np.asarray(self.z_hat, dtype=float)
        y = np.asarray(self.y, dtype=float).ravel()
        if z.ndim != 2:
            raise DimensionError("z_hat must be a 2-d array")
        n, dim = z.shape
        if y.shape[0] != n:
            raise DimensionError(f"y has length {y.shape[0]}, expected {n}")
        if not (np.isfinite(z).all() and np.isfinite(y).all()):
            raise NonFinite("z_hat and y must be finite")
        if not 0.0 < self.tau < 1.0:
            raise DimensionError("tau must lie strictly between 0 and 1")
        if not 0 <= self.n_factors <= dim:
            raise DimensionError("n_factors out of range")
        if self.sigma_hat is None:
            sigma = z.std(axis=0)
            if np.any(sigma <= 0.0):
                j = int(np.argmin(sigma))
                raise DimensionError(
                    f"column {j} of z_hat is constant; pass sigma_hat explicitly to override"
                )
        else:
            sigma = np.asarray(self.sigma_hat, dtype=float).ravel()
            if sigma.shape[0] != dim:
                raise DimensionError("sigma_hat length does not match z_hat columns")
            if not np.isfinite(sigma).all() or np.any(sigma < 0.0):
                raise DimensionError("sigma_hat entries must be finite and non-negative")
        z = z.copy()
        y = y.copy()
        sigma = sigma.copy()
        for a in (z, y, sigma):
            a.setflags(write=False)
        object.__setattr__(self, "z_hat", z)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "sigma_hat", sigma)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "dim", dim)

    @property
    def n_idio(self):
        return self.dim - self.n_factors

    def residuals(self, theta):
        theta = np.asarray(theta, dtype=float).ravel()
        if theta.shape[0] != self.dim:
            raise DimensionError(f"theta has length {theta.shape[0]}, expected {self.dim}")
        with np.errstate(over="ignore", invalid="ignore"):
            r = self.y - self.z_hat @ theta
        if not np.isfinite(r).all():
            raise NonFinite("residuals overflowed; theta is too large or not finite")
        return r


def value_from_residuals(problem, r):
    """Sample smoothed quantile objective (1/n) sum_i l(r_i), given the residuals."""
    return float(np.mean(smoothed_check(r, problem.tau, problem.kernel)))


def gradient_from_residuals(problem, r):
    """Gradient (1/n) sum_i [Kbar_h(-r_i) - tau] z_i of the objective, given the residuals."""
    psi = kernel_cdf(problem.kernel, -r / problem.kernel.h) - problem.tau
    return problem.z_hat.T @ psi / problem.n


def loss_value(problem, theta):
    """Sample smoothed quantile objective (1/n) sum_i l(r_i(theta))."""
    return value_from_residuals(problem, problem.residuals(theta))


def loss_gradient(problem, theta):
    """Gradient (1/n) sum_i [Kbar_h(-r_i) - tau] z_i of the objective."""
    return gradient_from_residuals(problem, problem.residuals(theta))


def hessian_from_residuals(problem, r):
    """Hessian (1/n) sum_i K_h(-r_i) z_i z_i^T of the objective, given the residuals."""
    h = problem.kernel.h
    u = r / h
    w = kernel_density(problem.kernel, u) / (h * problem.n)
    zw = problem.z_hat * w[:, None]
    hess = zw.T @ problem.z_hat
    return 0.5 * (hess + hess.T)


def loss_hessian(problem, theta):
    """Hessian (1/n) sum_i K_h(-r_i) z_i z_i^T of the objective."""
    return hessian_from_residuals(problem, problem.residuals(theta))
