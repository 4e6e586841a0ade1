"""Convolution-smoothed quantile loss.

The check loss rho_tau(t) = t (tau - 1{t<0}) is replaced by its
convolution with a scaled kernel density K_h(t) = K(t/h)/h.  The result
is differentiable (twice, for smooth kernels), convex, and converges to
the check loss as h -> 0.  Writing u = r/h and A(u) = E|u + V| with
V ~ K, the smoothed loss of a residual r has the closed form

    l(r) = (tau - 1/2) r + (h/2) A(r/h),

which this module implements per kernel family together with the kernel
density K, its antiderivative Kbar and the default bandwidth rule.  Each
family's Kbar and K are written once, in one function that gives Kbar(-u)
and K(u) from shared transcendentals; ``kernel_cdf`` and the kernel pass
both read it.  One kernel pass over a residual array of any leading
shape gives the objective, the gradient weight psi = Kbar(-r/h) - tau
and the Hessian weight K(r/h)/h together, so a caller forms each
residual block once and pays for its transcendental functions once.
"""

from dataclasses import dataclass, field
from typing import NamedTuple

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


def _cdf_density(family, u):
    """(Kbar(-u), K(u)) of the unscaled kernel, sharing each family's transcendentals.

    The Gaussian takes one normal cdf and one exp, the Laplacian one
    exp(-|u|), the logistic one expit(-u).
    """
    if family == "gaussian":
        # exponent is never positive; u*u may overflow to inf for extreme
        # arguments, in which case exp(-inf) = 0 is exactly the intended limit
        with np.errstate(over="ignore"):
            return ndtr(-u), np.exp(-0.5 * u * u) / np.sqrt(2.0 * np.pi)
    if family == "laplacian":
        dens = 0.5 * np.exp(-np.abs(u))
        return np.where(u > 0, dens, 1.0 - dens), dens
    if family == "logistic":
        cdf = expit(-u)
        return cdf, cdf * (1.0 - cdf)
    inside = np.abs(u) <= 1.0
    if family == "uniform":
        return np.clip(0.5 * (1.0 - u), 0.0, 1.0), np.where(inside, 0.5, 0.0)
    # epanechnikov, written in v = -u: numpy's x**3 is not odd to the bit,
    # and kernel_cdf's Kbar(t) must cube t itself
    v = np.clip(-u, -1.0, 1.0)
    return 0.5 + 0.75 * v - 0.25 * v**3, np.where(inside, 0.75 * (1.0 - v * v), 0.0)


def kernel_cdf(kernel, t):
    """Kernel antiderivative Kbar(t), the integral of K over (-inf, t]."""
    out = _cdf_density(kernel.family, -np.asarray(t, dtype=float))[0]
    return out if out.ndim else float(out)


def check_loss(r, tau):
    """Plain quantile check loss rho_tau, elementwise."""
    r = np.asarray(r, dtype=float)
    out = r * (tau - (r < 0))
    return out if out.ndim else float(out)


def _terms(r, tau, kernel):
    """Smoothed loss, psi = Kbar(-r/h) - tau and K(r/h)/h of residuals r, elementwise.

    With Kbar(-u) and K(u) from one kernel evaluation, A(u) is
    2 K(u) + u (1 - 2 Kbar(-u)) for the Gaussian, |u| + 2 K(u) for the
    Laplacian, u + 2 log(1 + e^(-u)) for the logistic, and |u| off the
    support of the two compact kernels.
    """
    h = kernel.h
    u = r / h
    fam = kernel.family
    cdf, dens = _cdf_density(fam, u)
    if fam == "gaussian":
        abs_mean = 2.0 * dens + u * (1.0 - 2.0 * cdf)
    elif fam == "laplacian":
        abs_mean = np.abs(u) + 2.0 * dens
    elif fam == "logistic":
        abs_mean = u + 2.0 * np.logaddexp(0.0, -u)
    else:
        a = np.abs(u)
        uc = np.clip(u, -1.0, 1.0)
        inside = (0.5 * (uc * uc + 1.0) if fam == "uniform"
                  else 0.375 + 0.75 * uc * uc - 0.125 * uc**4)
        abs_mean = np.where(a <= 1.0, inside, a)
    return (tau - 0.5) * r + 0.5 * h * abs_mean, cdf - tau, dens / h


class LossPass(NamedTuple):
    """The mean loss over the last axis, psi and the Hessian weight of a residual array."""

    value: float | np.ndarray
    psi: np.ndarray
    weight: np.ndarray


def kernel_pass(r, tau, kernel):
    """Evaluate the smoothed loss of residuals r of any leading shape in one kernel pass.

    ``value`` is the mean of l(r) over the last axis (a float for a
    vector of residuals), ``psi`` = Kbar(-r/h) - tau and ``weight`` =
    K(r/h)/h, elementwise: the gradient and Hessian weights of the
    objective.  A row of a block gives the same bits as that row alone.
    """
    loss, psi, weight = _terms(np.asarray(r, dtype=float), tau, kernel)
    value = loss.mean(axis=-1)
    return LossPass(value if value.ndim else float(value), psi, weight)


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
    e.g. to leave an intercept column unpenalized.  ``y`` may also be a
    (b, n) block of responses that share the design; its residuals then
    take a (b, dim) stack of coefficients.
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
        y = np.asarray(self.y, dtype=float)
        if y.ndim != 2:
            y = y.ravel()
        if z.ndim != 2:
            raise DimensionError("z_hat must be a 2-d array")
        n, dim = z.shape
        if y.shape[-1] != n:
            raise DimensionError(f"y has length {y.shape[-1]}, expected {n}")
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
        """y - z theta, or the (b, n) block y - theta z^T for a block response."""
        theta = np.asarray(theta, dtype=float)
        if self.y.ndim == 1:
            theta = theta.ravel()
        if theta.shape[-1] != self.dim:
            raise DimensionError(f"theta has length {theta.shape[-1]}, expected {self.dim}")
        with np.errstate(over="ignore", invalid="ignore"):
            r = self.y - theta @ self.z_hat.T
        if not np.isfinite(r).all():
            raise NonFinite("residuals overflowed; theta is too large or not finite")
        return r

