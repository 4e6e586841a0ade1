"""Adequacy test of the pure factor quantile regression.

Tests whether the idiosyncratic coefficients are all zero, i.e. whether
regressing the response on the latent factors alone is adequate.  The
observed statistic is the sup-norm of a rescaled marginal score: factor
effects are estimated by an unpenalized smoothed quantile fit, each
idiosyncratic column is projected so it is orthogonal to the factors in
a kernel-weighted inner product, and the score averages the projected
columns against the smoothed sign of the factor-only residuals.
Critical values come from a Gaussian multiplier bootstrap or from a
residual bootstrap that refits the null model on resampled residuals of
the full (penalized) model; each refit starts from least squares, so the
replicates are independent.  Both calibrations share the observed side
(input checks, the null fit and t_n) and the p-value, the share of
replicates strictly above t_n.  ``faqr.harness.pipeline.run_adequacy``
runs the factor step and picks the calibration from a pipeline config.
"""

from dataclasses import dataclass, replace

import numpy as np
from scipy.special import ndtri

from .errors import DimensionError, InputError, NumericalError, Singular
from .rng import derive_seed, stream
from .smoothed_loss import (
    KernelSpec,
    QuantileProblem,
    gradient_from_residuals,
    hessian_from_residuals,
    kernel_cdf,
    kernel_density,
    value_from_residuals,
)
from .solver import fit_penalized
from .tuning import LambdaRule, select_lambda

# Purpose tags under a test's seed: the bootstrap replicates' one stream,
# and the seed of the residual bootstrap's internal penalty tuning.
_BOOTSTRAP = 0
_LAMBDA = 1

# Factor-only Newton fit: step budget, gradient-norm stop, norm accepted after the budget.
_NEWTON_STEPS = 200
_GTOL = 1e-9
_GTOL_BUDGET = 1e-8


@dataclass(frozen=True)
class AdequacyResult:
    """Observed statistic, bootstrap replicates, and the p-value."""

    t_n: float
    boot_stats: np.ndarray
    p_value: float
    method: str
    b: int
    gamma_null: np.ndarray
    seed: int

    def __post_init__(self):
        for name in ("boot_stats", "gamma_null"):
            a = np.asarray(getattr(self, name), dtype=float)
            a.setflags(write=False)
            object.__setattr__(self, name, a)


def fit_factor_only(f_hat, y, tau, kernel):
    """Unpenalized smoothed quantile fit of y on the factors alone.

    Starts from least squares and takes damped Newton steps with a
    Levenberg fallback; the dimension is the number of factors, so each
    step is tiny.  The accepted iterate's residuals give the gradient,
    Hessian and value, so each candidate step forms its residuals once.
    """
    f_hat = np.asarray(f_hat, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    n, m = f_hat.shape
    if m > n:
        raise DimensionError("more factors than observations")
    gram_eigs = np.linalg.eigvalsh(f_hat.T @ f_hat)
    if gram_eigs[-1] <= 0 or gram_eigs[0] < 1e-12 * gram_eigs[-1]:
        raise Singular("factor design matrix is rank-deficient")
    problem = QuantileProblem(f_hat, y, tau, kernel, sigma_hat=np.ones(m), n_factors=m)
    gamma = np.linalg.solve(f_hat.T @ f_hat, f_hat.T @ y)
    r = problem.residuals(gamma)
    val = value_from_residuals(problem, r)
    mu = 0.0
    for _ in range(_NEWTON_STEPS):
        g = gradient_from_residuals(problem, r)
        if np.linalg.norm(g) <= _GTOL:
            return gamma
        hess = hessian_from_residuals(problem, r)
        scale = max(np.trace(hess) / m, 1e-12)
        for _ in range(60):
            try:
                step = np.linalg.solve(hess + (mu + 1e-14 * scale) * np.eye(m), -g)
            except np.linalg.LinAlgError:
                step = None
            if step is not None:
                cand = gamma + step
                cand_r = problem.residuals(cand)
                cand_val = value_from_residuals(problem, cand_r)
                if cand_val <= val + 1e-12:
                    gamma, r, val = cand, cand_r, cand_val
                    mu = mu / 4.0 if mu > 1e-10 * scale else 0.0
                    break
            mu = max(mu * 4.0, 1e-6 * scale)
        else:
            raise NumericalError("factor-only fit failed to make progress")
    g = gradient_from_residuals(problem, r)
    if np.linalg.norm(g) > _GTOL_BUDGET:
        raise NumericalError(
            f"factor-only fit stopped at gradient norm {np.linalg.norm(g):.2e}"
        )
    return gamma


def weighted_project(u_hat, f_hat, k_weights):
    """Remove the weighted factor projection from each idiosyncratic column.

    Returns u* such that f_hat^T diag(w) u*_col = 0 for every column,
    where w holds the kernel weights at the factor-only residuals.
    """
    u_hat = np.asarray(u_hat, dtype=float)
    f_hat = np.asarray(f_hat, dtype=float)
    w = np.asarray(k_weights, dtype=float).ravel()
    if w.shape[0] != u_hat.shape[0] or f_hat.shape[0] != u_hat.shape[0]:
        raise DimensionError("u_hat, f_hat, and k_weights disagree on n")
    if np.any(w < 0) or not np.isfinite(w).all():
        raise DimensionError("k_weights must be finite and non-negative")
    a = f_hat * w[:, None]
    gram = a.T @ a
    eigs = np.linalg.eigvalsh(gram)
    if eigs[0] <= 0 or eigs[-1] / eigs[0] > 1e12:
        raise Singular("weighted factor Gram matrix is ill-conditioned")
    return u_hat - a @ np.linalg.solve(gram, a.T @ u_hat)


def score_statistic(gamma, u_star, f_hat, y, tau, kernel):
    """Rescaled marginal score vector and its sup-norm.

    s = (1/n) sum_i [Kbar_h(-r_i(gamma)) - tau] u*_i with
    r_i(gamma) = y_i - f_i^T gamma; returns (s, max_j |s_j|).
    """
    u_star = np.asarray(u_star, dtype=float)
    f_hat = np.asarray(f_hat, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    r = y - f_hat @ np.asarray(gamma, dtype=float)
    psi = kernel_cdf(kernel, -r / kernel.h) - tau
    s = u_star.T @ psi / y.shape[0]
    t_n = float(np.abs(s).max()) if s.size else 0.0
    return s, t_n


def _observed(data, factor, tau, kernel, b):
    """Input checks, the factor-only fit, the observed t_n and projected u."""
    if data.y is None:
        raise InputError("adequacy test needs a response column")
    if b < 100:
        raise DimensionError("use at least 100 bootstrap replicates")
    y = data.y
    gamma0 = fit_factor_only(factor.f_hat, y, tau, kernel)
    eps0 = y - factor.f_hat @ gamma0
    w = kernel_density(kernel, -eps0 / kernel.h) / kernel.h
    u_star = weighted_project(factor.u_hat, factor.f_hat, w)
    # defining identity of the projection, asserted on every run
    worst = np.abs(factor.f_hat.T @ (w[:, None] * u_star)).max()
    if worst > 1e-8 * max(1.0, np.abs(factor.u_hat).max()):
        raise Singular(
            f"weighted projection lost orthogonality (residual {worst:.2e})"
        )
    _, t_n = score_statistic(gamma0, u_star, factor.f_hat, y, tau, kernel)
    return gamma0, t_n, u_star


def _result(method, t_n, boot, gamma0, seed):
    return AdequacyResult(
        t_n=t_n, boot_stats=boot, p_value=float(np.mean(boot > t_n)), method=method,
        b=boot.shape[0], gamma_null=gamma0, seed=int(seed),
    )


def adequacy_test_multiplier(data, factor, tau, kernel, b, seed):
    """Gaussian multiplier bootstrap calibration of the score test.

    Each replicate reweights simulated score contributions with
    Rademacher signs; the simulated errors are normal with tau-quantile
    zero.  All replicates draw from the one stream (seed, bootstrap
    tag), replicate i after replicate i - 1.
    """
    gamma0, t_n, u_star = _observed(data, factor, tau, kernel, b)
    n = data.y.shape[0]
    shift = -ndtri(tau)
    boot = np.empty(b)
    gen = stream(seed, _BOOTSTRAP)
    for i in range(b):
        w = 2.0 * gen.integers(0, 2, n) - 1.0
        e = gen.normal(shift, 1.0, n)
        psi = tau - kernel_cdf(kernel, e / kernel.h)
        boot[i] = np.abs(u_star.T @ (w * psi)).max() / n
    return _result("multiplier", t_n, boot, gamma0, seed)


def adequacy_test_residual(data, factor, tau, kernel, b, seed, lambda_rule=None):
    """Residual bootstrap calibration of the score test.

    Residuals come from the full penalized fit (factors plus
    idiosyncratic parts, penalty level tuned internally) and are
    centered so their empirical tau-quantile is zero, which makes the
    null hold exactly in the bootstrap world.  Each replicate resamples
    them, rebuilds a null-model response, refits the factor-only
    coefficients, and recomputes the score statistic using the raw
    idiosyncratic columns.  ``lambda_rule`` sets the tuning's c0, alpha
    and n_sim; its seed is always derived from ``seed`` under a purpose
    tag of its own.  The replicates draw their resampling indices from
    the one stream (seed, bootstrap tag), in replicate order, and are
    otherwise independent: each refit starts from least squares.
    """
    # u is projected for t_n only; not holding it keeps it out of the full fit's peak memory
    gamma0, t_n = _observed(data, factor, tau, kernel, b)[:2]
    y = data.y
    n = y.shape[0]
    z = np.hstack([factor.u_hat, factor.f_hat])
    problem = QuantileProblem(z, y, tau, kernel, n_factors=factor.m)
    rule = replace(lambda_rule or LambdaRule(), seed=derive_seed(seed, _LAMBDA))
    lam = select_lambda(problem, rule)
    full_fit = fit_penalized(problem, lam)
    eps_full = y - z @ full_fit.theta_hat

    pool = eps_full - np.quantile(eps_full, tau)
    fitted_null = factor.f_hat @ full_fit.gamma_hat
    boot = np.empty(b)
    gen = stream(seed, _BOOTSTRAP)
    for i in range(b):
        y_b = fitted_null + pool[gen.integers(0, n, n)]
        gamma_b = fit_factor_only(factor.f_hat, y_b, tau, kernel)
        boot[i] = score_statistic(gamma_b, factor.u_hat, factor.f_hat, y_b, tau, kernel)[1]
    return _result("residual", t_n, boot, gamma0, seed)
