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
replicates are independent.  The refits run in blocks of a fixed number
of replicates through the one damped Newton loop of the factor-only fit,
which forms a block's residuals once per round and passes them through
the kernel once.  That loop hands back the psi = Kbar_h(-r) - tau and
the weights K_h(r) of its last accepted pass, so the projection weights
and every score statistic come from the fit's own kernel pass.  Both
calibrations share the observed side (input checks, the null fit and
t_n) and the p-value, the share of replicates strictly above t_n.
``faqr.harness.pipeline.run_adequacy`` runs the factor step and picks
the calibration from a pipeline config; for the residual bootstrap it
also makes the full fit, so this module fits no penalized model.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import DimensionError, InputError, NumericalError, Singular
from .rng import stream
from .smoothed_loss import QuantileProblem, kernel_cdf, kernel_pass

# Purpose tag under a test's seed: the bootstrap replicates' one stream.
_BOOTSTRAP = 0

# Factor-only Newton fit: step budget, damped tries per step, gradient-norm stop,
# norm accepted after the budget.
_NEWTON_STEPS = 200
_TRIES = 60
_GTOL = 1e-9
_GTOL_BUDGET = 1e-8

# Residual bootstrap replicates refitted together by one Newton loop.  The
# size is fixed so that the (block, n) arrays stay small whatever b is.
_BLOCK = 64


@dataclass(frozen=True)
class AdequacyResult:
    """Observed statistic, bootstrap replicates, and the p-value.

    newton_steps counts the accepted Newton steps of the observed
    factor-only fit and of every residual bootstrap refit.
    """

    t_n: float
    boot_stats: np.ndarray
    p_value: float
    method: str
    b: int
    gamma_null: np.ndarray
    seed: int
    newton_steps: int

    def __post_init__(self):
        for name in ("boot_stats", "gamma_null"):
            a = np.asarray(getattr(self, name), dtype=float)
            a.setflags(write=False)
            object.__setattr__(self, name, a)


def _solve_rows(a, rhs):
    """Solve a[i] x_i = rhs[i] for every row; returns x and a mask of singular rows.

    A stacked solve fails as a whole when one matrix is singular, so only
    then are the rows solved one by one; a singular row's x is zero.
    """
    try:
        return np.linalg.solve(a, rhs[..., None])[..., 0], np.zeros(len(a), dtype=bool)
    except np.linalg.LinAlgError:
        x, singular = np.zeros_like(rhs), np.zeros(len(a), dtype=bool)
        for i in range(len(a)):
            try:
                x[i] = np.linalg.solve(a[i], rhs[i])
            except np.linalg.LinAlgError:
                singular[i] = True
        return x, singular


def fit_factor_only(f_hat, y, tau, kernel):
    """Unpenalized smoothed quantile fits of responses on the factors alone.

    ``y`` is one response of length n or a (b, n) block of them.  Returns
    (gamma, steps, psi, weight): gamma of shape (m,) or (b, m), the
    accepted Newton steps (an int or one per row), and psi =
    Kbar_h(-r) - tau and weight = K_h(r) of the residuals r at gamma,
    shaped like y, from the last accepted kernel pass.  Every row starts
    from least squares (one product for the block) and takes damped
    Newton steps with its own acceptance test, Levenberg damping and
    stop; the dimension is the number of factors, so each step is tiny.
    The rows share one loop: each round forms the candidate residuals of
    the unfinished rows as one block, whose one kernel pass gives their
    values and, for the rows that accept, their psi, weights and the next
    gradient and Hessian.
    """
    f_hat = np.asarray(f_hat, dtype=float)
    y = np.asarray(y, dtype=float)
    n, m = f_hat.shape
    if m > n:
        raise DimensionError("more factors than observations")
    gram = f_hat.T @ f_hat
    gram_eigs = np.linalg.eigvalsh(gram)
    if gram_eigs[-1] <= 0 or gram_eigs[0] < 1e-12 * gram_eigs[-1]:
        raise Singular("factor design matrix is rank-deficient")
    block = np.atleast_2d(y)
    pairs = (f_hat[:, :, None] * f_hat[:, None, :]).reshape(n, m * m)

    def problem(rows):
        return QuantileProblem(f_hat, block[rows], tau, kernel, sigma_hat=np.ones(m),
                               n_factors=m)

    def derivatives(psi, weight):
        hess = (weight @ pairs).reshape(-1, m, m) / n
        hess = 0.5 * (hess + hess.transpose(0, 2, 1))
        return psi @ f_hat / n, hess, np.maximum(np.trace(hess, axis1=1, axis2=2) / m, 1e-12)

    # every per-row array is indexed by row of the block; rows holds the unfinished ones
    rows = np.arange(block.shape[0])
    current = problem(rows)
    gamma = np.linalg.solve(gram, f_hat.T @ current.y.T).T
    val, psi, weight = kernel_pass(current.residuals(gamma), tau, kernel)
    g, hess, scale = derivatives(psi, weight)
    mu = np.zeros(rows.size)
    steps, tries = np.zeros(rows.size, dtype=int), np.zeros(rows.size, dtype=int)
    while True:
        gnorm = np.linalg.norm(g[rows], axis=1)
        spent = steps[rows] == _NEWTON_STEPS
        if np.any(spent & (gnorm > _GTOL_BUDGET)):
            worst = gnorm[spent].max()
            raise NumericalError(f"factor-only fit stopped at gradient norm {worst:.2e}")
        done = spent | (gnorm <= _GTOL)
        if done.any():
            rows = rows[~done]
            if not rows.size:
                break
            current = problem(rows)
        mu_r, scale_r = mu[rows], scale[rows]
        damping = (mu_r + 1e-14 * scale_r)[:, None, None] * np.eye(m)
        step, singular = _solve_rows(hess[rows] + damping, -g[rows])
        cand = gamma[rows] + step
        cand_val, cand_psi, cand_weight = kernel_pass(current.residuals(cand), tau, kernel)
        moved = ~singular & (cand_val <= val[rows] + 1e-12)
        mu[rows] = np.where(moved, np.where(mu_r > 1e-10 * scale_r, mu_r / 4.0, 0.0),
                            np.maximum(mu_r * 4.0, 1e-6 * scale_r))
        if moved.any():
            acc = rows[moved]
            gamma[acc], val[acc] = cand[moved], cand_val[moved]
            psi[acc], weight[acc] = cand_psi[moved], cand_weight[moved]
            g[acc], hess[acc], scale[acc] = derivatives(psi[acc], weight[acc])
        steps[rows] += moved
        tries[rows] = np.where(moved, 0, tries[rows] + 1)
        if np.any(tries[rows] == _TRIES):
            raise NumericalError("factor-only fit failed to make progress")
    if y.ndim == 2:
        return gamma, steps, psi, weight
    return gamma[0], int(steps[0]), psi[0], weight[0]


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


def score_statistic(psi, u):
    """Rescaled marginal score vector and its sup-norm.

    s = (1/n) sum_i psi_i u_i, with psi_i = Kbar_h(-r_i) - tau at the
    factor-only fit (as ``fit_factor_only`` returns it) or any other
    per-observation score weight; returns (s, max_j |s_j|).  A (b, n)
    block of psi scores every row with one product: s is (b, d) and the
    sup-norms a vector.
    """
    psi = np.asarray(psi, dtype=float)
    s = psi @ np.asarray(u, dtype=float) / psi.shape[-1]
    t_n = np.abs(s).max(axis=-1, initial=0.0)
    return s, t_n if t_n.ndim else float(t_n)


def _observed(data, factor, tau, kernel, b):
    """Input checks, the factor-only fit and its Newton steps, the observed t_n and projected u."""
    if data.y is None:
        raise InputError("adequacy test needs a response column")
    if b < 100:
        raise DimensionError("use at least 100 bootstrap replicates")
    gamma0, steps, psi, w = fit_factor_only(factor.f_hat, data.y, tau, kernel)
    u_star = weighted_project(factor.u_hat, factor.f_hat, w)
    # defining identity of the projection, asserted on every run
    worst = np.abs(factor.f_hat.T @ (w[:, None] * u_star)).max()
    if worst > 1e-8 * max(1.0, np.abs(factor.u_hat).max()):
        raise Singular(
            f"weighted projection lost orthogonality (residual {worst:.2e})"
        )
    return gamma0, steps, score_statistic(psi, u_star)[1], u_star


def _result(method, t_n, boot, gamma0, seed, newton_steps):
    return AdequacyResult(
        t_n=t_n, boot_stats=boot, p_value=float(np.mean(boot > t_n)), method=method,
        b=boot.shape[0], gamma_null=gamma0, seed=int(seed), newton_steps=int(newton_steps),
    )


def adequacy_test_multiplier(data, factor, tau, kernel, b, seed):
    """Gaussian multiplier bootstrap calibration of the score test.

    Each replicate reweights simulated score contributions with
    Rademacher signs.  The simulated errors e are normal with tau-quantile
    zero and score psi = (1 - tau) - Kbar(e / h), which is Kbar(-e / h) -
    tau (every kernel is symmetric), the observed psi of residuals e.
    All replicates draw from the one stream (seed, bootstrap tag),
    replicate i after replicate i - 1.
    """
    gamma0, steps, t_n, u_star = _observed(data, factor, tau, kernel, b)
    n = data.y.shape[0]
    shift = -ndtri(tau)
    boot = np.empty(b)
    gen = stream(seed, _BOOTSTRAP)
    for i in range(b):
        w = 2.0 * gen.integers(0, 2, n) - 1.0
        e = gen.normal(shift, 1.0, n)
        psi = (1.0 - tau) - kernel_cdf(kernel, e / kernel.h)
        boot[i] = score_statistic(w * psi, u_star)[1]
    return _result("multiplier", t_n, boot, gamma0, seed, steps)


def adequacy_test_residual(data, factor, tau, kernel, b, seed, full_fit):
    """Residual bootstrap calibration of the score test.

    ``full_fit`` is the penalized fit of the full model (factors plus
    idiosyncratic parts) on z = [u_hat, f_hat];
    ``faqr.harness.pipeline.run_adequacy`` makes it with the pipeline's
    one penalized fit.  Its residuals are centered so their empirical
    tau-quantile is zero, which makes the null hold exactly in the
    bootstrap world.  Each replicate resamples them, rebuilds a
    null-model response, refits the factor-only coefficients, and scores
    the refit's psi against the raw idiosyncratic columns.  The
    replicates draw their resampling indices from the one stream (seed,
    bootstrap tag), in replicate order, and are otherwise independent:
    each refit starts from least squares.  They are refitted and scored
    in blocks of ``_BLOCK`` rows, so a replicate's statistic depends on
    its own resampled response up to the round-off of its block's matrix
    products.
    """
    # u is projected for t_n only; not holding it keeps it out of the blocks' peak memory
    gamma0, steps, t_n = _observed(data, factor, tau, kernel, b)[:3]
    n = data.y.shape[0]
    eps_full = data.y - np.hstack([factor.u_hat, factor.f_hat]) @ full_fit.theta_hat
    pool = eps_full - np.quantile(eps_full, tau)
    fitted_null = factor.f_hat @ full_fit.gamma_hat
    boot = np.empty(b)
    gen = stream(seed, _BOOTSTRAP)
    for start in range(0, b, _BLOCK):
        # one draw per replicate: a single (block, n) draw is another stream when n is odd
        draws = [gen.integers(0, n, n) for _ in range(min(_BLOCK, b - start))]
        y_b = fitted_null + pool[np.stack(draws)]
        _, steps_b, psi_b, _ = fit_factor_only(factor.f_hat, y_b, tau, kernel)
        boot[start:start + len(draws)] = score_statistic(psi_b, factor.u_hat)[1]
        steps += int(steps_b.sum())
    return _result("residual", t_n, boot, gamma0, seed, steps)
