"""Penalized smoothed quantile regression via majorize-minimization.

The objective Qh(theta) + lambda ||sigma * theta||_1 is minimized by
repeatedly building an isotropic quadratic surrogate at the current
iterate and solving it exactly with soft-thresholding.  The surrogate
curvature phi is inflated by a constant factor until the surrogate
majorizes the smooth loss at the proposal, which makes the penalized
objective monotonically non-increasing without ever touching the
Hessian.  The first outer iteration starts that search at phi0, and each
later one at the Barzilai-Borwein quotient s'y / s's of the last step,
floored at phi0 and rounded up to the grid phi0 * 2^(j/4) so that
round-off in the quotient cannot steer the iterate path.  One kernel
pass over a proposal's residuals gives its loss and its gradient weights
psi, and the accepted proposal's psi gives the next gradient and, for
the last iterate, the reported KKT residual, so each iterate's residuals
are formed and passed through the kernel once.  The starting point is a
Huberized expectile fit obtained with the same machinery.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionError, InnerLoopStall
from .smoothed_loss import kernel_pass, loss_gradient


# Factor by which the inner loop inflates a rejected surrogate curvature;
# it keeps the curvature on the quarter-power-of-two grid it starts on.
_ESCALATION = 2.0


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the majorize-minimize loop.

    phi0 is the first and smallest surrogate curvature: the first outer
    iteration starts its search there, and each later one at the
    Barzilai-Borwein quotient rounded up to the grid phi0 * 2^(j/4),
    which keeps round-off from steering the iterates; the search doubles
    the curvature until the surrogate majorizes.  tol is the l2 stopping
    threshold on successive iterates, and max_outer and max_inner the
    outer iteration and per-iteration curvature escalation budgets.

    kkt_tol is a secondary stopping rule on the subgradient optimality
    residual.  Near the optimum the proximal map can orbit at step sizes
    just above tol while the iterate is already optimal to well beyond
    working accuracy; the KKT test terminates those orbits.
    """

    phi0: float = 0.1
    tol: float = 1e-6
    kkt_tol: float = 1e-6
    max_outer: int = 5000
    max_inner: int = 60

    def __post_init__(self):
        if not self.phi0 > 0:
            raise DimensionError("phi0 must be positive")
        if not self.tol > 0:
            raise DimensionError("tol must be positive")


@dataclass(frozen=True)
class FaqrFit:
    """A fitted penalized quantile regression.

    theta_hat stacks the d idiosyncratic coefficients first and the m
    factor coefficients last; varphi_hat = gamma_hat - B^T beta_hat is
    filled by pipelines that know the loadings B.  n_escalations counts
    the proposals the quantile phase rejected.
    """

    theta_hat: np.ndarray
    lam: float
    tau: float
    h: float
    sigma_hat: np.ndarray
    n_idio: int
    n_factors: int
    n_outer_iters: int
    final_objective: float
    kkt_residual: float
    converged: bool
    objective_trace: tuple = ()
    varphi_hat: np.ndarray | None = None
    n_escalations: int = 0

    def __post_init__(self):
        theta = np.asarray(self.theta_hat, dtype=float)
        theta.setflags(write=False)
        object.__setattr__(self, "theta_hat", theta)

    @property
    def beta_hat(self):
        return self.theta_hat[: self.n_idio]

    @property
    def gamma_hat(self):
        return self.theta_hat[self.n_idio :]

    @property
    def support(self):
        return frozenset(int(j) for j in np.nonzero(self.beta_hat)[0])

    def with_varphi(self, b_hat):
        """Return a copy with varphi_hat = gamma_hat - b_hat^T beta_hat."""
        varphi = self.gamma_hat - np.asarray(b_hat, dtype=float).T @ self.beta_hat
        return replace(self, varphi_hat=varphi)


def soft_threshold(v, t):
    """Componentwise soft-thresholding: sign(v) max(|v| - t, 0)."""
    v = np.asarray(v, dtype=float)
    t = np.asarray(t, dtype=float)
    if t.ndim and t.shape != v.shape:
        raise DimensionError("threshold vector must match v in length")
    if np.any(t < 0):
        raise DimensionError("thresholds must be non-negative")
    out = _shrink(v, t)
    return out if out.ndim else float(out)


def _shrink(v, t):
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


class _QuantileLoss:
    def __init__(self, problem):
        self.problem = problem

    def value(self, theta):
        p = self.problem
        loss = kernel_pass(p.residuals(theta), p.tau, p.kernel)
        return loss.value, loss.psi

    def gradient(self, psi):
        return self.problem.z_hat.T @ psi / self.problem.n


class _HuberExpectileLoss:
    """(1/n) sum H_c(r_i) |tau - 1{r_i < 0}| with symmetric Huber H_c."""

    def __init__(self, problem, c):
        self.problem = problem
        self.c = float(c)

    def _weights(self, r):
        return np.where(r >= 0, self.problem.tau, 1.0 - self.problem.tau)

    def value(self, theta):
        r = self.problem.residuals(theta)
        a = np.abs(r)
        hub = np.where(a <= self.c, 0.5 * r * r, self.c * a - 0.5 * self.c**2)
        return float(np.mean(hub * self._weights(r))), r

    def gradient(self, r):
        dh = np.clip(r, -self.c, self.c)
        return -(self.problem.z_hat.T @ (dh * self._weights(r))) / self.problem.n


def _kkt_from_gradient(g, theta, lam_sigma):
    """Max violation of the subgradient optimality conditions, given the gradient."""
    res = np.where(theta != 0.0, np.abs(g + lam_sigma * np.sign(theta)),
                   np.maximum(np.abs(g) - lam_sigma, 0.0))
    return float(res.max()) if res.size else 0.0


def _lamm_minimize(loss, theta0, lam_sigma, cfg):
    """Run the majorize-minimize loop on a smooth loss plus l1 penalty.

    ``loss`` is any object whose ``value(theta)`` returns the loss at
    theta and what its gradient needs (the residuals, or their psi), and
    whose ``gradient`` takes the gradient from that.  Returns (theta,
    outer_iters, converged, trace, escalations, carry): the penalized
    objective at theta0 and after each outer iteration, the number of
    rejected proposals, and what ``value`` returned at theta for its
    gradient.
    """
    theta = np.array(theta0, dtype=float)
    f_cur, carry = loss.value(theta)
    trace = [f_cur + float(lam_sigma @ np.abs(theta))]
    converged = False
    outer = escalations = 0
    phi = cfg.phi0
    for outer_next in range(1, cfg.max_outer + 1):
        g = loss.gradient(carry)
        if _kkt_from_gradient(g, theta, lam_sigma) <= cfg.kkt_tol:
            converged = True
            break
        if outer:
            q = float(delta @ (g - g_prev)) / float(delta @ delta)
            phi = cfg.phi0 * 2.0 ** (math.ceil(4 * math.log2(max(1.0, q / cfg.phi0))) / 4)
        outer = outer_next
        g_prev = g
        pen_cur = float(lam_sigma @ np.abs(theta))
        accepted = None
        for _ in range(cfg.max_inner):
            proposal = _shrink(theta - g / phi, lam_sigma / phi)
            f_new, carry_new = loss.value(proposal)
            delta = proposal - theta
            surrogate = f_cur + g @ delta + 0.5 * phi * (delta @ delta)
            pen_new = float(lam_sigma @ np.abs(proposal))
            # strict surrogate test; the explicit descent guard keeps
            # round-off from accepting a curvature that underestimates the
            # loss, which would let the iterate orbit the optimum
            if surrogate >= f_new and f_new + pen_new <= f_cur + pen_cur:
                accepted = (proposal, f_new, carry_new, pen_new, delta)
                break
            phi *= _ESCALATION
            escalations += 1
        if accepted is None:
            raise InnerLoopStall(
                f"no majorizing curvature found after {cfg.max_inner} escalations; "
                "the loss is numerically broken"
            )
        theta, f_cur, carry, pen_cur, delta = accepted
        trace.append(f_cur + pen_cur)
        if np.linalg.norm(delta) < cfg.tol:
            converged = True
            break
    return theta, outer, converged, tuple(trace), escalations, carry


def kkt_residual(problem, theta, lam):
    """Max violation of the subgradient optimality conditions at theta."""
    theta = np.asarray(theta, dtype=float)
    return _kkt_from_gradient(loss_gradient(problem, theta), theta, lam * problem.sigma_hat)


def _mad(x):
    # R-style median absolute deviation, scaled for normal consistency.
    return float(np.median(np.abs(x - np.median(x))) * 1.4826)


def warm_start_expectile(problem, lam, cfg=None):
    """Penalized Huberized expectile fit used as the solver warm start.

    The Huber cutoff is 5 * min(mad, sd) of the residuals at theta = 0,
    computed once and frozen.
    """
    cfg = cfg or SolverConfig()
    if problem.n < 2:
        raise DimensionError("warm start needs n >= 2")
    r0 = problem.y
    c = 5.0 * min(_mad(r0), float(np.std(r0)))
    if c <= 0.0:
        c = 1e-12
    loss = _HuberExpectileLoss(problem, c)
    theta0 = np.zeros(problem.dim)
    theta = _lamm_minimize(loss, theta0, lam * problem.sigma_hat, cfg)[0]
    return theta


def fit_penalized(problem, lam, cfg=None, warm=None):
    """Minimize the penalized smoothed quantile objective.

    Parameters
    ----------
    problem : QuantileProblem
    lam : float
        Penalty level on the (1/n)-scaled objective; lam >= 0.
    cfg : SolverConfig, optional
    warm : array, optional
        Starting point; defaults to the Huberized expectile warm start.

    Returns
    -------
    FaqrFit
        With converged=False (best iterate kept) when the outer
        iteration budget runs out before the step-size test passes.
    """
    cfg = cfg or SolverConfig()
    if lam < 0:
        raise DimensionError("lam must be non-negative")
    if warm is None:
        warm = warm_start_expectile(problem, lam, cfg)
    loss = _QuantileLoss(problem)
    lam_sigma = lam * problem.sigma_hat
    theta, outer, converged, trace, esc, psi = _lamm_minimize(loss, warm, lam_sigma, cfg)
    return FaqrFit(
        theta_hat=theta,
        lam=float(lam),
        tau=problem.tau,
        h=problem.kernel.h,
        sigma_hat=problem.sigma_hat,
        n_idio=problem.n_idio,
        n_factors=problem.n_factors,
        n_outer_iters=outer,
        final_objective=trace[-1],
        kkt_residual=_kkt_from_gradient(loss.gradient(psi), theta, lam_sigma),
        converged=converged,
        objective_trace=trace,
        n_escalations=esc,
    )
