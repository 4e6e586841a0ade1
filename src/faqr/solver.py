"""Penalized smoothed quantile regression via majorize-minimization.

The objective F(theta) = Qh(theta) + lambda ||sigma_hat * theta||_1 is
minimized by repeatedly building an isotropic quadratic surrogate at the
current iterate and solving it exactly with soft-thresholding.  A
proposal theta+ is accepted when it decreases the objective
sufficiently, F(theta+) <= F(theta) - (sigma/2) phi ||theta+ - theta||^2
with sigma = 1e-4 (the monotone rule of SpaRSA), and its curvature phi
is doubled otherwise; every accepted step therefore lowers the computed
objective, without ever touching the Hessian.  The first outer
iteration starts that search at phi0 = _PHI0, and each later one at the
Barzilai-Borwein quotient s'y / s's of the last step, floored at phi0
and rounded up to the grid phi0 * 2^(j/4) so that round-off in the
quotient cannot steer the iterate path.  The tolerances and budgets of
the loop are module constants, not arguments.  One kernel pass over a
proposal's residuals gives its loss and its gradient weights psi, and
the accepted proposal's psi gives the next gradient and, for the last
iterate, the reported KKT residual, so each iterate's residuals are
formed and passed through the kernel once.  The starting point is a
Huberized expectile fit obtained with the same machinery.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionError, InnerLoopStall
from .smoothed_loss import kernel_pass


# Factor by which the inner loop inflates a rejected surrogate curvature;
# it keeps the curvature on the quarter-power-of-two grid it starts on.
_ESCALATION = 2.0

# Sufficient-decrease constant of the acceptance test.
_SIGMA = 1e-4

# First and smallest surrogate curvature phi0: the first search starts there,
# and the Barzilai-Borwein starts are rounded up to the grid phi0 * 2^(j/4).
_PHI0 = 0.1

# Stops: an l2 step between iterates shorter than _TOL, or, earlier, an
# iterate whose subgradient optimality residual is within _KKT_TOL.
_TOL = 1e-6
_KKT_TOL = 1e-6

# Outer iteration budget, and curvature escalations allowed per iteration.
_MAX_OUTER = 5000
_MAX_INNER = 60


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


def _lamm_minimize(loss, theta0, lam_sigma):
    """Run the majorize-minimize loop on a smooth loss plus l1 penalty.

    ``loss`` is any object whose ``value(theta)`` returns the loss at
    theta and what its gradient needs (the residuals, or their psi), and
    whose ``gradient`` takes the gradient from that.  Returns (theta,
    outer_iters, converged, trace, escalations, carry): the penalized
    objective at theta0 and after each outer iteration, the number of
    rejected proposals, and what ``value`` returned at theta for its
    gradient.  The module constants are read at call time.
    """
    theta = np.array(theta0, dtype=float)
    f0, carry = loss.value(theta)
    obj = f0 + float(lam_sigma @ np.abs(theta))
    trace = [obj]
    converged = False
    outer = escalations = 0
    phi = _PHI0
    for outer_next in range(1, _MAX_OUTER + 1):
        g = loss.gradient(carry)
        if _kkt_from_gradient(g, theta, lam_sigma) <= _KKT_TOL:
            converged = True
            break
        if outer:
            q = float(delta @ (g - g_prev)) / float(delta @ delta)
            phi = _PHI0 * 2.0 ** (math.ceil(4 * math.log2(max(1.0, q / _PHI0))) / 4)
        outer = outer_next
        g_prev = g
        for _ in range(_MAX_INNER):
            proposal = _shrink(theta - g / phi, lam_sigma / phi)
            f_new, carry_new = loss.value(proposal)
            delta = proposal - theta
            obj_new = f_new + float(lam_sigma @ np.abs(proposal))
            if obj_new <= obj - 0.5 * _SIGMA * phi * (delta @ delta):
                break
            phi *= _ESCALATION
            escalations += 1
        else:
            raise InnerLoopStall(
                f"no sufficient decrease found after {_MAX_INNER} curvature "
                "escalations; the loss is numerically broken"
            )
        theta, obj, carry = proposal, obj_new, carry_new
        trace.append(obj)
        if np.linalg.norm(delta) < _TOL:
            converged = True
            break
    return theta, outer, converged, tuple(trace), escalations, carry


def _mad(x):
    # R-style median absolute deviation, scaled for normal consistency.
    return float(np.median(np.abs(x - np.median(x))) * 1.4826)


def _penalty(problem, lam):
    """The coordinate penalties lam * sigma_hat, for 0 <= lam < inf."""
    if not 0.0 <= lam < math.inf:
        raise DimensionError(f"lam must be finite and non-negative, got {lam}")
    return lam * problem.sigma_hat


def warm_start_expectile(problem, lam):
    """Penalized Huberized expectile fit used as the solver warm start.

    The Huber cutoff is 5 * min(mad, sd) of the residuals at theta = 0,
    computed once and frozen.
    """
    lam_sigma = _penalty(problem, lam)
    if problem.n < 2:
        raise DimensionError("warm start needs n >= 2")
    c = 5.0 * min(_mad(problem.y), float(np.std(problem.y)))
    if c <= 0.0:
        c = 1e-12
    return _lamm_minimize(_HuberExpectileLoss(problem, c), np.zeros(problem.dim), lam_sigma)[0]


def fit_penalized(problem, lam, warm=None):
    """Minimize the penalized smoothed quantile objective.

    Parameters
    ----------
    problem : QuantileProblem
    lam : float
        Penalty level on the (1/n)-scaled objective; 0 <= lam < inf.
    warm : array, optional
        Starting point; defaults to the Huberized expectile warm start.

    Returns
    -------
    FaqrFit
        With converged=False (best iterate kept) when _MAX_OUTER outer
        iterations run out before either stop passes.
    """
    lam_sigma = _penalty(problem, lam)
    if warm is None:
        warm = warm_start_expectile(problem, lam)
    loss = _QuantileLoss(problem)
    theta, outer, converged, trace, esc, psi = _lamm_minimize(loss, warm, lam_sigma)
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
