"""Data-driven penalty level selection.

The penalty is calibrated on the pivotal statistic

    L = max_j | sum_i z_ij (tau - 1{e_i <= tau}) / sigma_j |,

with e_i drawn i.i.d. Uniform(0,1); its distribution given the design
does not depend on unknown model parameters.  The selected level is
c0 times the empirical (1-alpha)-quantile of simulated draws of L and,
because the package's objective carries a 1/n factor while L sums over
i, the quantile is divided by n to put the penalty on the objective's
scale.
"""

from dataclasses import dataclass

import math

import numpy as np

from .errors import DimensionError
from .rng import stream


@dataclass(frozen=True)
class LambdaRule:
    """Configuration of the pivotal simulation."""

    c0: float = 1.1
    alpha: float = 0.1
    n_sim: int = 1000
    seed: int = 0

    def __post_init__(self):
        if not self.c0 > 1:
            raise DimensionError("c0 must exceed 1")
        if not 0 < self.alpha < 1:
            raise DimensionError("alpha must lie strictly between 0 and 1")
        if self.n_sim < 100:
            raise DimensionError("n_sim must be at least 100")


def simulate_pivotal(problem, rule):
    """Simulated draws of the pivotal statistic, one per replicate.

    The whole (n_sim, n) block of uniforms comes from the one stream
    ``stream(rule.seed)`` in a single call, row b holding replicate b's
    draws; the block is turned into signs tau - 1{e <= tau} in place.
    """
    if np.any(problem.sigma_hat <= 0):
        raise DimensionError("pivotal simulation requires strictly positive sigma_hat")
    zs = problem.z_hat / problem.sigma_hat
    tau = problem.tau
    signs = stream(rule.seed).random((rule.n_sim, problem.n))
    np.subtract(tau, signs <= tau, out=signs)
    return np.abs(signs @ zs).max(axis=1)


def select_lambda(problem, rule=None):
    """Penalty level c0 * Q_{1-alpha}(L)/n from the pivotal simulation.

    The empirical quantile is the order statistic at index
    ceil((1-alpha) n_sim), counted from the smallest.
    """
    rule = rule or LambdaRule()
    draws = np.sort(simulate_pivotal(problem, rule))
    k = min(rule.n_sim, max(1, math.ceil((1.0 - rule.alpha) * rule.n_sim)))
    q = draws[k - 1]
    return float(rule.c0 * q / problem.n)
