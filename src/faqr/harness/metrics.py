"""Estimation-accuracy metrics for simulation studies."""

from dataclasses import dataclass

import numpy as np

from ..errors import DimensionError


@dataclass(frozen=True)
class MetricReport:
    """l1 error of the sparse coefficients plus support recovery rates."""

    l1_error: float
    tpr: float
    fpr: float
    support_hat: frozenset


def evaluate_fit(fit, truth):
    """Compare a fitted model's sparse coefficients against the truth.

    The support estimate counts exact zeros only; soft-thresholding
    produces them, so no extra cutoff is applied.  With an empty true
    support the TPR is vacuously 1.
    """
    beta_hat = fit.beta_hat
    beta_star = truth.beta_star
    if beta_hat.shape[0] != beta_star.shape[0]:
        raise DimensionError("fitted and true coefficient lengths differ")
    d = beta_star.shape[0]
    s_hat, s_star = fit.support, truth.support
    tpr = len(s_hat & s_star) / len(s_star) if s_star else 1.0
    denom = d - len(s_star)
    fpr = len(s_hat - s_star) / denom if denom else 0.0
    return MetricReport(
        l1_error=float(np.abs(beta_hat - beta_star).sum()),
        tpr=float(tpr),
        fpr=float(fpr),
        support_hat=s_hat,
    )
