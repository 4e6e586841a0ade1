"""End-to-end fitting pipelines shared by the CLI, simulations, and backtests.

A pipeline run is the factor step, pivotal penalty tuning, and the
penalized fit.  ``factor_step`` is the one place that turns a
``PipelineConfig`` into a design: optional column centering, the factor
count (fixed, or chosen by the eigenvalue ratio up to ``m_max``), the
factor model, and the kernel.  The plain variant regresses the response
on the raw columns with the same centering and bandwidth rule.  A run
keeps the column means it subtracted, to center new rows the same way.
``run_adequacy`` is the one entry to the adequacy test of the
factor-only model: the factor step, then the chosen calibration.
"""

from dataclasses import dataclass, replace

import numpy as np

from ..factor_model import DataMatrix, default_m_max, estimate_factors, select_num_factors
from ..errors import DimensionError, InputError
from ..inference import adequacy_test_multiplier, adequacy_test_residual
from ..smoothed_loss import KernelSpec, QuantileProblem, default_bandwidth
from ..solver import fit_penalized
from ..tuning import LambdaRule, select_lambda


@dataclass(frozen=True)
class PipelineConfig:
    """Everything a pipeline run needs besides the data and tau.

    ``bandwidth``, ``num_factors`` and ``m_max`` take their data-driven
    defaults only when None; zero is an input error, raised here rather
    than once per window.
    """

    kernel_family: str = "gaussian"
    bandwidth: float | None = None
    num_factors: int | None = None
    m_max: int | None = None
    center: bool = False
    lambda_rule: LambdaRule = LambdaRule()

    def __post_init__(self):
        if self.bandwidth is not None and not 0 < self.bandwidth < np.inf:
            raise DimensionError(f"bandwidth must be a positive finite real, got {self.bandwidth}")
        if self.m_max is not None and not self.m_max >= 1:
            raise DimensionError(f"m_max must be at least 1, got {self.m_max}")
        if self.num_factors is not None and not self.num_factors >= 1:
            raise DimensionError(f"num_factors must be at least 1, got {self.num_factors}")

    def with_seed(self, seed):
        return replace(self, lambda_rule=replace(self.lambda_rule, seed=int(seed)))


@dataclass(frozen=True)
class FactorStep:
    data: DataMatrix  # centered when the config says so
    column_means: np.ndarray
    factor_model: "object"
    kernel: KernelSpec


@dataclass(frozen=True)
class PipelineResult:
    fit: "object"
    factor_model: "object | None"
    column_means: np.ndarray


def _center(data, config):
    """The data as fitted and the column means subtracted from it."""
    if not config.center:
        return data, np.zeros(data.d)
    means = data.x.mean(axis=0)
    return DataMatrix(x=data.x - means, y=data.y, column_names=data.column_names), means


def _kernel(config, n, d, m, tau):
    h = default_bandwidth(n, d, m, tau) if config.bandwidth is None else config.bandwidth
    return KernelSpec(config.kernel_family, h)


def _require_response(data, what="pipeline fitting"):
    if data.y is None:
        raise InputError(f"{what} needs a response column")


def factor_step(data, tau, config):
    """Center, resolve the factor count, estimate the factors, pick the kernel."""
    data, means = _center(data, config)
    n, d = data.x.shape
    m = config.num_factors
    if m is None:
        m_max = default_m_max(n, d) if config.m_max is None else config.m_max
        m = select_num_factors(data, m_max)
    fm = estimate_factors(data, m)
    return FactorStep(data, means, fm, _kernel(config, n, d, fm.m, tau))


def fit_faqr(data, tau, config=None):
    """Factor-augmented pipeline: PCA, tuning, penalized smoothed fit."""
    config = config or PipelineConfig()
    _require_response(data)
    step = factor_step(data, tau, config)
    fm = step.factor_model
    z = np.hstack([fm.u_hat, fm.f_hat])
    problem = QuantileProblem(z, step.data.y, tau, step.kernel, n_factors=fm.m)
    lam = select_lambda(problem, config.lambda_rule)
    fit = fit_penalized(problem, lam).with_varphi(fm.b_hat)
    return PipelineResult(fit=fit, factor_model=fm, column_means=step.column_means)


def fit_qr_plain(data, tau, config=None):
    """Plain pipeline: the response regressed on the raw columns."""
    config = config or PipelineConfig()
    _require_response(data)
    data, means = _center(data, config)
    n, d = data.x.shape
    problem = QuantileProblem(data.x, data.y, tau, _kernel(config, n, d, 0, tau), n_factors=0)
    lam = select_lambda(problem, config.lambda_rule)
    fit = fit_penalized(problem, lam)
    return PipelineResult(fit=fit, factor_model=None, column_means=means)


PIPELINES = {"faqr": fit_faqr, "qr_plain": fit_qr_plain}

ADEQUACY_METHODS = ("multiplier", "residual")


def run_adequacy(data, tau, config, method, b, seed):
    """Adequacy test of the factor-only model on the config's factor step.

    ``method`` picks the calibration: the multiplier bootstrap, or the
    residual bootstrap, whose full fit uses the config's lambda rule
    (its seed derived from ``seed``).
    """
    if method not in ADEQUACY_METHODS:
        raise InputError(f"unknown adequacy method {method!r}; choose from {ADEQUACY_METHODS}")
    _require_response(data, "the adequacy test")
    step = factor_step(data, tau, config)
    args = (step.data, step.factor_model, tau, step.kernel, b, seed)
    if method == "multiplier":
        return adequacy_test_multiplier(*args)
    return adequacy_test_residual(*args, lambda_rule=config.lambda_rule)
