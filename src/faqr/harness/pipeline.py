"""End-to-end fitting pipelines shared by the CLI, simulations, and backtests.

A pipeline run is the factor step, then pivotal penalty tuning and the
penalized fit, which one private function does for every penalized
model: the FAQR and plain-QR pipelines and the residual bootstrap's full
fit.  ``factor_step`` is the one place that turns a
``PipelineConfig`` into a ``Design``: optional column centering, the
factor count (fixed, or chosen by the eigenvalue ratio up to ``m_max``),
the factor model (none for plain QR), and the kernel.  A design maps an
observation x, centered as the fitted data were, to [x - B f, f] with
f = (B^T B)^{-1} B^T x, or to x without factors; a prediction is that
row times theta.  ``run_adequacy`` is the one entry to the adequacy test
of the factor-only model: the factor step, the full fit when the
residual bootstrap needs one, then the chosen calibration.
"""

from dataclasses import dataclass, replace

import numpy as np

from ..factor_model import (
    DataMatrix, FactorModel, default_m_max, estimate_factors, select_num_factors,
)
from ..errors import DimensionError, InputError
from ..inference import adequacy_test_multiplier, adequacy_test_residual
from ..rng import derive_seed
from ..smoothed_loss import KernelSpec, QuantileProblem, default_bandwidth
from ..solver import FaqrFit, fit_penalized
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
class Design:
    """The data a run fits, and the map from observations to design rows."""

    data: DataMatrix  # centered when the config says so
    column_means: np.ndarray
    factor_model: FactorModel | None  # None for plain QR
    kernel: KernelSpec

    def rows(self, x):
        """Design rows of one observation or a matrix of them; on the fitted data, z."""
        x = x - self.column_means
        if self.factor_model is None:
            return x
        b = self.factor_model.b_hat
        f = np.linalg.solve(b.T @ b, b.T @ x.T).T
        return np.hstack([x - f @ b.T, f])


@dataclass(frozen=True)
class PipelineResult:
    fit: FaqrFit
    design: Design

    def predict(self, x):
        return self.design.rows(x) @ self.fit.theta_hat


def factor_step(data, tau, config, factors=True):
    """The config's design: centering, the factor model unless ``factors`` is false, the kernel."""
    means = data.x.mean(axis=0) if config.center else np.zeros(data.d)
    if config.center:
        data = DataMatrix(x=data.x - means, y=data.y, column_names=data.column_names)
    n, d = data.x.shape
    fm = None
    if factors:
        m = config.num_factors
        if m is None:
            if min(n, d) < 2:
                raise InputError(
                    f"a {n}x{d} panel has min(n, d) < 2, which leaves no factor count to "
                    "select; set the number of factors (--factors N) or fit without "
                    "factors (--plain)"
                )
            m_max = default_m_max(n, d) if config.m_max is None else config.m_max
            m = select_num_factors(data, m_max)
        fm = estimate_factors(data, m)
    h = config.bandwidth
    if h is None:
        h = default_bandwidth(n, d, 0 if fm is None else fm.m, tau)
    return Design(data, means, fm, KernelSpec(config.kernel_family, h))


def _penalized_fit(design, tau, config):
    """Tuning and the penalized fit on the design's z = [u_hat, f_hat], or on its columns."""
    if design.data.y is None:
        raise InputError("pipeline fitting needs a response column")
    fm = design.factor_model
    z = design.data.x if fm is None else np.hstack([fm.u_hat, fm.f_hat])
    problem = QuantileProblem(z, design.data.y, tau, design.kernel,
                              n_factors=0 if fm is None else fm.m)
    fit = fit_penalized(problem, select_lambda(problem, config.lambda_rule))
    return fit if fm is None else fit.with_varphi(fm.b_hat)


def _fit(data, tau, config, factors):
    config = config or PipelineConfig()
    design = factor_step(data, tau, config, factors)
    return PipelineResult(_penalized_fit(design, tau, config), design)


def fit_faqr(data, tau, config=None):
    """Factor-augmented pipeline: PCA, tuning, penalized smoothed fit."""
    return _fit(data, tau, config, factors=True)


def fit_qr_plain(data, tau, config=None):
    """Plain pipeline: the response regressed on the raw columns."""
    return _fit(data, tau, config, factors=False)


PIPELINES = {"faqr": fit_faqr, "qr_plain": fit_qr_plain}


def pipeline_for(method):
    """The pipeline named ``method``: one of ``PIPELINES``."""
    if method not in PIPELINES:
        raise InputError(f"unknown method {method!r}; choose from {tuple(PIPELINES)}")
    return PIPELINES[method]


ADEQUACY_METHODS = ("multiplier", "residual")
# Purpose tag under an adequacy test's seed: the seed of its full fit's penalty tuning.
_LAMBDA = 1


def run_adequacy(data, tau, config, method, b, seed):
    """Adequacy test of the factor-only model on the config's factor step.

    ``method`` picks the calibration: the multiplier bootstrap, or the
    residual bootstrap, whose full fit is the FAQR fit of this design
    with the config's lambda rule, its seed derived from ``seed``.
    """
    if method not in ADEQUACY_METHODS:
        raise InputError(f"unknown adequacy method {method!r}; choose from {ADEQUACY_METHODS}")
    design = factor_step(data, tau, config)
    args = (design.data, design.factor_model, tau, design.kernel, b, seed)
    if method == "multiplier":
        return adequacy_test_multiplier(*args)
    full_fit = _penalized_fit(design, tau, config.with_seed(derive_seed(seed, _LAMBDA)))
    return adequacy_test_residual(*args, full_fit)
