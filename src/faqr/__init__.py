"""Factor-augmented quantile regression.

Latent factors are extracted from a wide observation matrix by
principal components, the response is regressed on the estimated
idiosyncratic parts and factors with a convolution-smoothed quantile
loss under an l1 penalty, the penalty level is tuned by a pivotal
simulation, and the adequacy of the factor-only model is testable by
multiplier or residual bootstrap.
"""

import os

# One BLAS thread, set before anything here loads numpy: a threaded BLAS sums
# in an order that depends on its thread count, and so would the output bytes.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

__version__ = "0.1.0"

from .errors import (
    DegenerateSpectrum,
    DimensionError,
    FaqrError,
    InnerLoopStall,
    InputError,
    MissingValue,
    NonFinite,
    NumericalError,
    ParseError,
    RankDeficient,
    Singular,
    WindowTooLarge,
)
from .factor_model import (
    DataMatrix,
    FactorModel,
    default_m_max,
    estimate_factors,
    select_num_factors,
)
from .inference import (
    AdequacyResult,
    adequacy_test_multiplier,
    adequacy_test_residual,
    fit_factor_only,
    score_statistic,
    weighted_project,
)
from .smoothed_loss import (
    KernelSpec,
    QuantileProblem,
    check_loss,
    default_bandwidth,
    kernel_cdf,
    kernel_pass,
)
from .solver import (
    FaqrFit,
    fit_penalized,
    warm_start_expectile,
)
from .tuning import LambdaRule, select_lambda, simulate_pivotal

__all__ = [
    "AdequacyResult",
    "DataMatrix",
    "DegenerateSpectrum",
    "DimensionError",
    "FactorModel",
    "FaqrError",
    "FaqrFit",
    "InnerLoopStall",
    "InputError",
    "KernelSpec",
    "LambdaRule",
    "MissingValue",
    "NonFinite",
    "NumericalError",
    "ParseError",
    "QuantileProblem",
    "RankDeficient",
    "Singular",
    "WindowTooLarge",
    "adequacy_test_multiplier",
    "adequacy_test_residual",
    "check_loss",
    "default_bandwidth",
    "default_m_max",
    "estimate_factors",
    "fit_factor_only",
    "fit_penalized",
    "kernel_cdf",
    "kernel_pass",
    "score_statistic",
    "select_lambda",
    "select_num_factors",
    "simulate_pivotal",
    "warm_start_expectile",
    "weighted_project",
]
