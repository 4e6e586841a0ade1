"""Property tests: every pipeline run ends in finite numbers or a typed error.

The panels cover n < d, n > d and d = 1, a constant, a near-constant
or a duplicated column, Gaussian or t(1) noise, any tau in
[0.01, 0.99], centering on or off, and the selected or the largest
fixed factor count, min(n, d) - 1.  A fit, a short backtest, or an
adequacy test under either calibration must end in finite
coefficients, predictions and statistics, or raise a ``FaqrError``; a
raw numpy exception, a floating-point warning or a NaN fails the
test.  Examples are derandomized, so every run checks the same cases.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from faqr import FaqrError
from faqr.factor_model import DataMatrix
from faqr.harness import (
    NoiseSpec, PipelineConfig, generate_dgp, rolling_backtest, sparse_signal_spec,
)
from faqr.harness.pipeline import ADEQUACY_METHODS, PIPELINES, run_adequacy

PATHOLOGIES = ("none", "constant", "near_constant", "duplicate")


@st.composite
def panels(draw):
    """A panel, tau and a pipeline config with a selected or the largest fixed factor count."""
    n = draw(st.integers(5, 30))
    shape = draw(st.sampled_from(("n<d", "n>d", "d=1")))
    d = {"n<d": n + draw(st.integers(1, 20)), "n>d": draw(st.integers(2, n - 1)), "d=1": 1}[shape]
    noise = draw(st.sampled_from((NoiseSpec.gaussian(0.5), NoiseSpec.student_t(1))))
    seed = draw(st.integers(0, 2**16))
    data, _ = generate_dgp(sparse_signal_spec(n=n, d=d, noise=noise, signal=(1.0,),
                                              gamma=(0.5,), replicate_seed=seed))
    x = data.x.copy()
    pathology = draw(st.sampled_from(PATHOLOGIES))
    if pathology == "constant":
        x[:, 0] = 2.0
    elif pathology == "near_constant":
        x[:, 0] = 2.0 + 1e-9 * np.random.default_rng(seed).standard_normal(n)
    elif pathology == "duplicate" and d > 1:
        x[:, -1] = x[:, 0]
    tau = draw(st.floats(0.01, 0.99))
    largest = min(n, d) - 1
    num_factors = largest if largest >= 1 and draw(st.booleans()) else None
    config = PipelineConfig(center=draw(st.booleans()), num_factors=num_factors)
    return DataMatrix(x=x, y=data.y), tau, config


@pytest.mark.filterwarnings("error")
@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(case=panels())
def test_pipelines_end_in_finite_numbers_or_a_typed_error(case):
    data, tau, config = case
    for method, pipeline in PIPELINES.items():
        try:
            result = pipeline(data, tau, config)
        except FaqrError:
            pass
        else:
            assert np.isfinite(result.fit.theta_hat).all()
            assert np.isfinite(result.predict(data.x)).all()
        try:
            report = rolling_backtest(data, window=data.n - 2, tau=tau, method=method,
                                      config=config)
        except FaqrError:
            pass
        else:
            assert np.isfinite(report.predictions).all()
            assert np.isfinite(report.mape)
    for method in ADEQUACY_METHODS:
        try:
            result = run_adequacy(data, tau, config, method, b=100, seed=0)
        except FaqrError:
            pass
        else:
            assert np.isfinite(result.t_n)
            assert np.isfinite(result.boot_stats).all()
