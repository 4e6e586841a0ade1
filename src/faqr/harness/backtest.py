"""Rolling-window out-of-sample evaluation.

Each window refits the whole pipeline on the trailing observations and
predicts the next one.  A new observation x_t is first centered by the
column means the window's pipeline subtracted (zero unless the config
centers).  Its factor scores are obtained by least-squares regression on
the window's loadings, f_t = (B^T B)^{-1} B^T x_t, and the prediction
combines them with the fitted coefficients as x_t^T beta + f_t^T varphi,
which equals f_t^T gamma + (x_t - B f_t)^T beta.  Accuracy is summarized
by the mean absolute prediction error and the out-of-sample quantile
pseudo-R2 against each window's training sample quantile.
"""

from dataclasses import dataclass

import numpy as np

from ..errors import FaqrError, InputError, WindowTooLarge
from ..factor_model import DataMatrix
from ..rng import derive_seed
from ..smoothed_loss import check_loss
from .pipeline import PIPELINES, PipelineConfig


@dataclass(frozen=True)
class BacktestReport:
    window: int
    predictions: np.ndarray
    actuals: np.ndarray
    benchmarks: np.ndarray
    mape: float
    pseudo_r2: float | None
    tau: float
    method: str
    failures: tuple

    def __post_init__(self):
        for name in ("predictions", "actuals", "benchmarks"):
            a = np.asarray(getattr(self, name), dtype=float)
            a.setflags(write=False)
            object.__setattr__(self, name, a)


def prediction_metrics(actuals, predictions, benchmarks, tau):
    """Mean absolute prediction error and quantile pseudo-R2.

    The pseudo-R2 compares the check loss of the predictions against the
    check loss of each window's training-sample quantile: 1 for exact
    predictions, 0 for a predictor that just repeats the benchmark, and
    None when the benchmark's check loss is 0 (a constant response), so
    the ratio is undefined.
    """
    actuals = np.asarray(actuals, dtype=float)
    err = actuals - np.asarray(predictions, dtype=float)
    num = check_loss(err, tau).sum()
    denom = check_loss(actuals - np.asarray(benchmarks, dtype=float), tau).sum()
    pseudo_r2 = float(1.0 - num / denom) if denom > 0 else None
    return float(np.abs(err).mean()), pseudo_r2


def _predict(result, x_new, method):
    x_new = x_new - result.column_means
    fit = result.fit
    if method == "qr_plain":
        return float(x_new @ fit.theta_hat)
    fm = result.factor_model
    f_new = np.linalg.solve(fm.b_hat.T @ fm.b_hat, fm.b_hat.T @ x_new)
    return float(x_new @ fit.beta_hat + f_new @ fit.varphi_hat)


def rolling_backtest(data, window, tau, method="faqr", config=None, seed=0):
    """Roll a fitting window through the series and score the predictions.

    A window whose fit fails logs the failure and reuses the most recent
    successful fit instead of aborting the run; when the first window
    fails, its own error is raised.
    """
    if data.y is None:
        raise WindowTooLarge("backtesting needs a response column")
    n = data.x.shape[0]
    window = int(window)
    if not 1 < window < n:
        raise WindowTooLarge(f"window {window} leaves no observations to predict (n={n})")
    if method not in PIPELINES:
        raise InputError(f"unknown method {method!r}; choose from {tuple(PIPELINES)}")
    config = config or PipelineConfig()
    pipeline = PIPELINES[method]

    predictions = np.empty(n - window)
    benchmarks = np.empty(n - window)
    failures = []
    last_good = None
    for t in range(window, n):
        rows = slice(t - window, t)
        train = DataMatrix(x=data.x[rows], y=data.y[rows])
        try:
            last_good = pipeline(train, tau, config.with_seed(derive_seed(seed, t)))
        except FaqrError as exc:
            if last_good is None:
                # the first window failed and there is no earlier fit to reuse
                raise
            failures.append(f"window ending at {t}: {type(exc).__name__}: {exc}")
        predictions[t - window] = _predict(last_good, data.x[t], method)
        benchmarks[t - window] = np.quantile(train.y, tau)
    actuals = data.y[window:]
    mape, pseudo_r2 = prediction_metrics(actuals, predictions, benchmarks, tau)
    return BacktestReport(
        window=window,
        predictions=predictions,
        actuals=actuals,
        benchmarks=benchmarks,
        mape=mape,
        pseudo_r2=pseudo_r2,
        tau=tau,
        method=method,
        failures=tuple(failures),
    )
