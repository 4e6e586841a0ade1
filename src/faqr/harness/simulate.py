"""Monte Carlo drivers: estimation accuracy and test size/power.

Replicates run one after another, each from seeds derived from the study
seed and its own index, so a replicate's result does not depend on the
others; summaries are computed over the records in replicate order.
"""

from dataclasses import dataclass, replace

import numpy as np

from ..errors import InputError
from ..rng import derive_seed
from .dgp import generate_dgp
from .metrics import evaluate_fit
from .pipeline import PipelineConfig, pipeline_for, run_adequacy

# Seed derivation tags.
_DATA = 1
_TUNE = 2
_BOOT = 3

_SIGNAL_COORDS = 3  # leading sparse coefficients carrying the power study's signal


@dataclass(frozen=True)
class MethodSummary:
    method: str
    reps: int
    l1_median: float
    l1_iqr: float
    tpr_mean: float
    tpr_se: float
    fpr_mean: float
    fpr_se: float


@dataclass(frozen=True)
class ReplicateRecord:
    rep: int
    method: str
    l1_error: float
    tpr: float
    fpr: float
    lam: float
    n_iters: int
    converged: bool


def run_simulation(spec, reps, methods=("faqr", "qr_plain"), tau=0.5, config=None):
    """Estimation-accuracy study over independent replicates.

    Each replicate generates fresh data (loadings held fixed by the
    spec), runs every requested pipeline, and scores it against the
    truth.  Returns (per-method summaries, per-replicate records).
    """
    if reps < 10:
        raise InputError("use at least 10 replicates")
    methods = tuple(methods)
    pipelines = [pipeline_for(method) for method in methods]
    base = config or PipelineConfig()
    if base.num_factors is None:
        base = replace(base, num_factors=spec.m)

    records = []
    for rep in range(reps):
        data, truth = generate_dgp(
            spec.for_replicate(derive_seed(spec.replicate_seed, _DATA, rep))
        )
        for mi, (method, pipeline) in enumerate(zip(methods, pipelines)):
            cfg = base.with_seed(derive_seed(spec.replicate_seed, _TUNE, rep, mi))
            res = pipeline(data, tau, cfg)
            rpt = evaluate_fit(res.fit, truth)
            records.append(
                ReplicateRecord(
                    rep=rep, method=method, l1_error=rpt.l1_error, tpr=rpt.tpr,
                    fpr=rpt.fpr, lam=res.fit.lam, n_iters=res.fit.n_outer_iters,
                    converged=res.fit.converged,
                )
            )
    summaries = {}
    for method in methods:
        rows = [r for r in records if r.method == method]
        l1 = np.array([r.l1_error for r in rows])
        tpr = np.array([r.tpr for r in rows])
        fpr = np.array([r.fpr for r in rows])
        summaries[method] = MethodSummary(
            method=method,
            reps=reps,
            l1_median=float(np.median(l1)),
            l1_iqr=float(np.quantile(l1, 0.75) - np.quantile(l1, 0.25)),
            tpr_mean=float(tpr.mean()),
            tpr_se=float(tpr.std(ddof=1) / np.sqrt(reps)),
            fpr_mean=float(fpr.mean()),
            fpr_se=float(fpr.std(ddof=1) / np.sqrt(reps)),
        )
    return summaries, records


@dataclass(frozen=True)
class PowerPoint:
    w: float
    rejection_rate: float
    se: float
    reps: int


def run_power_study(
    base_spec,
    w_grid,
    reps,
    b,
    method="residual",
    tau=0.5,
    seed=0,
    level=0.05,
    config=None,
):
    """Rejection-rate curve of the adequacy test over signal amplitudes.

    The sparse coefficients are (w, w, w, 0, ...); w = 0 is the null.
    Each replicate runs ``run_adequacy`` with ``config`` (default
    ``PipelineConfig()``, its factor count taken from the spec when
    None).  A replicate rejects when its bootstrap p-value falls strictly
    below ``level``.
    """
    w_grid = [float(w) for w in w_grid]
    if 0.0 not in w_grid:
        raise InputError("the w grid must include 0 (the null)")
    config = config or PipelineConfig()
    if config.num_factors is None:
        config = replace(config, num_factors=base_spec.m)

    points = []
    for wi, w in enumerate(w_grid):
        beta_w = np.zeros(base_spec.d)
        beta_w[:_SIGNAL_COORDS] = w
        spec_w = replace(base_spec, beta_star=beta_w)

        rejects = 0
        for rep in range(reps):
            data, _ = generate_dgp(
                spec_w.for_replicate(derive_seed(seed, _DATA, wi, rep))
            )
            result = run_adequacy(data, tau, config, method, b, derive_seed(seed, _BOOT, wi, rep))
            rejects += result.p_value < level
        rate = rejects / reps
        points.append(
            PowerPoint(
                w=w,
                rejection_rate=rate,
                se=float(np.sqrt(rate * (1.0 - rate) / reps)),
                reps=reps,
            )
        )
    return points
