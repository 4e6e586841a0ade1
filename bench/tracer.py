"""Spans and counters around the calls into faqr's layers.

The tracer lives in the benchmark, not in faqr: it rebinds the public
functions that each layer's callers use, wherever faqr's modules hold
them (module attributes and dispatch dicts such as ``PIPELINES``), with
wrappers that record a span (name, start, end, parent) or bump a
counter.  Spans are kept in memory and written once, when the job ends.

A function that cannot be found, or whose wrapper is never hit, leaves
its metric absent, so a rename does not read as work removed.
"""

import functools
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager

# span name -> (module, attribute) of the functions it wraps
SPANS = {
    "io.load_csv": [("faqr.harness.io", "load_csv")],
    "io.write": [("faqr.harness.io", "write_json")],
    "factor_model.select": [("faqr.factor_model", "select_num_factors")],
    "factor_model.estimate": [("faqr.factor_model", "estimate_factors")],
    "tuning.select_lambda": [("faqr.tuning", "select_lambda")],
    "solver.fit": [("faqr.solver", "fit_penalized")],
    "solver.warm_start": [("faqr.solver", "warm_start_expectile")],
    "inference.adequacy": [("faqr.inference", "adequacy_test_residual")],
    "inference.null_fit": [("faqr.inference", "fit_factor_only")],
    "pipeline.fit": [("faqr.harness.pipeline", "fit_faqr"), ("faqr.harness.pipeline", "fit_qr_plain")],
    "backtest.window": [("faqr.harness.backtest", "rolling_backtest")],
}

# counter name -> (module, attribute) of the functions it counts calls of
COUNTERS = {
    # the n x n or d x d eigendecompositions of the factor step
    "factor_model.spectra": [("numpy.linalg", "eigh")],
    "rng.streams": [("faqr.rng", "stream")],
    # one n x dim product each
    "smoothed_loss.residual_evals": [("faqr.smoothed_loss", "QuantileProblem.residuals")],
}


def _resolve(module, attr):
    """Return (owner, name, object) for a dotted attribute, or None."""
    owner = sys.modules.get(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    obj = getattr(owner, name, None)
    return None if obj is None else (owner, name, obj)


def _rebind(target, wrapper, owner, name):
    """Replace ``target`` by ``wrapper`` at its home and in faqr's namespaces."""
    setattr(owner, name, wrapper)
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "faqr" or modname.startswith("faqr.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is target:
                setattr(mod, key, wrapper)
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is target:
                        value[k] = wrapper


class Tracer:
    """Records the spans and counts of one job."""

    def __init__(self, job):
        self.job = job
        self.spans = []  # [name, start, end, parent index or None]
        self.counts = Counter()
        self._stack = []

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _on_result(self, name, result):
        if name == "solver.fit":
            self.counts["solver.outer_iters"] += result.n_outer_iters
            self.counts["solver.unconverged_fits"] += not result.converged
        elif name == "inference.null_fit":
            self.counts["inference.null_fits"] += 1
        elif name == "backtest.window":
            self.counts["backtest.failed_windows"] += len(result.failures)

    def _span_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            self._on_result(name, result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap every function in SPANS and COUNTERS that can be found."""
        for table, make in ((SPANS, self._span_wrapper), (COUNTERS, self._count_wrapper)):
            for name, targets in table.items():
                for module, attr in targets:
                    found = _resolve(module, attr)
                    if found is not None:
                        owner, attr_name, fn = found
                        _rebind(fn, make(name, fn), owner, attr_name)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"job": self.job, "spans": self.spans, "counts": self.counts}, fh)


def layer_metrics(trace):
    """Per-layer metrics of one job's trace.

    A span name ``x`` gives ``x_s``, the summed self time of its spans:
    each span's duration minus the parts its child spans cover.  Counts
    are reported as they are.  Names never recorded are absent.
    """
    spans = trace["spans"]
    self_time = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent is not None:
            self_time[parent] -= end - start
    metrics = {}
    for (name, *_), t in zip(spans, self_time):
        metrics[name + "_s"] = metrics.get(name + "_s", 0.0) + t
    metrics.update(trace["counts"])
    return metrics
