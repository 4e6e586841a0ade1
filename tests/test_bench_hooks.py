"""The benchmark's tracer still finds every faqr function and field it reads.

``bench/tracer.py`` rebinds faqr functions by module and attribute name
and reads a few result fields; a renamed or deleted target leaves its
per-layer metric absent, and a traced run then reads as malformed.
"""

import dataclasses
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import faqr
import faqr.harness
import faqr.harness.cli  # noqa: F401  (the tracer resolves against loaded modules)
from faqr.harness import generate_dgp, sparse_signal_spec
from faqr.harness.io import write_matrix_csv

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_tracer():
    """Import bench/tracer.py under a private name, leaving bench/ untouched."""
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_every_span_and_counter_target_resolves():
    tracer = _load_tracer()
    missing = [
        (module, attr)
        for table in (tracer.SPANS, tracer.COUNTERS)
        for targets in table.values()
        for module, attr in targets
        if tracer._resolve(module, attr) is None
    ]
    assert missing == []


def test_result_fields_the_benchmark_reads_exist():
    fit_fields = {f.name for f in dataclasses.fields(faqr.FaqrFit)}
    assert {"n_outer_iters", "converged", "objective_trace"} <= fit_fields
    assert "failures" in {f.name for f in dataclasses.fields(faqr.harness.BacktestReport)}


def test_traced_residual_adequacy_reaches_the_wrapped_test(tmp_path):
    data, _ = generate_dgp(sparse_signal_spec(n=60, d=10, signal=(1.2,), gamma=(0.5,),
                                              replicate_seed=3))
    csv_path = tmp_path / "panel.csv"
    write_matrix_csv(csv_path, np.column_stack([data.y, data.x]),
                     header=["y"] + [f"x{j}" for j in range(10)])
    trace = tmp_path / "trace.json"
    src = Path(faqr.__file__).resolve().parents[1]
    subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "--trace", str(trace), "cli",
         "adequacy", "--data", str(csv_path), "--response", "y", "--method", "residual",
         "--reps", "100", "--factors", "1", "--out", str(tmp_path / "out.json")],
        env=dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1"),
        check=True, capture_output=True,
    )
    doc = json.loads(trace.read_text())
    assert "inference.adequacy" in {name for name, *_ in doc["spans"]}
    assert doc["counts"]["inference.null_fits"] == 101
