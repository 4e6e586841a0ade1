"""The benchmark still finds every faqr function, field and flag it uses.

``bench/tracer.py`` rebinds faqr functions by module and attribute name
and reads a few result fields; a renamed or deleted target leaves its
per-layer metric absent, and a traced run then reads as malformed.
``bench/run.py`` passes CLI flags (``--threads 1`` among them) that the
parser must keep accepting, or every job of a workload fails.
"""

import dataclasses
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import faqr
import faqr.harness
import faqr.harness.cli  # the tracer resolves against loaded modules
from faqr.harness import generate_dgp, sparse_signal_spec
from faqr.harness.io import write_matrix_csv
from faqr.inference import _BLOCK as BLOCK

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_bench(name):
    """Import bench/<name>.py under a private name.

    Writes no bytecode into bench/, and afterwards restores the
    environment (run.py pins BLAS threads in it), sys.path and the
    bench modules that the import put in sys.modules.
    """
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    saved_path, saved_env, saved_modules = list(sys.path), dict(os.environ), set(sys.modules)
    saved_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    sys.path.insert(0, str(BENCH))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved_bytecode
        sys.path[:] = saved_path
        os.environ.clear()
        os.environ.update(saved_env)
        for key in set(sys.modules) - saved_modules:
            if Path(getattr(sys.modules[key], "__file__", None) or "").parent == BENCH:
                del sys.modules[key]
    return module


def test_every_span_and_counter_target_resolves():
    tracer = _load_bench("tracer")
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


def _traced_cli(tmp_path, argv):
    """Run ``faqr argv`` traced through bench/child.py on a 60x10 panel; return the trace."""
    data, _ = generate_dgp(sparse_signal_spec(n=60, d=10, signal=(1.2,), gamma=(0.5,),
                                              replicate_seed=3))
    csv_path = tmp_path / "panel.csv"
    write_matrix_csv(csv_path, np.column_stack([data.y, data.x]),
                     header=["y"] + [f"x{j}" for j in range(10)])
    trace = tmp_path / "trace.json"
    src = Path(faqr.__file__).resolve().parents[1]
    subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "--trace", str(trace), "cli", *argv,
         "--data", str(csv_path), "--response", "y", "--out", str(tmp_path / "out.json")],
        env=dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1"),
        check=True, capture_output=True,
    )
    return json.loads(trace.read_text())


def test_traced_residual_adequacy_reaches_the_wrapped_test(tmp_path):
    counts = {}
    for reps in (100, 200):
        doc = _traced_cli(tmp_path, ["adequacy", "--method", "residual", "--reps", str(reps),
                                     "--factors", "1"])
        assert "inference.adequacy" in {name for name, *_ in doc["spans"]}
        # the observed fit, then one Newton fit per block of replicates
        assert doc["counts"]["inference.null_fits"] == 1 + math.ceil(reps / BLOCK)
        counts[reps] = doc["counts"]
    # the extra replicates add only block fits, each forming one residual
    # block per round of candidate steps plus its start; a fit per replicate
    # would add at least two residual formations per replicate
    extra = {key: counts[200][key] - counts[100][key]
             for key in ("inference.null_fits", "smoothed_loss.residual_evals")}
    assert extra["smoothed_loss.residual_evals"] <= 6 * extra["inference.null_fits"] < 100


@pytest.mark.parametrize("argv, fits", [
    (["backtest", "--method", "faqr", "--window", "56"], 4),
    (["backtest", "--method", "qr_plain", "--window", "56"], 4),
    (["fit", "--plain"], 1),
], ids=["backtest-faqr", "backtest-qr_plain", "fit-plain"])
def test_traced_pipelines_reach_the_wrapped_fit(tmp_path, argv, fits):
    """Each fit goes through a traced pipeline entry, and that entry through the solver."""
    spans = [name for name, *_ in _traced_cli(tmp_path, argv)["spans"]]
    assert spans.count("pipeline.fit") == spans.count("solver.fit") == fits


def test_benchmark_cli_jobs_parse():
    """Every faqr command line the benchmark builds, plain or traced, still parses."""
    run = _load_bench("run")
    parser = faqr.harness.cli.build_parser()
    for workload, args in run.CLI_ARGS.items():
        plain = run.job_argv(workload, "panel.csv", "out.json", 1)
        traced = run.job_argv(workload, "panel.csv", "out.json", 1, trace_path="trace.json")
        assert plain[1:3] == ["-m", "faqr.harness.cli"]
        for argv in (plain[3:], traced[traced.index("cli") + 1:]):
            assert parser.parse_args(argv).command == args[0]


def test_benchmark_panel_skips_the_cell_loop(tmp_path, monkeypatch):
    """The benchmark's panel file, written with repr cells, parses on the vectorized route."""
    inputs = _load_bench("inputs")
    rng = np.random.default_rng(5)
    x, y = rng.standard_normal((40, 6)), rng.standard_normal(40)
    path = tmp_path / "panel.csv"
    inputs.write_csv(path, x, y)

    def no_cell_loop(*args):
        raise AssertionError("cell loop called")

    monkeypatch.setattr(faqr.harness.io, "_parse_cells", no_cell_loop)
    data = faqr.harness.load_csv(path, response_column="y")
    assert np.array_equal(data.x, x) and np.array_equal(data.y, y)
