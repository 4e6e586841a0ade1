"""Self times, and the traced child's spans on a real CLI job."""

import json
import os
import subprocess
import sys

import numpy as np

import inputs
from tracer import layer_metrics

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_self_time_subtracts_direct_children():
    trace = {
        "spans": [["a", 0.0, 10.0, None], ["b", 1.0, 4.0, 0], ["b", 5.0, 6.0, 0], ["c", 2.0, 3.0, 1]],
        "counts": {"k": 3},
    }
    assert layer_metrics(trace) == {"a_s": 6.0, "b_s": 3.0, "c_s": 1.0, "k": 3}


def test_traced_fit_reports_its_layers_and_nothing_else(tmp_path):
    x, y = inputs._panel(np.random.default_rng(1), 120, 30, "gaussian")
    inputs.write_csv(tmp_path / "panel.csv", x, y)
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(BENCH), "src"))
    subprocess.run(
        [sys.executable, os.path.join(BENCH, "child.py"), "--trace", str(tmp_path / "trace.json"),
         "cli", "fit", "--data", str(tmp_path / "panel.csv"), "--response", "y",
         "--out", str(tmp_path / "fit.json")],
        env=env, check=True, timeout=120,
    )
    metrics = layer_metrics(json.loads((tmp_path / "trace.json").read_text()))
    assert {
        "cli.import_s", "io.load_csv_s", "io.write_s", "factor_model.select_s",
        "factor_model.estimate_s", "tuning.select_lambda_s", "solver.fit_s",
        "solver.warm_start_s", "pipeline.fit_s",
    } <= set(metrics)
    assert metrics["factor_model.spectra"] == 2
    assert metrics["rng.streams"] == 1000
    assert metrics["solver.unconverged_fits"] == 0
    assert metrics["smoothed_loss.residual_evals"] > 0
    # wrappers that a fit never hits leave their metrics absent
    assert not any(name.startswith(("inference.", "backtest.")) for name in metrics)
