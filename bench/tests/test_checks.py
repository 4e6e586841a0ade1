"""Each independent check accepts faqr's real output and rejects a corrupted one.

The outputs come from faqr itself, on panels from the benchmark's
generator that are smaller than the workloads' so the tests stay quick.

    python3 -m pytest bench/tests -q
"""

import copy
import json

import numpy as np
import pytest

import checks
import inputs
from child import monte_carlo
from faqr.harness import cli
import faqr.harness


def _panels(n, d, noise, replicates=1, seed=3):
    rng = np.random.default_rng(seed)
    return [inputs._panel(rng, n, d, noise) for _ in range(replicates)]


def _cli_output(tmp_path, args, panel):
    data = tmp_path / "panel.csv"
    out = tmp_path / "out.json"
    inputs.write_csv(data, *panel)
    code = cli.main(args + ["--data", str(data), "--response", "y", "--seed", "5",
                            "--out", str(out)])
    assert code == 0
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def fit_case(tmp_path_factory):
    panel = _panels(400, 60, "gaussian")[0]
    out = _cli_output(tmp_path_factory.mktemp("fit"), ["fit", "--factors", "auto"], panel)
    return out, panel


@pytest.fixture(scope="module")
def backtest_case(tmp_path_factory):
    panel = _panels(100, 40, "gaussian")[0]
    out = _cli_output(tmp_path_factory.mktemp("backtest"),
                      ["backtest", "--window", "60", "--factors", "auto"], panel)
    return out, panel


@pytest.fixture(scope="module")
def adequacy_case(tmp_path_factory):
    panel = _panels(300, 50, "gaussian")[0]
    out = _cli_output(tmp_path_factory.mktemp("adequacy"),
                      ["adequacy", "--method", "residual", "--reps", "200", "--factors", "auto"],
                      panel)
    return out, panel


@pytest.fixture(scope="module")
def monte_carlo_case(tmp_path_factory):
    panels = _panels(200, 100, "t2", replicates=3)
    tmp = tmp_path_factory.mktemp("mc")
    path = inputs.write_inputs("monte_carlo", panels, str(tmp))
    out = tmp / "out.json"
    monte_carlo(faqr.harness, path, 0.1, 4, str(out))
    return json.loads(out.read_text()), panels


def _check_fit(case):
    out, (x, y) = case
    return checks.check_fit(out, x, y, 0.5)


def _check_backtest(case):
    out, (x, y) = case
    return checks.check_backtest(out, y, 60, 0.5)


def _check_adequacy(case):
    out, (x, y) = case
    return checks.check_adequacy(out, x, y, 0.5)


def _check_monte_carlo(case):
    out, panels = case
    return checks.check_monte_carlo(out, panels, 0.1)


def _bump(key, index, delta):
    def corrupt(out):
        out[key][index] += delta
    return corrupt


def _set(key, value):
    def corrupt(out):
        out[key] = value
    return corrupt


def _in_replicate(method, corrupt):
    def apply(out):
        corrupt(out["replicates"][1][method])
    return apply


def _zero_faqr_support(out):
    for rec in out["replicates"]:
        rec["faqr"]["beta"][0] = 0.0


CASES = {
    "fit": (_check_fit, [
        ("perturbed coefficient", _bump("beta", 0, 0.05)),
        ("spurious support entry", _bump("beta", 7, 0.01)),
        ("perturbed factor coefficient", _bump("gamma", 1, 0.05)),
        ("wrong factor count", lambda out: out["gamma"].pop()),
    ]),
    "backtest": (_check_backtest, [
        ("shifted prediction", _bump("predictions", 3, 0.5)),
        ("misreported MAPE", lambda out: out.update(mape=out["mape"] * 1.001)),
        ("misreported pseudo-R2", lambda out: out.update(pseudo_r2=out["pseudo_r2"] - 0.01)),
        ("failed window", _set("failures", ["window ending at 70: NumericalError"])),
    ]),
    "adequacy": (_check_adequacy, [
        ("wrong t_n", lambda out: out.update(t_n=out["t_n"] * 1.0001)),
        ("perturbed gamma_null", _bump("gamma_null", 0, 1e-3)),
        ("large p-value", _set("p_value", 0.3)),
    ]),
    "monte_carlo": (_check_monte_carlo, [
        ("perturbed coefficient", _in_replicate("faqr", _bump("beta", 1, 0.05))),
        ("perturbed plain coefficient", _in_replicate("qr_plain", _bump("beta", 0, 0.05))),
        ("rising objective", _in_replicate("qr_plain", _bump("objective_trace", -1, 1e-9))),
        ("missed support", _zero_faqr_support),
        ("swapped methods", lambda out: [rec.update(faqr=rec["qr_plain"], qr_plain=rec["faqr"])
                                         for rec in out["replicates"]]),
    ]),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_check_accepts_real_output(name, request):
    check, _ = CASES[name]
    assert check(request.getfixturevalue(f"{name}_case")) == []


@pytest.mark.parametrize(
    "name,label",
    [(name, label) for name, (_, corruptions) in sorted(CASES.items()) for label, _ in corruptions],
)
def test_check_rejects_corrupted_output(name, label, request):
    check, corruptions = CASES[name]
    out, panels = request.getfixturevalue(f"{name}_case")
    bad = copy.deepcopy(out)
    dict(corruptions)[label](bad)
    assert check((bad, panels)) != []
