"""Command line interface.

Subcommands: fit, select-factors, simulate, adequacy, backtest.  Options
can also come from a flat JSON config file (--config); explicit flags
win over file values.  Exit codes: 0 success, 2 input error, 3 numerical
failure.
"""

import argparse
import json
import sys

from ..errors import FaqrError, InputError, NumericalError
from ..smoothed_loss import KERNEL_FAMILIES
from ..tuning import LambdaRule
from . import io as hio
from .backtest import rolling_backtest
from .dgp import NoiseSpec, sparse_signal_spec
from .pipeline import (
    ADEQUACY_METHODS, PipelineConfig, factor_step, fit_faqr, fit_qr_plain, run_adequacy,
)
from .simulate import run_simulation


def _add_common(sub):
    sub.add_argument("--config", help="flat JSON file of option defaults")
    sub.add_argument("--tau", type=float, default=None, help="quantile level (default 0.5)")
    sub.add_argument("--seed", type=int, default=None, help="root seed (default 0)")
    sub.add_argument("--kernel", choices=KERNEL_FAMILIES, default=None,
                     help="kernel family (default gaussian)")
    sub.add_argument("--bandwidth", type=float, default=None,
                     help="positive smoothing bandwidth (default: data-driven rule)")
    sub.add_argument("--threads", type=int, default=None,
                     help="accepted for compatibility; has no effect (every job runs serially)")


def _add_data(sub):
    sub.add_argument("--data", required=True, help="input CSV path")
    sub.add_argument("--response", default=None, help="response column name or 0-based index")
    sub.add_argument("--no-header", action="store_true", help="CSV has no header row")
    sub.add_argument("--center", action="store_true", help="subtract column means before fitting")


def _add_lambda(sub):
    sub.add_argument("--lambda-c0", type=float, default=None, help="penalty inflation (default 1.1)")
    sub.add_argument("--lambda-alpha", type=float, default=None,
                     help="pivotal quantile tail mass (default 0.1)")
    sub.add_argument("--lambda-sims", type=int, default=None,
                     help="pivotal simulation count (default 1000)")


def _add_factors(sub):
    sub.add_argument("--factors", default=None,
                     help="number of factors, or 'auto' for the eigenvalue-ratio rule")
    sub.add_argument("--m-max", type=int, default=None,
                     help="positive selection bound for 'auto' (default min(20, min(n, d) // 2))")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="faqr",
        description="Factor-augmented quantile regression toolkit",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("fit", help="fit the penalized factor-augmented model on a CSV")
    _add_common(p); _add_data(p); _add_lambda(p); _add_factors(p)
    p.add_argument("--plain", action="store_true",
                   help="skip the factor step and regress on raw columns")
    p.add_argument("--out", default=None, help="output JSON path (default stdout)")

    p = subs.add_parser("select-factors", help="estimate the factor model from a CSV")
    _add_common(p); _add_data(p); _add_factors(p)
    p.add_argument("--out", default=None, help="output JSON path (default stdout)")

    p = subs.add_parser("simulate", help="run the synthetic estimation-accuracy study")
    _add_common(p); _add_lambda(p)
    p.add_argument("--n", type=int, default=None, help="observations per replicate (default 200)")
    p.add_argument("--d", type=int, default=None, help="covariate dimension (default 200)")
    p.add_argument("--m", type=int, default=None, help="number of factors (default 2)")
    p.add_argument("--noise", default=None, help="noise spec 'gaussian:SD' or 't:DF' (default gaussian:0.5)")
    p.add_argument("--reps", type=int, default=None, help="replicates (default 100)")
    p.add_argument("--methods", default=None, help="comma list from {faqr,qr_plain} (default both)")
    p.add_argument("--beta", default=None, help="leading signal values, comma list (default 1.8,1.6,-1.2)")
    p.add_argument("--gamma", default=None, help="factor coefficients, comma list (default 0.5,0.5)")
    p.add_argument("--loading-seed", type=int, default=None, help="seed fixing loadings (default 20240)")
    p.add_argument("--out", default=None, help="summary CSV path (default stdout)")

    p = subs.add_parser(
        "adequacy", help="bootstrap test of the factor-only null model",
        description="Bootstrap test of the factor-only null model.  The --lambda-* "
                    "flags apply only to --method residual, which tunes the penalty "
                    "of its full fit; --method multiplier fits no penalized model.",
    )
    _add_common(p); _add_data(p); _add_factors(p); _add_lambda(p)
    p.add_argument("--method", choices=ADEQUACY_METHODS, default=None,
                   help="bootstrap flavor (default multiplier)")
    p.add_argument("--reps", type=int, default=None, help="bootstrap replicates (default 500)")
    p.add_argument("--out", default=None, help="output JSON path (default stdout)")
    p.add_argument("--hist-out", default=None, help="CSV path for the replicate statistics")

    p = subs.add_parser("backtest", help="rolling-window out-of-sample evaluation")
    _add_common(p); _add_data(p); _add_factors(p); _add_lambda(p)
    p.add_argument("--window", type=int, default=None, help="training window length (default 90)")
    p.add_argument("--method", choices=("faqr", "qr_plain"), default=None)
    p.add_argument("--out", default=None, help="output JSON path (default stdout)")
    return parser


class _Options:
    """Resolves option values: explicit flag, then config file, then default."""

    def __init__(self, args):
        self.args = vars(args)
        self.file = {}
        path = self.args.get("config")
        if path:
            try:
                with open(path) as fh:
                    self.file = json.load(fh)
            except (OSError, json.JSONDecodeError) as exc:
                raise InputError(f"cannot read config file {path}: {exc}") from None
            if not isinstance(self.file, dict):
                raise InputError(f"config file {path} must hold a flat JSON object")

    def get(self, name, default=None):
        v = self.args.get(name)
        if v is not None and v is not False:
            return v
        if name in self.file:
            return self.file[name]
        return default


def _parse_factors(opts):
    raw = opts.get("factors", "auto")
    if raw in (None, "auto"):
        return None
    return int(raw)


def _lambda_rule(opts, seed):
    return LambdaRule(
        c0=float(opts.get("lambda_c0", 1.1)),
        alpha=float(opts.get("lambda_alpha", 0.1)),
        n_sim=int(opts.get("lambda_sims", 1000)),
        seed=seed,
    )


def _pipeline_config(opts, seed):
    bw = opts.get("bandwidth")
    return PipelineConfig(
        kernel_family=opts.get("kernel", "gaussian"),
        bandwidth=None if bw is None else float(bw),
        num_factors=_parse_factors(opts),
        m_max=opts.get("m_max"),
        center=bool(opts.get("center", False)),
        lambda_rule=_lambda_rule(opts, seed),
    )


def _load(opts):
    return hio.load_csv(
        opts.get("data"),
        response_column=opts.get("response"),
        has_header=not opts.get("no_header", False),
    )


def _emit_json(opts, obj):
    text = hio.write_json(opts.get("out"), obj)
    if opts.get("out") is None:
        sys.stdout.write(text)


def _cmd_fit(opts):
    data = _load(opts)
    tau = float(opts.get("tau", 0.5))
    seed = int(opts.get("seed", 0))
    config = _pipeline_config(opts, seed)
    runner = fit_qr_plain if opts.get("plain", False) else fit_faqr
    result = runner(data, tau, config)
    _emit_json(opts, hio.fit_json(result, seed=seed, lambda_rule=config.lambda_rule))


def _cmd_select_factors(opts):
    data = _load(opts)
    config = _pipeline_config(opts, int(opts.get("seed", 0)))
    step = factor_step(data, float(opts.get("tau", 0.5)), config)
    _emit_json(opts, hio.factor_model_json(step.factor_model))


def _parse_noise(raw):
    raw = raw or "gaussian:0.5"
    try:
        family, param = raw.split(":")
        return NoiseSpec(family.strip(), float(param))
    except (ValueError, TypeError):
        raise InputError(f"bad noise spec {raw!r}; use 'gaussian:SD' or 't:DF'") from None


def _cmd_simulate(opts):
    tau = float(opts.get("tau", 0.5))
    seed = int(opts.get("seed", 0))
    signal = [float(v) for v in str(opts.get("beta", "1.8,1.6,-1.2")).split(",")]
    gamma = [float(v) for v in str(opts.get("gamma", "0.5,0.5")).split(",")]
    m = int(opts.get("m", len(gamma)))
    if m != len(gamma):
        raise InputError("--m must match the length of --gamma")
    spec = sparse_signal_spec(
        n=int(opts.get("n", 200)),
        d=int(opts.get("d", 200)),
        noise=_parse_noise(opts.get("noise")),
        signal=signal,
        gamma=gamma,
        loading_seed=int(opts.get("loading_seed", 20240)),
        replicate_seed=seed,
    )
    methods = tuple(s.strip() for s in str(opts.get("methods", "faqr,qr_plain")).split(","))
    config = _pipeline_config(opts, seed)
    summaries, _ = run_simulation(
        spec,
        reps=int(opts.get("reps", 100)),
        methods=methods,
        tau=tau,
        config=config,
    )
    rows = hio.summary_rows(spec, tau, summaries)
    text = hio.write_matrix_csv(opts.get("out"), rows, header=hio.SUMMARY_HEADER,
                                meta=hio.metadata(seed))
    if opts.get("out") is None:
        sys.stdout.write(text)


def _cmd_adequacy(opts):
    data = _load(opts)
    tau = float(opts.get("tau", 0.5))
    seed = int(opts.get("seed", 0))
    result = run_adequacy(data, tau, _pipeline_config(opts, seed), opts.get("method", "multiplier"),
                          int(opts.get("reps", 500)), seed)
    _emit_json(opts, hio.adequacy_json(result, seed=seed))
    hist = opts.get("hist_out")
    if hist:
        hio.write_matrix_csv(
            hist,
            [[i, s] for i, s in enumerate(result.boot_stats)],
            header=["replicate", "statistic"],
            meta=hio.metadata(seed),
        )


def _cmd_backtest(opts):
    data = _load(opts)
    tau = float(opts.get("tau", 0.5))
    seed = int(opts.get("seed", 0))
    config = _pipeline_config(opts, seed)
    report = rolling_backtest(
        data,
        window=int(opts.get("window", 90)),
        tau=tau,
        method=opts.get("method", "faqr"),
        config=config,
        seed=seed,
    )
    _emit_json(opts, hio.backtest_json(report, seed=seed))


_COMMANDS = {
    "fit": _cmd_fit,
    "select-factors": _cmd_select_factors,
    "simulate": _cmd_simulate,
    "adequacy": _cmd_adequacy,
    "backtest": _cmd_backtest,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        opts = _Options(args)
        _COMMANDS[args.command](opts)
    except InputError as exc:
        print(f"faqr: input error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"faqr: input error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"faqr: numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except FaqrError as exc:
        print(f"faqr: failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
