"""Command line interface.

Subcommands: fit, select-factors, simulate, adequacy, backtest.  Every
option's default sits in its ``add_argument`` call, and ``faqr CMD
--help`` prints it.  Options can also come from a flat JSON config file
(--config): its keys that name one of the subcommand's options become
that option's defaults, so explicit flags win over file values, and
other keys are ignored.  Exit codes: 0 success, 2 input error, 3
numerical failure.
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
from .pipeline import ADEQUACY_METHODS, PIPELINES, PipelineConfig, factor_step, run_adequacy
from .simulate import run_simulation


def _add_common(sub):
    sub.add_argument("--config", help="flat JSON file of option defaults")
    sub.add_argument("--tau", type=float, default=0.5, help="quantile level (default %(default)s)")
    sub.add_argument("--seed", type=int, default=0, help="root seed (default %(default)s)")
    sub.add_argument("--kernel", choices=KERNEL_FAMILIES, default=PipelineConfig.kernel_family,
                     help="kernel family (default %(default)s)")
    sub.add_argument("--bandwidth", type=float,
                     help="positive smoothing bandwidth (default: data-driven rule)")
    sub.add_argument("--threads", type=int,
                     help="accepted for compatibility; has no effect (every job runs serially)")


def _add_data(sub):
    sub.add_argument("--data", required=True, help="input CSV path")
    sub.add_argument("--response", help="response column name or 0-based index")
    sub.add_argument("--no-header", action="store_true", help="CSV has no header row")
    sub.add_argument("--center", action="store_true", help="subtract column means before fitting")


def _add_lambda(sub):
    sub.add_argument("--lambda-c0", type=float, default=LambdaRule.c0,
                     help="penalty inflation (default %(default)s)")
    sub.add_argument("--lambda-alpha", type=float, default=LambdaRule.alpha,
                     help="pivotal quantile tail mass (default %(default)s)")
    sub.add_argument("--lambda-sims", type=int, default=LambdaRule.n_sim,
                     help="pivotal simulation count (default %(default)s)")


def _add_factors(sub):
    sub.add_argument("--factors", default="auto",
                     help="number of factors, or 'auto' for the eigenvalue-ratio rule "
                          "(default %(default)s)")
    sub.add_argument("--m-max", type=int,
                     help="positive selection bound for 'auto' (default min(20, min(n, d) // 2))")


def _add_out(sub, what="output JSON path"):
    sub.add_argument("--out", help=f"{what} (default stdout)")


def _parsers():
    """The parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="faqr",
        description="Factor-augmented quantile regression toolkit",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    pipelines = tuple(PIPELINES)

    p = subs.add_parser("fit", help="fit the penalized factor-augmented model on a CSV")
    _add_common(p); _add_data(p); _add_lambda(p); _add_factors(p)
    p.add_argument("--plain", action="store_true",
                   help="skip the factor step and regress on raw columns")
    _add_out(p)

    p = subs.add_parser("select-factors", help="estimate the factor model from a CSV")
    _add_common(p); _add_data(p); _add_factors(p); _add_out(p)

    p = subs.add_parser("simulate", help="run the synthetic estimation-accuracy study")
    _add_common(p); _add_lambda(p)
    p.add_argument("--n", type=int, default=200, help="observations per replicate (default %(default)s)")
    p.add_argument("--d", type=int, default=200, help="covariate dimension (default %(default)s)")
    p.add_argument("--noise", default="gaussian:0.5",
                   help="noise spec 'gaussian:SD' or 't:DF' (default %(default)s)")
    p.add_argument("--reps", type=int, default=100, help="replicates (default %(default)s)")
    p.add_argument("--methods", default=",".join(pipelines),
                   help="comma list of pipelines (default %(default)s)")
    p.add_argument("--beta", default="1.8,1.6,-1.2",
                   help="leading signal values, comma list (default %(default)s)")
    p.add_argument("--gamma", default="0.5,0.5",
                   help="factor coefficients, comma list; its length is the number of "
                        "factors (default %(default)s)")
    p.add_argument("--loading-seed", type=int, default=20240,
                   help="seed fixing loadings (default %(default)s)")
    _add_out(p, "summary CSV path")

    p = subs.add_parser(
        "adequacy", help="bootstrap test of the factor-only null model",
        description="Bootstrap test of the factor-only null model.  The --lambda-* "
                    "flags apply only to --method residual, which tunes the penalty "
                    "of its full fit; --method multiplier fits no penalized model.",
    )
    _add_common(p); _add_data(p); _add_factors(p); _add_lambda(p)
    p.add_argument("--method", choices=ADEQUACY_METHODS, default=ADEQUACY_METHODS[0],
                   help="bootstrap flavor (default %(default)s)")
    p.add_argument("--reps", type=int, default=500, help="bootstrap replicates (default %(default)s)")
    _add_out(p)
    p.add_argument("--hist-out", help="CSV path for the replicate statistics")

    p = subs.add_parser("backtest", help="rolling-window out-of-sample evaluation")
    _add_common(p); _add_data(p); _add_factors(p); _add_lambda(p)
    p.add_argument("--window", type=int, default=90,
                   help="training window length (default %(default)s)")
    p.add_argument("--method", choices=pipelines, default=pipelines[0],
                   help="pipeline (default %(default)s)")
    _add_out(p)
    return parser, subs.choices


def build_parser():
    return _parsers()[0]


def _parse_args(argv):
    """Parse argv; a config file's keys that name options become their defaults."""
    parser, commands = _parsers()
    args = parser.parse_args(argv)
    if not args.config:
        return args
    try:
        with open(args.config) as fh:
            values = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read config file {args.config}: {exc}") from None
    if not isinstance(values, dict):
        raise InputError(f"config file {args.config} must hold a flat JSON object")
    # "command" is the subcommand's name, not one of its options, and a
    # file cannot name a further file
    own = set(vars(args)) - {"command", "config"}
    values = {k: v for k, v in values.items() if k in own}
    sub = commands[args.command]
    for key, value in values.items():
        # null stands for "no value" only where that is the option's own default
        if value is None and sub.get_default(key) is not None:
            raise InputError(f"config file {args.config}: {key!r} must not be null")
    sub.set_defaults(**values)
    return parser.parse_args(argv)


def _config(args):
    """The pipeline config; a field whose option the subcommand lacks keeps its default."""
    factors = getattr(args, "factors", PipelineConfig.num_factors)
    return PipelineConfig(
        kernel_family=args.kernel,
        bandwidth=None if args.bandwidth is None else float(args.bandwidth),
        num_factors=None if factors in (None, "auto") else int(factors),
        m_max=getattr(args, "m_max", PipelineConfig.m_max),
        center=bool(getattr(args, "center", PipelineConfig.center)),
        lambda_rule=LambdaRule(
            c0=float(getattr(args, "lambda_c0", LambdaRule.c0)),
            alpha=float(getattr(args, "lambda_alpha", LambdaRule.alpha)),
            n_sim=int(getattr(args, "lambda_sims", LambdaRule.n_sim)),
            seed=int(args.seed),
        ),
    )


def _load(args):
    return hio.load_csv(args.data, response_column=args.response, has_header=not args.no_header)


def _emit(args, text):
    """Echo what a writer returned when no --out path took it."""
    if args.out is None:
        sys.stdout.write(text)


def _cmd_fit(args):
    data = _load(args)
    config = _config(args)
    runner = PIPELINES["qr_plain" if args.plain else "faqr"]
    result = runner(data, float(args.tau), config)
    _emit(args, hio.write_json(args.out, hio.fit_json(result, int(args.seed), config.lambda_rule)))


def _cmd_select_factors(args):
    data = _load(args)
    design = factor_step(data, float(args.tau), _config(args))
    _emit(args, hio.write_json(args.out, hio.factor_model_json(design.factor_model)))


def _parse_noise(raw):
    try:
        family, param = str(raw).split(":")
        return NoiseSpec(family.strip(), float(param))
    except ValueError:
        raise InputError(f"bad noise spec {raw!r}; use 'gaussian:SD' or 't:DF'") from None


def _floats(raw):
    return [float(v) for v in str(raw).split(",")]


def _cmd_simulate(args):
    tau, seed = float(args.tau), int(args.seed)
    signal, gamma = _floats(args.beta), _floats(args.gamma)
    spec = sparse_signal_spec(
        n=int(args.n),
        d=int(args.d),
        noise=_parse_noise(args.noise),
        signal=signal,
        gamma=gamma,
        loading_seed=int(args.loading_seed),
        replicate_seed=seed,
    )
    methods = tuple(s.strip() for s in str(args.methods).split(","))
    summaries, _ = run_simulation(spec, reps=int(args.reps), methods=methods, tau=tau,
                                  config=_config(args))
    rows = hio.summary_rows(spec, tau, summaries)
    _emit(args, hio.write_matrix_csv(args.out, rows, header=hio.SUMMARY_HEADER,
                                     meta=hio.metadata(seed)))


def _cmd_adequacy(args):
    data = _load(args)
    result = run_adequacy(data, float(args.tau), _config(args), args.method, int(args.reps),
                          int(args.seed))
    _emit(args, hio.write_json(args.out, hio.adequacy_json(result)))
    if args.hist_out:
        hio.write_matrix_csv(
            args.hist_out,
            [[i, s] for i, s in enumerate(result.boot_stats)],
            header=["replicate", "statistic"],
            meta=hio.metadata(result.seed),
        )


def _cmd_backtest(args):
    data = _load(args)
    seed = int(args.seed)
    report = rolling_backtest(
        data,
        window=int(args.window),
        tau=float(args.tau),
        method=args.method,
        config=_config(args),
        seed=seed,
    )
    _emit(args, hio.write_json(args.out, hio.backtest_json(report, seed=seed)))


_COMMANDS = {
    "fit": _cmd_fit,
    "select-factors": _cmd_select_factors,
    "simulate": _cmd_simulate,
    "adequacy": _cmd_adequacy,
    "backtest": _cmd_backtest,
}


def main(argv=None):
    try:
        args = _parse_args(argv)
        _COMMANDS[args.command](args)
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
