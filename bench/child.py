"""One benchmark job in its own process.

    python3 bench/child.py [--trace FILE --job K] cli ARGS...
    python3 bench/child.py [--trace FILE --job K] monte-carlo --panels NPZ --tau T --seed S --out JSON

``cli`` runs faqr's command line in this process, so that the tracer can
wrap its layers; untraced CLI jobs run ``python3 -m faqr.harness.cli``
directly instead.  ``monte-carlo`` is the library-path study: it imports
faqr and calls ``fit_faqr`` (m = 2) and ``fit_qr_plain`` on every panel,
then writes each fit's coefficients, penalty, bandwidth and objective
trace as JSON.
"""

import argparse
import importlib
import json
import sys
from contextlib import nullcontext

from tracer import Tracer


def monte_carlo(harness, panels, tau, seed, out):
    import numpy as np
    from faqr import DataMatrix

    arrays = np.load(panels)
    faqr_cfg = harness.PipelineConfig(num_factors=2)
    plain_cfg = harness.PipelineConfig()
    replicates = []
    for r, (x, y) in enumerate(zip(arrays["x"], arrays["y"])):
        data = DataMatrix(x=x, y=y)
        fits = {
            "faqr": harness.fit_faqr(data, tau, faqr_cfg.with_seed(2 * (seed + r))).fit,
            "qr_plain": harness.fit_qr_plain(data, tau, plain_cfg.with_seed(2 * (seed + r) + 1)).fit,
        }
        replicates.append({
            method: {
                "beta": fit.beta_hat.tolist(),
                "gamma": fit.gamma_hat.tolist(),
                "lambda": fit.lam,
                "h": fit.h,
                "objective_trace": list(fit.objective_trace),
                "converged": fit.converged,
            }
            for method, fit in fits.items()
        })
    with open(out, "w") as fh:
        json.dump({"tau": tau, "seed": seed, "replicates": replicates}, fh, sort_keys=True, indent=1)
    return 0


def main():
    parser = argparse.ArgumentParser(description="one benchmark job")
    parser.add_argument("--trace", help="write this job's spans and counts here")
    parser.add_argument("--job", type=int, default=0, help="job index recorded in the trace")
    subs = parser.add_subparsers(dest="mode", required=True)
    p = subs.add_parser("cli")
    p.add_argument("argv", nargs=argparse.REMAINDER)
    p = subs.add_parser("monte-carlo")
    p.add_argument("--panels", required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    args = parser.parse_args()

    tracer = Tracer(args.job) if args.trace else None
    # the package a job's entry point needs; its import is the cli layer's span
    entry = "faqr.harness.cli" if args.mode == "cli" else "faqr.harness"
    with tracer.span("cli.import") if tracer else nullcontext():
        module = importlib.import_module(entry)
    if tracer:
        tracer.install()
    if args.mode == "cli":
        code = module.main(args.argv)
    else:
        code = monte_carlo(module, args.panels, args.tau, args.seed, args.out)
    if tracer:
        tracer.write(args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
