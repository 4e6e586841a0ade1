"""Workload inputs, made with numpy from a workload seed.

Every panel follows the paper's sparse-signal design, generated here
rather than by faqr so that the program only ever sees the CSV file or
the arrays:

    X = F B^T + U,   y = F gamma + U beta + eps

with m = 2 standard-normal factors F, loadings B ~ U(-1, 1), standard
normal idiosyncratic parts U, beta = (1.8, 1.6, -1.2, 0, ...) and
gamma = (0.5, 0.5).  The truth stays with the benchmark and feeds its
independent checks.

Regenerate the inputs of one run without timing anything:

    python3 bench/inputs.py --workload fit_cli --seed 1 --out DIR
"""

import argparse
import os
from dataclasses import dataclass

import numpy as np

SIGNAL = (1.8, 1.6, -1.2)
GAMMA = (0.5, 0.5)
SUPPORT = frozenset(range(len(SIGNAL)))


@dataclass(frozen=True)
class Sizing:
    """Panel shape and noise of one workload's inputs."""

    n: int
    d: int
    noise: str  # "gaussian" (sd 0.5) or "t2"
    tau: float
    replicates: int = 1


SIZING = {
    "fit_cli": Sizing(n=1000, d=500, noise="gaussian", tau=0.5),
    "backtest_cli": Sizing(n=150, d=100, noise="gaussian", tau=0.5),
    "adequacy_cli": Sizing(n=500, d=100, noise="gaussian", tau=0.5),
    "monte_carlo": Sizing(n=200, d=200, noise="t2", tau=0.1, replicates=100),
}
WORKLOADS = tuple(SIZING)


def true_beta(d):
    beta = np.zeros(d)
    beta[: len(SIGNAL)] = SIGNAL
    return beta


def _panel(rng, n, d, noise):
    loadings = rng.uniform(-1.0, 1.0, (d, len(GAMMA)))
    f = rng.standard_normal((n, len(GAMMA)))
    u = rng.standard_normal((n, d))
    eps = rng.normal(0.0, 0.5, n) if noise == "gaussian" else rng.standard_t(2, n)
    return f @ loadings.T + u, f @ np.asarray(GAMMA) + u @ true_beta(d) + eps


def make_panels(workload, seed):
    """The workload's panels as (x, y) pairs, each with its own loadings."""
    size = SIZING[workload]
    rng = np.random.default_rng([int(seed), WORKLOADS.index(workload)])
    return [_panel(rng, size.n, size.d, size.noise) for _ in range(size.replicates)]


def write_csv(path, x, y):
    """Write y then the columns of x, with a header, in round-trip precision."""
    header = ",".join(["y"] + [f"x{j}" for j in range(x.shape[1])])
    body = np.column_stack([y, x])
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in body:
            fh.write(",".join(map(repr, row.tolist())) + "\n")


def write_inputs(workload, panels, directory):
    """Write the workload's panels into ``directory``; return the file's path.

    CLI workloads get ``panel.csv``; the Monte Carlo study gets
    ``panels.npz`` with stacked arrays ``x`` (R, n, d) and ``y`` (R, n).
    """
    os.makedirs(directory, exist_ok=True)
    if workload == "monte_carlo":
        path = os.path.join(directory, "panels.npz")
        np.savez(path, x=np.stack([p[0] for p in panels]), y=np.stack([p[1] for p in panels]))
    else:
        path = os.path.join(directory, "panel.csv")
        write_csv(path, *panels[0])
    return path


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory to write the inputs to")
    args = parser.parse_args()
    print(write_inputs(args.workload, make_panels(args.workload, args.seed), args.out))


if __name__ == "__main__":
    main()
