"""Benchmark of faqr's four batch jobs, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; faqr is imported
from the checkout's ``src``.  The benchmark makes the workload's inputs
from the seed (the set-up), then runs whole rounds of jobs for S
seconds.  Each job is one child process with BLAS and OpenMP pinned to
one thread and faqr's ``--threads 1``.

With ``--trace 0`` a round is one untraced job, and the metrics are the
end-to-end ones of BENCHMARK.json: set-up time, and the medians of the
jobs' wall time, CPU time and peak resident memory.  Times are scaled
for the host's speed, which swings within seconds: a job's by the
host-speed samples taken while it ran, the set-up's by those taken just
before and after it (see hostspeed.py).  The unscaled medians go to the
result file.  With ``--trace 1`` a round is one untraced job plus one
traced job, and the metrics are the per-layer ones, medians over the
traced jobs.

Every job's main output must be byte-identical to the first job's; a
job that fails or differs counts in ``failed``.  The first output is
checked against the benchmark's own computations (checks.py).  The last
line of standard output is the result as JSON; the result and the spans
of the traced jobs are also written under bench/out/.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# pinned here too, before numpy loads, so that host-speed samples run on one thread
os.environ.update({var: "1" for var in THREAD_VARS})

import checks  # noqa: E402
import hostspeed  # noqa: E402
from inputs import SIZING, WORKLOADS, make_panels, write_inputs  # noqa: E402
from tracer import layer_metrics  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

# A job still running this long after the benchmark started is killed
# and counted as failed, so that every run ends within 180 s.
JOB_KILL_AT_S = 170.0

BACKTEST_WINDOW = 90
ADEQUACY_REPS = 2000
CLI_ARGS = {
    "fit_cli": ["fit", "--factors", "auto"],
    "backtest_cli": ["backtest", "--window", str(BACKTEST_WINDOW), "--factors", "auto"],
    "adequacy_cli": ["adequacy", "--method", "residual", "--reps", str(ADEQUACY_REPS),
                     "--factors", "auto"],
}

# Layers a workload never calls.  Their per-layer metrics read 0 there;
# any other metric whose wrapper is never hit stays absent.
NOT_RUN = {
    "fit_cli": ("inference.", "backtest."),
    "backtest_cli": ("inference.",),
    "adequacy_cli": ("pipeline.", "backtest."),
    "monte_carlo": ("io.", "inference.", "backtest.", "factor_model.select"),
}


def _process_age():
    """Seconds since this process started, at clock-tick resolution; 0 without /proc."""
    try:
        with open("/proc/self/stat") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime") as fh:
            uptime = float(fh.read().split()[0])
    except (OSError, ValueError, IndexError):
        return 0.0
    return max(0.0, uptime - start_ticks / os.sysconf("SC_CLK_TCK"))


def job_argv(workload, inputs, out, seed, trace_path=None, job=0):
    """Command line of one job; a traced job runs through bench/child.py."""
    tau = str(SIZING[workload].tau)
    child = [sys.executable, os.path.join(HERE, "child.py")]
    if trace_path:
        child += ["--trace", trace_path, "--job", str(job)]
    if workload == "monte_carlo":
        return child + ["monte-carlo", "--panels", inputs, "--tau", tau, "--seed", str(seed),
                        "--out", out]
    args = CLI_ARGS[workload] + ["--data", inputs, "--response", "y", "--tau", tau,
                                 "--seed", str(seed), "--threads", "1", "--out", out]
    if trace_path:
        return child + ["cli"] + args
    return [sys.executable, "-m", "faqr.harness.cli"] + args


def run_job(argv, env, kill_at):
    """Run one child and sample the host's speed meanwhile.

    Returns a dict of the child's wall s, user+sys CPU s, peak RSS MB and
    exit code, and the factor ``host_scale`` that scales its times for the
    host's speed.  The child is killed if it is still running at
    perf_counter() ``kill_at``.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, cwd=ROOT)
    timer = threading.Timer(max(1.0, kill_at - start), proc.kill)
    timer.start()
    try:
        with hostspeed.Sampler() as sampler:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0, "exit": proc.returncode,
            "host_scale": hostspeed.scale(sampler.samples), "host_samples": len(sampler.samples)}


def check_output(workload, output, panels):
    try:
        out = json.loads(output)
        return _check(workload, out, panels)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]


def _check(workload, out, panels):
    tau = SIZING[workload].tau
    x, y = panels[0]
    if workload == "fit_cli":
        return checks.check_fit(out, x, y, tau)
    if workload == "backtest_cli":
        return checks.check_backtest(out, y, BACKTEST_WINDOW, tau)
    if workload == "adequacy_cli":
        return checks.check_adequacy(out, x, y, tau)
    return checks.check_monte_carlo(out, panels, tau)


def per_layer(workload, names, traces, walls, traced_walls):
    """Median per-layer metrics over the traced jobs."""
    per_job = [layer_metrics(t) for t in traces]
    values = {}
    for name in names:
        seen = [m[name] for m in per_job if name in m]
        if seen:
            values[name] = statistics.median(seen)
        elif name.startswith(NOT_RUN[workload]):
            values[name] = 0.0
    if walls and traced_walls:
        values["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
    return values


def main():
    # set-up time counts from the process's start: the part before here at
    # clock-tick resolution (interpreter, imports), the rest exactly
    t0, age_at_t0 = time.perf_counter(), _process_age()
    parser = argparse.ArgumentParser(description="faqr batch-job benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "faqr", "__init__.py")):
        print(f"bench: faqr's source is missing at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    env = dict(os.environ, PYTHONPATH=SRC)
    # users' imports come from cached bytecode; only the first job compiles
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    work = os.path.join(HERE, "_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        # host speed just before and after making the inputs; its own time
        # is not set-up
        sampled = time.perf_counter()
        setup_samples = hostspeed.calibrate()
        sampled = time.perf_counter() - sampled
        panels = make_panels(args.workload, args.seed)
        inputs = write_inputs(args.workload, panels, work)
        setup_s = age_at_t0 + time.perf_counter() - t0 - sampled
        setup_samples += hostspeed.calibrate()

        deadline = time.perf_counter() + args.seconds
        jobs, traces, first, failed = [], [], None, 0
        while True:
            for traced in (False, True) if args.trace else (False,):
                k = len(jobs)
                out = os.path.join(work, f"out-{k}.json")
                trace_path = os.path.join(work, f"trace-{k}.json") if traced else None
                job = run_job(job_argv(args.workload, inputs, out, args.seed, trace_path, k),
                              env, t0 + JOB_KILL_AT_S)
                output = None
                if job["exit"] == 0 and os.path.exists(out):
                    with open(out, "rb") as fh:
                        output = fh.read()
                    os.remove(out)
                first = first if first is not None else output
                ok = output is not None and output == first
                failed += not ok
                jobs.append(dict(job, traced=traced, identical=ok))
                if traced and ok:
                    with open(trace_path) as fh:
                        traces.append(json.load(fh))
            if time.perf_counter() >= deadline:
                break

        problems = ["no job wrote an output"] if first is None else check_output(
            args.workload, first, panels)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    good = [j for j in jobs if j["identical"]] or jobs
    untraced = [j for j in good if not j["traced"]]
    if args.trace:
        values = per_layer(args.workload, units, traces, [j["wall_s"] for j in untraced],
                           [j["wall_s"] for j in good if j["traced"]])
    else:
        raw = {key: statistics.median(j[key] for j in untraced)
               for key in ("wall_s", "cpu_s", "peak_rss_mb")}
        raw["setup_s"] = setup_s
        values = {
            "setup_s": setup_s * hostspeed.scale(setup_samples),
            "wall_s": statistics.median(j["wall_s"] * j["host_scale"] for j in untraced),
            "cpu_s": statistics.median(j["cpu_s"] * j["host_scale"] for j in untraced),
            "peak_rss_mb": raw["peak_rss_mb"],
        }
    for p in problems:
        print(f"bench: check failed: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items() if name in values},
    }

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT_DIR, f"result-{stem}.json"), "w") as fh:
        json.dump(dict(result, jobs=jobs, problems=problems, raw=None if args.trace else raw,
                       output_sha256=first and hashlib.sha256(first).hexdigest()), fh, indent=1)
    if args.trace:
        with open(os.path.join(OUT_DIR, f"trace-{stem}.json"), "w") as fh:
            json.dump(traces, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
