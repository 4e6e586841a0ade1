"""How fast the shared host runs, sampled while the benchmark works.

The benchmark runs on a small VM of a shared machine whose speed swings
by up to 40% within seconds: the same fixed task takes 40% longer one
moment than a few seconds before, and a job's wall and CPU time swing
with it.
So the benchmark times a fixed micro-task, ``sample()``, while each job
runs (on the other core, in a thread of the benchmark's own process) and
before and after the set-up, and reports every time as it would read on
a host where ``sample()`` takes ``REF_S``.  A change to faqr moves the
job's time and not the samples', so scaled times compare commits.

A sample is timed in thread CPU seconds, which measure how fast the core
runs and leave out the waits of a thread that shares the VM with a busy
job.  Over ten seeds, scaled median job times of 20 s runs spread
0.011-0.138 of their median on the four workloads, against 0.09-0.39
unscaled (bench/README.md).
"""

import csv
import io
import statistics
import threading
import time

import numpy as np

# median thread CPU seconds of one sample() while a job ran on the other
# core of a 2-vCPU VM; scaled times read as they would there
REF_S = 0.011
# seconds between samples while a job runs: about a tenth of the other core
PERIOD_S = 0.2

_A = np.random.default_rng(12345).standard_normal((200, 50))
_CSV = "\n".join(",".join(map(repr, row)) for row in _A[:40].tolist())


def sample():
    """Run one fixed micro-task; return the thread CPU seconds it took.

    The task has the jobs' two kinds of work: parsing CSV text in Python
    and a loop of small numpy matrix-vector products.
    """
    start = time.thread_time()
    [[float(v) for v in row] for row in csv.reader(io.StringIO(_CSV))]
    b = np.zeros(_A.shape[1])
    for _ in range(1200):
        b -= 1e-4 * (_A.T @ np.tanh(_A @ b - 1.0))
    return time.thread_time() - start


def scale(samples):
    """Factor that turns a time measured while ``samples`` were taken into
    the time it would take on the reference host."""
    return REF_S / statistics.fmean(samples)


def calibrate(count=5):
    """Take ``count`` samples in this thread; return them."""
    return [sample() for _ in range(count)]


class Sampler:
    """Take a sample every ``PERIOD_S`` in a thread, from entry until exit.

    The first sample starts at once, so even a short job gets one.
    """

    def __enter__(self):
        self.samples = []
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        return self

    def _run(self):
        while True:
            self.samples.append(sample())
            if self._done.wait(PERIOD_S):
                return

    def __exit__(self, *exc):
        self._done.set()
        self._thread.join()
        return False
