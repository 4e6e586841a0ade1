"""Deterministic random streams.

Every randomized routine in the package draws from one stream per
(seed, purpose): numpy's SeedSequence, keyed by a user seed and an
integer purpose tag, seeds the counter-based Philox engine, and the
routine takes all of that purpose's draws from the stream in a fixed
order, never building a stream per draw.  Independent tasks
(simulation replicates, backtest windows) get child seeds from
``derive_seed``, so each result depends on its seed alone, not on the
tasks run before it; that is what makes a Monte Carlo run reproducible
replicate by replicate.
"""

import numpy as np

# Recorded in every randomized output so results can be reproduced by
# other tooling that speaks numpy's bit-generator names; the suffix is
# the version of the stream layout above.
ALGORITHM = "philox4x64-10+seedseq/v2"


def stream(seed, *path):
    """Return a Generator for the stream identified by (seed, *path).

    Parameters
    ----------
    seed : int
        Non-negative 64-bit user seed.
    *path : int
        Integer path components, e.g. a purpose tag.
    """
    ss = np.random.SeedSequence(int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))


def derive_seed(seed, *path):
    """Deterministically derive a child seed, for APIs that take a seed."""
    ss = np.random.SeedSequence(int(seed), spawn_key=tuple(int(p) for p in path))
    return int(ss.generate_state(1, np.uint64)[0])
