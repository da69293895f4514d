"""Deterministic RNG substreams.

Every source of randomness in a run is a counter-based Philox stream keyed by
(master_seed, role, *path).  Streams are independent of each other and of the
order in which the simulation happens to consume them, so traces are
reproducible regardless of how client work is interleaved.
"""
from __future__ import annotations

import functools

import numpy as np

# Role constants: the first element of every spawn key.  Keeping them in one
# place avoids accidental stream collisions between subsystems.
ROLE_SAMPLING = 0      # per-client subset-sampling uniforms
ROLE_PERMUTE = 1       # dataset permutation
ROLE_FEATURES = 2      # random-feature draws (one per hypothesis space)
ROLE_DATA = 3          # synthetic example streams (per client)
ROLE_ADVERSARY = 4     # adversarial generators (shared across clients)
# role 9 is reserved for the test suite's scratch streams


def stream(master_seed: int, *path: int) -> np.random.Generator:
    """Return the Philox generator for a (master_seed, *path) key."""
    if master_seed < 0:
        raise ValueError(f"master_seed must be >= 0, got {master_seed}")
    ss = np.random.SeedSequence(master_seed, spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))


@functools.lru_cache(maxsize=1)
def sampling_uniforms(master_seed: int, clients: int, horizon: int, subset_size: int) -> np.ndarray:
    """Pre-draw the subset-sampling uniforms for a whole run.

    Returns a read-only array of shape (clients, horizon, subset_size).
    Round t of client j always reads slot [j, t-1, :], whether or not earlier
    slots were consumed, which is what makes batched and unbatched schedules
    replayable against each other.  The last table is kept: the learner runs
    of one seed (cooperative, audited, noncooperative) share it.
    """
    table = np.empty((clients, horizon, subset_size))
    for j in range(clients):
        table[j] = stream(master_seed, ROLE_SAMPLING, j).random((horizon, subset_size))
    table.setflags(write=False)
    return table
