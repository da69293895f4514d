"""Subset sampling of hypothesis spaces.

Each round a client evaluates only a small ordered subset ``(A_1, ..., A_J)``
of the K spaces: the lead index ``A_1`` is drawn from the current probability
vector p, and ``A_2, ..., A_J`` are drawn uniformly without replacement from
the remaining K-1 indices.  Under that two-stage law the inclusion
probability of space i has the closed form

    P[i in O] = ((K - J) / (K - 1)) * p_i + (J - 1) / (K - 1),

which is what the importance-weighted estimates divide by; the round kernel
(:func:`fedoms.protocol.run_epoch`) applies those weights to the reported
losses and gradients.  All sampling consumes exactly J uniform draws per
outcome, so draws are laid out in a (round, slot) table ahead of time.  Only
the lead depends on p, so a run turns the other J-1 draws into positions once
(:func:`complement_positions`) and each epoch picks just the leads
(:func:`subsets_from_uniforms`).
"""
from __future__ import annotations

import numpy as np


def validate_subset_size(subset_size: int, num_spaces: int) -> None:
    """Reject a subset size J the estimators cannot use with K spaces."""
    if num_spaces == 1:
        if subset_size != 1:
            raise ValueError(f"subset_size must be 1 when K=1, got {subset_size}")
        return
    if not 2 <= subset_size <= num_spaces:
        raise ValueError(
            f"subset_size must satisfy 2 <= J <= K (got J={subset_size}, K={num_spaces}); "
            "J=1 is rejected because the estimator weights divide by J-1"
        )


def inclusion_probabilities(p: np.ndarray, subset_size: int) -> np.ndarray:
    """Closed-form P[i in O] under the two-stage sampling law; broadcasts over rows."""
    p = np.asarray(p, dtype=float)
    num_spaces = p.shape[-1]
    if num_spaces == 1:
        return np.ones_like(p)
    j = float(subset_size)
    return ((num_spaces - j) / (num_spaces - 1.0)) * p + (j - 1.0) / (num_spaces - 1.0)


def complement_positions(uniforms: np.ndarray, num_spaces: int) -> np.ndarray:
    """The (..., J-1) int64 Fisher-Yates positions of an (..., J) table of draws.

    Slot ``a`` of the pass over the K-1 spaces left after the lead picks
    ``floor(u_a * (K - a))`` in its pool of K - a, clamped to the pool.
    """
    subset_size = uniforms.shape[-1]
    validate_subset_size(subset_size, num_spaces)
    sizes = np.arange(num_spaces - 1, num_spaces - subset_size, -1, dtype=float)
    positions = (uniforms[..., 1:] * sizes).astype(np.int64)
    return np.minimum(positions, num_spaces - 2 - np.arange(subset_size - 1), out=positions)


def subsets_from_uniforms(probs: np.ndarray, lead_uniforms: np.ndarray,
                          positions: np.ndarray) -> np.ndarray:
    """Map draws to ordered sampled subsets; vectorized over rows.

    Parameters
    ----------
    probs : (n, K) probability vectors, one per row, or (1, K) shared by all.
    lead_uniforms : (n,) draws in [0, 1) that pick the lead by inverse CDF.
    positions : (n, J-1) complement positions from :func:`complement_positions`
        for the same K, which place the other J-1 spaces.

    Returns
    -------
    (n, J) integer indices, distinct within each row, lead first.
    """
    n, subset_size = positions.shape[0], positions.shape[1] + 1
    if probs.ndim != 2:
        raise ValueError(f"probs must be (n, K) or (1, K), got shape {probs.shape}")
    if lead_uniforms.shape != (n,):
        raise ValueError(f"{lead_uniforms.shape} lead draws for {n} rows of positions")
    num_spaces = probs.shape[1]
    validate_subset_size(subset_size, num_spaces)

    out = np.empty((n, subset_size), dtype=np.int64)
    lead = out[:, 0]
    # inverse CDF: the lead is the number of cumulative masses <= the target
    if probs.shape[0] == 1:
        cum = probs[0].cumsum()  # non-decreasing, so a binary search counts them
        lead[:] = cum.searchsorted(lead_uniforms * cum[-1], side="right")
    else:
        cum = probs.cumsum(axis=1)
        np.add.reduce(cum <= (lead_uniforms * cum[:, -1])[:, None], axis=1, out=lead)
    np.minimum(lead, num_spaces - 1, out=lead)
    if subset_size == 1:
        return out

    # complement of the lead, in index order; partial Fisher-Yates over it
    if subset_size == 2:
        # single Fisher-Yates step; the pool entry at `pos` is pos itself
        # shifted past the lead, so skip materializing the pool
        pos = positions[:, 0]
        np.add(pos, pos >= lead, out=out[:, 1])
        return out
    # int32 pool: indices are small, and the pool dominates memory traffic
    base = np.arange(num_spaces - 1, dtype=np.int32)
    rest = base[None, :] + (base[None, :] >= lead[:, None])
    rows = np.arange(n)
    for a in range(1, subset_size):  # the pool holds K - a spaces
        pos = positions[:, a - 1]
        out[:, a] = rest[rows, pos]
        rest[rows, pos] = rest[:, num_spaces - a - 1]
    return out
