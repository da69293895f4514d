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
outcome, so draws are laid out in a (round, slot) table ahead of time and
replayed through :func:`subsets_from_uniforms`; :func:`group_subsets` sorts
a table of sampled subsets by space for the kernel.
"""
from __future__ import annotations

from dataclasses import dataclass

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


def subsets_from_uniforms(probs: np.ndarray, subset_size: int, uniforms: np.ndarray) -> np.ndarray:
    """Map uniform draws to ordered sampled subsets; vectorized over rows.

    Parameters
    ----------
    probs : (n, K) probability vectors, one per row, or (1, K) shared by all.
    subset_size : J.
    uniforms : (n, J) draws in [0, 1); column 0 picks the lead by inverse CDF,
        columns 1..J-1 drive a partial Fisher-Yates pass over the complement.

    Returns
    -------
    (n, J) integer indices, distinct within each row, lead first.
    """
    n, j = uniforms.shape
    if probs.ndim != 2:
        raise ValueError(f"probs must be (n, K) or (1, K), got shape {probs.shape}")
    if j != subset_size:
        raise ValueError(f"uniforms have {j} slots per row, expected {subset_size}")
    num_spaces = probs.shape[-1]
    validate_subset_size(subset_size, num_spaces)

    out = np.empty((n, subset_size), dtype=np.int64)
    lead = out[:, 0]
    cum = probs.cumsum(axis=-1)
    # inverse CDF: the lead is the number of cumulative masses <= the target
    targets = uniforms[:, 0] * cum[:, -1]
    (cum <= targets[:, None]).sum(axis=1, out=lead)
    np.minimum(lead, num_spaces - 1, out=lead)
    if subset_size == 1:
        return out

    # complement of the lead, in index order; partial Fisher-Yates over it
    if subset_size == 2:
        # single Fisher-Yates step; the pool entry at `pos` is pos itself
        # shifted past the lead, so skip materializing the pool
        pos = np.minimum((uniforms[:, 1] * (num_spaces - 1)).astype(np.int64),
                         num_spaces - 2)
        np.add(pos, pos >= lead, out=out[:, 1])
        return out
    # int32 pool: indices are small, and the pool dominates memory traffic
    base = np.arange(num_spaces - 1, dtype=np.int32)
    rest = base[None, :] + (base[None, :] >= lead[:, None])
    rows = np.arange(n)
    # pool sizes per slot: K-1, K-2, ...; truncation per column is unchanged
    sizes = np.arange(num_spaces - 1, num_spaces - subset_size, -1, dtype=float)
    pos_all = (uniforms[:, 1:] * sizes[None, :]).astype(np.int64)
    np.minimum(pos_all, np.int64(num_spaces - 2) - np.arange(subset_size - 1),
               out=pos_all)
    remaining = num_spaces - 1
    for a in range(1, subset_size):
        pos = pos_all[:, a - 1]
        out[:, a] = rest[rows, pos]
        rest[rows, pos] = rest[:, remaining - 1]
        remaining -= 1
    return out


@dataclass(frozen=True)
class SubsetGroups:
    """A (clients, J) subset table sorted into contiguous per-space segments.

    ``touched`` lists the sampled space ids in ascending order; the entries
    of segment ``k`` (flat positions ``bounds[k]:bounds[k + 1]``) all sampled
    space ``touched[k]``, which ``spaces`` repeats per entry.  ``rows[f]`` /
    ``slots[f]`` give the client and the within-subset position of flat
    entry ``f``; within a segment the rows are strictly ascending, since no
    client samples a space twice.
    """

    touched: np.ndarray  # (S,) ascending space ids
    bounds: np.ndarray   # (S + 1,) segment offsets into the flat order
    spaces: np.ndarray   # (clients * J,) space id per flat entry
    rows: np.ndarray     # (clients * J,) client per flat entry
    slots: np.ndarray    # (clients * J,) subset position per flat entry


def group_subsets(indices: np.ndarray) -> SubsetGroups:
    """Group a (clients, J) table of sampled subsets by space.

    One stable sort of the flattened table (so rows stay ascending within a
    space) replaces a per-space membership scan; all downstream per-space
    work can then run on contiguous slices.  Segment offsets come from the
    per-space counts.
    """
    if indices.ndim != 2:
        raise ValueError(f"indices must be 2-d, got shape {indices.shape}")
    flat = indices.ravel()
    order = flat.argsort(kind="stable")
    spaces = flat[order]
    counts = np.bincount(spaces)
    touched = counts.nonzero()[0]
    bounds = np.zeros(touched.size + 1, dtype=np.int64)
    np.cumsum(counts[touched], out=bounds[1:])
    rows, slots = np.divmod(order, indices.shape[1])
    return SubsetGroups(touched=touched, bounds=bounds, spaces=spaces,
                        rows=rows, slots=slots)
