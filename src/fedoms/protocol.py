"""Communication layer for federated online model selection.

This module owns everything that crosses the client/server boundary:

* the wire format: :func:`encode_frames` / :func:`decode_frames` code a
  whole batch of frames, each a 16-byte header, IEEE-754 single floats and
  bit-packed indices, with a fixed number of numpy calls.  A frame's header
  states its information bits: 32 per float plus ceil(log2 K) per index.
* :func:`_scatter_reports` — the server-side merge of client reports into
  importance-weighted loss/gradient estimates, one scatter-add per quantity.
* the wire audit: with ``setup.audit`` set, each epoch's 2·M frames, its
  downlinks followed by its uplinks, are encoded and decoded together in
  one batch (or in a few consecutive batches when one would outgrow the
  memory budget below), and every check (bits against the closed form,
  header epoch, client id and kind, indices, floats to single precision in
  both directions, and the aggregation against the engine's) runs once
  over each batch.
* :func:`run_epoch` — the round kernel: one communication epoch of S
  servers, vectorized across clients and, in blocks, across the epoch's
  rounds.  It reads a :class:`RunSetup` (the spaces, the client streams,
  the pre-drawn sampling uniforms and the step sizes) and writes a
  :class:`ServerState` (the distributions, the models and the round-by-round
  trace).  The cooperative learner runs it with one server for all clients,
  the noncooperative baseline with one server per client and no messages.

The engine keeps each server's sampling distribution in log space (see
:mod:`fedoms.mirror` for why) and its models as one zero-padded (K, d_max)
block, so spaces of mixed widths share every code path.  An epoch's
(client, sampled space) entries stay in client-major order when every space
reads one input coordinate: then an epoch makes the same numpy calls however
many spaces it touches.  Otherwise they are sorted by space, so that each
feature map runs once per touched space and each space's gradients are summed
over a contiguous segment.  One memory budget, ``_BLOCK_FLOATS``, bounds both
the rounds :func:`run_epoch` evaluates at once and the frames the audit codes
at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .mirror import (
    WeightedEntropyGeometry,
    entropy_step_log_batch,
    materialize,
    project_rows_per_row,
)
from .sampling import (
    group_subsets,
    inclusion_probabilities,
    subsets_from_uniforms,
)
from .spaces import (
    CoordinateMap,
    HypothesisSpace,
    IdentityMap,
    Loss,
    loss_derivative,
    loss_value,
)

__all__ = [
    "ProtocolError",
    "RunInvariantError",
    "check_header_fields",
    "KIND_DOWNLINK",
    "KIND_UPLINK",
    "bits_per_index",
    "encode_frames",
    "decode_frames",
    "ServerState",
    "RunSetup",
    "AuditLog",
    "run_epoch",
]


class ProtocolError(ValueError):
    """Raised for malformed frames, or epochs run out of order."""


class RunInvariantError(RuntimeError):
    """Raised when an observed loss or gradient exceeds its declared bound.

    The declared per-space loss bound and Lipschitz bound feed the step-size
    schedules, so a violation silently invalidates every guarantee of the
    run; we abort instead of continuing with a broken configuration.
    """


# Floats one array of a round block or of an audit batch may hold: 512 KiB
# of float64, so that the few arrays a block keeps live stay in a 2 MiB L2
# cache.  mixed-audit's rounds (300 x 60 floats each) run as fast in blocks
# of 3 rounds, this budget, as one at a time, and 1.3x slower in blocks of 7
# or 10 (twice or four times the budget).  A hidden-arm epoch (20 x 16 per
# round, 20 frames of 4 floats) runs as one block and one audit batch;
# rff-table's 2000 x 100 rounds stay one per block, and its 2000 frames go
# in 8 batches of 250.
_BLOCK_FLOATS = 1 << 16


# ---------------------------------------------------------------------------
# Wire format


KIND_DOWNLINK = 0
KIND_UPLINK = 1

# epoch u32 | client u32 | payload bits u32 | kind u8 | index count u8 | pad u16
_HEADER = np.dtype([("epoch", "<u4"), ("client_id", "<u4"), ("payload_bits", "<u4"),
                    ("kind", "u1"), ("index_count", "u1"), ("pad", "<u2")])
HEADER_BYTES = _HEADER.itemsize  # 16


def check_header_fields(epoch: int, client_id: int, index_count: int,
                        payload_bits: int = 0) -> None:
    """Raise :class:`ProtocolError` unless the values fit the frame header.

    Epoch, client id and payload bit count are unsigned 32-bit fields and
    the index count (the subset size J) an unsigned 8-bit one.
    """
    for name, value, width in (("epoch", epoch, 32), ("client id", client_id, 32),
                               ("payload bit count", payload_bits, 32),
                               ("index count (subset size)", index_count, 8)):
        if not 0 <= value < 1 << width:
            raise ProtocolError(
                f"{name} {value} does not fit the frame header's unsigned "
                f"{width}-bit field (0 to {(1 << width) - 1})"
            )


def bits_per_index(num_spaces: int) -> int:
    """Bits needed to address one of ``num_spaces`` spaces: ceil(log2 K)."""
    if num_spaces < 1:
        raise ProtocolError(f"num_spaces must be >= 1, got {num_spaces}")
    return (num_spaces - 1).bit_length()


def _left_justify(values: np.ndarray, valid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Move each row's ``valid`` entries of ``values`` (n, C) to the row's front.

    Returns the (n, F) table, F the longest row, and the (n,) entry counts;
    entries past a row's count are zero.
    """
    counts = valid.sum(axis=1)
    table = np.zeros((values.shape[0], int(counts.max())))
    table[np.arange(table.shape[1]) < counts[:, None]] = values[valid]
    return table, counts


def encode_frames(kind: int | np.ndarray, epoch: int, client_ids: np.ndarray,
                  indices: np.ndarray, floats: np.ndarray, counts: np.ndarray,
                  num_spaces: int) -> tuple[np.ndarray, np.ndarray]:
    """Serialize n frames of one epoch into one back-to-back buffer.

    ``kind`` is one kind for every frame or an (n,) array of per-frame
    kinds; the kind only labels the header, since ``floats`` and ``counts``
    already hold what each frame carries (an uplink's mean losses first).
    The r-th frame goes to client ``client_ids[r]`` and carries the first
    ``counts[r]`` entries of ``floats[r]`` as little-endian f32, then the J
    indices of ``indices[r]`` packed ceil(log2 K) bits each, most significant
    bit first, zero-padded to a whole byte.  The frames are built as the rows
    of one (n, longest frame) byte table, which a row-length mask compacts.
    Returns the uint8 buffer and the (n,) frame lengths in bytes.
    """
    n, J = indices.shape
    q = bits_per_index(num_spaces)
    if not (indices.min(initial=0) >= 0 and indices.max(initial=0) < num_spaces):
        outside = indices[(indices < 0) | (indices >= num_spaces)]
        raise ProtocolError(f"index {int(outside[0])} out of range [0, {num_spaces})")
    bits = 32 * counts + q * J
    check_header_fields(epoch, int(client_ids.min()), J)
    check_header_fields(epoch, int(client_ids.max()), J, int(bits.max()))
    index_bytes = (q * J + 7) // 8
    lengths = HEADER_BYTES + 4 * counts + index_bytes
    width = HEADER_BYTES + 4 * floats.shape[1] + index_bytes
    header = np.zeros(n, dtype=_HEADER)
    header["epoch"] = epoch
    header["client_id"] = client_ids
    header["payload_bits"] = bits
    header["kind"] = kind
    header["index_count"] = J
    table = np.empty((n, width), dtype=np.uint8)
    table[:, :HEADER_BYTES] = header.view(np.uint8).reshape(n, HEADER_BYTES)
    table[:, HEADER_BYTES:width - index_bytes] = (
        np.ascontiguousarray(floats, dtype="<f4").view(np.uint8))
    index_bits = (indices[:, :, None] >> np.arange(q - 1, -1, -1)) & 1
    columns = (lengths - index_bytes)[:, None] + np.arange(index_bytes)
    table[np.arange(n)[:, None], columns] = np.packbits(index_bits.reshape(n, q * J), axis=1)
    if (lengths == width).all():  # the mask would keep every byte
        return table.reshape(-1), lengths
    return table[np.arange(width) < lengths[:, None]], lengths


def decode_frames(buffer: np.ndarray, lengths: np.ndarray, num_spaces: int,
                  dims: Sequence[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Parse back-to-back frames of one index count: the inverse of :func:`encode_frames`.

    The frames may mix kinds.  ``lengths`` delimits the frames of
    ``buffer``; ``dims`` gives every space's parameter dimension, which
    splits the float block once the indices are known.  Each header's
    ``payload_bits`` must equal the bits its payload carries: 8 per float
    byte plus ceil(log2 K) per index.
    Returns the (n,) headers (a structured array with the header's field
    names), the (n, J) indices, the (n, J) mean losses that open an uplink
    payload (zero for a downlink frame) and the (n, J, d_max) weight or
    gradient vectors in index order, zero past each space's width.  Floats
    come back as float64.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    n = lengths.size
    width = int(lengths.max())
    if int(lengths.min()) < HEADER_BYTES:
        raise ProtocolError(f"frame shorter than header: {int(lengths.min())} bytes")
    if np.size(buffer) != int(lengths.sum()):
        raise ProtocolError(f"the frames span {int(lengths.sum())} bytes but the "
                            f"buffer holds {np.size(buffer)}")
    if (lengths == width).all():
        table = np.reshape(buffer, (n, width))
    else:  # zero past each frame's end
        table = np.zeros((n, width), dtype=np.uint8)
        table[np.arange(width) < lengths[:, None]] = buffer
    header = table[:, :HEADER_BYTES].copy().view(_HEADER)[:, 0]
    J = int(header["index_count"][0])
    if (header["index_count"] != J).any():
        raise ProtocolError("the frames of one batch must carry the same index count")
    q = bits_per_index(num_spaces)
    index_bytes = (q * J + 7) // 8
    float_bytes = lengths - (HEADER_BYTES + index_bytes)
    if (float_bytes < 0).any():
        raise ProtocolError("payload too short for declared index count")
    carried = 8 * float_bytes + q * J
    off = header["payload_bits"] != carried
    if off.any():
        r = int(np.flatnonzero(off)[0])
        raise ProtocolError(
            f"header claims {int(header['payload_bits'][r])} payload bits but the "
            f"payload carries {int(carried[r])}"
        )
    columns = (HEADER_BYTES + float_bytes)[:, None] + np.arange(index_bytes)
    index_bits = np.unpackbits(table[np.arange(n)[:, None], columns], axis=1)
    if index_bits[:, q * J:].any():
        raise ProtocolError("index block has non-zero padding bits")
    indices = index_bits[:, :q * J].reshape(n, J, q) @ (1 << np.arange(q - 1, -1, -1))
    if indices.max(initial=0) >= num_spaces:
        raise ProtocolError(f"decoded index {int(indices[indices >= num_spaces][0])} "
                            f"out of range [0, {num_spaces})")
    ordered = np.sort(indices, axis=1)
    twice = ordered[:, 1:] == ordered[:, :-1]
    if twice.any():
        r, a = np.argwhere(twice)[0]
        raise ProtocolError(f"frame for client {int(header['client_id'][r])} names "
                            f"space {int(ordered[r, a])} twice")
    kinds = header["kind"]
    if kinds.max() > KIND_UPLINK:  # the kinds are 0 and 1
        raise ProtocolError(f"unknown frame kind {int(kinds[kinds > KIND_UPLINK][0])}")
    if (float_bytes % 4).any():
        raise ProtocolError("float block is not a whole number of 4-byte floats")
    counts = float_bytes // 4
    widths = np.asarray(dims, dtype=np.int64)[indices]
    uplink = kinds == KIND_UPLINK
    lead = uplink * J  # the mean losses that open an uplink payload
    want = lead + widths.sum(axis=1)
    off = counts != want
    if off.any():
        r = int(np.flatnonzero(off)[0])
        raise ProtocolError(
            f"{'uplink' if uplink[r] else 'downlink'} float block has "
            f"{int(counts[r])} values, expected {int(want[r])}"
        )
    span = (width - HEADER_BYTES - index_bytes) // 4
    # the bytes past a row's floats are not floats: widen only the floats
    floats = table[:, HEADER_BYTES:HEADER_BYTES + 4 * span].copy().view("<f4")
    columns = np.arange(span)
    vectors = np.zeros((n, J, int(np.max(dims))))
    vectors[np.arange(vectors.shape[2]) < widths[:, :, None]] = floats[
        (columns >= lead[:, None]) & (columns < counts[:, None])]
    losses = np.where(uplink[:, None], floats[:, :J].astype(float), 0.0)
    return header, indices, losses, vectors


# ---------------------------------------------------------------------------
# Server-side aggregation


def _scatter_reports(spaces: np.ndarray, mean_losses: np.ndarray, mean_grads: np.ndarray,
                    inclusion_probs: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Importance-weighted means of flat reports: one scatter-add per quantity.

    Report ``r`` names space ``spaces[r]`` with raw ``mean_losses[r]`` and
    zero-padded ``mean_grads[r]`` (d_max,); reports come in client order,
    and each (space, coordinate) sum runs in that order.  Returns the (K,)
    loss and (K, d_max) gradient estimates, zero for unreported spaces.
    """
    K = inclusion_probs.shape[0]
    width = mean_grads.shape[1]
    share = inclusion_probs[spaces]
    loss_est = np.bincount(spaces, weights=mean_losses / share, minlength=K)
    cells = (spaces * width)[:, None] + np.arange(width)
    grad_est = np.bincount(cells.ravel(), weights=(mean_grads / share[:, None]).ravel(),
                           minlength=K * width).reshape(K, width)
    return loss_est / count, grad_est / count


# ---------------------------------------------------------------------------
# Engine state and one-epoch driver


@dataclass
class ServerState:
    """What a run writes: S servers' distributions and models, and the trace.

    Row ``s`` of ``log_p`` (S, K) is server ``s``'s sampling distribution in
    log space, and ``weights[s, i]`` (S, K, d_max) its parameter vector of
    space ``i``, zero past that space's width.  Client ``j`` of ``M`` belongs
    to server ``j * S // M``: the cooperative learner runs one server for
    every client (S=1) and the noncooperative baseline one per client (S=M).
    The five (horizon, clients) panels hold the trace: the lead space, its
    prediction and loss per round and client, and the bits of every message,
    charged at an epoch's first (downlink) and last (uplink) round.
    """

    log_p: np.ndarray
    weights: np.ndarray
    predictions: np.ndarray
    losses: np.ndarray
    leads: np.ndarray
    uplink_bits: np.ndarray
    downlink_bits: np.ndarray
    epochs_done: int = 0


@dataclass(frozen=True)
class RunSetup:
    """What a run reads: the same for every epoch.

    ``uniforms[j, t - 1]`` holds the uniform variates the server consumes
    when it samples the subset for client ``j`` at round ``t``; with one
    decision per epoch only the first-round slot of each epoch is read, so
    batched and unbatched runs consume identical randomness per decision.
    ``radii``, ``lipschitz`` and ``loss_bounds`` are the spaces' (K,)
    constants, gathered once per run.  ``communicates`` is False for the
    noncooperative baseline: its clients send nothing, so no bits are
    charged and there is no wire to audit.
    """

    spaces: tuple[HypothesisSpace, ...]
    loss: Loss
    subset_size: int
    xs: np.ndarray  # (clients, horizon, input_dim)
    ys: np.ndarray  # (clients, horizon)
    uniforms: np.ndarray  # (clients, horizon, subset_size)
    rounds_per_epoch: int
    radii: np.ndarray
    lipschitz: np.ndarray
    loss_bounds: np.ndarray
    mirror_rate: float  # eta, constant across epochs
    param_rates: np.ndarray  # (epochs, K) step sizes; row e - 1 is epoch e
    audit: "AuditLog | None" = None
    communicates: bool = True

    @property
    def num_spaces(self) -> int:
        return len(self.spaces)

    @cached_property
    def dims(self) -> np.ndarray:
        return np.array([s.dim for s in self.spaces], dtype=np.int64)

    @cached_property
    def max_dim(self) -> int:
        """d_max: the width of every weight row and feature row."""
        return int(self.dims.max())

    @cached_property
    def mirror_geometry(self) -> WeightedEntropyGeometry:
        """The sampling distribution's entropy geometry: loss-bound scales, rate eta."""
        return WeightedEntropyGeometry(self.loss_bounds, self.mirror_rate)

    @cached_property
    def limits(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-space (loss limit, squared gradient-norm limit) for bound checks."""
        tol = 1e-9
        loss_limits = self.loss_bounds * (1.0 + 1e-12) + tol
        g_limits = self.lipschitz * (1.0 + 1e-12) + tol
        return loss_limits, g_limits * g_limits

    @cached_property
    def feature_columns(self) -> np.ndarray | None:
        """Input column per space when every map reads one coordinate, else None.

        Such runs gather all (client, space) feature values with one indexing
        operation instead of a per-space loop; the gathered floats are the
        same bytes either way.
        """
        maps = [s.feature_map for s in self.spaces]
        if all(isinstance(m, CoordinateMap) for m in maps):
            return np.array([m.index for m in maps], dtype=np.int64)
        return None

    @cached_property
    def entry_rows(self) -> np.ndarray:
        """The client of each client-major (client, slot) entry: j repeated J times."""
        return np.repeat(np.arange(self.ys.shape[0]), self.subset_size)

    @cached_property
    def identity_features(self) -> bool:
        """True when every space feeds the raw input through unchanged."""
        return all(isinstance(s.feature_map, IdentityMap) for s in self.spaces)


@dataclass
class AuditLog:
    """Optional per-epoch verification of the wire path.

    When attached to a run, every epoch is also executed through the
    frame/aggregation code path and cross-checked against the vectorized
    engine: frame round-trips must reproduce the header's epoch, client id
    and kind and the indices exactly, and the floats of both directions to
    single precision; the closed-form bit account must equal the frame's
    actual payload bits; and the scatter-add of the clients' reports must
    agree with the engine's aggregation to near machine precision.  An
    epoch's downlink and uplink frames are coded as one batch when they fit
    the memory budget, but its notes keep one order either way: the
    downlinks' checks, then the uplinks', each check over the clients in
    order, then the aggregation's.
    ``frames_checked`` counts 2·M frames per epoch.
    """

    frames_checked: int = 0
    mismatches: list[str] = field(default_factory=list)

    def note(self, message: str) -> None:
        self.mismatches.append(message)


def _audit_epoch(
    audit: AuditLog,
    setup: RunSetup,
    epoch: int,
    indices: np.ndarray,
    to_clients: np.ndarray | slice,
    weights: np.ndarray,
    mean_losses: np.ndarray,
    mean_grads: np.ndarray,
    inclusion: np.ndarray,
    loss_est: np.ndarray,
    stepped: np.ndarray,
    grad_est: np.ndarray,
    down_bits: np.ndarray,
    up_bits: np.ndarray,
) -> None:
    """Replay one epoch of the single server through the serialized message path.

    ``weights`` (K, d_max) are the broadcast models.  ``mean_losses`` and
    ``mean_grads`` hold each client's report per sampled space, in the
    kernel's entry order, which indexing by ``to_clients`` makes client-major
    (entry ``j * J + a`` client j's slot a); ``grad_est[k]`` is the engine's
    estimate for space ``stepped[k]``, and ``loss_est`` its (K,) loss
    estimate.  The epoch's
    2·M frames, frame f the downlink to client f and frame M + f the uplink
    from it, go through :func:`encode_frames` and :func:`decode_frames` as
    one batch when its (2·M, J·(d_max + 1)) float table fits
    ``_BLOCK_FLOATS``, else as the fewest equal batches of one direction each
    that fit it, and each check runs once over each batch, so the replay
    costs a fixed number of numpy calls per batch whatever the client count.
    Every float row has room for an uplink's J mean losses followed by J
    zero-padded vectors; a downlink leaves the loss slots unsent.
    """
    K = setup.num_spaces
    dims = setup.dims
    clients, J = indices.shape
    losses = mean_losses[to_clients].reshape(clients, J)  # each client's report
    grads = mean_grads[to_clients].reshape(clients, J, -1)
    spread = (np.arange(setup.max_dim) < dims[indices][:, :, None]).reshape(clients, -1)
    width = spread.shape[1]  # J * d_max
    frames = 2 * clients
    kinds = np.repeat([KIND_DOWNLINK, KIND_UPLINK], clients)
    client_ids = np.concatenate([np.arange(clients)] * 2)
    engine_bits = np.concatenate([down_bits, up_bits])
    bad = np.empty((4, frames), dtype=bool)  # one row per check, one column per frame
    per_batch = max(1, _BLOCK_FLOATS // (J * (setup.max_dim + 1)))
    if frames <= per_batch:
        bounds = [0, frames]
    else:  # each direction in equal batches of one kind, whose frames the
        # codec can often lay out by a reshape where a mixed batch needs a mask
        per_kind = -(-clients // per_batch)
        cuts = (np.arange(per_kind) * clients // per_kind).tolist()
        bounds = cuts + [clients + c for c in cuts] + [frames]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        ids = client_ids[lo:hi]
        downs = max(0, min(hi, clients) - lo)  # the batch's downlinks come first
        up = slice(max(lo, clients) - clients, max(hi - clients, 0))
        values = np.zeros((hi - lo, J + width))
        values[:downs, J:] = weights[indices[lo:lo + downs]].reshape(-1, width)
        values[downs:, :J] = losses[up]
        values[downs:, J:] = grads[up].reshape(-1, width)
        sent = np.empty(values.shape, dtype=bool)
        sent[:, :J] = (kinds[lo:hi] == KIND_UPLINK)[:, None]
        sent[:, J:] = spread[ids]
        buffer, lengths = encode_frames(kinds[lo:hi], epoch, ids, indices[ids],
                                        *_left_justify(values, sent), K)
        header, got_indices, got_losses, got = decode_frames(buffer, lengths, K, dims)
        got = np.concatenate([got_losses, got.reshape(hi - lo, -1)], axis=1)
        index_bad = (got_indices != indices[ids]).any(axis=1)
        bad[0, lo:hi] = header["payload_bits"] != engine_bits[lo:hi]
        bad[1, lo:hi] = ((header["epoch"] != epoch) | (header["client_id"] != ids)
                         | (header["kind"] != kinds[lo:hi]))
        bad[2, lo:hi] = index_bad
        # floats must come back as their single-precision values
        bad[3, lo:hi] = ((got != values.astype(np.float32)) & sent).any(axis=1) & ~index_bad
    if bad.any():
        texts = [(f"engine {name} bits mismatch", f"{name} header round-trip failed",
                  index_text, f"{name} float round-trip failed")
                 for name, index_text in (("downlink", "downlink index round-trip failed"),
                                          ("uplink", "uplink round-trip failed"))]
        # every downlink note, check by check over the clients, then every uplink note
        for kind, check, j in np.argwhere(
                bad.reshape(4, 2, clients).transpose(1, 0, 2)).tolist():
            audit.note(f"epoch {epoch} client {j}: {texts[kind][check]}")
    audit.frames_checked += frames
    # the server merges the reports as computed, before the wire rounds them
    agg_loss, agg_grad = _scatter_reports(indices.ravel(), losses.ravel(),
                                          grads.reshape(clients * J, -1), inclusion,
                                          clients)
    # np.allclose's test at rtol = atol = 1e-12, without its per-call set-up
    if not (abs(agg_loss - loss_est) <= 1e-12 + 1e-12 * abs(loss_est)).all():
        audit.note(f"epoch {epoch}: aggregated losses disagree with engine")
    reported = np.zeros(K, dtype=bool)
    reported[indices] = True
    close = abs(agg_grad[stepped] - grad_est) <= 1e-12 + 1e-12 * abs(grad_est)
    close |= np.arange(setup.max_dim) >= dims[stepped][:, None]
    agrees = reported[stepped] & close.all(axis=1)
    if not agrees.all():
        for i in stepped[~agrees].tolist():
            audit.note(f"epoch {epoch}: aggregated gradient for space {i} disagrees")


def _check_bounds(
    losses: np.ndarray,
    grad_sq: np.ndarray,
    entry_spaces: np.ndarray,
    entry_limits: tuple[np.ndarray, np.ndarray],
    setup: RunSetup,
    round_index: int,
) -> None:
    """Abort the run if a loss or gradient breaks its declared bound.

    ``losses`` and ``grad_sq`` (squared gradient norms) are (rounds, n)
    blocks of consecutive rounds, the first of them round ``round_index``;
    entry ``f`` of a round evaluated space ``entry_spaces[f]``, whose loss
    limit and squared gradient-norm limit ``entry_limits`` hold per entry.
    The block is tested elementwise in one mask, written as
    ``not (value <= limit)`` so that a NaN fails it.  Losses must also be
    non-negative, which the entropy step requires; a linear loss goes
    negative once a space's radius times feature bound passes 1.

    Only a failing block pays for a diagnosis: its first failing round is
    checked space by space, and the error names that round, the lowest
    failing space, and the first check it fails in the order loss bound,
    non-negativity, gradient bound, with the space's worst value.
    """
    loss_limit, g_limit_sq = entry_limits
    ok = (losses <= loss_limit) & (losses >= 0.0) & (grad_sq <= g_limit_sq)
    if ok.all():
        return
    c = int(np.argmin(ok.all(axis=1)))
    # the failing round's entries sorted into one segment per space
    order = np.argsort(entry_spaces, kind="stable")
    touched, starts = np.unique(entry_spaces[order], return_index=True)
    losses, grad_sq = losses[c, order], grad_sq[c, order]
    loss_limit, g_limit_sq = (limit[touched] for limit in setup.limits)
    spaces = setup.spaces
    round_index += c
    worst = np.maximum.reduceat(losses, starts)
    ok = worst <= loss_limit
    if not ok.all():
        k = int(np.flatnonzero(~ok)[0])
        i = int(touched[k])
        raise RunInvariantError(
            f"round {round_index}: space {i} produced loss {float(worst[k]):.6g} "
            f"outside its declared bound {spaces[i].loss_bound:.6g}; the "
            f"step-size schedule is invalid for this data"
        )
    least = np.minimum.reduceat(losses, starts)
    ok = least >= 0.0
    if not ok.all():
        k = int(np.flatnonzero(~ok)[0])
        raise RunInvariantError(
            f"round {round_index}: space {int(touched[k])} produced loss "
            f"{float(least[k]):.6g} below zero; the entropy step needs "
            f"non-negative losses"
        )
    # compare squared norms; take the square root only to report a failure
    worst = np.maximum.reduceat(grad_sq, starts)
    k = int(np.flatnonzero(~(worst <= g_limit_sq))[0])
    i = int(touched[k])
    raise RunInvariantError(
        f"round {round_index}: space {i} produced gradient norm "
        f"{float(np.sqrt(worst[k])):.6g} outside its declared bound "
        f"{spaces[i].lipschitz_bound:.6g}; the step-size schedule is "
        f"invalid for this data"
    )


def _add_rounds(total: np.ndarray | None, block: np.ndarray) -> np.ndarray:
    """``total`` plus each round of a block (rounds leading), one round at a time.

    The rounds are added in round order, ``((total + r0) + r1) + ...``,
    which is the order a round-by-round loop adds them, so the sums do not
    depend on how an epoch is cut into blocks.  With ``total`` None the sum
    starts from the first round itself: that gives the same values as
    summing from zero (losses are never -0.0) while sparing the one-round
    epochs of nco two array passes each.
    """
    if block.shape[0] == 1:
        return block[0] if total is None else total + block[0]
    parts = block.reshape(block.shape[0], -1)  # one row per round
    if total is not None:
        parts = np.concatenate((total.reshape(1, -1), parts))
    # numpy sums a C-ordered table more than one column wide down its rows one
    # row at a time, in order, but a single column pairwise; accumulate is
    # sequential by definition, and 13x slower than sum on a 10 x 18000 table
    summed = parts.sum(axis=0) if parts.shape[1] > 1 else np.add.accumulate(parts)[-1]
    return summed.reshape(block.shape[1:])


def _sum_by_space(entry_spaces: np.ndarray, values: np.ndarray,
                  num_spaces: int) -> tuple[np.ndarray, np.ndarray]:
    """Sums of each space's ``values``, one float per entry, in entry order.

    Entry ``f`` belongs to space ``entry_spaces[f]``.  Returns the ascending
    ids of the spaces present and their (., 1) sums, each the sum numpy's
    ``sum`` makes over the space's entries as one column: pairwise from
    +0.0, which is the running sum below 8 terms.  So one ``bincount``, a
    running sum from +0.0, gives every sum unless some space has 8 or more
    terms.  Then one ``reduceat`` sums every space over the entries sorted by
    space, each segment led by a +0.0: reduceat adds a segment's first term
    to the pairwise sum of the rest.
    """
    counts = np.bincount(entry_spaces, minlength=num_spaces)
    touched = counts.nonzero()[0]
    if counts.max() < 8:
        sums = np.bincount(entry_spaces, weights=values, minlength=num_spaces)
    else:
        heads = np.arange(num_spaces)  # one +0.0 per space, ahead of its entries
        order = np.concatenate((heads, entry_spaces)).argsort(kind="stable")
        padded = np.concatenate((np.zeros(num_spaces), values))[order]
        sums = np.add.reduceat(padded, heads + (counts.cumsum() - counts))
    return touched, sums[touched, None]


def run_epoch(state: ServerState, setup: RunSetup, epoch: int) -> None:
    """Advance every server by one communication epoch.

    Epoch ``epoch`` (1-based): each server samples a subset of spaces for
    each of its clients and broadcasts those spaces' current models; each
    client predicts with its lead space for every round of the epoch and
    reports epoch-averaged raw losses and gradients; each server applies
    importance weights, averages over its clients, and takes one mirror step
    on its sampling distribution plus one projected-gradient step per space
    its clients sampled.  Writes per-round trace rows into ``state``,
    including, when ``setup.communicates``, the exact bits of every message.

    All per-(client, space) work runs on an epoch's n = M·J entries, a
    (client, sampled space) pair each, in one of two orders.  When every
    space reads one input coordinate, the entries stay in client-major
    order, entry ``j * J + a`` client j's slot a, and one gather per block
    picks every entry's feature; each client's lead is every J-th entry.
    Otherwise the entries are sorted by space
    (:func:`fedoms.sampling.group_subsets`), so that each touched space's
    feature map runs once per block on a contiguous segment, or, when every
    space reads the raw input, one gather picks every entry's input.  The
    floats of an entry do not depend on the order.

    Subsets and models are frozen for the epoch, so its rounds are
    independent until they are summed, and they are evaluated in blocks of
    C rounds: C-ordered (C, n) arrays, round first, so a one-round block is
    one row.  C is the most rounds whose (C·n, max(d_max, input width))
    arrays fit ``_BLOCK_FLOATS``, capped at the epoch's N rounds; the last
    block of an epoch may be shorter.  Each block's bounds are checked
    elementwise in one pass (an error still names the first failing round),
    and each block's losses and gradients are added to the epoch's sums one
    round at a time in round order, the additions a round-by-round loop
    makes, so the floats do not depend on C.

    The floats do not depend on S except through the aggregation.  With S=M
    each (server, space) pair has exactly one report, so nothing is summed.
    With S=1 numpy's ``sum(axis=0)`` adds the importance-weighted losses
    over clients as a dense (M, K) table, and each space's gradients in
    ascending client order: over its contiguous segment in sorted order,
    where ``sum(axis=0)`` adds the rows one at a time when they are more
    than one column wide and pairwise over a single column, or, with
    client-major coordinate entries, in those same orders by
    :func:`_sum_by_space`.  The sampled subsets fix every order, so the
    floats are reproducible.
    """

    if epoch != state.epochs_done + 1:
        raise ProtocolError(
            f"epochs must run in order: got {epoch}, expected {state.epochs_done + 1}"
        )
    M = setup.ys.shape[0]
    S = state.log_p.shape[0]
    if S != 1 and S != M:
        raise ProtocolError(f"{S} servers for {M} clients; expected 1 or {M}")
    N = setup.rounds_per_epoch
    t0 = (epoch - 1) * N  # 0-based index of the epoch's first round
    K = setup.num_spaces
    J = setup.subset_size
    spaces = setup.spaces

    probs = materialize(state.log_p)
    indices = subsets_from_uniforms(probs, J, setup.uniforms[:, t0, :])
    inclusion = inclusion_probabilities(probs, J)

    columns = setup.feature_columns
    identity = setup.identity_features
    if columns is not None:  # client-major entries
        rows = setup.entry_rows
        flat_spaces = indices.reshape(-1)
        to_clients = slice(None)  # the entries already are in client order
        lead = slice(None, None, J)
        flat_columns = columns[flat_spaces]
    else:  # space-sorted entries
        groups = group_subsets(indices)
        touched = groups.touched
        ends = groups.bounds.tolist()  # Python ints slice without a conversion
        rows = groups.rows
        flat_spaces = groups.spaces
        # the sorted position of each client-major entry
        to_clients = np.empty(rows.size, dtype=np.int64)
        to_clients[rows * J + groups.slots] = np.arange(rows.size)
        lead = to_clients[::J]
    n = rows.size
    servers = rows if S == M else 0
    w_flat = state.weights[servers, flat_spaces]
    entry_limits = (setup.limits[0][flat_spaces], setup.limits[1][flat_spaces])

    if N == 1:
        C = 1
    else:
        C = min(N, max(1, _BLOCK_FLOATS // (n * max(setup.max_dim, setup.xs.shape[2]))))
    if columns is None and not identity:
        widths = setup.dims[touched]
        phi = np.zeros((C * n, setup.max_dim))  # zero past each space's width
    loss_sum = grad_sum = None
    for a in range(t0, t0 + N, C):
        b = min(a + C, t0 + N)
        # a (rounds, 1) column of round indices gathers C-ordered (rounds, n)
        # blocks, which _add_rounds sums down their rows in round order
        t = np.arange(a, b)[:, None]
        yt = setup.ys[rows, t]
        # the fused gathers pick the same floats the per-space maps would
        if columns is not None:
            phi_b = setup.xs[rows, t, flat_columns][..., None]
        elif identity:
            phi_b = setup.xs[rows, t]
        else:
            # one call per space and block; a block's input is stacked by
            # round, so each round's matmul is the one a one-round block makes
            xt = setup.xs[rows, t]
            if b - a == 1:
                xt = xt[0]
            phi_b = phi[:(b - a) * n]
            panel = phi_b.reshape(*xt.shape[:-1], -1)
            for k in range(touched.size):
                seg = slice(ends[k], ends[k + 1])
                panel[..., seg, :widths[k]] = spaces[touched[k]].feature_map(xt[..., seg, :])
            phi_b = phi_b.reshape(b - a, n, -1)
        values = (phi_b * w_flat).sum(axis=2)
        closs = loss_value(setup.loss, values, yt)
        dvals = loss_derivative(setup.loss, values, yt)
        gsq = (dvals * dvals) * (phi_b * phi_b).sum(axis=2)
        _check_bounds(closs, gsq, flat_spaces, entry_limits, setup, a + 1)
        loss_sum = _add_rounds(loss_sum, closs)
        grad_sum = _add_rounds(grad_sum, dvals[..., None] * phi_b)
        state.predictions[a:b] = values[:, lead]
        state.losses[a:b] = closs[:, lead]

    # Server aggregation: mean over the epoch, importance weight, mean over
    # the server's clients.  Spaces outside every subset estimate to zero.
    # A one-round epoch is not divided by N=1: the same values, a pass fewer.
    mean_losses = loss_sum / N if N > 1 else loss_sum
    mean_grads = grad_sum / N if N > 1 else grad_sum
    inc = inclusion[servers, flat_spaces]
    reports = np.zeros((M, K))
    reports[rows, flat_spaces] = mean_losses / inc
    if S == M:
        loss_est = reports
        grad_est = mean_grads / inc[:, None]
        stepped = flat_spaces
        w_old = w_flat
    else:
        loss_est = reports.sum(axis=0, keepdims=True)
        loss_est /= M
        if columns is not None:
            touched, grad_est = _sum_by_space(flat_spaces, mean_grads[:, 0] / inc, K)
        else:
            # one scalar division per segment: dividing the whole (n, d_max)
            # block by an (n, 1) column runs one inner loop per row, which
            # costs more than the division itself when the rows are wide
            grad_est = np.empty((touched.size, mean_grads.shape[1]))
            for k, share in enumerate(inclusion[0, touched].tolist()):
                grad_est[k] = (mean_grads[ends[k]:ends[k + 1]] / share).sum(axis=0)
        grad_est /= M
        stepped = touched
        w_old = state.weights[0, touched]

    if setup.communicates:
        down_bits = 32 * setup.dims[indices].sum(axis=1) + J * bits_per_index(K)
        up_bits = down_bits + 32 * J
        if setup.audit is not None:
            _audit_epoch(
                setup.audit, setup, epoch, indices, to_clients, state.weights[0],
                mean_losses, mean_grads, inclusion[0], loss_est[0], stepped,
                grad_est, down_bits, up_bits,
            )
        state.downlink_bits[t0] = down_bits
        state.uplink_bits[t0 + N - 1] = up_bits

    rates = setup.param_rates[epoch - 1]
    state.weights[servers, stepped] = project_rows_per_row(
        w_old - rates[stepped][:, None] * grad_est, setup.radii[stepped]
    )
    state.log_p = entropy_step_log_batch(state.log_p, loss_est, setup.mirror_geometry)
    state.leads[t0:t0 + N] = indices[:, 0][None, :]
    state.epochs_done = epoch
