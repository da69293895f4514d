"""Communication layer for federated online model selection.

This module owns everything that crosses the client/server boundary:

* :class:`DownlinkMessage` / :class:`UplinkMessage` — the logical payloads
  exchanged once per epoch, plus :class:`Frame` with a byte-exact wire
  encoding (header + IEEE-754 single floats + bit-packed indices).
* :func:`account_bits` — closed-form information-bit cost of each message.
* :func:`aggregate_reports` — the server-side merge of client reports into
  importance-weighted loss/gradient estimates.
* :func:`run_epoch` — the round kernel: one communication epoch of S
  servers, vectorized across clients.  It reads a :class:`RunSetup` (the
  spaces, the client streams, the pre-drawn sampling uniforms and the step
  sizes) and writes a :class:`ServerState` (the distributions, the models
  and the round-by-round trace).  The cooperative learner runs it with one
  server for all clients, the noncooperative baseline with one server per
  client and no messages.

The engine keeps each server's sampling distribution in log space (see
:mod:`fedoms.mirror` for why) and its models as one zero-padded (K, d_max)
block, so spaces of mixed widths share every code path.
"""

from __future__ import annotations

import struct
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
    SubsetGroups,
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
    "DownlinkMessage",
    "UplinkMessage",
    "Frame",
    "check_header_fields",
    "KIND_DOWNLINK",
    "KIND_UPLINK",
    "bits_per_index",
    "account_bits",
    "encode_downlink",
    "encode_uplink",
    "decode_frame",
    "aggregate_reports",
    "ServerState",
    "RunSetup",
    "AuditLog",
    "run_epoch",
]


class ProtocolError(ValueError):
    """Raised for malformed messages or frames, or epochs run out of order."""


class RunInvariantError(RuntimeError):
    """Raised when an observed loss or gradient exceeds its declared bound.

    The declared per-space loss bound and Lipschitz bound feed the step-size
    schedules, so a violation silently invalidates every guarantee of the
    run; we abort instead of continuing with a broken configuration.
    """


# ---------------------------------------------------------------------------
# Messages and wire format


@dataclass(frozen=True)
class DownlinkMessage:
    """Server -> client broadcast at the start of an epoch.

    Carries the sampled space indices (lead first) and the current parameter
    vector of each sampled space, in index order.
    """

    epoch: int
    client_id: int
    indices: tuple[int, ...]
    weights: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if len(self.indices) != len(self.weights):
            raise ProtocolError(
                f"{len(self.indices)} indices but {len(self.weights)} weight vectors"
            )


@dataclass(frozen=True)
class UplinkMessage:
    """Client -> server report at the end of an epoch.

    ``mean_losses[a]`` / ``mean_gradients[a]`` are the within-epoch averages
    of the raw losses and gradients of sampled space ``indices[a]``.  Raw
    means: importance weighting is the server's job, so a client never needs
    to know the sampling distribution.
    """

    epoch: int
    client_id: int
    indices: tuple[int, ...]
    mean_losses: np.ndarray
    mean_gradients: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if len(self.indices) != len(self.mean_gradients):
            raise ProtocolError(
                f"{len(self.indices)} indices but {len(self.mean_gradients)} gradients"
            )
        if np.asarray(self.mean_losses).shape != (len(self.indices),):
            raise ProtocolError(
                f"mean_losses shape {np.asarray(self.mean_losses).shape} != "
                f"({len(self.indices)},)"
            )


KIND_DOWNLINK = 0
KIND_UPLINK = 1

# epoch u32 | client u32 | payload bits u32 | kind u8 | index count u8 | pad u16
_HEADER = struct.Struct("<IIIBBH")
HEADER_BYTES = _HEADER.size  # 16


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


@dataclass(frozen=True)
class Frame:
    """One wire frame: fixed 16-byte header plus payload bytes.

    ``payload_bits`` is the number of information bits in the payload, which
    can be smaller than ``8 * len(payload)`` because the trailing bit-packed
    index block is zero-padded up to a byte boundary.
    """

    epoch: int
    client_id: int
    payload_bits: int
    kind: int
    index_count: int
    payload: bytes

    def to_bytes(self) -> bytes:
        header = _HEADER.pack(
            self.epoch, self.client_id, self.payload_bits, self.kind, self.index_count, 0
        )
        return header + self.payload

    @staticmethod
    def from_bytes(blob: bytes) -> "Frame":
        if len(blob) < HEADER_BYTES:
            raise ProtocolError(f"frame shorter than header: {len(blob)} bytes")
        epoch, client_id, payload_bits, kind, count, _pad = _HEADER.unpack_from(blob)
        payload = blob[HEADER_BYTES:]
        if payload_bits > 8 * len(payload):
            raise ProtocolError(
                f"header claims {payload_bits} payload bits but only "
                f"{8 * len(payload)} are present"
            )
        return Frame(epoch, client_id, payload_bits, kind, count, payload)


def bits_per_index(num_spaces: int) -> int:
    """Bits needed to address one of ``num_spaces`` spaces: ceil(log2 K)."""
    if num_spaces < 1:
        raise ProtocolError(f"num_spaces must be >= 1, got {num_spaces}")
    return (num_spaces - 1).bit_length()


def account_bits(message: DownlinkMessage | UplinkMessage, num_spaces: int) -> int:
    """Information bits of a message under the standard encoding.

    Each parameter coordinate and each scalar loss costs 32 bits (IEEE-754
    single precision); each space index costs ceil(log2 K) bits.  Downlink
    carries weights + indices; uplink carries mean gradients (same coordinate
    count as the weights), mean losses (one float per index), and indices.
    """

    q = bits_per_index(num_spaces)
    if isinstance(message, DownlinkMessage):
        coords = sum(int(w.shape[0]) for w in message.weights)
        return 32 * coords + len(message.indices) * q
    if isinstance(message, UplinkMessage):
        coords = sum(int(g.shape[0]) for g in message.mean_gradients)
        return 32 * (coords + len(message.indices)) + len(message.indices) * q
    raise TypeError(f"unsupported message {message!r}")


def _pack_indices(indices: Sequence[int], num_spaces: int) -> tuple[bytes, int]:
    """Bit-pack indices most-significant-first, zero-padded to a whole byte."""
    q = bits_per_index(num_spaces)
    acc = 0
    for i in indices:
        if not 0 <= int(i) < num_spaces:
            raise ProtocolError(f"index {i} out of range [0, {num_spaces})")
        acc = (acc << q) | int(i)
    nbits = q * len(indices)
    pad = (-nbits) % 8
    acc <<= pad
    return acc.to_bytes((nbits + pad) // 8, "big"), nbits


def _unpack_indices(blob: bytes, count: int, num_spaces: int) -> tuple[int, ...]:
    q = bits_per_index(num_spaces)
    nbits = q * count
    if len(blob) != (nbits + 7) // 8:
        raise ProtocolError(
            f"index block is {len(blob)} bytes, expected {(nbits + 7) // 8}"
        )
    acc = int.from_bytes(blob, "big")
    pad = 8 * len(blob) - nbits
    if acc & ((1 << pad) - 1):
        raise ProtocolError("index block has non-zero padding bits")
    acc >>= pad
    out = []
    for _ in range(count):
        acc, low = divmod(acc, 1 << q) if q else (acc, 0)
        out.append(low)
    out.reverse()
    for i in out:
        if i >= num_spaces:
            raise ProtocolError(f"decoded index {i} out of range [0, {num_spaces})")
    return tuple(out)


def _float_block(vectors: Sequence[np.ndarray]) -> bytes:
    return b"".join(np.asarray(v, dtype="<f4").tobytes() for v in vectors)


def _frame(message: DownlinkMessage | UplinkMessage, kind: int, num_spaces: int,
           floats: bytes) -> Frame:
    # a decoded frame's fields come from fixed-width header fields, so only
    # the encoders need the header check
    packed, _ = _pack_indices(message.indices, num_spaces)
    bits = account_bits(message, num_spaces)
    check_header_fields(message.epoch, message.client_id, len(message.indices), bits)
    return Frame(
        epoch=message.epoch,
        client_id=message.client_id,
        payload_bits=bits,
        kind=kind,
        index_count=len(message.indices),
        payload=floats + packed,
    )


def encode_downlink(message: DownlinkMessage, num_spaces: int) -> Frame:
    """Serialize a broadcast: f32 weights in index order, then packed indices."""
    return _frame(message, KIND_DOWNLINK, num_spaces, _float_block(message.weights))


def encode_uplink(message: UplinkMessage, num_spaces: int) -> Frame:
    """Serialize a report: f32 mean losses, f32 mean gradients, packed indices."""
    floats = _float_block([np.asarray(message.mean_losses)]) + _float_block(
        message.mean_gradients
    )
    return _frame(message, KIND_UPLINK, num_spaces, floats)


def decode_frame(
    frame: Frame, num_spaces: int, dims: Sequence[int]
) -> DownlinkMessage | UplinkMessage:
    """Parse a frame back into a message (floats come back as float64).

    ``dims`` gives the parameter dimension of every space, so the decoder can
    slice the float block once the trailing indices are known.  The header's
    ``payload_bits`` must equal the bits the payload carries: 8 per float
    byte plus ceil(log2 K) per index.
    """

    q = bits_per_index(num_spaces)
    nidx_bytes = (q * frame.index_count + 7) // 8
    if nidx_bytes > len(frame.payload):
        raise ProtocolError("payload too short for declared index count")
    split = len(frame.payload) - nidx_bytes
    carried = 8 * split + q * frame.index_count
    if frame.payload_bits != carried:
        raise ProtocolError(
            f"header claims {frame.payload_bits} payload bits but the payload "
            f"carries {carried}"
        )
    indices = _unpack_indices(frame.payload[split:], frame.index_count, num_spaces)
    floats = np.frombuffer(frame.payload[:split], dtype="<f4").astype(float)
    want = sum(int(dims[i]) for i in indices)
    if frame.kind == KIND_DOWNLINK:
        if floats.shape[0] != want:
            raise ProtocolError(
                f"downlink float block has {floats.shape[0]} values, expected {want}"
            )
        weights, pos = [], 0
        for i in indices:
            weights.append(floats[pos : pos + dims[i]])
            pos += dims[i]
        return DownlinkMessage(frame.epoch, frame.client_id, indices, tuple(weights))
    if frame.kind == KIND_UPLINK:
        count = frame.index_count
        if floats.shape[0] != want + count:
            raise ProtocolError(
                f"uplink float block has {floats.shape[0]} values, expected {want + count}"
            )
        mean_losses = floats[:count]
        grads, pos = [], count
        for i in indices:
            grads.append(floats[pos : pos + dims[i]])
            pos += dims[i]
        return UplinkMessage(
            frame.epoch, frame.client_id, indices, mean_losses, tuple(grads)
        )
    raise ProtocolError(f"unknown frame kind {frame.kind}")


# ---------------------------------------------------------------------------
# Server-side aggregation


def aggregate_reports(
    reports: Sequence[UplinkMessage],
    inclusion_probs: np.ndarray,
    num_spaces: int,
    dims: Sequence[int],
) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """Merge one epoch of client reports into unbiased global estimates.

    Each reported mean loss/gradient is divided by the inclusion probability
    of its space (importance weighting for the sampled-subset censoring) and
    the weighted reports are averaged over all clients.  Spaces sampled by no
    client get estimate zero, which is exactly what the importance weighting
    prescribes.  Returns the (K,) loss estimate and a {space: (d_i,)} map of
    gradient estimates for the spaces that appear in at least one report.
    """

    if not reports:
        raise ProtocolError("no reports to aggregate")
    epoch = reports[0].epoch
    seen: set[int] = set()
    for msg in reports:
        if msg.epoch != epoch:
            raise ProtocolError(
                f"mixed epochs in aggregation: {msg.epoch} != {epoch}"
            )
        if msg.client_id in seen:
            raise ProtocolError(f"duplicate report from client {msg.client_id}")
        seen.add(msg.client_id)
    inclusion_probs = np.asarray(inclusion_probs, dtype=float)
    if inclusion_probs.shape != (num_spaces,):
        raise ProtocolError(
            f"inclusion_probs shape {inclusion_probs.shape} != ({num_spaces},)"
        )
    count = len(reports)
    loss_est = np.zeros(num_spaces)
    grad_est: dict[int, np.ndarray] = {}
    for msg in sorted(reports, key=lambda m: m.client_id):
        for slot, i in enumerate(msg.indices):
            if not 0 <= i < num_spaces:
                raise ProtocolError(f"report refers to unknown space {i}")
            grad = np.asarray(msg.mean_gradients[slot], dtype=float)
            if grad.shape != (int(dims[i]),):
                raise ProtocolError(
                    f"gradient for space {i} has shape {grad.shape}, "
                    f"expected ({dims[i]},)"
                )
            loss_est[i] += float(msg.mean_losses[slot]) / inclusion_probs[i]
            if i not in grad_est:
                grad_est[i] = np.zeros(int(dims[i]))
            grad_est[i] += grad / inclusion_probs[i]
    loss_est /= count
    for i in grad_est:
        grad_est[i] /= count
    return loss_est, grad_est


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
    def identity_features(self) -> bool:
        """True when every space feeds the raw input through unchanged."""
        return all(isinstance(s.feature_map, IdentityMap) for s in self.spaces)


@dataclass
class AuditLog:
    """Optional per-epoch verification of the wire path.

    When attached to a run, every epoch is also executed through the
    message/frame/aggregation code path and cross-checked against the
    vectorized engine: frame round-trips must reproduce indices exactly and
    floats to single precision, the closed-form bit account must equal the
    frame's actual payload bits, and :func:`aggregate_reports` must agree
    with the engine's aggregation to near machine precision.
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
    groups: SubsetGroups,
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
    ``mean_grads`` hold each client's report per sampled space, in the flat
    order of ``groups``; ``grad_est[k]`` is the engine's estimate for space
    ``stepped[k]``, and ``loss_est`` its (K,) loss estimate.
    """
    K = setup.num_spaces
    dims = setup.dims
    clients, J = indices.shape
    flat_of = np.empty((clients, J), dtype=np.int64)
    flat_of[groups.rows, groups.slots] = np.arange(groups.rows.size)
    reports = []
    for j in range(clients):
        idx = tuple(int(i) for i in indices[j])
        down = DownlinkMessage(
            epoch, j, idx, tuple(weights[i, :dims[i]] for i in idx)
        )
        frame = encode_downlink(down, K)
        if frame.payload_bits != int(down_bits[j]):
            audit.note(f"epoch {epoch} client {j}: engine downlink bits mismatch")
        back = decode_frame(Frame.from_bytes(frame.to_bytes()), K, dims)
        if not isinstance(back, DownlinkMessage) or back.indices != idx:
            audit.note(f"epoch {epoch} client {j}: downlink index round-trip failed")
        else:
            for slot, i in enumerate(idx):
                want = np.asarray(down.weights[slot], dtype="<f4").astype(float)
                if not np.array_equal(back.weights[slot], want):
                    audit.note(
                        f"epoch {epoch} client {j}: downlink float round-trip failed"
                    )
                    break
        # Build the client's report from the engine's per-entry means.
        flat = flat_of[j]
        grads = tuple(mean_grads[f, :dims[i]] for f, i in zip(flat, idx))
        up = UplinkMessage(epoch, j, idx, mean_losses[flat], grads)
        uframe = encode_uplink(up, K)
        if uframe.payload_bits != int(up_bits[j]):
            audit.note(f"epoch {epoch} client {j}: engine uplink bits mismatch")
        uback = decode_frame(Frame.from_bytes(uframe.to_bytes()), K, dims)
        if not isinstance(uback, UplinkMessage) or uback.indices != idx:
            audit.note(f"epoch {epoch} client {j}: uplink round-trip failed")
        reports.append(up)
        audit.frames_checked += 2
    agg_loss, agg_grad = aggregate_reports(reports, inclusion, K, dims)
    if not np.allclose(agg_loss, loss_est, rtol=1e-12, atol=1e-12):
        audit.note(f"epoch {epoch}: aggregated losses disagree with engine")
    for k, i in enumerate(stepped.tolist()):
        g = grad_est[k, :dims[i]]
        if i not in agg_grad or not np.allclose(agg_grad[i], g, rtol=1e-12, atol=1e-12):
            audit.note(f"epoch {epoch}: aggregated gradient for space {i} disagrees")


def _check_bounds(
    losses: np.ndarray,
    grad_sq: np.ndarray,
    starts: np.ndarray,
    touched: np.ndarray,
    loss_limit: np.ndarray,
    g_limit_sq: np.ndarray,
    spaces: Sequence[HypothesisSpace],
    round_index: int,
) -> None:
    """Abort the run if a loss or gradient breaks its declared bound.

    ``losses`` and ``grad_sq`` (squared gradient norms) are flat arrays
    sorted into one segment per space of ``touched``, starting at
    ``starts``; the limits are aligned with ``touched``.  The tests are
    written as ``not (worst <= limit)`` so that a NaN fails them.  Losses
    must also be non-negative, which the entropy step requires; a linear
    loss goes negative once a space's radius times feature bound passes 1.
    """
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
    if not (losses >= 0.0).all():
        least = np.minimum.reduceat(losses, starts)
        k = int(np.flatnonzero(~(least >= 0.0))[0])
        raise RunInvariantError(
            f"round {round_index}: space {int(touched[k])} produced loss "
            f"{float(least[k]):.6g} below zero; the entropy step needs "
            f"non-negative losses"
        )
    # compare squared norms; take the square root only to report a failure
    worst = np.maximum.reduceat(grad_sq, starts)
    ok = worst <= g_limit_sq
    if not ok.all():
        k = int(np.flatnonzero(~ok)[0])
        i = int(touched[k])
        raise RunInvariantError(
            f"round {round_index}: space {i} produced gradient norm "
            f"{float(np.sqrt(worst[k])):.6g} outside its declared bound "
            f"{spaces[i].lipschitz_bound:.6g}; the step-size schedule is "
            f"invalid for this data"
        )


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

    All per-(client, space) work runs on flat arrays sorted by space.  Its
    floats do not depend on S except through the aggregation.  With S=M each
    (server, space) pair has exactly one report, so nothing is summed.  With
    S=1 numpy's ``sum(axis=0)`` adds the importance-weighted reports over
    clients: the losses as a dense (M, K) table, the gradients over each
    space's contiguous (n, d_max) segment.  Over a block more than one column
    wide it adds the rows one at a time in ascending client order; over a
    single column (K = 1, or d_max = 1) it sums pairwise, in an order fixed
    by n alone.  Either way the sampled subsets fix the order, so the floats
    are reproducible.
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

    groups = group_subsets(indices)
    touched = groups.touched
    starts = groups.bounds[:-1]
    ends = groups.bounds.tolist()  # Python ints slice without a conversion
    rows = groups.rows
    flat_spaces = groups.spaces
    lead_mask = groups.slots == 0
    lead_rows = rows[lead_mask]
    servers = rows if S == M else 0
    w_flat = state.weights[servers, flat_spaces]
    loss_limit = setup.limits[0][touched]
    g_limit_sq = setup.limits[1][touched]

    columns = setup.feature_columns
    identity = setup.identity_features
    if columns is not None:
        flat_columns = columns[flat_spaces]
    elif not identity:
        widths = setup.dims[touched]
        phi = np.zeros((rows.size, setup.max_dim))  # zero past each space's width
    for t in range(t0, t0 + N):
        # the fused gathers pick the same floats the per-space maps would
        if columns is not None:
            yt = setup.ys[rows, t]
            phi = setup.xs[rows, t, flat_columns][:, None]
        elif identity:
            yt = setup.ys[rows, t]
            phi = setup.xs[rows, t, :]
        else:
            xt = setup.xs[:, t, :][rows]
            yt = setup.ys[:, t][rows]
            for k in range(touched.size):
                seg = slice(ends[k], ends[k + 1])
                phi[seg, :widths[k]] = spaces[touched[k]].feature_map(xt[seg])
        values = (phi * w_flat).sum(axis=1)
        closs = loss_value(setup.loss, values, yt)
        dvals = loss_derivative(setup.loss, values, yt)
        gsq = (dvals * dvals) * (phi * phi).sum(axis=1)
        _check_bounds(closs, gsq, starts, touched, loss_limit, g_limit_sq,
                      spaces, t + 1)
        # seeding the sums with the first round, and not dividing a one-round
        # epoch by N=1, gives the same values as summing from zero (losses
        # are never -0.0) while sparing the nco rounds two array passes each
        if t == t0:
            loss_sum, grad_sum = closs, dvals[:, None] * phi
        else:
            loss_sum = loss_sum + closs
            grad_sum = grad_sum + dvals[:, None] * phi
        state.predictions[t, lead_rows] = values[lead_mask]
        state.losses[t, lead_rows] = closs[lead_mask]

    # Server aggregation: mean over the epoch, importance weight, mean over
    # the server's clients.  Spaces outside every subset estimate to zero.
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
        # one scalar division per segment: dividing the whole (n, d_max)
        # block by an (n, 1) column runs one inner loop per row, which costs
        # more than the division itself when the rows are wide
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
                setup.audit, setup, epoch, indices, groups, state.weights[0],
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
