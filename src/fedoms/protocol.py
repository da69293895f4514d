"""Communication layer for federated online model selection.

This module owns everything that crosses the client/server boundary:

* the wire format: :func:`encode_frames` / :func:`decode_frames` code a
  whole batch of frames, each a 16-byte header, IEEE-754 single floats and
  bit-packed indices, with a fixed number of numpy calls.  A frame's header
  states its information bits: 32 per float plus ceil(log2 K) per index.
* :func:`_scatter_reports` — the audit's own merge of client reports into
  importance-weighted loss/gradient estimates, one scatter-add per quantity.
  The engine merges with its own code, so the audit's check of the merge is
  not a function compared with itself.
* the wire audit: with ``setup.audit`` set, each epoch stages its frames'
  floats and the engine's estimates as it runs, and the replay reads the
  subsets and bits from the run's own records, ``ServerState.subsets`` and
  ``RunSetup.message_bits``.  The staged epochs are replayed together once
  one more epoch would outgrow the memory budget below, and after the run's
  last epoch: their downlinks, then their uplinks, each direction in the
  fewest equal batches that fit the budget.  So a run of small epochs pays
  the codec's fixed cost a few times, not once per epoch.  Every check
  (bits against the closed form, header epoch, client id and kind, indices,
  floats to single precision in both directions, and the merge against the
  engine's, bit for bit) runs once over each batch.
* :func:`run_epoch` — the round kernel: the next communication epoch of S
  servers, vectorized across clients and, in blocks, across the epoch's
  rounds.  It reads a :class:`RunSetup` (the spaces, the client streams,
  the sampling uniforms, the step sizes, the client→server layout and the
  work every epoch shares) and writes a :class:`ServerState` (the
  distributions, the models, the trace).  The layout maps each client slot
  to a server and a data row, and each server to its run's schedule: the
  cooperative learner is one server for all its clients, the noncooperative
  baseline one silent server per client, and a stack of runs (one kernel
  loop for many runs of the same spaces and shape) is the union of theirs.

The engine keeps each server's sampling distribution in log space (see
:mod:`fedoms.mirror` for why) and its models as one zero-padded (K, d_max)
block, so spaces of mixed widths share every code path.  An epoch's
(client, sampled space) entries are always in client-major order, the order
of the frames, so the audit reads the kernel's reports as they are.  When
every space reads one input coordinate an epoch makes the same numpy calls
however many spaces it touches; other feature maps run once per touched
space, run and round, on that run's entries of the space.  Every
server-side sum over clients is a running sum from +0.0 in ascending client
order, the order of the audit's merge and of the plain-loop reference, so a
stacked run computes the same bits as the run alone.  One memory budget,
``_BLOCK_FLOATS``, bounds both the rounds the fused coordinate gather of
:func:`run_epoch` evaluates at once and the frames the audit codes at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .mirror import entropy_step_log_batch, materialize, project_rows_per_row
from .sampling import complement_positions, inclusion_probabilities, subsets_from_uniforms
from .spaces import (
    CoordinateMap,
    HypothesisSpace,
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
    """Raised for malformed frames, or values a frame header cannot hold."""


class RunInvariantError(RuntimeError):
    """Raised when an observed loss or gradient exceeds its declared bound.

    The declared per-space loss bound and Lipschitz bound feed the step-size
    schedules, so a violation silently invalidates every guarantee of the
    run; we abort instead of continuing with a broken configuration.
    """


# Floats one array of a coordinate round block or of an audit batch may
# hold: 512 KiB of float64, so that the few arrays a block keeps live stay in
# a 2 MiB L2 cache.  Feature-map epochs run one round per block: mixed-audit's
# rounds (300 x 60 floats each) ran no faster in blocks of 3, this budget,
# than one at a time, and 1.3x slower in blocks of 7 or 10.  A hidden-arm
# epoch (20 x 16 per round) runs as one block, and an audited hidden-arm
# run's 8,000 frames of 4 floats (400 epochs of 20) are replayed as one
# batch per direction of 4,000; each rff-table epoch's 1000 frames a
# direction go in 4 batches of 250; mixed-audit's epochs of 100 frames a
# direction are one batch each.
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


def encode_frames(kind: int, epoch: int | np.ndarray, client_ids: np.ndarray,
                  indices: np.ndarray, floats: np.ndarray, counts: np.ndarray,
                  num_spaces: int) -> tuple[np.ndarray, np.ndarray]:
    """Serialize n frames of one kind into one back-to-back buffer.

    ``kind`` labels every frame's header, since ``floats`` and ``counts``
    already hold what each frame carries (an uplink's mean losses first);
    ``epoch`` is one value for every frame or an (n,) array of per-frame
    values.
    The r-th frame goes to client ``client_ids[r]`` and carries the first
    ``counts[r]`` entries of ``floats[r]`` as little-endian f32, then the J
    indices of ``indices[r]`` packed ceil(log2 K) bits each, most significant
    bit first, zero-padded to a whole byte.  The frames are built as the rows
    of one (n, longest frame) byte table, which a row-length mask compacts.
    Returns the uint8 buffer and the (n,) frame lengths in bytes.
    """
    n, J = indices.shape
    if n == 0:
        raise ProtocolError("cannot encode an empty batch: it has no frames")
    q = bits_per_index(num_spaces)
    if not (indices.min(initial=0) >= 0 and indices.max(initial=0) < num_spaces):
        outside = indices[(indices < 0) | (indices >= num_spaces)]
        raise ProtocolError(f"index {int(outside[0])} out of range [0, {num_spaces})")
    bits = 32 * counts + q * J
    check_header_fields(int(np.min(epoch)), int(client_ids.min()), J)
    check_header_fields(int(np.max(epoch)), int(client_ids.max()), J, int(bits.max()))
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
    if n == 0:
        raise ProtocolError("cannot decode an empty batch: it has no frames")
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
    and each (space, coordinate) sum is a running sum from +0.0 in that
    order, the order of :func:`run_epoch`'s own merge.  Returns the (K,)
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
    space ``i``, zero past that space's width; the kernel writes it through
    an (S·K, d_max) view, one row per (server, space) cell, so it must be
    C-contiguous.  Client slot ``j`` belongs to server
    ``RunSetup.slot_servers[j]``.  The two (horizon, slots) panels
    hold each round's lead prediction and loss, and ``subsets`` the
    (slots, J) table of sampled spaces each epoch wrote, its lead space
    first: the run's one record of what was sampled.  The learner derives
    the trace's lead and bit columns from it after the run, and the audit
    reads each staged epoch's subsets from it.  ``epochs_done`` counts the
    epochs run so far, so the next call of :func:`run_epoch` runs epoch
    ``epochs_done + 1``.
    """

    log_p: np.ndarray
    weights: np.ndarray
    predictions: np.ndarray
    losses: np.ndarray
    subsets: np.ndarray  # (epochs, slots, J)
    epochs_done: int = 0


@dataclass(frozen=True)
class RunSetup:
    """What a run, or a stack of runs, reads: the same for every epoch.

    The layout: client slot ``j`` reads data row ``slot_rows[j]`` of ``xs``
    and ``ys`` and belongs to server ``slot_servers[j]`` (non-decreasing,
    and a server's slots ascend as its clients do); server ``s`` steps with
    the schedule of run ``r = server_runs[s]``, the step sizes
    ``param_rates[:, r]`` and its own row of ``mirror_rates`` (that run's
    rate eta over each space's loss bound, constant across epochs).  A
    (server, space) pair is a cell, numbered ``server * K + space``; the
    feature maps see one run's entries at a time.  ``uniforms[j, t - 1]``
    holds the uniform variates the server consumes when it samples the
    subset for slot ``j`` at round ``t``; with one decision per epoch only
    the first-round slot of each epoch is read, so batched and unbatched
    runs consume identical randomness per decision.  ``lipschitz`` and
    ``loss_bounds`` are the spaces' (K,) constants, gathered once; the
    cached properties, set on the first epoch, hold the rest of the work
    that is the same for every epoch.
    """

    spaces: tuple[HypothesisSpace, ...]
    loss: Loss
    subset_size: int
    xs: np.ndarray  # (data rows, horizon, input_dim)
    ys: np.ndarray  # (data rows, horizon)
    uniforms: np.ndarray  # (slots, horizon, subset_size)
    rounds_per_epoch: int
    cell_radii: np.ndarray  # (S·K,) radius of each (server, space) cell's space
    lipschitz: np.ndarray
    loss_bounds: np.ndarray
    slot_rows: np.ndarray  # (slots,)
    slot_servers: np.ndarray  # (slots,)
    server_runs: np.ndarray  # (servers,)
    mirror_rates: np.ndarray  # (S, K) or (S, 1): mirror.entropy_rates of each server's eta
    param_rates: np.ndarray  # (epochs, runs, K) step sizes; row e - 1 is epoch e
    audit: "AuditLog | None" = None

    @cached_property
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
    def limits(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-space (loss limit, squared gradient-norm limit) for bound checks."""
        tol = 1e-9
        loss_limits = self.loss_bounds * (1.0 + 1e-12) + tol
        g_limits = self.lipschitz * (1.0 + 1e-12) + tol
        return loss_limits, g_limits * g_limits

    @cached_property
    def subset_positions(self) -> np.ndarray:
        """(slots, epochs, J-1) complement positions of each epoch's first-round draws."""
        return complement_positions(self.uniforms[:, ::self.rounds_per_epoch], self.num_spaces)

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
    def entry_layout(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each client-major (client slot, sampled space) entry's data row, and
        its server and its run times K: adding the entry's space to those
        gives its cell and its (run, space) map group."""
        servers = np.repeat(self.slot_servers, self.subset_size)
        return (np.repeat(self.slot_rows, self.subset_size), servers * self.num_spaces,
                self.server_runs[servers] * self.num_spaces)

    @cached_property
    def entry_targets(self) -> np.ndarray:
        """(horizon, n) targets of the client-major entries, one row per round."""
        return np.ascontiguousarray(self.ys.T[:, self.entry_layout[0]])

    @cached_property
    def cell_clients(self) -> np.ndarray:
        """(S·K,) float count of each cell's server's clients, the divisor of its means."""
        return np.repeat(np.bincount(self.slot_servers).astype(float), self.num_spaces)

    @cached_property
    def lone_start(self) -> int:
        """The entry from which on every entry's server has one client, so each
        is its cell's one report; the learners lay such servers out last."""
        several = np.flatnonzero(np.bincount(self.slot_servers)[self.slot_servers] > 1)
        return self.subset_size * (int(several[-1]) + 1 if several.size else 0)

    def message_bits(self, subsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(downlink, uplink) bits of each (..., J) subset: 32 a float, ceil(log2 K) an index."""
        J = self.subset_size
        down = 32 * self.dims[subsets].sum(axis=-1) + J * bits_per_index(self.num_spaces)
        return down, down + 32 * J


@dataclass
class _Stage:
    """The epochs staged for the next audit replay, one slot each, in frame layout.

    The first ``count`` slots hold consecutive epochs, the last of them the
    epoch whose call replays them.  ``values[s, 0]`` are the float rows of
    slot ``s``'s M downlinks (J loss slots, never sent and left zero, then
    the J broadcast vectors, zero-padded to d_max) and ``values[s, 1]`` those
    of its M uplinks (the J mean losses, then the J gradient vectors), so the
    first ``count`` slots are the frames' float table.  ``inclusion`` and
    ``loss_est`` hold the epoch's (K,) inclusion probabilities and loss
    estimate, and ``grad_est`` its (K, d_max) gradient estimates, zero for
    the spaces it did not step.  Subsets and bits are not staged: the run
    records them.
    """

    values: np.ndarray  # (slots, 2, M, J·(d_max + 1))
    inclusion: np.ndarray  # (slots, K)
    loss_est: np.ndarray  # (slots, K)
    grad_est: np.ndarray  # (slots, K, d_max), zero past count
    count: int = 0

    @classmethod
    def with_slots(cls, slots: int, clients: int, J: int, K: int, d_max: int) -> "_Stage":
        return cls(
            values=np.zeros((slots, 2, clients, J * (d_max + 1))),
            inclusion=np.zeros((slots, K)),
            loss_est=np.zeros((slots, K)),
            grad_est=np.zeros((slots, K, d_max)),
        )


@dataclass
class AuditLog:
    """Optional verification of the wire path, epoch by epoch.

    When attached to a run, every epoch is also executed through the
    frame/aggregation code path and cross-checked against the vectorized
    engine: frame round-trips must reproduce the header's epoch, client id
    and kind and the indices exactly, and the floats of both directions to
    single precision; the closed-form bit account, ``RunSetup.message_bits``
    of the subsets in ``ServerState.subsets``, must equal the frame's actual
    payload bits; and the scatter-add of the clients' reports must equal the
    engine's aggregation bit for bit, since both add in one order.  Epochs
    are staged as they run and replayed in batches that fit the memory
    budget, several epochs to a batch when their frames are few, so every
    frame has been checked by the time the run's last epoch returns, and not
    before.  The notes keep one order however the epochs are batched: epoch
    by epoch, the downlinks' checks, then the uplinks', each check over the
    clients in order, then the aggregation's.  ``frames_checked`` counts 2·M
    frames per replayed epoch.
    """

    frames_checked: int = 0
    mismatches: list[str] = field(default_factory=list)
    _stage: _Stage | None = field(default=None, repr=False, compare=False)

    def note(self, message: str) -> None:
        self.mismatches.append(message)


def _audit_epoch(
    audit: AuditLog,
    setup: RunSetup,
    state: ServerState,
    epoch: int,
    broadcast: np.ndarray,
    mean_losses: np.ndarray,
    mean_grads: np.ndarray,
    inclusion: np.ndarray,
    loss_est: np.ndarray,
    stepped: np.ndarray,
    grad_est: np.ndarray,
) -> None:
    """Stage one epoch of the single server for the wire replay; replay when due.

    ``state`` holds the epoch's subsets, ``state.subsets[epoch - 1]``.
    ``broadcast`` holds the model rows the server sent, and ``mean_losses``
    and ``mean_grads`` each client's report, one per sampled space, all in
    the kernel's client-major entry order (entry ``j * J + a`` client j's
    slot a), which is the frames' order; ``grad_est[k]`` is the engine's
    estimate for space ``stepped[k]``, and ``loss_est`` its (K,) loss
    estimate.  Each array is one the kernel's step does not write, so this
    call may come before or after the step.

    The epoch's floats are copied into the next slot of the audit's stage,
    and its gradient estimates scattered into the slot's (K, d_max) table.  A
    batch holds at most the frames whose float rows of J·(d_max + 1) floats
    fit ``_BLOCK_FLOATS``, and the stage has a slot for each epoch whose 2·M
    frames fit that many together (fewer if the epochs' (K, d_max) gradient
    tables would not fit the budget, or the run is shorter), and at least
    one, so it stays within the budget unless one epoch alone passes it.
    The staged epochs are replayed together by :func:`_replay_epochs` once
    the stage is full and after the run's last epoch, so every replay runs
    inside a call of this function.
    """
    clients, J = state.subsets.shape[1:]
    K = setup.num_spaces
    epochs_in_run = setup.param_rates.shape[0]
    per_batch = max(1, _BLOCK_FLOATS // (J * (setup.max_dim + 1)))
    stage = audit._stage
    if stage is None:
        slots = max(1, min(per_batch // (2 * clients), _BLOCK_FLOATS // (K * setup.max_dim),
                           epochs_in_run))
        stage = audit._stage = _Stage.with_slots(slots, clients, J, K, setup.max_dim)
    s = stage.count
    rows = stage.values[s]
    rows[0, :, J:] = broadcast.reshape(clients, -1)
    rows[1, :, :J] = mean_losses.reshape(clients, J)
    rows[1, :, J:] = mean_grads.reshape(clients, -1)
    stage.inclusion[s] = inclusion
    stage.loss_est[s] = loss_est
    stage.grad_est[s, stepped] = grad_est
    stage.count = s + 1
    if stage.count == stage.values.shape[0] or epoch == epochs_in_run:
        _replay_epochs(audit, setup, state, epoch, per_batch)


def _replay_epochs(audit: AuditLog, setup: RunSetup, state: ServerState, last: int,
                   per_batch: int) -> None:
    """Replay the E staged epochs through the serialized message path, and empty the stage.

    The staged epochs are consecutive and ``last`` is the latest, so they
    are epochs ``last - E + 1`` to ``last``, whose subsets are those rows of
    ``state.subsets``; one :meth:`RunSetup.message_bits` call gives the bit
    account of all their frames.  Each direction's E·M frames, epoch by
    epoch and client by client, go through :func:`encode_frames` and
    :func:`decode_frames` in the fewest equal batches of at most
    ``per_batch`` frames, the downlinks first.  Every batch is of one kind,
    so the codec can lay it out by a reshape where a mixed batch would need
    a mask, and each check runs once over each batch, so the replay costs a
    fixed number of numpy calls per batch whatever the client and epoch
    counts.  The merge is checked by one
    :func:`_scatter_reports` over (epoch slot, space) cells, which adds each
    cell's reports in client order, as a one-epoch merge does, and its
    estimates must equal the engine's exactly, the gradients compared over
    the dense (E·K, d_max) tables, so a space reported but not stepped, or
    stepped but not reported, disagrees as a changed estimate does.
    """
    stage = audit._stage
    E, stage.count = stage.count, 0
    K = setup.num_spaces
    dims = setup.dims
    d_max = setup.max_dim
    first = last - E + 1
    indices = state.subsets[first - 1:last]
    _, clients, J = indices.shape
    n = E * clients  # frames per direction
    frame_indices = indices.reshape(n, J)
    client_ids = np.tile(np.arange(clients), E)
    frame_epochs = np.repeat(np.arange(first, last + 1), clients)
    # every vector up to its space's width, in either direction
    sent = np.empty((n, J * (d_max + 1)), dtype=bool)
    sent[:, J:] = (np.arange(d_max) < dims[frame_indices][:, :, None]).reshape(n, -1)
    batches = -(-n // per_batch)
    cuts = (np.arange(batches + 1) * n // batches).tolist()
    bad = np.empty((4, 2, n), dtype=bool)  # (check, direction, frame)
    for kind, engine_bits in enumerate(setup.message_bits(indices)):
        engine_bits = engine_bits.reshape(n)
        values = stage.values[:E, kind].reshape(n, -1)
        sent[:, :J] = kind == KIND_UPLINK  # an uplink's mean losses
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            batch = slice(lo, hi)
            ids, batch_indices = client_ids[batch], frame_indices[batch]
            batch_values, batch_sent = values[batch], sent[batch]
            buffer, lengths = encode_frames(kind, frame_epochs[batch], ids, batch_indices,
                                            *_left_justify(batch_values, batch_sent), K)
            header, got_indices, got_losses, got = decode_frames(buffer, lengths, K, dims)
            got = np.concatenate([got_losses, got.reshape(hi - lo, -1)], axis=1)
            index_bad = (got_indices != batch_indices).any(axis=1)
            bad[0, kind, batch] = header["payload_bits"] != engine_bits[batch]
            bad[1, kind, batch] = ((header["epoch"] != frame_epochs[batch])
                                   | (header["client_id"] != ids) | (header["kind"] != kind))
            bad[2, kind, batch] = index_bad
            # floats must come back as their single-precision values
            bad[3, kind, batch] = (((got != batch_values.astype(np.float32)) & batch_sent)
                                   .any(axis=1) & ~index_bad)
    audit.frames_checked += 2 * n
    # the server merges the reports as computed, before the wire rounds them;
    # cell slot * K + space keeps each staged epoch's merge apart
    cells = (np.arange(0, E * K, K)[:, None, None] + indices).ravel()
    reports = stage.values[:E, 1]
    agg_loss, agg_grad = _scatter_reports(cells, reports[..., :J].ravel(),
                                          reports[..., J:].reshape(-1, d_max),
                                          stage.inclusion[:E].ravel(), clients)
    # both merges add each cell's reports from +0.0 in client order, so they
    # must agree bit for bit
    loss_ok = (agg_loss == stage.loss_est[:E].ravel()).reshape(E, K)
    grad_ok = (agg_grad == stage.grad_est[:E].reshape(E * K, d_max)).all(axis=1).reshape(E, K)
    stage.grad_est[:E] = 0.0  # the next epochs step other spaces
    if bad.any() or not loss_ok.all() or not grad_ok.all():
        texts = [(f"engine {name} bits mismatch", f"{name} header round-trip failed",
                  index_text, f"{name} float round-trip failed")
                 for name, index_text in (("downlink", "downlink index round-trip failed"),
                                          ("uplink", "uplink round-trip failed"))]
        # (slot, direction, check, client): each epoch's downlink notes, check
        # by check over the clients, then its uplink notes, then its merge's
        bad = bad.reshape(4, 2, E, clients).transpose(2, 1, 0, 3)
        for slot, epoch in enumerate(range(first, last + 1)):
            for kind, check, j in np.argwhere(bad[slot]).tolist():
                audit.note(f"epoch {epoch} client {j}: {texts[kind][check]}")
            if not loss_ok[slot].all():
                audit.note(f"epoch {epoch}: aggregated losses disagree with engine")
            for i in np.flatnonzero(~grad_ok[slot]).tolist():
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

    Only a failing block pays for a diagnosis, from its first failing
    round's per-entry masks: the error names that round, the first check
    some entry fails in the order loss bound, non-negativity, gradient
    bound, the lowest space with an entry failing it, and that space's
    worst value.
    """
    loss_limit, g_limit_sq = entry_limits
    ok = (losses <= loss_limit) & (losses >= 0.0) & (grad_sq <= g_limit_sq)
    if np.logical_and.reduce(ok, axis=None):
        return
    c = int(np.argmin(ok.all(axis=1)))
    losses, grad_sq = losses[c], grad_sq[c]
    for check, (passed, values, pick) in enumerate((
            (losses <= loss_limit, losses, np.max),
            (losses >= 0.0, losses, np.min),
            (grad_sq <= g_limit_sq, grad_sq, np.max))):
        if not passed.all():
            break
    i = int(entry_spaces[~passed].min())
    value = float(pick(values[entry_spaces == i]))
    space = setup.spaces[i]
    invalid = "the step-size schedule is invalid for this data"
    if check == 0:
        text = f"loss {value:.6g} outside its declared bound {space.loss_bound:.6g}; {invalid}"
    elif check == 1:
        text = f"loss {value:.6g} below zero; the entropy step needs non-negative losses"
    else:  # squared norms were compared; take the square root only to report
        text = (f"gradient norm {np.sqrt(value):.6g} outside its declared bound "
                f"{space.lipschitz_bound:.6g}; {invalid}")
    raise RunInvariantError(f"round {round_index + c}: space {i} produced {text}")


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
    summed = np.add.reduce(parts, axis=0) if parts.shape[1] > 1 else np.add.accumulate(parts)[-1]
    return summed.reshape(block.shape[1:])


def run_epoch(state: ServerState, setup: RunSetup) -> None:
    """Advance every server by one communication epoch, the state's next.

    Epoch ``state.epochs_done + 1`` (1-based): each server samples a subset
    of spaces for each of its clients and broadcasts those spaces' current
    models; each client predicts with its lead space for every round of the
    epoch and reports epoch-averaged raw losses and gradients; each server
    applies importance weights, averages over its clients, and takes one
    mirror step on its sampling distribution plus one projected-gradient
    step per space its clients sampled.  Writes its predictions, losses and
    subsets into ``state``; what does not depend on the state (complement
    positions, the client-major entries' targets, which every epoch reads)
    comes from ``setup``, computed once.

    All per-(client, space) work runs on an epoch's n = slots·J entries, a
    (client slot, sampled space) pair each, in client-major order: entry
    ``j * J + a`` is slot j's position a, so each client's lead is every
    J-th entry.  When every space reads one input coordinate, one gather per
    block picks every entry's feature.  Otherwise each touched space's
    feature map runs once per run and round on that run's (entries, input)
    rows, which list the run's clients that sampled the space in ascending
    order, the rows the run alone would pass; the map writes its rows back
    into the entries' places.

    Subsets and models are frozen for the epoch, so its rounds are
    independent until they are summed.  The coordinate gather evaluates
    them in blocks of C rounds: C-ordered (C, n) arrays, round first, C the
    most rounds whose (C·n, input width) gathers fit ``_BLOCK_FLOATS``,
    capped at the epoch's N rounds; the last block of an epoch may be
    shorter.  The feature-map path runs one round per block.  Each block's
    bounds are checked elementwise in one pass (an error still names the
    first failing round), and each block's losses and gradients are added
    to the epoch's sums one round at a time in round order, the additions a
    round-by-round loop makes, so the floats do not depend on C.

    The servers merge over (server, space) cells under one rule: every sum
    over a server's clients is a running sum from +0.0 in ascending client
    order, the order in which client-major entries list each cell's entries.
    One ``bincount`` over the cells sums every server's importance-weighted
    losses.  The gradients take one of three sums, picked by shape.  The
    entries from ``setup.lone_start`` on belong to one-client servers, so
    each is its cell's one report and needs no sum.  The others are summed
    by one ``bincount`` over the cells when the rows are one column wide,
    and otherwise by ``sum(axis=0)`` over each touched cell's entries, which
    adds its rows one at a time.  The three give equal floats, so a run's
    bits do not depend on the other servers it shares the kernel with.  The
    sampled subsets fix every order, so the floats are reproducible, and the
    audit's merge must equal them bit for bit.
    """
    epoch = state.epochs_done + 1
    S = state.log_p.shape[0]
    N = setup.rounds_per_epoch
    t0 = (epoch - 1) * N  # 0-based index of the epoch's first round
    K = setup.num_spaces
    J = setup.subset_size
    d_max = setup.max_dim

    probs = materialize(state.log_p)
    # one server's distribution is shared by every slot; one server a slot
    # reads its own row; else each slot reads its server's
    slots = setup.slot_rows.size
    indices = subsets_from_uniforms(probs if S in (1, slots) else probs[setup.slot_servers],
                                    setup.uniforms[:, t0, 0],
                                    setup.subset_positions[:, epoch - 1])
    state.subsets[epoch - 1] = indices
    inclusion = inclusion_probabilities(probs, J)

    columns = setup.feature_columns
    mapped = columns is None  # a feature-map call per run and touched space
    rows, cell_base, group_base = setup.entry_layout
    flat_spaces = indices.reshape(-1)
    n = rows.size
    cells = cell_base + flat_spaces  # server * K + space
    cell_weights = state.weights.reshape(S * K, d_max)  # a view: row server * K + space
    w_flat = cell_weights[cells]
    entry_limits = (setup.limits[0][flat_spaces], setup.limits[1][flat_spaces])

    C = 1 if mapped else min(N, max(1, _BLOCK_FLOATS // (n * setup.xs.shape[2])))
    if mapped:
        groups = group_base + flat_spaces  # run * K + space
        touched_groups = np.bincount(groups).nonzero()[0].tolist()
        # each (run, space) group's space and entries, in ascending client order
        mapped_spaces = [setup.spaces[g % K] for g in touched_groups]
        members = [np.flatnonzero(groups == g) for g in touched_groups]
        # every round writes the same entries, so one buffer serves the epoch
        phi_b = np.zeros((1, n, d_max))  # zero past each space's width
    else:
        flat_columns = columns[flat_spaces]
    loss_sum = grad_sum = None
    for a in range(t0, t0 + N, C):
        b = min(a + C, t0 + N)
        yt = setup.entry_targets[a:b]
        if mapped:
            # one call per touched (run, space) and round, on the (entries,
            # input) rows of the run's clients that sampled the space
            for space, entries in zip(mapped_spaces, members):
                phi_b[0, entries, :space.dim] = space.feature_map(setup.xs[rows[entries], a])
        else:
            # the fused gather picks the same floats the per-space maps would;
            # a (rounds, 1) column of round indices gathers C-ordered (rounds,
            # n) blocks, which _add_rounds sums down their rows in round order
            phi_b = setup.xs[rows, np.arange(a, b)[:, None], flat_columns][..., None]
        values = np.add.reduce(phi_b * w_flat, axis=2)
        closs = loss_value(setup.loss, values, yt)
        dvals = loss_derivative(setup.loss, values, yt)
        gsq = (dvals * dvals) * np.add.reduce(phi_b * phi_b, axis=2)
        _check_bounds(closs, gsq, flat_spaces, entry_limits, setup, a + 1)
        loss_sum = _add_rounds(loss_sum, closs)
        grad_sum = _add_rounds(grad_sum, dvals[..., None] * phi_b)
        state.predictions[a:b] = values[:, ::J]  # each client's lead is its first slot
        state.losses[a:b] = closs[:, ::J]

    # Server aggregation: mean over the epoch, importance weight, mean over
    # the server's clients.  Spaces outside every subset estimate to zero.
    # No division by 1 (one-round epochs): same values, a pass fewer.
    mean_losses = loss_sum / N if N > 1 else loss_sum
    mean_grads = grad_sum / N if N > 1 else grad_sum
    inc = inclusion.ravel()[cells]
    # bincount adds each (server, space) cell's reports in entry order, which
    # is ascending client order within a cell
    loss_est = (np.bincount(cells, weights=mean_losses / inc, minlength=S * K)
                / setup.cell_clients).reshape(S, K)
    lone = setup.lone_start  # the entries of one-client servers: a cell's one report
    stepped, w_old, grad_est = cells[lone:], w_flat[lone:], mean_grads[lone:] / inc[lone:, None]
    if lone:  # servers of several clients sum each touched cell's reports
        shared = cells[:lone]
        touched = np.bincount(shared).nonzero()[0]
        if d_max == 1:
            summed = (np.bincount(shared, weights=mean_grads[:lone, 0] / inc[:lone],
                                  minlength=S * K)[touched, None]
                      / setup.cell_clients[touched, None])
        else:
            # sum(axis=0) adds rows more than one column wide one at a time;
            # scalar divisions per cell: dividing the whole (n, d_max) block
            # by an (n, 1) column runs one inner loop per row, which costs
            # more than the division itself when the rows are wide
            summed = np.empty((touched.size, d_max))
            for k, cell in enumerate(touched.tolist()):
                share = inclusion.flat[cell]  # its server's inclusion of its space
                summed[k] = (np.add.reduce(mean_grads[:lone][shared == cell] / share, axis=0)
                             / setup.cell_clients[cell])
        parts = (touched, cell_weights[touched], summed), (stepped, w_old, grad_est)
        stepped, w_old, grad_est = parts[0] if lone == n else map(np.concatenate, zip(*parts))

    if setup.audit is not None:  # a stack of one server, so its cells are its spaces
        _audit_epoch(setup.audit, setup, state, epoch, w_flat, mean_losses, mean_grads,
                     inclusion[0], loss_est[0], stepped, grad_est)

    rates = setup.param_rates[epoch - 1][setup.server_runs].ravel()[stepped]
    cell_weights[stepped] = project_rows_per_row(
        w_old - rates[:, None] * grad_est, setup.cell_radii[stepped]
    )
    state.log_p = entropy_step_log_batch(state.log_p, loss_est, setup.mirror_rates)
    state.epochs_done = epoch
