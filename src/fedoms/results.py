"""Run artifacts and trace serialization.

A completed run produces a :class:`RunArtifact`: what the run produced (each
round's lead prediction and realized loss per client, and each epoch's lead
space and message bits per client) plus run-level figures.  Its trace has
one row per (round, client) pair.  The run's shape comes from the stored
arrays' shapes, and the per-row columns that repeat the layout or the
per-epoch record are derived together on first read, not stored.  The
artifact serializes to a stable CSV (column order fixed, shortest round-trip
float repr) so repeated runs with the same seed are byte-identical, and to a
JSON-ready summary.  The CSV is written in blocks of rows, each block's
columns built from the stored record: within a block each distinct cell
value is formatted once, uniqued by bit pattern so ``-0.0`` and ``0.0`` keep
their own text, and the rows are joined in one call, with no per-row Python
code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

__all__ = ["RunArtifact", "TRACE_COLUMNS"]

TRACE_COLUMNS = (
    "round",
    "client",
    "epoch",
    "lead_index",
    "prediction",
    "loss",
    "uplink_bits",
    "downlink_bits",
)
_EXPORT_BLOCK_ROWS = 4096  # trace rows per write; larger blocks raise peak memory


@dataclass(frozen=True)
class RunArtifact:
    """Complete record of one run: its M*T trace rows plus run-level figures.

    Rows are ordered by round, then by client id, and each of the ``epochs``
    epochs spans ``horizon // epochs`` consecutive rounds.  The artifact
    stores what the run produced: the (T·M,) ``predictions`` and ``losses``
    of the rows; ``leads[e, j]``, the space client ``j`` led with for all of
    epoch ``e + 1``; for a cooperative run, ``message_bits``, the
    (downlink, uplink) bits of each client-epoch as two (epochs, M) arrays,
    a downlink charged at the epoch's first round and an uplink at its last
    (``None`` for the baseline, which sends nothing); ``stream_targets``,
    the streams' own (M, T) target array, held, not copied;
    ``final_probs``, the server's final sampling distribution — shape (K,)
    for the cooperative learner, (M, K) for the noncooperative one (one
    distribution per client); and ``wall_seconds``, the wall time of the
    serial simulation.  Everything else is derived: the run's shape
    (``clients``, ``horizon``, ``epochs``, ``num_spaces``) from the arrays'
    shapes, and the per-row columns ``round_ids``, ``client_ids``,
    ``epoch_ids``, ``lead_indices``, ``uplink_bits`` and ``downlink_bits``
    (read-only, built together on first read) and ``targets`` from the
    record.
    """

    algorithm: str
    predictions: np.ndarray  # (T·M,)
    losses: np.ndarray  # (T·M,)
    leads: np.ndarray  # (epochs, M)
    stream_targets: np.ndarray  # (M, T)
    message_bits: tuple[np.ndarray, np.ndarray] | None  # (epochs, M) each
    final_probs: np.ndarray  # (..., K)
    wall_seconds: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        M, T, R = self.clients, self.horizon, self.epochs
        if not 1 <= R <= T or T % R:
            raise ValueError(f"epochs {R} must divide the horizon {T}")
        # the shape is read from stream_targets and leads, so they come first
        shapes = [("stream_targets", self.stream_targets, (M, T)),
                  ("leads", self.leads, (R, M)),
                  ("predictions", self.predictions, (M * T,)),
                  ("losses", self.losses, (M * T,))]
        shapes += [("message_bits", bits, (R, M)) for bits in self.message_bits or ()]
        for name, arr, shape in shapes:
            if arr.shape != shape:
                raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")

    # the run's shape, read from the stored arrays' shapes
    clients = property(lambda self: self.stream_targets.shape[0])
    horizon = property(lambda self: self.stream_targets.shape[-1])
    epochs = property(lambda self: self.leads.shape[0])
    num_spaces = property(lambda self: self.final_probs.shape[-1])
    rows = property(lambda self: self.clients * self.horizon)
    rounds_per_epoch = property(lambda self: self.horizon // self.epochs)

    @cached_property
    def _columns(self) -> dict[str, np.ndarray]:
        """The whole trace's columns by name, read-only, since one array may
        serve two columns or view the stored record."""
        columns = dict(zip(TRACE_COLUMNS, self._block_columns(0, self.rows)))
        for column in columns.values():
            column.flags.writeable = False
        return columns

    # the per-row columns of the whole trace, built together on first read
    round_ids = property(lambda self: self._columns["round"])
    client_ids = property(lambda self: self._columns["client"])
    epoch_ids = property(lambda self: self._columns["epoch"])
    lead_indices = property(lambda self: self._columns["lead_index"])
    uplink_bits = property(lambda self: self._columns["uplink_bits"])
    downlink_bits = property(lambda self: self._columns["downlink_bits"])

    @cached_property
    def targets(self) -> np.ndarray:
        """The (T·M,) targets of the rows, round-major."""
        return np.ascontiguousarray(self.stream_targets, dtype=float).T.ravel()

    @property
    def total_downlink_bits(self) -> int:
        return 0 if self.message_bits is None else int(self.message_bits[0].sum())

    @property
    def total_uplink_bits(self) -> int:
        return 0 if self.message_bits is None else int(self.message_bits[1].sum())

    def mse(self) -> float:
        """Mean squared error of the lead predictions against the targets."""
        # the errors are written round-major, the rows' order, so the mean
        # adds them in the order of the flat (T·M,) columns
        shape = (self.horizon, self.clients)
        err = np.subtract(self.predictions.reshape(shape), self.stream_targets.T,
                          out=np.empty(shape)).ravel()
        return float(np.mean(np.multiply(err, err, out=err)))

    def cumulative_loss(self) -> float:
        """Total realized lead-model loss over all clients and rounds."""
        return float(self.losses.sum())

    def to_csv(self, path: str | Path) -> Path:
        """Write the trace as CSV with the fixed column order.

        Floats use ``repr`` (shortest exact round-trip), so identical runs
        yield byte-identical files.  Each block of rows becomes one list of
        strings per column, with each distinct value formatted once, and the
        rows are joined in one call; no per-row objects outlive a block, and
        no whole derived column is built.
        """
        path = Path(path)
        with path.open("w", newline="") as fh:
            fh.write(",".join(TRACE_COLUMNS) + "\n")
            for lo in range(0, self.rows, _EXPORT_BLOCK_ROWS):
                columns = self._block_columns(lo, min(lo + _EXPORT_BLOCK_ROWS, self.rows))
                texts = {}  # a column that serves twice is formatted once
                for col in columns:
                    if id(col) not in texts:
                        texts[id(col)] = _cell_texts(col)
                cells = [texts[id(col)] for col in columns]
                fh.write("\n".join(map(",".join, zip(*cells))) + "\n")
        return path

    def _block_columns(self, lo: int, hi: int) -> list[np.ndarray]:
        """The trace columns of rows ``lo`` to ``hi``, in ``TRACE_COLUMNS`` order.

        With one round per epoch the per-epoch record is the per-round
        record, so a block slices it, and the round column is the epoch
        column; otherwise each row's client-epoch cell is gathered, and a
        message's bits are kept only at its charged round.
        """
        N, M = self.rounds_per_epoch, self.clients
        rounds, clients = np.divmod(np.arange(lo, hi, dtype=np.int64), M)
        if N == 1:
            epochs, cells = rounds, slice(lo, hi)
        else:
            epochs = rounds // N
            cells = epochs * M + clients
        round_ids = rounds + 1
        if self.message_bits is None:
            down = up = np.zeros(hi - lo, dtype=np.int64)
        else:
            down, up = (bits.reshape(-1)[cells] for bits in self.message_bits)
            if N > 1:
                phase = rounds - epochs * N
                down, up = np.where(phase == 0, down, 0), np.where(phase == N - 1, up, 0)
        return [round_ids, clients, round_ids if N == 1 else epochs + 1,
                self.leads.reshape(-1)[cells].astype(np.int64, copy=False),
                self.predictions[lo:hi].astype(float, copy=False),
                self.losses[lo:hi].astype(float, copy=False),
                up.astype(np.int64, copy=False), down.astype(np.int64, copy=False)]

    def summary_dict(self) -> dict:
        """JSON-ready run summary (totals must match the trace column sums)."""
        return {
            "algorithm": self.algorithm,
            "clients": self.clients,
            "horizon": self.horizon,
            "epochs": self.epochs,
            "num_spaces": self.num_spaces,
            "mse": self.mse(),
            "cumulative_loss": self.cumulative_loss(),
            "total_uplink_bits": self.total_uplink_bits,
            "total_downlink_bits": self.total_downlink_bits,
            "final_probs": np.asarray(self.final_probs).tolist(),
            "wall_seconds": self.wall_seconds,
            "meta": {k: v for k, v in self.meta.items() if _jsonable(v)},
        }


def _cell_texts(values: np.ndarray) -> list[str]:
    """The text of each value in a block column, each distinct value formatted once.

    An int column whose range is no wider than the block gathers from a table
    of that range; any other column is uniqued by bit pattern, so ``-0.0``
    and ``0.0`` keep their own text.
    """
    if values.dtype.kind == "i":
        low, high = int(values.min()), int(values.max())
        if high - low < len(values):
            table = np.array(list(map(str, range(low, high + 1))), dtype=object)
            return table[values - low].tolist()
    keys, inverse = np.unique(values.view(np.int64), return_inverse=True)
    table = np.array(list(map(repr, keys.view(values.dtype).tolist())), dtype=object)
    return table[inverse].tolist()


def _jsonable(value) -> bool:
    return isinstance(value, (str, int, float, bool, list, tuple, type(None)))
