"""Run artifacts and trace serialization.

A completed run produces a :class:`RunArtifact`: one row per (round, client)
pair holding the lead space, the lead model's prediction and realized loss,
and the information bits moved that round.  The artifact serializes to a
stable CSV (column order fixed, shortest round-trip float repr) so repeated
runs with the same seed are byte-identical, and to a JSON-ready summary.
The CSV is written in blocks of rows: within a block each distinct cell value
is formatted once, uniqued by bit pattern so ``-0.0`` and ``0.0`` keep their
own text, and the rows are joined in one call, with no per-row Python code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    """Complete record of one run: M*T trace rows plus run-level totals.

    Rows are ordered by round, then by client id.  ``final_probs`` is the
    server's final sampling distribution — shape (K,) for the cooperative
    learner, (M, K) for the noncooperative one (one distribution per
    client).  ``wall_seconds`` is the wall time of the serial simulation.
    """

    algorithm: str
    clients: int
    horizon: int
    epochs: int
    num_spaces: int
    round_ids: np.ndarray
    client_ids: np.ndarray
    epoch_ids: np.ndarray
    lead_indices: np.ndarray
    predictions: np.ndarray
    losses: np.ndarray
    targets: np.ndarray
    uplink_bits: np.ndarray
    downlink_bits: np.ndarray
    final_probs: np.ndarray
    total_uplink_bits: int
    total_downlink_bits: int
    wall_seconds: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        n = self.clients * self.horizon
        for name in ("round_ids", "client_ids", "epoch_ids", "lead_indices",
                     "predictions", "losses", "targets", "uplink_bits",
                     "downlink_bits"):
            arr = getattr(self, name)
            if arr.shape != (n,):
                raise ValueError(f"{name} has shape {arr.shape}, expected ({n},)")

    @property
    def rows(self) -> int:
        return self.clients * self.horizon

    def mse(self) -> float:
        """Mean squared error of the lead predictions against the targets."""
        err = self.predictions - self.targets
        return float(np.mean(err * err))

    def cumulative_loss(self) -> float:
        """Total realized lead-model loss over all clients and rounds."""
        return float(self.losses.sum())

    def to_csv(self, path: str | Path) -> Path:
        """Write the trace as CSV with the fixed column order.

        Floats use ``repr`` (shortest exact round-trip), so identical runs
        yield byte-identical files.  Each block of rows becomes one list of
        strings per column, with each distinct value formatted once, and the
        rows are joined in one call; no per-row objects outlive a block.
        """
        path = Path(path)
        columns = (
            (self.round_ids, np.int64), (self.client_ids, np.int64),
            (self.epoch_ids, np.int64), (self.lead_indices, np.int64),
            (self.predictions, float), (self.losses, float),
            (self.uplink_bits, np.int64), (self.downlink_bits, np.int64),
        )
        with path.open("w", newline="") as fh:
            fh.write(",".join(TRACE_COLUMNS) + "\n")
            for lo in range(0, self.rows, _EXPORT_BLOCK_ROWS):
                block = slice(lo, lo + _EXPORT_BLOCK_ROWS)
                cells = [_cell_texts(col[block].astype(dtype, copy=False))
                         for col, dtype in columns]
                fh.write("\n".join(map(",".join, zip(*cells))) + "\n")
        return path

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
