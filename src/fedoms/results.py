"""Run artifacts, trace serialization, and summary metrics.

A completed run produces a :class:`RunArtifact`: one row per (round, client)
pair holding the lead space, the lead model's prediction and realized loss,
and the information bits moved that round.  The artifact serializes to a
stable CSV (column order fixed, shortest round-trip float repr) so repeated
runs with the same seed are byte-identical.  :func:`compute_mse` folds one
or more artifacts into a :class:`MetricsSummary`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = ["RunArtifact", "MetricsSummary", "compute_mse", "TRACE_COLUMNS"]

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
_EXPORT_BLOCK_ROWS = 512  # trace rows per write; larger blocks raise peak memory


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
        yield byte-identical files.  Each block of rows is converted to Python
        numbers column by column, so no per-row objects outlive a block.
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
                cells = [col[block].astype(dtype, copy=False).tolist()
                         for col, dtype in columns]
                fh.write("".join([
                    f"{r},{c},{e},{i},{p!r},{q!r},{u},{d}\n"
                    for r, c, e, i, p, q, u, d in zip(*cells)
                ]))
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


def _jsonable(value) -> bool:
    return isinstance(value, (str, int, float, bool, list, tuple, type(None)))


@dataclass(frozen=True)
class MetricsSummary:
    """Aggregate metrics over repetition runs of one configuration.

    ``mse_std`` is the sample standard deviation (ddof=1) across runs, 0.0
    for a single run.
    """

    runs: int
    mse_values: tuple[float, ...]
    mse_mean: float
    mse_std: float
    cumulative_losses: tuple[float, ...]
    total_uplink_bits: int
    total_downlink_bits: int
    final_probs: tuple[tuple[float, ...], ...]

    def to_dict(self) -> dict:
        return {
            "runs": self.runs,
            "mse_values": list(self.mse_values),
            "mse_mean": self.mse_mean,
            "mse_std": self.mse_std,
            "cumulative_losses": list(self.cumulative_losses),
            "total_uplink_bits": self.total_uplink_bits,
            "total_downlink_bits": self.total_downlink_bits,
            "final_probs": [list(p) for p in self.final_probs],
        }


def compute_mse(
    artifacts: "list[RunArtifact] | tuple[RunArtifact, ...]",
) -> MetricsSummary:
    """Fold repetition runs into mean/stddev MSE plus bit totals."""
    if not artifacts:
        raise ValueError("no artifacts to summarize")
    values = [a.mse() for a in artifacts]
    std = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
    return MetricsSummary(
        runs=len(artifacts),
        mse_values=tuple(values),
        mse_mean=float(np.mean(values)),
        mse_std=std,
        cumulative_losses=tuple(a.cumulative_loss() for a in artifacts),
        total_uplink_bits=sum(a.total_uplink_bits for a in artifacts),
        total_downlink_bits=sum(a.total_downlink_bits for a in artifacts),
        final_probs=tuple(
            tuple(float(v) for v in np.asarray(a.final_probs).ravel())
            for a in artifacts
        ),
    )
