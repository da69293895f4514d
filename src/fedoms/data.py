"""Dataset ingestion, preprocessing, partitioning, and synthetic generators.

Everything here produces a :class:`Streams` bundle: per-client example
sequences of equal length, ready for the learners.  Real datasets come in
through :func:`ingest_csv` + :func:`preprocess_and_partition`; the
adversarial generators build the hard instances used by the lower-bound
style experiments; :func:`synthetic_linear` and :func:`write_regression_csv`
provide well-behaved regression streams for smoke tests and benchmarks.
"""

from __future__ import annotations

import csv
import logging
import warnings
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .rng import ROLE_ADVERSARY, ROLE_DATA, ROLE_PERMUTE, stream

__all__ = [
    "DataError",
    "RawDataset",
    "Streams",
    "AdversarialSpec",
    "ingest_csv",
    "csv_shape",
    "preprocess_and_partition",
    "generate_adversarial",
    "default_bias",
    "synthetic_linear",
    "write_regression_csv",
]

logger = logging.getLogger("fedoms.data")


class DataError(ValueError):
    """Raised for malformed datasets or generator specs."""


@dataclass(frozen=True)
class RawDataset:
    """A parsed numeric table: feature matrix, target vector, column names."""

    features: np.ndarray  # (rows, input_dim)
    targets: np.ndarray  # (rows,)
    feature_names: tuple[str, ...]
    target_name: str

    @property
    def rows(self) -> int:
        return self.features.shape[0]

    @property
    def input_dim(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class Streams:
    """Per-client example sequences of equal length.

    ``xs[j, t - 1]`` / ``ys[j, t - 1]`` is client ``j``'s example at round
    ``t``.  Every value must be finite.  ``meta`` records provenance
    (generator kind, hidden parameters, source file) for the run summary.
    """

    xs: np.ndarray  # (clients, horizon, input_dim)
    ys: np.ndarray  # (clients, horizon)
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.xs.ndim != 3 or self.ys.ndim != 2:
            raise DataError(f"xs must be (M,T,d) and ys (M,T), got {self.xs.shape}, {self.ys.shape}")
        if self.xs.shape[:2] != self.ys.shape:
            raise DataError(f"xs {self.xs.shape} inconsistent with ys {self.ys.shape}")
        # min and max carry any NaN or infinity, and need no full-size mask
        extremes = [f(a, initial=0.0) for a in (self.xs, self.ys) for f in (np.min, np.max)]
        if not np.isfinite(extremes).all():
            bad = ~(np.isfinite(self.xs).all(axis=2) & np.isfinite(self.ys))
            j, t = (int(v) for v in np.argwhere(bad)[0])
            raise DataError(f"non-finite stream value at client {j}, round {t + 1}")

    @property
    def clients(self) -> int:
        return self.xs.shape[0]

    @property
    def horizon(self) -> int:
        return self.xs.shape[1]

    @property
    def input_dim(self) -> int:
        return self.xs.shape[2]


# ---------------------------------------------------------------------------
# Ingestion and preprocessing


def ingest_csv(path: str | Path, target_column: str | int = -1) -> RawDataset:
    """Parse a rectangular numeric CSV with a header row.

    ``target_column`` selects the target by header name or by position
    (negative indices count from the right).  Every other column becomes a
    feature; a file with no other column is refused.  Every failure is a
    :class:`DataError` naming the file: one that cannot be opened, and parse
    failures and non-finite cells (``nan``, ``inf``) with their row and column.

    The data rows are parsed in one ``np.loadtxt`` call.  When that call
    refuses the file or finds a non-finite cell, the file is parsed again
    row by row with :mod:`csv` and ``float``: that parser names the bad row
    and column, and it also accepts what ``loadtxt`` does not (quoted cells,
    ``1_0``, whitespace-only lines), with the same floats.
    """

    path = Path(path)
    with _csv_header(path, target_column) as (fh, header, target_pos):
        table = _parse_table(fh, len(header))
    if table is None:
        table = _parse_rows(path, header)
    features = np.delete(table, target_pos, axis=1)
    feature_names = tuple(h for i, h in enumerate(header) if i != target_pos)
    logger.info("ingested %s: %d rows, %d features", path, table.shape[0], features.shape[1])
    return RawDataset(features, table[:, target_pos], feature_names, header[target_pos])


@contextmanager
def _csv_header(path: Path, target_column: str | int):
    """Open a CSV and check its header row as :func:`ingest_csv` does.

    Yields the open file, positioned at the first data row, the stripped
    column names and the target's position.  Reading the header alone gives
    the input width (columns - 1) without parsing the table.
    """
    try:
        fh = path.open(newline="")
    except OSError as exc:  # a missing file, a directory, no permission
        raise DataError(f"{path}: cannot read the data file: {exc.strerror}") from None
    with fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        except csv.Error as exc:
            raise DataError(f"{path}: row 1: {exc}") from None
        header = [h.strip() for h in header]
        if isinstance(target_column, int):
            if not -len(header) <= target_column < len(header):
                raise DataError(
                    f"{path}: target column index {target_column} out of range for "
                    f"{len(header)} columns {header}"
                )
            target_pos = target_column % len(header)
        else:
            if target_column not in header:
                raise DataError(
                    f"{path}: no column named {target_column!r}; available columns: "
                    f"{header}"
                )
            target_pos = header.index(target_column)
        if len(header) == 1:
            raise DataError(f"{path}: no feature columns; the only column, "
                            f"{header[0]!r}, is the target")
        yield fh, header, target_pos


def csv_shape(path: str | Path, target_column: str | int = -1) -> tuple[int, int]:
    """The data rows and the input width :func:`ingest_csv` would give.

    The header is checked as :func:`ingest_csv` checks it, and the data
    records are counted with its row parser's reader and blank-line rule,
    without converting a cell, so a failure names what ingesting would.
    """
    path = Path(path)
    with _csv_header(path, target_column) as (fh, header, _):
        rows = sum(1 for _ in _records(path, fh))
    if not rows:
        raise DataError(f"{path}: no data rows")
    return rows, len(header) - 1


def _records(path: Path, fh):
    """Yield (file line, cells) of each data record of ``fh``, past the header.

    Blank lines are skipped; a record :mod:`csv` cannot read (e.g. a cell
    over ``csv.field_size_limit()``) is a :class:`DataError` naming its row.
    """
    line_no = 1
    try:
        for line_no, row in enumerate(csv.reader(fh), start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue  # ignore blank lines
            yield line_no, row
    except csv.Error as exc:
        raise DataError(f"{path}: row {line_no + 1}: {exc}") from None


def _parse_table(lines, width: int) -> np.ndarray | None:
    """The data rows in one ``loadtxt`` call, or None if the row parser must run.

    ``loadtxt`` and ``float`` read a number with the same correctly rounded
    conversion, and any quote character fails ``loadtxt``'s conversion, so a
    table returned here is the one the row parser builds.
    """
    with warnings.catch_warnings():
        # a header-only file: the row parser raises "no data rows" instead
        warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                UserWarning)
        try:
            table = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, dtype=float)
        except ValueError:
            return None
    if table.shape[0] == 0 or table.shape[1] != width or not np.isfinite(table).all():
        return None
    return table


def _parse_rows(path: Path, header: list[str]) -> np.ndarray:
    """Parse the data rows cell by cell, naming the first bad row and column."""
    with path.open(newline="") as fh:
        next(csv.reader(fh))  # the header, already read
        rows: list[list[float]] = []
        line_nos = array("i")  # file line of each data row, for diagnostics
        for line_no, row in _records(path, fh):
            if len(row) != len(header):
                raise DataError(
                    f"{path}: row {line_no} has {len(row)} cells, expected "
                    f"{len(header)}"
                )
            parsed = []
            for col, cell in enumerate(row):
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise DataError(
                        f"{path}: row {line_no}, column {header[col]!r}: "
                        f"non-numeric cell {cell!r}"
                    ) from None
            rows.append(parsed)
            line_nos.append(line_no)
    if not rows:
        raise DataError(f"{path}: no data rows")
    table = np.array(rows, dtype=float)
    if not np.isfinite(table).all():
        r, col = (int(v) for v in np.argwhere(~np.isfinite(table))[0])
        raise DataError(
            f"{path}: row {line_nos[r]}, column {header[col]!r}: "
            f"non-finite cell {float(table[r, col])}"
        )
    return table


def preprocess_and_partition(dataset: RawDataset, clients: int, seed: int) -> Streams:
    """Rescale, shuffle, and split a dataset into per-client streams.

    Features are min-max rescaled to [-1, 1] and targets to [0, 1] using the
    global extrema of the whole dataset; constant columns map to 0 with a
    logged warning.  Rows are then randomly permuted (deterministic in
    ``seed``) and split contiguously into ``clients`` streams of equal
    length, dropping any remainder.
    """

    if clients < 1:
        raise DataError(f"clients must be >= 1, got {clients}")
    n = dataset.rows
    if n < clients:
        raise DataError(f"{n} rows cannot be split across {clients} clients")
    x = np.asarray(dataset.features, dtype=float)
    y = np.asarray(dataset.targets, dtype=float)

    lo = x.min(axis=0)
    hi = x.max(axis=0)
    span = hi - lo
    flat = span == 0.0
    if flat.any():
        names = [dataset.feature_names[i] for i in np.flatnonzero(flat)]
        logger.warning("constant feature columns %s mapped to 0", names)
    safe = np.where(flat, 1.0, span)
    xs = -1.0 + 2.0 * (x - lo) / safe
    xs[:, flat] = 0.0

    y_lo, y_hi = y.min(), y.max()
    if y_hi == y_lo:
        logger.warning("constant target column mapped to 0")
        ys = np.zeros_like(y)
    else:
        ys = (y - y_lo) / (y_hi - y_lo)

    order = stream(seed, ROLE_PERMUTE).permutation(n)
    horizon = n // clients
    dropped = n - horizon * clients
    if dropped:
        logger.warning("dropping %d of %d rows to split evenly across %d clients",
                       dropped, n, clients)
    keep = order[: horizon * clients]
    return Streams(
        xs=xs[keep].reshape(clients, horizon, -1),
        ys=ys[keep].reshape(clients, horizon),
        meta={
            "source": "preprocessed",
            "rows": int(n),
            "dropped": int(dropped),
            "seed": int(seed),
        },
    )


# ---------------------------------------------------------------------------
# Adversarial generators


def default_bias(num_spaces: int, subset_size: int, horizon: int) -> float:
    """The hidden-arm bias at which the instance sits on the detection edge."""
    return float(np.sqrt(num_spaces) / (3.0 * np.sqrt(subset_size * horizon)))


@dataclass(frozen=True)
class AdversarialSpec:
    """Configuration of a hard-instance generator.

    ``kind`` is ``"bernoulli_symmetric"`` (all coordinates and labels are
    fair ±1 coins; no space is better than any other) or ``"biased_arm"``
    (one hidden coordinate is 1 slightly more often than the rest; labels
    are all 1).  Every client sees the same stream.  ``bias`` defaults to
    the detection-edge value √K/(3√(J·T)).
    """

    kind: str
    num_spaces: int
    input_dim: int
    horizon: int
    clients: int
    seed: int
    subset_size: int = 2
    bias: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("bernoulli_symmetric", "biased_arm"):
            raise DataError(f"unknown adversarial kind {self.kind!r}")
        if self.num_spaces > self.input_dim:
            raise DataError(
                f"num_spaces {self.num_spaces} exceeds input_dim {self.input_dim}"
            )
        if self.num_spaces > self.horizon:
            raise DataError(
                f"num_spaces {self.num_spaces} exceeds horizon {self.horizon}"
            )
        if self.bias is not None and not 0.0 <= self.bias <= 1.0:
            raise DataError(f"bias must be in [0, 1], got {self.bias}")

    @property
    def effective_bias(self) -> float:
        if self.bias is not None:
            return self.bias
        return default_bias(self.num_spaces, self.subset_size, self.horizon)


def generate_adversarial(spec: AdversarialSpec) -> Streams:
    """Materialize the hard instance described by ``spec``.

    Both kinds embed the K decision coordinates into the first K of
    ``input_dim`` coordinates (the rest are zero) and share one stream
    across all clients, so every client faces the same adversary.  The
    streams' ``xs`` and ``ys`` are read-only broadcast views of that one
    stream: M clients cost the memory of one.
    """

    rng = stream(spec.seed, ROLE_ADVERSARY)
    T, K, d = spec.horizon, spec.num_spaces, spec.input_dim
    x = np.zeros((T, d))
    meta: dict = {"kind": spec.kind, "seed": int(spec.seed)}
    if spec.kind == "bernoulli_symmetric":
        x[:, :K] = 2.0 * (rng.random((T, K)) < 0.5) - 1.0
        y = 2.0 * (rng.random(T) < 0.5) - 1.0
    else:  # biased_arm
        hidden = int(rng.integers(K))
        rho = spec.effective_bias
        probs = np.full(K, (1.0 - rho) / 2.0)
        probs[hidden] = (1.0 + rho) / 2.0
        x[:, :K] = (rng.random((T, K)) < probs[None, :]).astype(float)
        y = np.ones(T)
        meta.update(hidden_arm=hidden, bias=float(rho))
    xs = np.broadcast_to(x, (spec.clients, T, d))
    ys = np.broadcast_to(y, (spec.clients, T))
    return Streams(xs=xs, ys=ys, meta=meta)


# ---------------------------------------------------------------------------
# Synthetic regression streams

# the planted vector's intercept and slope norm (total norm ~0.583)
_INTERCEPT = 0.5
_SLOPE_NORM = 0.3


def synthetic_linear(
    input_dim: int,
    clients: int,
    horizon: int,
    seed: int,
    noise: float = 0.05,
) -> Streams:
    """I.i.d. linear-regression streams with a planted parameter vector.

    The first coordinate is a constant 1 (intercept); the rest are uniform
    on [-1, 1] and independent across clients and rounds.  Targets are
    ``_INTERCEPT + <slope, x[1:]> + noise`` clipped to [0, 1], with the slope
    drawn once (shared by all clients) at norm ``_SLOPE_NORM``.  The planted
    vector has total norm sqrt(_INTERCEPT^2 + _SLOPE_NORM^2), so nested-radius
    space grids straddle it: small radii underfit, large radii admit it.
    """

    if input_dim < 2:
        raise DataError(f"input_dim must be >= 2 (intercept + slopes), got {input_dim}")
    planted = stream(seed, ROLE_DATA, 0)
    direction = planted.standard_normal(input_dim - 1)
    direction /= np.linalg.norm(direction)
    slope = _SLOPE_NORM * direction
    xs = np.empty((clients, horizon, input_dim))
    ys = np.empty((clients, horizon))
    for j in range(clients):
        client_rng = stream(seed, ROLE_DATA, 1 + j)
        rest = client_rng.uniform(-1.0, 1.0, size=(horizon, input_dim - 1))
        eps = client_rng.standard_normal(horizon)
        xs[j, :, 0] = 1.0
        xs[j, :, 1:] = rest
        ys[j] = np.clip(_INTERCEPT + rest @ slope + noise * eps, 0.0, 1.0)
    weight = np.concatenate([[_INTERCEPT], slope])
    return Streams(
        xs=xs,
        ys=ys,
        meta={
            "kind": "synthetic_linear",
            "seed": int(seed),
            "noise": float(noise),
            "planted_norm": float(np.linalg.norm(weight)),
        },
    )


def write_regression_csv(
    path: str | Path,
    rows: int,
    input_dim: int,
    seed: int,
    noise: float = 0.05,
) -> Path:
    """Write a nonlinear regression CSV in the shape of a UCI-style table.

    Features are uniform on [-1, 1]; the target is a smooth mixture of two
    Gaussian bumps over a random 3-dimensional projection of the features,
    plus noise — learnable by Gaussian-kernel features but not by any
    single linear space.  Header row ``f0..f{d-1},target``.
    """

    if input_dim < 3:
        raise DataError(f"input_dim must be >= 3, got {input_dim}")
    rng = stream(seed, ROLE_DATA, 7)
    x = rng.uniform(-1.0, 1.0, size=(rows, input_dim))
    coords = rng.permutation(input_dim)[:3]
    centers = rng.uniform(-0.6, 0.6, size=(2, 3))
    proj = x[:, coords]
    d0 = ((proj - centers[0]) ** 2).sum(axis=1)
    d1 = ((proj - centers[1]) ** 2).sum(axis=1)
    y = np.exp(-d0 / 0.8) - 0.7 * np.exp(-d1 / 0.5) + noise * rng.standard_normal(rows)
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{i}" for i in range(input_dim)] + ["target"])
        for r in range(rows):
            writer.writerow([repr(float(v)) for v in x[r]] + [repr(float(y[r]))])
    return path
