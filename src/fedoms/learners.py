"""Complete learners: step-size schedules, the cooperative and noncooperative
drivers, and regret accounting.

Both learners run the one round kernel, :func:`fedoms.protocol.run_epoch`.
The cooperative learner (:func:`run_fomd_oms`) runs it with one server for
all M clients over its communication epochs; the noncooperative baseline
(:func:`run_nco_oms`) runs it with M servers, one per client, one round per
epoch, single-client schedules and zero communication.  Both consume the
same pre-laid per-client uniform tables, so at M=1 the two produce
bit-identical traces.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from .data import Streams
from .mirror import InfBox, L2Ball, constraint_arrays, materialize, project
from .protocol import (
    AuditLog,
    ClientBatch,
    EpochSchedule,
    RunSetup,
    ServerState,
    TraceBuffers,
    check_header_fields,
    run_epoch,
)
from .results import RunArtifact
from .rng import sampling_uniforms
from .sampling import validate_subset_size
from .spaces import HypothesisSpace, Loss, loss_derivative, loss_value

__all__ = [
    "ScheduleParams",
    "LearnerConfig",
    "check_update_steps",
    "eta_schedule",
    "lambda_schedule",
    "initial_distribution",
    "run_fomd_oms",
    "run_nco_oms",
    "regret_accounting",
    "best_fixed_hypothesis",
]

logger = logging.getLogger("fedoms.learners")


# ---------------------------------------------------------------------------
# Step-size schedules


def check_update_steps(num_spaces: int, steps: int) -> None:
    """Reject K * steps < 2: the mirror rate's sqrt(ln(K * steps)) would be 0."""
    if num_spaces * steps < 2:
        raise ValueError(
            f"num_spaces * update steps must be >= 2 for a positive mirror rate "
            f"(got {num_spaces} * {steps})")


@dataclass(frozen=True)
class ScheduleParams:
    """Inputs of the step-size schedules.

    ``horizon`` is the number of update steps the server takes: the round
    horizon T for per-round communication, or the epoch count R for the
    batched protocol.  The noncooperative baseline uses ``clients=1``.
    """

    num_spaces: int
    subset_size: int
    clients: int
    horizon: int
    radii: tuple[float, ...]
    lipschitz: tuple[float, ...]
    loss_bounds: tuple[float, ...]

    def __post_init__(self) -> None:
        validate_subset_size(self.subset_size, self.num_spaces)
        if self.clients < 1:
            raise ValueError(f"clients must be >= 1, got {self.clients}")
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        check_update_steps(self.num_spaces, self.horizon)
        for name in ("radii", "lipschitz", "loss_bounds"):
            vals = getattr(self, name)
            if len(vals) != self.num_spaces:
                raise ValueError(f"{name} has {len(vals)} entries, expected {self.num_spaces}")
            if not all(np.isfinite(v) and v > 0 for v in vals):
                raise ValueError(f"{name} entries must be positive and finite, got {vals}")

    @staticmethod
    def from_spaces(
        spaces: "tuple[HypothesisSpace, ...] | list[HypothesisSpace]",
        subset_size: int,
        clients: int,
        horizon: int,
    ) -> "ScheduleParams":
        return ScheduleParams(
            num_spaces=len(spaces),
            subset_size=subset_size,
            clients=clients,
            horizon=horizon,
            radii=tuple(float(s.radius) for s in spaces),
            lipschitz=tuple(float(s.lipschitz_bound) for s in spaces),
            loss_bounds=tuple(float(s.loss_bound) for s in spaces),
        )

    @property
    def exploration_ratio(self) -> float:
        """(K - J) / (J - 1): the variance overhead of sampling J of K spaces."""
        if self.num_spaces == 1:
            return 0.0
        return (self.num_spaces - self.subset_size) / (self.subset_size - 1.0)

    @property
    def variance_factor(self) -> float:
        """1 + exploration_ratio / clients, the schedule's horizon inflation."""
        return 1.0 + self.exploration_ratio / self.clients


def eta_schedule(params: ScheduleParams) -> float:
    """Mirror-step rate: sqrt(ln(K*H)) / (2 sqrt(variance_factor * H)), capped.

    The same at every update step.  The cap (J-1)/(2(K-J)) keeps the
    implicit exponential weights stable when the sampled subset is much
    smaller than K; it disappears at J=K.
    """

    K, J, H = params.num_spaces, params.subset_size, params.horizon
    rate = float(np.sqrt(np.log(K * H)) / (2.0 * np.sqrt(params.variance_factor * H)))
    if J < K:
        rate = min(rate, (J - 1.0) / (2.0 * (K - J)))
    return rate


def lambda_schedule(params: ScheduleParams, rounds: np.ndarray) -> np.ndarray:
    """(len(rounds), K) parameter step sizes, one row per update step in ``rounds``.

    Space i's step size is flat at its t = exploration_ratio^2 value until
    ``t`` exceeds that threshold, then decays as 1/sqrt(t); non-increasing
    throughout.  Every ``t`` must lie in [1, horizon].  Elementwise IEEE
    operations: a row comes out the same bits whichever call computes it.
    """
    rounds = np.asarray(rounds, dtype=float)
    if not ((rounds >= 1).all() and (rounds <= params.horizon).all()):
        raise ValueError(f"rounds must lie in [1, {params.horizon}], got "
                         f"{rounds.min():g} to {rounds.max():g}")
    g = params.exploration_ratio
    denom = 2.0 * np.sqrt(params.variance_factor * np.maximum(g * g, rounds))
    return np.asarray(params.radii) / (np.asarray(params.lipschitz) * denom[:, None])


def initial_distribution(params: ScheduleParams, uniform: bool = False) -> np.ndarray:
    """Initial sampling distribution: nearly all mass on the cheapest space.

    Every space gets 1/sqrt(K*H) and the spaces of minimal loss bound split
    the remaining 1 - sqrt(K/H) evenly — starting at the least costly space
    caps the worst-case early loss.  ``uniform=True`` selects the flat
    benchmark preset instead; when K >= H the formula would leave nothing to
    split, so the uniform fallback is used with a logged warning.
    """

    K, H = params.num_spaces, params.horizon
    if uniform:
        p = np.full(K, 1.0 / K)
    elif K >= H:
        logger.warning(
            "initial distribution: %d spaces >= horizon %d, falling back to uniform", K, H
        )
        p = np.full(K, 1.0 / K)
    else:
        bounds = np.asarray(params.loss_bounds)
        cheapest = bounds == bounds.min()
        p = np.full(K, 1.0 / np.sqrt(K * H))
        p += (1.0 - np.sqrt(K / H)) * cheapest / cheapest.sum()
    return p / p.sum()


# ---------------------------------------------------------------------------
# Learner configuration


@dataclass(frozen=True)
class LearnerConfig:
    """Everything needed to run either learner on a set of streams.

    ``epochs`` (cooperative learner only) batches the horizon into that many
    communication rounds; ``None`` communicates every round.  ``audit``
    additionally pushes every message through the serialized wire path and
    cross-checks it against the vectorized engine.
    """

    spaces: tuple[HypothesisSpace, ...]
    loss: Loss
    clients: int
    subset_size: int
    horizon: int
    epochs: int | None = None
    master_seed: int = 0
    uniform_init: bool = False
    audit: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.spaces, tuple):
            object.__setattr__(self, "spaces", tuple(self.spaces))
        if not self.spaces:
            raise ValueError("at least one hypothesis space is required")
        validate_subset_size(self.subset_size, len(self.spaces))
        if self.clients < 1:
            raise ValueError(f"clients must be >= 1, got {self.clients}")
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if self.epochs is not None:
            EpochSchedule(self.horizon, self.epochs)  # validates divisibility

    @property
    def num_spaces(self) -> int:
        return len(self.spaces)

    @property
    def effective_epochs(self) -> int:
        return self.horizon if self.epochs is None else self.epochs


def _validate_pair(config: LearnerConfig, streams: Streams) -> None:
    if streams.clients != config.clients:
        raise ValueError(
            f"config expects {config.clients} clients, streams provide {streams.clients}"
        )
    if streams.horizon != config.horizon:
        raise ValueError(
            f"config expects horizon {config.horizon}, streams provide {streams.horizon}"
        )
    for i, space in enumerate(config.spaces):
        expected = getattr(space.feature_map, "input_dim", None)
        if expected is not None and expected != streams.input_dim:
            raise ValueError(
                f"space {i} expects input dimension {expected}, "
                f"streams provide {streams.input_dim}"
            )


def _assemble(
    algorithm: str,
    config: LearnerConfig,
    streams: Streams,
    schedule: EpochSchedule,
    buffers: TraceBuffers,
    final_probs: np.ndarray,
    wall: float,
    audit: AuditLog | None,
) -> RunArtifact:
    M, T = config.clients, config.horizon
    N = schedule.rounds_per_epoch
    meta = dict(streams.meta)
    meta.update(seed=config.master_seed, subset_size=config.subset_size)
    if audit is not None:
        meta["audit_frames_checked"] = audit.frames_checked
        meta["audit_mismatches"] = list(audit.mismatches)
    return RunArtifact(
        algorithm=algorithm,
        clients=M,
        horizon=T,
        epochs=schedule.epochs,
        num_spaces=config.num_spaces,
        round_ids=np.repeat(np.arange(1, T + 1, dtype=np.int64), M),
        client_ids=np.tile(np.arange(M, dtype=np.int64), T),
        epoch_ids=np.repeat(np.arange(T, dtype=np.int64) // N + 1, M),
        lead_indices=buffers.leads.ravel(),
        predictions=buffers.predictions.ravel(),
        losses=buffers.losses.ravel(),
        targets=np.ascontiguousarray(streams.ys, dtype=float).T.ravel(),
        uplink_bits=buffers.uplink_bits.ravel(),
        downlink_bits=buffers.downlink_bits.ravel(),
        final_probs=final_probs,
        total_uplink_bits=int(buffers.uplink_bits.sum()),
        total_downlink_bits=int(buffers.downlink_bits.sum()),
        wall_seconds=wall,
        meta=meta,
    )


def _run_servers(
    config: LearnerConfig,
    streams: Streams,
    servers: int,
    schedule: EpochSchedule,
    params: ScheduleParams,
    communicates: bool,
) -> tuple[ServerState, TraceBuffers, float, AuditLog | None]:
    """Run every epoch of ``schedule`` on ``servers`` server states.

    Each server starts from the initial distribution of ``params`` and zero
    models, and steps with the schedules of ``params``.  Returns the final
    state, the trace, the wall time of the epoch loop and the audit log.
    """
    M, T = config.clients, config.horizon
    audit = AuditLog() if communicates and config.audit else None
    if audit is not None:  # fail before the first epoch, not at its frames
        check_header_fields(schedule.epochs, M - 1, config.subset_size)
    setup = RunSetup(
        spaces=config.spaces,
        loss=config.loss,
        subset_size=config.subset_size,
        epochs=schedule,
        mirror_rate=eta_schedule(params),
        param_rates=lambda_schedule(params, np.arange(1.0, schedule.epochs + 1.0)),
        audit=audit,
        communicates=communicates,
    )
    log_p = np.log(initial_distribution(params, uniform=config.uniform_init))
    state = ServerState(
        log_p=np.tile(log_p, (servers, 1)),
        weights=np.zeros((servers, config.num_spaces, setup.max_dim)),
    )
    batch = ClientBatch(
        # the kernel gathers rows and columns into new arrays, so a
        # broadcast view (one stream shared by every client) is not copied
        xs=np.asarray(streams.xs, dtype=float),
        ys=np.asarray(streams.ys, dtype=float),
        uniforms=sampling_uniforms(config.master_seed, M, T, config.subset_size),
    )
    buffers = TraceBuffers.allocate(T, M)
    start = time.perf_counter()
    for epoch in range(1, schedule.epochs + 1):
        run_epoch(state, setup, batch, epoch, buffers)
    return state, buffers, time.perf_counter() - start, audit


# ---------------------------------------------------------------------------
# Drivers


def run_fomd_oms(config: LearnerConfig, streams: Streams) -> RunArtifact:
    """Run the cooperative learner over its communication epochs.

    One server state is shared by all clients: each epoch the server samples
    a subset of spaces per client, clients report epoch-averaged losses and
    gradients for their subsets, and the server takes importance-weighted
    mirror/projected-gradient steps.  Schedules are evaluated with the epoch
    count as the effective horizon.
    """

    _validate_pair(config, streams)
    schedule = EpochSchedule(config.horizon, config.effective_epochs)
    params = ScheduleParams.from_spaces(
        config.spaces, config.subset_size, config.clients, schedule.epochs
    )
    state, buffers, wall, audit = _run_servers(
        config, streams, 1, schedule, params, communicates=True
    )
    return _assemble(
        "fomd_oms", config, streams, schedule, buffers,
        materialize(state.log_p)[0], wall, audit,
    )


def run_nco_oms(config: LearnerConfig, streams: Streams) -> RunArtifact:
    """Run the noncooperative baseline: per-client independent learners.

    Every client is its own server: it keeps its own sampling distribution
    and parameter vectors, communicates every round with nobody, and updates
    with single-client schedules over the round horizon.  Nothing is sent,
    so both bit counters stay zero.  Clients are advanced in lock-step so
    the whole population is vectorized, but no value ever crosses clients.
    ``epochs`` must be unset: with no communication there is nothing to
    batch.  ``audit`` is ignored for the same reason.
    """

    _validate_pair(config, streams)
    if config.epochs not in (None, config.horizon):
        raise ValueError(
            "the noncooperative learner has no communication epochs; leave epochs unset"
        )
    schedule = EpochSchedule(config.horizon, config.horizon)
    params = ScheduleParams.from_spaces(
        config.spaces, config.subset_size, 1, config.horizon
    )
    state, buffers, wall, _ = _run_servers(
        config, streams, config.clients, schedule, params, communicates=False
    )
    return _assemble(
        "nco_oms", config, streams, schedule, buffers,
        materialize(state.log_p), wall, None,
    )


# ---------------------------------------------------------------------------
# Regret accounting


def _check_feasible(constraint: L2Ball | InfBox, w: np.ndarray, tol: float = 1e-9) -> None:
    (box,), (bound,) = constraint_arrays([constraint])
    if box:
        size, measure, limit = float(np.abs(w).max()), "coordinate magnitude", "half width"
    else:
        size, measure, limit = float(np.linalg.norm(w)), "norm", "radius"
    if size > bound + tol:
        raise ValueError(
            f"comparator is infeasible: {measure} {size:.6g} exceeds {limit} {bound:.6g}"
        )


def regret_accounting(
    artifact: RunArtifact,
    streams: Streams,
    space: HypothesisSpace,
    loss_kind: Loss,
    comparator: np.ndarray,
) -> float:
    """Cumulative lead-model loss minus the comparator's loss on the same data.

    The comparator is a fixed parameter vector in ``space``; it must be
    feasible for the space's constraint set.  Summation runs over all
    clients and rounds.
    """

    w = np.asarray(comparator, dtype=float)
    if w.shape != (space.dim,):
        raise ValueError(f"comparator has shape {w.shape}, expected ({space.dim},)")
    _check_feasible(space.constraint, w)
    phi = space.feature_map(streams.xs.reshape(-1, streams.input_dim))
    comparator_loss = float(
        loss_value(loss_kind, phi @ w, streams.ys.reshape(-1)).sum()
    )
    return artifact.cumulative_loss() - comparator_loss


def best_fixed_hypothesis(
    streams: Streams,
    space: HypothesisSpace,
    loss_kind: Loss,
    steps: int = 10_000,
) -> np.ndarray:
    """Approximate the best fixed parameter vector in a space, offline.

    Full-batch projected gradient descent with step sizes radius/(G sqrt(s))
    over ``steps`` iterations, returning the iterate with the lowest
    objective seen.  For the square loss the objective and gradient are
    evaluated through precomputed second moments, so the per-step cost is
    independent of the dataset size.
    """

    phi = space.feature_map(streams.xs.reshape(-1, streams.input_dim))
    y = streams.ys.reshape(-1)
    n = y.shape[0]
    if loss_kind == Loss.SQUARE:
        gram = phi.T @ phi / n
        moment = phi.T @ y / n
        const = float(y @ y) / n

        def objective(v: np.ndarray) -> float:
            return float(v @ (gram @ v) - 2.0 * (moment @ v) + const)

        def gradient(v: np.ndarray) -> np.ndarray:
            return 2.0 * (gram @ v - moment)

    else:

        def objective(v: np.ndarray) -> float:
            return float(loss_value(loss_kind, phi @ v, y).mean())

        def gradient(v: np.ndarray) -> np.ndarray:
            return phi.T @ loss_derivative(loss_kind, phi @ v, y) / n

    w = np.zeros(space.dim)
    best_w, best_f = w.copy(), objective(w)
    for s in range(1, steps + 1):
        rate = space.radius / (space.lipschitz_bound * np.sqrt(s))
        w = project(space.constraint, w - rate * gradient(w))
        f = objective(w)
        if f < best_f:
            best_f, best_w = f, w.copy()
    return best_w
