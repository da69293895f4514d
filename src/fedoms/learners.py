"""Complete learners: step-size schedules, the cooperative and noncooperative
drivers, and regret accounting.

A run is a :class:`LearnerConfig`, which checks the run's shape when it is
built, plus the two objects of :mod:`fedoms.protocol` the driver makes from
it: a ``RunSetup`` that the run reads (spaces, streams, sampling uniforms,
step sizes) and a ``ServerState`` that it writes (distributions, models,
trace).  The schedules are closed forms in plain numbers (K, J, clients,
update steps) and the spaces' radius, Lipschitz and loss-bound arrays.

Both learners run the one round kernel, :func:`fedoms.protocol.run_epoch`,
as servers of its client→server layout.  The cooperative learner
(:func:`run_fomd_oms`) is one server for all M clients over its
communication epochs; the noncooperative baseline (:func:`run_nco_oms`) is
M servers, one per client, one round per epoch, single-client schedules and
zero communication.  Both consume the same pre-laid per-client uniform
tables, so at M=1 the two produce bit-identical traces.  :func:`run_many`
runs many runs of the same spaces and shape (the paired runs of a
comparison, or the seeds of a sweep) as the servers of one kernel loop, and
each run's artifact keeps the bytes of its solo run.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import Streams
from .mirror import entropy_rates, materialize, project_rows_per_row
from .protocol import (
    AuditLog,
    RunSetup,
    ServerState,
    check_header_fields,
    run_epoch,
)
from .results import RunArtifact
from .rng import sampling_uniforms
from .sampling import validate_subset_size
from .spaces import HypothesisSpace, Loss, loss_derivative, loss_value

__all__ = [
    "LearnerConfig",
    "check_epochs",
    "check_nco_epochs",
    "check_update_steps",
    "eta_schedule",
    "lambda_schedule",
    "initial_distribution",
    "run_many",
    "run_fomd_oms",
    "run_nco_oms",
    "regret_accounting",
    "best_fixed_hypothesis",
]

logger = logging.getLogger("fedoms.learners")


# ---------------------------------------------------------------------------
# Step-size schedules
#
# ``steps`` is the number of update steps a server takes: the round horizon
# T for per-round communication, or the epoch count R for the batched
# protocol.  ``clients`` is the number of clients a server averages over:
# M for the cooperative learner, 1 for the noncooperative baseline.


def check_update_steps(num_spaces: int, steps: int) -> None:
    """Reject K * steps < 2: the mirror rate's sqrt(ln(K * steps)) would be 0."""
    if num_spaces * steps < 2:
        raise ValueError(
            f"num_spaces * update steps must be >= 2 for a positive mirror rate "
            f"(got {num_spaces} * {steps})")


def check_epochs(horizon: int, epochs: int) -> None:
    """Reject an epoch count below 1 or one that leaves a ragged final epoch.

    Decisions are frozen within an epoch and communication happens once per
    epoch, so the ``horizon`` rounds must split into ``epochs`` equal blocks
    rather than be silently truncated.
    """
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    if horizon % epochs != 0:
        raise ValueError(
            f"epochs must divide the horizon exactly ({horizon} rounds "
            f"over {epochs} epochs leaves a remainder)"
        )


def check_nco_epochs(horizon: int, epochs: int | None) -> None:
    """Reject a noncooperative epoch count other than unset or the horizon.

    The baseline communicates with nobody, so it has no epochs to batch; an
    epoch count equal to the horizon spells its one round per epoch.
    """
    if epochs not in (None, horizon):
        raise ValueError("the noncooperative learner has no communication epochs; "
                         "omit epochs or set it equal to the horizon")


def _exploration_ratio(num_spaces: int, subset_size: int) -> float:
    """(K - J) / (J - 1): the variance overhead of sampling J of K spaces."""
    if num_spaces == 1:
        return 0.0
    return (num_spaces - subset_size) / (subset_size - 1.0)


def eta_schedule(num_spaces: int, subset_size: int, clients: int, steps: int) -> float:
    """Mirror-step rate: sqrt(ln(K*H)) / (2 sqrt(v * H)), capped.

    ``v = 1 + exploration ratio / clients`` inflates the horizon ``H =
    steps``.  The rate is the same at every update step.  The cap
    (J-1)/(2(K-J)) keeps the implicit exponential weights stable when the
    sampled subset is much smaller than K; it disappears at J=K.
    """

    K, J, H = num_spaces, subset_size, steps
    variance = 1.0 + _exploration_ratio(K, J) / clients
    rate = float(np.sqrt(np.log(K * H)) / (2.0 * np.sqrt(variance * H)))
    if J < K:
        rate = min(rate, (J - 1.0) / (2.0 * (K - J)))
    return rate


def lambda_schedule(
    radii: np.ndarray,
    lipschitz: np.ndarray,
    subset_size: int,
    clients: int,
    steps: int,
    rounds: np.ndarray,
) -> np.ndarray:
    """(len(rounds), K) parameter step sizes, one row per update step in ``rounds``.

    Space i's step size radii[i] / (lipschitz[i] * 2 sqrt(v * t)) is flat at
    its t = exploration_ratio^2 value until ``t`` exceeds that threshold,
    then decays as 1/sqrt(t); non-increasing throughout.  Every ``t`` must
    lie in [1, steps].  Elementwise IEEE operations: a row comes out the
    same bits whichever call computes it.
    """
    rounds = np.asarray(rounds, dtype=float)
    if not ((rounds >= 1).all() and (rounds <= steps).all()):
        raise ValueError(f"rounds must lie in [1, {steps}], got "
                         f"{rounds.min():g} to {rounds.max():g}")
    radii = np.asarray(radii)
    g = _exploration_ratio(radii.shape[0], subset_size)
    denom = 2.0 * np.sqrt((1.0 + g / clients) * np.maximum(g * g, rounds))
    return radii / (np.asarray(lipschitz) * denom[:, None])


def initial_distribution(loss_bounds: np.ndarray, steps: int,
                         uniform: bool = False) -> np.ndarray:
    """Initial sampling distribution: nearly all mass on the cheapest space.

    Every space gets 1/sqrt(K*H) and the spaces of minimal loss bound split
    the remaining 1 - sqrt(K/H) evenly, with H = ``steps`` — starting at the
    least costly space caps the worst-case early loss.  ``uniform=True``
    selects the flat benchmark preset instead; when K >= H the formula would
    leave nothing to split, so the uniform fallback is used with a logged
    warning.
    """

    bounds = np.asarray(loss_bounds)
    K, H = bounds.shape[0], steps
    if uniform:
        p = np.full(K, 1.0 / K)
    elif K >= H:
        logger.warning(
            "initial distribution: %d spaces >= horizon %d, falling back to uniform", K, H
        )
        p = np.full(K, 1.0 / K)
    else:
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
    cross-checks it against the vectorized engine.  ``loss`` may be given as
    its string value; it is stored as a :class:`Loss`.
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
        object.__setattr__(self, "loss", Loss(self.loss))
        if not self.spaces:
            raise ValueError("at least one hypothesis space is required")
        validate_subset_size(self.subset_size, len(self.spaces))
        if self.clients < 1:
            raise ValueError(f"clients must be >= 1, got {self.clients}")
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if self.epochs is not None:
            check_epochs(self.horizon, self.epochs)
        # the baseline steps T >= R times, so this bounds both learners
        check_update_steps(self.num_spaces, self.effective_epochs)

    @property
    def num_spaces(self) -> int:
        return len(self.spaces)

    @property
    def effective_epochs(self) -> int:
        return self.horizon if self.epochs is None else self.epochs


def _layout(algorithm: str, config: LearnerConfig, streams: Streams) -> tuple[int, int, int]:
    """Check one run and return its server count, each server's client count
    and its epoch count.

    The cooperative learner (``"fomd"``) runs one server that averages over
    all M clients over its communication epochs; the baseline (``"nco"``)
    runs one silent server per client, one round per epoch.
    """
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
    if algorithm == "fomd":
        return 1, config.clients, config.effective_epochs
    if algorithm == "nco":
        check_nco_epochs(config.horizon, config.epochs)
        return config.clients, 1, config.horizon
    raise ValueError(f"algorithm must be 'fomd' or 'nco', got {algorithm!r}")


def _joined(blocks: list[np.ndarray]) -> np.ndarray:
    """The blocks' rows as one float array; a lone block is not copied."""
    return (np.asarray(blocks[0], dtype=float) if len(blocks) == 1
            else np.concatenate(blocks, dtype=float))


def _assemble(
    algorithm: str,
    config: LearnerConfig,
    streams: Streams,
    state: ServerState,
    setup: RunSetup,
    wall: float,
    audit: AuditLog | None,
    run: int,
) -> RunArtifact:
    """Run ``run`` of the stack as its artifact; its lead and bit columns
    come from its slots of ``state.subsets``.

    A client leads with its subset's first space for the whole epoch.  A
    cooperative run charges each message ``setup.message_bits``, downlinks
    at an epoch's first round and uplinks at its last; the baseline's
    servers send nothing, so it is charged 0 bits.
    """
    M, T = config.clients, config.horizon
    servers = setup.server_runs == run
    # a run's slots are consecutive: a slice keeps its panels' columns views
    first, last = np.flatnonzero(servers[setup.slot_servers])[[0, -1]]
    slots = slice(first, last + 1)
    subsets = state.subsets[:, slots]
    N = setup.rounds_per_epoch
    downlink_bits, uplink_bits = np.zeros((2, T, M), dtype=np.int64)
    if algorithm == "fomd":
        downlink_bits[::N], uplink_bits[N - 1::N] = setup.message_bits(subsets)
    probs = materialize(state.log_p[servers])
    meta = {**streams.meta, "seed": config.master_seed, "subset_size": config.subset_size}
    if audit is not None:
        meta["audit_frames_checked"] = audit.frames_checked
        meta["audit_mismatches"] = list(audit.mismatches)
    return RunArtifact(
        algorithm=f"{algorithm}_oms",
        clients=M,
        horizon=T,
        epochs=subsets.shape[0],
        num_spaces=config.num_spaces,
        round_ids=np.repeat(np.arange(1, T + 1, dtype=np.int64), M),
        client_ids=np.tile(np.arange(M, dtype=np.int64), T),
        epoch_ids=np.repeat(np.arange(T, dtype=np.int64) // N + 1, M),
        lead_indices=np.repeat(subsets[:, :, 0], N, axis=0).ravel(),
        predictions=state.predictions[:, slots].ravel(),
        losses=state.losses[:, slots].ravel(),
        targets=np.ascontiguousarray(streams.ys, dtype=float).T.ravel(),
        uplink_bits=uplink_bits.ravel(),
        downlink_bits=downlink_bits.ravel(),
        final_probs=probs[0] if algorithm == "fomd" else probs,
        total_uplink_bits=int(uplink_bits.sum()),
        total_downlink_bits=int(downlink_bits.sum()),
        wall_seconds=wall,
        meta=meta,
    )


def _run_stack(
    runs: list[tuple[str, LearnerConfig, Streams]],
    layouts: list[tuple[int, int, int]],
) -> tuple[ServerState, RunSetup, float, AuditLog | None]:
    """Run a stack of runs as the servers of one kernel loop; return the final state.

    The runs share their spaces, loss, subset size, horizon and epoch length,
    and ``layouts`` holds each run's checked :func:`_layout`.
    Run ``r``'s servers and client slots follow those of the runs before it;
    each of its servers starts from its initial distribution and zero
    models, and steps with the schedules of its client count over the run's
    epochs (schedule ``r``).  Each distinct stream is held once: runs that
    pass one :class:`Streams` read the same rows, and a stream every client
    shares (a broadcast view) is one row.  Returns the final state, the
    stack's set-up, the wall time of the epochs and the audit log of an
    audited cooperative run, which :func:`run_many` stacks alone.
    """
    _, first, _ = runs[0]
    spaces, K, J, T = first.spaces, first.num_spaces, first.subset_size, first.horizon
    radii, lipschitz, loss_bounds = np.array(
        [(s.radius, s.lipschitz_bound, s.loss_bound) for s in spaces], dtype=float).T
    blocks: dict[int, tuple[int, np.ndarray, np.ndarray]] = {}  # id -> first row, xs, ys
    slot_rows, slot_servers, server_runs, uniforms, log_p, etas, steps = ([] for _ in range(7))
    audit = None
    for run, ((algorithm, config, streams), (servers, clients, epochs)) in enumerate(
            zip(runs, layouts)):
        M = config.clients
        if id(streams) not in blocks:
            shared = streams.xs.strides[0] == 0 == streams.ys.strides[0]
            rows = slice(0, 1 if shared else M)
            first_row = sum(len(xs) for _, xs, _ in blocks.values())
            blocks[id(streams)] = first_row, streams.xs[rows], streams.ys[rows]
        first_row, xs, _ = blocks[id(streams)]
        slot_rows.append(first_row + np.arange(M) % len(xs))
        slot_servers.append(len(server_runs) + np.arange(M) // clients)
        server_runs += [run] * servers
        uniforms.append(sampling_uniforms(config.master_seed, M, T, J))
        initial = initial_distribution(loss_bounds, epochs, uniform=config.uniform_init)
        log_p.append(np.tile(np.log(initial), (servers, 1)))
        etas.append(eta_schedule(K, J, clients, epochs))
        steps.append(lambda_schedule(radii, lipschitz, J, clients, epochs,
                                     np.arange(1.0, epochs + 1.0)))
        if algorithm == "fomd" and config.audit:
            audit = AuditLog()
            check_header_fields(epochs, M - 1, J)  # fail before the first epoch
    setup = RunSetup(
        spaces=spaces,
        loss=first.loss,
        subset_size=J,
        # the kernel gathers rows and columns into new arrays, so a lone
        # stream is read where it is, not copied
        xs=_joined([xs for _, xs, _ in blocks.values()]),
        ys=_joined([ys for _, _, ys in blocks.values()]),
        uniforms=_joined(uniforms),
        rounds_per_epoch=T // epochs,
        cell_radii=np.tile(radii, len(server_runs)),
        lipschitz=lipschitz,
        loss_bounds=loss_bounds,
        slot_rows=np.concatenate(slot_rows),
        slot_servers=np.concatenate(slot_servers),
        server_runs=np.array(server_runs),
        mirror_rates=entropy_rates(np.array(etas)[server_runs], loss_bounds),
        param_rates=np.stack(steps, axis=1),
        audit=audit,
    )
    slots = setup.slot_rows.size
    state = ServerState(
        log_p=np.concatenate(log_p),
        weights=np.zeros((len(server_runs), K, setup.max_dim)),
        predictions=np.zeros((T, slots)),
        losses=np.zeros((T, slots)),
        subsets=np.zeros((epochs, slots, J), dtype=np.int64),
    )
    start = time.perf_counter()
    for _ in range(epochs):
        run_epoch(state, setup)
    return state, setup, time.perf_counter() - start, audit


# ---------------------------------------------------------------------------
# Drivers


def run_many(runs: Sequence[tuple[str, LearnerConfig, Streams]]) -> list[RunArtifact]:
    """Run each ``(algorithm, config, streams)`` triple; return the artifacts in order.

    ``algorithm`` is ``"fomd"`` (:func:`run_fomd_oms`) or ``"nco"``
    (:func:`run_nco_oms`).  Every run is checked before any runs.  Runs that
    share their spaces, loss, subset size, horizon and epoch length run as
    the servers of one kernel loop (:func:`_run_stack`), whatever their
    algorithm, seed, streams, client count and initial distribution; an
    audited cooperative run is a stack of its own, because the audit replays
    one server's frames.  Spaces compare by value, except that a random
    feature draw equals only itself.  A stacked run's artifact has the bytes
    of its solo run's, but ``wall_seconds`` is the whole stack's loop time,
    and a stack holds every run's streams and trace until it ends.
    """
    layouts = [_layout(*run) for run in runs]
    stacks: dict[tuple, list[tuple[bool, int]]] = {}
    for position, ((algorithm, config, _), (_, clients, epochs)) in enumerate(
            zip(runs, layouts)):
        # an audited cooperative run's key is its own
        key = (config.spaces, config.loss, config.subset_size, config.horizon,
               config.horizon // epochs, position if algorithm == "fomd" and config.audit else -1)
        stacks.setdefault(key, []).append((clients == 1, position))
    artifacts: list[RunArtifact] = [None] * len(runs)
    for stack_positions in stacks.values():
        # one-client servers go last, where the kernel needs no sums for them
        positions = [p for _, p in sorted(stack_positions)]
        stack = [runs[p] for p in positions]
        state, setup, wall, audit = _run_stack(stack, [layouts[p] for p in positions])
        for run, (p, (algorithm, config, streams)) in enumerate(zip(positions, stack)):
            artifacts[p] = _assemble(algorithm, config, streams, state, setup, wall, audit, run)
    return artifacts


def run_fomd_oms(config: LearnerConfig, streams: Streams) -> RunArtifact:
    """Run the cooperative learner over its communication epochs.

    One server state is shared by all clients: each epoch the server samples
    a subset of spaces per client, clients report epoch-averaged losses and
    gradients for their subsets, and the server takes importance-weighted
    mirror/projected-gradient steps.  Schedules are evaluated with the epoch
    count as the effective horizon.  A one-run :func:`run_many`.
    """

    return run_many([("fomd", config, streams)])[0]


def run_nco_oms(config: LearnerConfig, streams: Streams) -> RunArtifact:
    """Run the noncooperative baseline: per-client independent learners.

    Every client is its own server: it keeps its own sampling distribution
    and parameter vectors, communicates every round with nobody, and updates
    with single-client schedules over the round horizon.  Nothing is sent,
    so both bit counters stay zero.  Clients are advanced in lock-step so
    the whole population is vectorized, but no value ever crosses clients.
    ``epochs`` must be unset or the horizon (:func:`check_nco_epochs`):
    with no communication there is nothing to batch.  ``audit`` is ignored
    for the same reason.  A one-run :func:`run_many`.
    """

    return run_many([("nco", config, streams)])[0]


# ---------------------------------------------------------------------------
# Regret accounting


def regret_accounting(
    artifact: RunArtifact,
    streams: Streams,
    space: HypothesisSpace,
    loss_kind: Loss,
    comparator: np.ndarray,
) -> float:
    """Cumulative lead-model loss minus the comparator's loss on the same data.

    The comparator is a fixed parameter vector in ``space``; it must lie in
    the space's ball.  Summation runs over all clients and rounds.
    """

    w = np.asarray(comparator, dtype=float)
    if w.shape != (space.dim,):
        raise ValueError(f"comparator has shape {w.shape}, expected ({space.dim},)")
    norm = float(np.linalg.norm(w))
    if norm > space.radius + 1e-9:
        raise ValueError(
            f"comparator is infeasible: norm {norm:.6g} exceeds radius {space.radius:.6g}"
        )
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
        w = project_rows_per_row((w - rate * gradient(w))[None, :], space.radius)[0]
        f = objective(w)
        if f < best_f:
            best_f, best_w = f, w.copy()
    return best_w
