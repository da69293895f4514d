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
comparison, or the seeds of a sweep) as the servers of one kernel loop, in
stacks of consecutive runs under one memory bound, and each run's artifact
keeps the bytes of its solo run.  It reads its runs lazily and yields each
artifact as it is built, so a caller that reduces each artifact as it comes
holds at most one stack.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator

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
    run: int,
) -> RunArtifact:
    """Run ``run`` of the stack as its artifact; its leads and message bits
    come from its slots of ``state.subsets``, and an audited run's check
    counts from ``setup.audit``.

    A client leads with its subset's first space for the whole epoch.  A
    cooperative run charges each message ``setup.message_bits``; the
    baseline's servers send nothing, so it stores no bits.
    """
    servers = setup.server_runs == run
    # a run's slots are consecutive: a slice keeps its panels' columns views
    first, last = np.flatnonzero(servers[setup.slot_servers])[[0, -1]]
    slots = slice(first, last + 1)
    subsets = state.subsets[:, slots]
    probs = materialize(state.log_p[servers])
    meta = {**streams.meta, "seed": config.master_seed, "subset_size": config.subset_size}
    if setup.audit is not None:
        meta["audit_frames_checked"] = setup.audit.frames_checked
        meta["audit_mismatches"] = list(setup.audit.mismatches)
    return RunArtifact(
        algorithm=f"{algorithm}_oms",
        predictions=state.predictions[:, slots].ravel(),
        losses=state.losses[:, slots].ravel(),
        leads=subsets[:, :, 0].copy(),
        stream_targets=streams.ys,
        message_bits=setup.message_bits(subsets) if algorithm == "fomd" else None,
        final_probs=probs[0] if algorithm == "fomd" else probs,
        wall_seconds=wall,
        meta=meta,
    )


def _run_stack(
    runs: list[tuple[str, LearnerConfig, Streams]],
    layouts: list[tuple[int, int, int]],
) -> tuple[ServerState, RunSetup, float]:
    """Run a stack of runs as the servers of one kernel loop; return the final state.

    The runs share their spaces, loss, subset size, horizon and epoch length,
    and ``layouts`` holds each run's checked :func:`_layout`.
    Run ``r``'s servers and client slots follow those of the runs before it;
    each of its servers starts from its initial distribution and zero
    models, and steps with the schedules of its client count over the
    stack's epochs; the runs' servers of one client count share one
    step-size table.  Each distinct stream is held once: runs that
    pass one :class:`Streams` read the same rows, and a stream every client
    shares (a broadcast view) is one row.  Returns the final state, the
    stack's set-up, whose ``audit`` is the log of an audited cooperative
    run (which :func:`run_many` stacks alone), and the wall time of the
    epochs.
    """
    _, first, _ = runs[0]
    spaces, K, J, T = first.spaces, first.num_spaces, first.subset_size, first.horizon
    radii, lipschitz, loss_bounds = np.array(
        [(s.radius, s.lipschitz_bound, s.loss_bound) for s in spaces], dtype=float).T
    blocks: dict[int, tuple[int, np.ndarray, np.ndarray]] = {}  # id -> first row, xs, ys
    slot_rows, slot_servers, server_runs, server_schedules, uniforms, log_p = (
        [] for _ in range(6))
    schedules: dict[int, int] = {}  # a server's client count -> its schedule
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
        server_schedules += [schedules.setdefault(clients, len(schedules))] * servers
        uniforms.append(sampling_uniforms(config.master_seed, M, T, J))
        initial = initial_distribution(loss_bounds, epochs, uniform=config.uniform_init)
        log_p.append(np.tile(np.log(initial), (servers, 1)))
        if algorithm == "fomd" and config.audit:
            audit = AuditLog()
            check_header_fields(epochs, M - 1, J)  # fail before the first epoch
    etas, param_rates = np.empty(len(schedules)), np.empty((epochs, len(schedules), K))
    for clients, schedule in schedules.items():
        etas[schedule] = eta_schedule(K, J, clients, epochs)
        param_rates[:, schedule] = lambda_schedule(radii, lipschitz, J, clients, epochs,
                                                   np.arange(1.0, epochs + 1.0))
    server_schedules = np.array(server_schedules)
    uniforms = _joined(uniforms)  # the runs' own tables are dropped once joined
    setup = RunSetup(
        spaces=spaces,
        loss=first.loss,
        subset_size=J,
        # the kernel gathers rows and columns into new arrays, so a lone
        # stream is read where it is, not copied
        xs=_joined([xs for _, xs, _ in blocks.values()]),
        ys=_joined([ys for _, _, ys in blocks.values()]),
        uniforms=uniforms,
        rounds_per_epoch=T // epochs,
        cell_radii=np.tile(radii, len(server_runs)),
        lipschitz=lipschitz,
        loss_bounds=loss_bounds,
        slot_rows=np.concatenate(slot_rows),
        slot_servers=np.concatenate(slot_servers),
        server_runs=np.array(server_runs),
        server_schedules=server_schedules,
        mirror_rates=entropy_rates(etas[server_schedules], loss_bounds),
        param_rates=param_rates,
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
    return state, setup, time.perf_counter() - start


# ---------------------------------------------------------------------------
# Drivers

# The most bytes a stack may take, estimated from its runs' shapes at
# 8·T·M·(4J + 2) a run: per client-round, the J sampling uniforms, J - 1
# complement positions, J entry targets, J subset entries (at one round per
# epoch) and two panel cells that _run_stack allocates, and one more for the
# rest.  The real peak is higher, from transient copies and the streams:
# tracemalloc puts it at 1.15x the estimate at J=2 and 1.33x at J=10.  A
# stack holds its memory until its last artifact is read, so the bound
# keeps the peak flat however many runs there are.  64 MB
# stacks 10 seeds' fomd/nco pairs of hidden-arm's shape (M=10, K=16, J=2,
# T=4000), 3.2 MB a run; 20 such seeds in stacks of 1, 5, 10 and 20 seeds
# took 11.0, 3.5, 2.2 and 2.6 s at 52, 104, 167 and 289 MB peak RSS (2-vCPU
# Xeon, numpy 2.4.6).
_STACK_BYTES = 64_000_000


def run_many(runs: Iterable[tuple[str, LearnerConfig, Streams]]) -> Iterator[RunArtifact]:
    """Run each ``(algorithm, config, streams)`` triple; yield the artifacts in order.

    ``algorithm`` is ``"fomd"`` (:func:`run_fomd_oms`) or ``"nco"``
    (:func:`run_nco_oms`).  ``runs`` is read only as far as the current
    stack needs: consecutive runs that share their spaces, loss, subset
    size, horizon and epoch length run as the servers of one kernel loop
    (:func:`_run_stack`), whatever their algorithm, seed, streams, client
    count and initial distribution, until one more run would take the
    stack's estimated bytes past ``_STACK_BYTES``.  An audited cooperative
    run is a stack of its own, because the audit replays one server's
    frames.  Spaces compare by value, except that a random feature draw
    equals only itself.  A stack runs once the run after it is read, so each
    run is checked before its own stack runs, and at most one run past a
    stack has been read when its first artifact is yielded.  An artifact is
    built when it is read; it has the bytes of its solo run's, but
    ``wall_seconds`` is the whole stack's loop time, and a stack holds every
    run's streams and trace until its last artifact is read.
    """
    stack, layouts, stack_key, stack_bytes = [], [], None, 0
    for position, run in enumerate(chain(runs, [None])):  # None ends the last stack
        if run is not None:
            algorithm, config, _ = run
            layout = _layout(*run)
            # an audited cooperative run's key is its own
            key = (config.spaces, config.loss, config.subset_size, config.horizon,
                   config.horizon // layout[2],
                   position if algorithm == "fomd" and config.audit else -1)
            run_bytes = 8 * config.horizon * config.clients * (4 * config.subset_size + 2)
        if stack and (run is None or key != stack_key
                      or stack_bytes + run_bytes > _STACK_BYTES):
            # one-client servers go last, where the kernel needs no sums for them
            order = sorted(range(len(stack)), key=lambda r: layouts[r][1] == 1)
            result = _run_stack([stack[r] for r in order], [layouts[r] for r in order])
            for r, stacked in enumerate(stack):
                yield _assemble(*stacked, *result, order.index(r))
            # drop the stack before the next one runs
            stack, layouts, stack_bytes, result = [], [], 0, None
        if run is not None:
            stack.append(run)
            layouts.append(layout)
            stack_key, stack_bytes = key, stack_bytes + run_bytes


def run_fomd_oms(config: LearnerConfig, streams: Streams) -> RunArtifact:
    """Run the cooperative learner over its communication epochs.

    One server state is shared by all clients: each epoch the server samples
    a subset of spaces per client, clients report epoch-averaged losses and
    gradients for their subsets, and the server takes importance-weighted
    mirror/projected-gradient steps.  Schedules are evaluated with the epoch
    count as the effective horizon.  A one-run :func:`run_many`.
    """

    return next(run_many([("fomd", config, streams)]))


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

    return next(run_many([("nco", config, streams)]))


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
