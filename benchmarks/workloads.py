"""The benchmark's workloads, one iteration of each, and the output checks.

An iteration is what a user of ``fedoms run``/``fedoms ab`` waits for: parse
the generated config file, build the experiment, run the learners, and
export every trace and summary.  It runs three ops, each one learner run:

* ``fomd``: the cooperative learner as configured, unaudited;
* ``audited``: the cooperative learner with the wire audit on, batched at
  ten rounds per communication epoch (on ``mixed-audit`` that is the
  configured schedule, so its trace must equal the ``fomd`` trace);
* ``nco``: the noncooperative baseline on the same streams.

fedoms is driven only through its public calls, looked up on their modules
at call time so that the traced run sees its wrappers.  Run-internal timers
(``RunArtifact.wall_seconds``, ``seconds_per_client``) are not used: they
start after the learner's own set-up.  Every op is timed from outside, and
its time is scaled by the host's slowdown during it (see ``hostspeed``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
import resource
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import fedoms.config
import fedoms.data
import fedoms.learners
from hostspeed import HostSpeed, SegmentClock

OPS = ("fomd", "audited", "nco")
ROUNDS_PER_AUDITED_EPOCH = 10
REL_TOL = 1e-9  # the contract's engine tolerance, applied relative to max(1, |ref|)


@dataclass(frozen=True)
class Workload:
    name: str
    config: Callable[[int, Path], dict]  # (seed, input directory) -> config JSON
    write_inputs: Callable[[int, Path], None] = lambda seed, directory: None


def _hidden_arm(seed: int, directory: Path) -> dict:
    return {
        "algorithm": "fomd", "clients": 10, "subset_size": 2, "loss": "linear",
        "seed": seed, "horizon": 4000,
        "spaces": [{"kind": "coordinate", "index": i, "radius": 1.0} for i in range(16)],
        "data": {"source": "biased_arm", "input_dim": 16},
    }


def _table_path(seed: int, directory: Path) -> Path:
    return directory / f"table-seed{seed}.csv"


def _write_table(seed: int, directory: Path) -> None:
    fedoms.data.write_regression_csv(_table_path(seed, directory), rows=60_000,
                                     input_dim=18, seed=seed)


def _rff_table(seed: int, directory: Path) -> dict:
    return {
        "algorithm": "fomd", "clients": 1000, "subset_size": 2, "loss": "square",
        "seed": seed,
        "spaces": [{"kind": "rff", "features": 100, "width": w, "radius": 1.0}
                   for w in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)],
        "data": {"source": "csv", "path": str(_table_path(seed, directory).resolve()),
                 "target_column": "target"},
    }


def _mixed_audit(seed: int, directory: Path) -> dict:
    return {
        "algorithm": "fomd", "clients": 100, "subset_size": 3, "loss": "square",
        "seed": seed, "horizon": 2000, "epochs": 200,
        "spaces": [
            {"kind": "identity", "radius": 0.5},
            {"kind": "identity", "radius": 1.0},
            {"kind": "coordinate", "index": 0},
            {"kind": "coordinate", "index": 1},
            {"kind": "rff", "features": 30, "width": 1.0},
            {"kind": "rff", "features": 60, "width": 2.0},
        ],
        "data": {"source": "synthetic_linear", "input_dim": 8},
    }


WORKLOADS = {
    w.name: w for w in (
        Workload("hidden-arm", _hidden_arm),
        Workload("rff-table", _rff_table, _write_table),
        Workload("mixed-audit", _mixed_audit),
    )
}


def write_inputs(workload: Workload, seed: int, directory: Path) -> Path:
    """Generate the workload's input files for ``seed``; return the config path."""
    workload.write_inputs(seed, directory)
    path = directory / f"{workload.name}-seed{seed}.json"
    path.write_text(json.dumps(workload.config(seed, directory), indent=2) + "\n")
    return path


@dataclass
class OpResult:
    seconds: float = math.nan  # scaled by the host slowdown
    sha256: str = ""
    mse: float = math.nan
    cumulative_loss: float = math.nan
    uplink_bits: int = 0
    downlink_bits: int = 0
    frames_checked: int = 0
    problems: list = dataclasses.field(default_factory=list)


@dataclass
class Iteration:
    client_rounds: int = 0
    setup_s: float = math.nan  # times are scaled by the host slowdown
    export_s: float = math.nan
    sweep_s: float = math.nan  # set-up + ops + export
    measured: dict = dataclasses.field(default_factory=dict)  # segment -> unscaled s
    slowdown: dict = dataclasses.field(default_factory=dict)  # segment -> host slowdown
    peak_rss_mb: float = math.nan  # process peak when the export ends
    ops: dict = dataclasses.field(default_factory=lambda: {op: OpResult() for op in OPS})

    @property
    def failed(self) -> int:
        return sum(1 for r in self.ops.values() if r.problems)


def run_iteration(config_path: Path, out_dir: Path, host: HostSpeed,
                  set_tag=lambda tag: None) -> Iteration:
    """One timed iteration; the output checks run after the timed part."""
    result = Iteration()
    artifacts = {}
    try:
        clock = SegmentClock(host)
        set_tag("setup")
        with clock.segment("setup"):
            config = fedoms.config.load_config(config_path)
            learner, streams = fedoms.config.build_experiment(config)
        result.client_rounds = learner.clients * learner.horizon
        variants = {
            "fomd": learner,
            "audited": dataclasses.replace(
                learner, audit=True,
                epochs=learner.horizon // ROUNDS_PER_AUDITED_EPOCH),
            "nco": dataclasses.replace(learner, epochs=None),
        }
        for op in OPS:
            run = fedoms.learners.run_nco_oms if op == "nco" else fedoms.learners.run_fomd_oms
            set_tag(op)
            with clock.segment(op):
                artifacts[op] = run(variants[op], streams)
            result.ops[op].seconds = clock.scaled(op)
        set_tag("export")
        with clock.segment("export"):
            for op, artifact in artifacts.items():
                artifact.to_csv(out_dir / f"{op}-trace.csv")
                summary = artifact.summary_dict()
                (out_dir / f"{op}-summary.json").write_text(
                    json.dumps(summary, indent=2, sort_keys=True) + "\n")
        result.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result.setup_s = clock.scaled("setup")
        result.export_s = clock.scaled("export")
        result.sweep_s = sum(clock.scaled(name) for name in clock.measured)
        result.measured = dict(clock.measured)
        result.slowdown = dict(clock.slowdown)
    except Exception as exc:  # an iteration that raises fails all its ops
        for op in OPS:
            result.ops[op].problems.append(f"{type(exc).__name__}: {exc}")
        return result
    finally:
        set_tag("")
    for op, artifact in artifacts.items():
        _check_op(result.ops[op], artifact, variants[op], out_dir / f"{op}-trace.csv",
                  out_dir / f"{op}-summary.json")
    if variants["audited"].epochs == learner.effective_epochs:
        if result.ops["audited"].sha256 != result.ops["fomd"].sha256:
            result.ops["audited"].problems.append(
                "audited trace bytes differ from the unaudited trace")
    return result


def _check_op(out: OpResult, artifact, learner, trace_path: Path, summary_path: Path) -> None:
    """Record the op's output figures and every check it fails."""
    problems = out.problems
    blob = trace_path.read_bytes()
    out.sha256 = hashlib.sha256(blob).hexdigest()
    rows = blob.count(b"\n") - 1
    if rows != artifact.rows:
        problems.append(f"trace has {rows} rows, expected {artifact.rows}")
    summary = json.loads(summary_path.read_text())
    out.mse = summary["mse"]
    out.cumulative_loss = summary["cumulative_loss"]
    out.uplink_bits = summary["total_uplink_bits"]
    out.downlink_bits = summary["total_downlink_bits"]
    problems.extend(check_bits(artifact, learner, out.uplink_bits, out.downlink_bits))
    problems.extend(check_simplex(artifact.final_probs))
    if learner.audit:
        out.frames_checked = int(artifact.meta.get("audit_frames_checked", 0))
        want = 2 * learner.clients * learner.effective_epochs
        if out.frames_checked != want:
            problems.append(f"audit checked {out.frames_checked} frames, expected {want}")
        mismatches = list(artifact.meta.get("audit_mismatches", ["no audit record"]))
        if mismatches:
            problems.append(f"audit mismatches: {mismatches[:3]}")


def check_bits(artifact, learner, total_up: int, total_down: int) -> list:
    """Bit totals against the trace columns and against the closed form.

    Per client and epoch the downlink costs ``32·Σ dims(S) + J·⌈log₂K⌉`` for
    the sampled subset S of J spaces, charged at the epoch's first round, and
    the uplink costs that plus ``32·J``, charged at its last round.  The
    noncooperative learner sends nothing.
    """
    problems = []
    up = np.asarray(artifact.uplink_bits, dtype=np.int64)
    down = np.asarray(artifact.downlink_bits, dtype=np.int64)
    if total_up != int(up.sum()) or total_down != int(down.sum()):
        problems.append("bit totals differ from the trace column sums")
    M, T, R = artifact.clients, artifact.horizon, artifact.epochs
    if not np.array_equal(np.asarray(artifact.round_ids),
                          np.repeat(np.arange(1, T + 1), M)):
        problems.append("trace rows are not ordered by round, then client")
        return problems
    if artifact.algorithm.startswith("nco"):
        if up.any() or down.any():
            problems.append("the noncooperative learner charged communication bits")
        return problems
    dims = [space.dim for space in learner.spaces]
    K, J = len(dims), learner.subset_size
    q = (K - 1).bit_length()
    allowed = sorted({32 * sum(c) + J * q for c in itertools.combinations(dims, J)})
    N = T // R
    first = np.arange(R) * N
    last = first + N - 1
    down = down.reshape(T, M)
    up = up.reshape(T, M)
    charged_down = down[first]
    if not np.isin(charged_down, allowed).all():
        problems.append("downlink bits outside the closed form 32·Σdims + J·⌈log₂K⌉")
    if not np.array_equal(up[last], charged_down + 32 * J):
        problems.append("uplink bits differ from downlink + 32·J")
    if np.delete(down, first, axis=0).any() or np.delete(up, last, axis=0).any():
        problems.append("bits charged outside the first/last round of an epoch")
    return problems


def check_simplex(final_probs) -> list:
    p = np.atleast_2d(np.asarray(final_probs, dtype=float))
    if not np.isfinite(p).all() or (p < 0).any():
        return ["final_probs has negative or non-finite entries"]
    worst = float(np.abs(p.sum(axis=1) - 1.0).max())
    if worst > 1e-9:
        return [f"final_probs rows sum to 1 only within {worst:.3g}"]
    return []


def check_reference(iteration: Iteration, reference: dict | None) -> bool:
    """Compare MSE and cumulative loss with the stored values; True if bits moved.

    A differing trace sha256 is reported, not failed: a change may move the
    last bits of the floats if it says so.  Values beyond the tolerance fail.
    """
    if not reference:
        return False
    moved = False
    for op, result in iteration.ops.items():
        want = reference[op]
        for key in ("mse", "cumulative_loss"):
            got, ref = getattr(result, key), want[key]
            if not abs(got - ref) <= REL_TOL * max(1.0, abs(ref)):
                result.problems.append(f"{key} {got!r} differs from reference {ref!r}")
        for key in ("uplink_bits", "downlink_bits", "frames_checked"):
            if getattr(result, key) != want[key]:
                result.problems.append(f"{key} {getattr(result, key)} != reference {want[key]}")
        moved |= result.sha256 != want["sha256"]
    return moved


def reference_record(iteration: Iteration) -> dict:
    return {op: {"sha256": r.sha256, "mse": r.mse, "cumulative_loss": r.cumulative_loss,
                 "uplink_bits": r.uplink_bits, "downlink_bits": r.downlink_bits,
                 "frames_checked": r.frames_checked}
            for op, r in iteration.ops.items()}
