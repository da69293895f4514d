"""Command line interface.

Subcommands:

* ``validate <config.json>`` -- check a config file and report the parsed
  shape without running anything.  It makes every check ``run`` makes up to
  the point where data is drawn, with the same calls in the same order: it
  parses the config, parses a CSV source's table cell by cell, and plans
  the experiment (:func:`fedoms.config.plan_experiment`), which checks the
  horizon, a CSV's column ranges, epochs, update steps, an audited run's
  frame header and a generator's rules, and builds the spaces.  So a config
  that validates runs, and one that does not fails ``run`` with the same
  JSON error.  The digest gives the planned horizon, the one ``run`` uses.
* ``run <config.json>`` -- execute one experiment; writes ``trace.csv`` and
  ``summary.json`` into the output directory.  A config with ``"audit":
  true`` whose wire replay found mismatches still writes both files, then
  reports ``"status": "mismatch"`` with the mismatches and exits with
  status 2, as ``audit-bits`` does.
* ``ab <config.json>`` -- paired comparison of the federated and the
  noncooperative learner over shared seeds; prints a per-seed table to
  stderr and writes ``ab.json``.  Consecutive seeds whose spaces compare
  equal (no random feature draws) go to one :func:`fedoms.learners.run_many`
  call, up to ``_AB_STACK_SEEDS`` of them, and run as one stack.
* ``audit-bits <config.json>`` -- run with the wire-format audit enabled and
  write ``audit.json`` recording whether every frame matched the analytic
  bit account and round-tripped, and every mismatch the replay found.  The
  config is planned as audited, so a run the frame header cannot hold fails
  on its config field before any data is drawn.

Every subcommand prints one JSON object to stdout; all failures print a
machine-readable JSON error object there and exit with status 2.  The
output directory defaults to the current directory and can be overridden
with ``--out`` or the ``FEDOMS_OUT_DIR`` environment variable; ``run``,
``ab`` and ``audit-bits`` create it once the config is parsed, before
anything else, and one that cannot be created is a ``ConfigError`` on
``out``.  A CSV file that cannot be read is a
``ConfigError`` on ``data``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .config import (
    ConfigError,
    ExperimentConfig,
    build_experiment,
    load_config,
    plan_experiment,
    read_table,
    resolve_output_dir,
    run_from_config,
)
from .learners import LearnerConfig, run_many
from .mirror import MirrorError
from .protocol import RunInvariantError

# errors reported as a JSON error object with exit status 2: every library
# error type subclasses one of these, and a stray ValueError keeps the contract
REPORTED_ERRORS = (ValueError, RunInvariantError, MirrorError)


def _emit(blob: dict) -> None:
    print(json.dumps(blob, indent=2, sort_keys=True))


def _fail(error: Exception) -> int:
    if isinstance(error, ConfigError):
        blob = error.to_dict()
    else:
        blob = {"status": "error", "message": str(error)}
    blob["kind"] = type(error).__name__
    _emit(blob)
    return 2


def _output_dir(requested: str | None) -> Path:
    """Create the output directory before any run, so a bad ``--out`` fails first."""
    out_dir = resolve_output_dir(requested)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # an existing file, or a path through one
        raise ConfigError(f"cannot create output directory {out_dir}: {exc.strerror}",
                          field="out") from None
    return out_dir


def _config_digest(config: ExperimentConfig, learner: LearnerConfig) -> dict:
    """The config's shape as ``run`` will use it: the horizon and epochs are
    the planned ones, so a CSV source's horizon is its rows // clients."""
    return {
        "algorithm": config.algorithm,
        "clients": config.clients,
        "num_spaces": len(config.spaces),
        "subset_size": config.subset_size,
        "loss": config.loss,
        "seed": config.seed,
        "horizon": learner.horizon,
        "epochs": learner.epochs,
        "data_source": config.data.source,
    }


def _cmd_validate(args) -> int:
    config = load_config(args.config)
    learner = plan_experiment(config, read_table(config))
    _emit({"status": "ok", "config": _config_digest(config, learner)})
    return 0


def _cmd_run(args) -> int:
    config = load_config(args.config)
    out_dir = _output_dir(args.out)
    artifact = run_from_config(config)
    trace_path = artifact.to_csv(out_dir / "trace.csv")
    summary_path = out_dir / "summary.json"
    summary = artifact.summary_dict()
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    mismatches = artifact.meta.get("audit_mismatches")
    _emit({
        "status": "mismatch" if mismatches else "ok",
        "trace": str(trace_path),
        "summary": str(summary_path),
        "mse": summary["mse"],
        "total_uplink_bits": summary["total_uplink_bits"],
        "total_downlink_bits": summary["total_downlink_bits"],
        **({"mismatches": mismatches} if mismatches else {}),
    })
    return 2 if mismatches else 0


# The most seeds ``ab`` runs as one stack.  A stack holds every seed's
# streams, tables and trace until it ends, so this bounds the peak memory
# whatever --seeds is.  On hidden-arm's shape (M=10, K=16, T=4000), 20 seeds
# in stacks of 1, 5, 10 and 20 took 11.0, 3.5, 2.2 and 2.6 s at 52, 104, 167
# and 289 MB peak RSS (2-vCPU Xeon, numpy 2.4.6).
_AB_STACK_SEEDS = 10


def _cmd_ab(args) -> int:
    config = load_config(args.config)
    if args.seeds < 1:
        raise ConfigError("--seeds must be >= 1", field="seeds")
    out_dir = _output_dir(args.out)
    table = read_table(config)  # a CSV is parsed once, then partitioned per seed
    plan_experiment(config, table)  # the config as given, as run checks it
    rows, group = [], []  # group: the (seed, learner, streams) of seeds that stack

    def run_group() -> None:
        # one run_many call per group; its artifacts are reduced to their
        # MSEs and dropped, so at most a group and one more seed are held
        artifacts = run_many([(algorithm, learner, streams) for _, learner, streams in group
                              for algorithm in ("fomd", "nco")])
        mses = [artifact.mse() for artifact in artifacts]
        for (seed, _, _), fed, solo in zip(group, mses[::2], mses[1::2]):
            delta = solo - fed
            rows.append({
                "seed": seed,
                "mse_federated": fed,
                "mse_noncooperative": solo,
                "delta": delta,
                "sign": "+" if delta > 0 else ("-" if delta < 0 else "0"),
            })
        group.clear()

    for seed in range(config.seed, config.seed + args.seeds):
        paired = dataclasses.replace(config, seed=seed, epochs=None,
                                     algorithm="fomd", audit=False)
        learner, streams = build_experiment(paired, table)
        # a seed whose spaces differ (a random feature draw) cannot join the
        # group, and a full group runs before it grows past _AB_STACK_SEEDS
        if group and (group[0][1].spaces != learner.spaces or len(group) == _AB_STACK_SEEDS):
            run_group()
        group.append((seed, learner, streams))
    run_group()
    deltas = np.array([row["delta"] for row in rows])
    report = {
        "status": "ok",
        "seeds": args.seeds,
        "rows": rows,
        "mse_federated_mean": float(np.mean([r["mse_federated"] for r in rows])),
        "mse_noncooperative_mean": float(np.mean([r["mse_noncooperative"] for r in rows])),
        "delta_mean": float(deltas.mean()),
        "wins_federated": int((deltas > 0).sum()),
    }
    (out_dir / "ab.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n")
    # the table is for people; stdout carries only the JSON object
    print(f"{'seed':>6}  {'federated':>12}  {'noncoop':>12}  {'delta':>12}  sign",
          file=sys.stderr)
    for row in rows:
        print(f"{row['seed']:>6}  {row['mse_federated']:>12.6f}  "
              f"{row['mse_noncooperative']:>12.6f}  {row['delta']:>12.6f}  "
              f"{row['sign']:>4}", file=sys.stderr)
    print(f"mean delta (noncoop - federated): {report['delta_mean']:.6f} "
          f"({report['wins_federated']}/{args.seeds} wins)", file=sys.stderr)
    _emit({k: v for k, v in report.items() if k != "rows"})
    return 0


def _cmd_audit_bits(args) -> int:
    config = dataclasses.replace(load_config(args.config), audit=True)
    if config.algorithm != "fomd":
        raise ConfigError("audit-bits applies to the federated algorithm only",
                          field="algorithm")
    out_dir = _output_dir(args.out)
    artifact = run_from_config(config)
    frames_checked = artifact.meta.get("audit_frames_checked", 0)
    mismatches = list(artifact.meta.get("audit_mismatches", ()))
    report = {
        "status": "ok" if not mismatches else "mismatch",
        "frames_checked": frames_checked,
        "mismatches": mismatches,
        "account_matches_frames": not mismatches,
        "total_uplink_bits": artifact.total_uplink_bits,
        "total_downlink_bits": artifact.total_downlink_bits,
    }
    (out_dir / "audit.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n")
    _emit(report)
    return 0 if not mismatches else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedoms",
        description="Federated online model selection simulator.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check a config file")
    p_validate.add_argument("config")
    p_validate.set_defaults(func=_cmd_validate)

    p_run = sub.add_parser("run", help="run one experiment")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.set_defaults(func=_cmd_run)

    p_ab = sub.add_parser(
        "ab", help="paired federated vs noncooperative comparison")
    p_ab.add_argument("config")
    p_ab.add_argument("--seeds", type=int, default=10,
                      help="number of paired seeds (default 10)")
    p_ab.add_argument("--out", default=None, help="output directory")
    p_ab.set_defaults(func=_cmd_ab)

    p_audit = sub.add_parser(
        "audit-bits", help="run with the wire-format audit enabled")
    p_audit.add_argument("config")
    p_audit.add_argument("--out", default=None, help="output directory")
    p_audit.set_defaults(func=_cmd_audit_bits)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except REPORTED_ERRORS as exc:
        return _fail(exc)


if __name__ == "__main__":
    sys.exit(main())
