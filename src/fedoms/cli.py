"""Command line interface.

Subcommands:

* ``validate <config.json>`` -- check a config file and report the parsed
  shape without running anything.  It makes every check ``run`` makes up to
  the point where data is drawn, with the same calls in the same order: it
  parses the config, parses a CSV source's table cell by cell, and plans
  the experiment (:func:`fedoms.config.plan_experiment`), which checks the
  horizon, a CSV's column ranges, epochs, update steps, an audited run's
  algorithm and frame header and a generator's rules, and builds the
  spaces.  So a config that validates runs, and one that does not fails
  ``run`` with the same JSON error.  The digest gives the planned horizon,
  the one ``run`` uses.
* ``run <config.json>`` -- execute one experiment; writes ``trace.csv`` and
  ``summary.json`` into the output directory.  With ``"audit": true`` (the
  federated algorithm only) every frame goes through the wire format and
  ``summary.json``'s ``meta`` records the frames checked and every mismatch
  the replay found; a run with mismatches still writes both files, then
  reports ``"status": "mismatch"`` with the mismatches and exits with
  status 2.
* ``ab <config.json>`` -- paired comparison of the federated and the
  noncooperative learner over shared seeds; prints a per-seed table to
  stderr and writes ``ab.json``.  The seeds' pairs go to one lazy
  :func:`fedoms.learners.run_many` call, which draws each seed's streams
  when it reaches them and decides which runs stack; each artifact is
  reduced to its MSE as it comes.

Every subcommand prints one JSON object to stdout; all failures print a
machine-readable JSON error object there and exit with status 2.  The
output directory defaults to the current directory and can be overridden
with ``--out`` or the ``FEDOMS_OUT_DIR`` environment variable; ``run`` and
``ab`` create it once the config is parsed, before anything else, and one
that cannot be created, or an output file that cannot be written, is a
``ConfigError`` on ``out``.  A CSV file that cannot be read is a
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


def _output(path: Path, make, action: str = "write output file") -> Path:
    """Make an output path by ``make(path)``; one that cannot be made is a
    ``ConfigError`` on ``out`` that names it."""
    try:
        make(path)
    except OSError as exc:  # a file in the way, a path through one, a full disk
        raise ConfigError(f"cannot {action} {path}: {exc.strerror}", field="out") from None
    return path


def _output_dir(requested: str | None) -> Path:
    """Create the output directory before any run, so a bad ``--out`` fails first."""
    return _output(resolve_output_dir(requested),
                   lambda path: path.mkdir(parents=True, exist_ok=True),
                   "create output directory")


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
    trace_path = _output(out_dir / "trace.csv", artifact.to_csv)
    summary = artifact.summary_dict()
    summary_path = _output(out_dir / "summary.json", lambda path: path.write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n"))
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


def _cmd_ab(args) -> int:
    config = load_config(args.config)
    if args.seeds < 1:
        raise ConfigError("--seeds must be >= 1", field="seeds")
    out_dir = _output_dir(args.out)
    table = read_table(config)  # a CSV is parsed once, then partitioned per seed
    plan_experiment(config, table)  # the config as given, as run checks it
    seeds = range(config.seed, config.seed + args.seeds)
    # each seed's streams are drawn when run_many reaches its pair, and each
    # artifact is reduced to its MSE as it comes, so a stack is all it holds
    experiments = (build_experiment(dataclasses.replace(config, seed=seed, epochs=None,
                                                        algorithm="fomd", audit=False), table)
                   for seed in seeds)
    mses = [artifact.mse() for artifact in run_many(
        (algorithm, learner, streams) for learner, streams in experiments
        for algorithm in ("fomd", "nco"))]
    rows = [{
        "seed": seed,
        "mse_federated": fed,
        "mse_noncooperative": solo,
        "delta": solo - fed,
        "sign": "+" if solo > fed else ("-" if solo < fed else "0"),
    } for seed, fed, solo in zip(seeds, mses[::2], mses[1::2])]
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
    _output(out_dir / "ab.json", lambda path: path.write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n"))
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
