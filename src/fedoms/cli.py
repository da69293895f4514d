"""Command line interface.

Subcommands:

* ``validate <config.json>`` -- check a config file and report the parsed
  shape without running anything.  It also builds the spaces, for the input
  width the config states or, for a CSV source, the width its header row
  gives; a CSV source's data rows are counted, not parsed, so that its
  horizon, epochs and update steps are checked as ``run`` checks them.
* ``run <config.json>`` -- execute one experiment; writes ``trace.csv`` and
  ``summary.json`` into the output directory.  A config with ``"audit":
  true`` whose wire replay found mismatches still writes both files, then
  reports ``"status": "mismatch"`` with the mismatches and exits with
  status 2, as ``audit-bits`` does.
* ``ab <config.json>`` -- paired comparison of the federated and the
  noncooperative learner over shared seeds; prints a per-seed table to
  stderr and writes ``ab.json``.
* ``audit-bits <config.json>`` -- run with the wire-format audit enabled and
  write ``audit.json`` recording whether every frame matched the analytic
  bit account and round-tripped, and every mismatch the replay found.  The
  config is validated as audited, so a run the frame header cannot hold
  fails on its config field before any data is built.

Every subcommand prints one JSON object to stdout; all failures print a
machine-readable JSON error object there and exit with status 2.  The
output directory defaults to the current directory and can be overridden
with ``--out`` or the ``FEDOMS_OUT_DIR`` environment variable; ``run``,
``ab`` and ``audit-bits`` create it before they run, and one that cannot be
created is a ``ConfigError`` on ``out``.  A CSV file that cannot be read is a
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
    build_spaces,
    check_horizon,
    load_config,
    read_table,
    resolve_output_dir,
    run_from_config,
)
from .data import DataError, check_partition, csv_shape
from .learners import run_fomd_oms, run_nco_oms
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


def _config_digest(config: ExperimentConfig) -> dict:
    return {
        "algorithm": config.algorithm,
        "clients": config.clients,
        "num_spaces": len(config.spaces),
        "subset_size": config.subset_size,
        "loss": config.loss,
        "seed": config.seed,
        "horizon": config.horizon,
        "epochs": config.epochs,
        "data_source": config.data.source,
    }


def _cmd_validate(args) -> int:
    config = load_config(args.config)
    # with the input width, a radius whose bounds overflow or a coordinate
    # out of range fails now, not at run
    data = config.data
    if data.source == "csv":
        try:
            rows, input_dim = csv_shape(data.path, data.target_column)
            check_partition(rows, config.clients)
        except DataError as exc:
            raise ConfigError(str(exc), field="data") from exc
        check_horizon(config, rows // config.clients)
    else:
        input_dim = data.input_dim
    build_spaces(config, input_dim)
    _emit({"status": "ok", "config": _config_digest(config)})
    return 0


def _cmd_run(args) -> int:
    config = load_config(args.config)
    out_dir = _output_dir(args.out)
    artifact = run_from_config(config)
    trace_path = out_dir / "trace.csv"
    summary_path = out_dir / "summary.json"
    artifact.to_csv(trace_path)
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


def _cmd_ab(args) -> int:
    config = load_config(args.config)
    if args.seeds < 1:
        raise ConfigError("--seeds must be >= 1", field="seeds")
    out_dir = _output_dir(args.out)
    table = read_table(config)  # a CSV is parsed once, then partitioned per seed
    rows = []
    for offset in range(args.seeds):
        seed = config.seed + offset
        paired = dataclasses.replace(config, seed=seed, epochs=None,
                                     algorithm="fomd", audit=False)
        learner, streams = build_experiment(paired, table)
        fed = run_fomd_oms(learner, streams)
        solo = run_nco_oms(learner, streams)
        delta = solo.mse() - fed.mse()
        rows.append({
            "seed": seed,
            "mse_federated": fed.mse(),
            "mse_noncooperative": solo.mse(),
            "delta": delta,
            "sign": "+" if delta > 0 else ("-" if delta < 0 else "0"),
        })
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
    config = load_config(args.config, audit=True)
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
