"""Run one workload of the fedoms benchmark and print its metrics.

From the repository root::

    python3 benchmarks/run.py --workload hidden-arm --seed 0 --seconds 30 --trace 0

The workload's inputs (config JSON, and for ``rff-table`` the CSV table) are
generated from ``--seed`` before timing starts.  Whole iterations (set-up,
three learner runs, export) then repeat until the next one would overrun
``--seconds``; every op's outputs are checked after its iteration.

``--trace 0`` reports the end-to-end metrics, medians over the iterations
(``peak_rss_mb`` is read after the first).  Every time is scaled by the
host's slowdown, probed around and during it (see ``hostspeed.py``);
each iteration's line gives every segment's scaled time as
(measured time / host slowdown).
``--trace 1`` alternates untraced and traced iterations and reports the
per-layer metrics of the traced ones, per iteration, plus the tracing
overhead (traced minus untraced ``sweep_s``); the spans are written to
``benchmarks/_out/spans-<workload>.npz``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the machine, the per-iteration figures, the trace hashes and each
metric with its unit.  Exit status 2 means the benchmark could not run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

# The workloads are single-threaded closed loops.  Pin the BLAS pool in this
# process's own environment, before numpy loads, so that the RFF matmuls do
# not hand work to a second thread whose speed depends on the neighbours.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

END_TO_END = (
    ("setup_s", "s"),
    ("fomd_client_rounds_per_s", "client-rounds/s"),
    ("nco_client_rounds_per_s", "client-rounds/s"),
    ("audited_client_rounds_per_s", "client-rounds/s"),
    ("export_s", "s"),
    ("sweep_s", "s"),
    ("peak_rss_mb", "MB"),
)

_UNITS = {"calls": "count", "rows": "count", "s": "s", "self_s": "s",
          "p50_us": "us", "p99_us": "us"}
# (span name, stats); percentiles of run_epoch come from the unaudited
# cooperative run only, so that the audit replay does not set them
_SPAN_METRICS = (
    ("sampling.subsets_from_uniforms", ("calls", "s")),
    ("sampling.inclusion_probabilities", ("calls", "s")),
    ("sampling.group_subsets", ("calls", "s")),
    ("mirror.materialize", ("calls", "s")),
    ("mirror.entropy_step_log_batch", ("calls", "s")),
    ("mirror.project_rows_per_row", ("calls", "s")),
    ("mirror.step_rows", ("calls", "s")),
    ("protocol.run_epoch", ("calls", "self_s", "p50_us", "p99_us")),
    ("protocol.audit_replay", ("calls", "self_s")),
    ("learners.run_fomd_oms", ("self_s",)),
    ("learners.run_nco_oms", ("self_s",)),
    ("spaces.feature_map", ("calls", "rows", "s")),
    ("spaces.loss", ("calls", "s")),
    ("rng.sampling_uniforms", ("calls", "s")),
    ("protocol.encode", ("calls", "s")),
    ("protocol.decode", ("calls", "s")),
    ("protocol.aggregate_reports", ("calls", "s")),
    ("data.ingest_csv", ("s",)),
    ("data.preprocess_and_partition", ("s",)),
    ("data.generate_adversarial", ("s",)),
    ("data.synthetic_linear", ("s",)),
    ("config.parse_config", ("s",)),
    ("config.build_spaces", ("s",)),
    ("config.build_experiment", ("self_s",)),
    ("results.to_csv", ("calls", "rows", "s")),
    ("results.summary_dict", ("s",)),
)
PER_LAYER = tuple(
    (f"{span}.{stat}", _UNITS[stat]) for span, stats in _SPAN_METRICS for stat in stats
) + (
    ("protocol.frames_checked", "count"),
    ("protocol.bits_up", "bits"),
    ("protocol.bits_down", "bits"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_share", "ratio"),
)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds positive")
    return args


def _import_fedoms():
    """Import fedoms from this checkout's ``src``; None if it is not there."""
    package = ROOT / "src" / "fedoms"
    if not (package / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(package.parent))
    import fedoms

    if Path(fedoms.__file__).resolve().parent != package.resolve():
        return None
    return fedoms


def machine_record() -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
    }


def _median(values) -> float:
    values = [v for v in values if v == v]  # drop NaN from failed iterations
    return statistics.median(values) if values else float("nan")


def end_to_end_metrics(iterations) -> dict:
    def throughput(op):
        return _median(it.client_rounds / it.ops[op].seconds for it in iterations)

    return {
        "setup_s": _median(it.setup_s for it in iterations),
        "fomd_client_rounds_per_s": throughput("fomd"),
        "nco_client_rounds_per_s": throughput("nco"),
        "audited_client_rounds_per_s": throughput("audited"),
        "export_s": _median(it.export_s for it in iterations),
        "sweep_s": _median(it.sweep_s for it in iterations),
        # the first iteration is what one fresh `fedoms run` process holds; later
        # ones add allocator fragmentation that moved the peak by up to 20 %
        "peak_rss_mb": iterations[0].peak_rss_mb,
    }


def per_layer_metrics(recorder, traced, untraced) -> dict:
    n = len(traced)
    spans = recorder.table()
    out = {}
    for span, stats in _SPAN_METRICS:
        figures = recorder.stats(spans, span)
        if "p50_us" in stats:
            figures.update((k, v) for k, v in recorder.stats(spans, span, tag="fomd").items()
                           if k in ("p50_us", "p99_us"))
        for stat in stats:
            value = figures[stat]
            if stat in ("calls", "rows"):
                value = round(value / n)
            elif stat in ("s", "self_s"):
                value /= n
            out[f"{span}.{stat}"] = value
    last = traced[-1]
    out["protocol.frames_checked"] = last.ops["audited"].frames_checked
    out["protocol.bits_up"] = last.ops["fomd"].uplink_bits
    out["protocol.bits_down"] = last.ops["fomd"].downlink_bits
    traced_sweep = _median(it.sweep_s for it in traced)
    untraced_sweep = _median(it.sweep_s for it in untraced)
    out["trace.overhead_s"] = traced_sweep - untraced_sweep
    out["trace.overhead_share"] = (traced_sweep - untraced_sweep) / untraced_sweep
    return out


def main(argv=None) -> int:
    args = _parse_args(argv)
    fedoms = _import_fedoms()
    if fedoms is None:
        print(f"error: no fedoms package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import hostspeed
    import tracer
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    references = json.loads((BENCH_DIR / "references.json").read_text())
    reference = references.get(workload.name, {}).get(str(args.seed))

    print("machine", json.dumps(machine_record(), sort_keys=True))
    work_dir = BENCH_DIR / "_work" / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    recorder = tracer.SpanRecorder() if args.trace else None
    host = hostspeed.HostSpeed()
    for _ in range(3):  # warm the probe kernels' caches and code paths
        host.bracket()
    untraced, traced = [], []
    bits_moved = False
    try:
        config_path = workloads.write_inputs(workload, args.seed, work_dir)
        start = perf_counter()
        last_wall = {False: 0.0, True: 0.0}
        while True:
            use_trace = bool(args.trace) and len(traced) < len(untraced)
            elapsed = perf_counter() - start
            have_all = untraced and (traced or not args.trace)
            if have_all and elapsed + last_wall[use_trace] > args.seconds:
                break
            gc.collect()  # leave the previous iteration's garbage out of the timing
            begin = perf_counter()
            if use_trace:
                with recorder.patched():
                    it = workloads.run_iteration(config_path, work_dir, host,
                                                 recorder.set_tag)
                traced.append(it)
            else:
                it = workloads.run_iteration(config_path, work_dir, host)
                untraced.append(it)
            first = untraced[0]
            for op, result in it.ops.items():
                if result.sha256 != first.ops[op].sha256 and not result.problems:
                    result.problems.append("trace bytes differ between iterations")
            bits_moved |= workloads.check_reference(it, reference)
            last_wall[use_trace] = perf_counter() - begin
            print(f"iteration {len(untraced) + len(traced)}"
                  f"{' traced' if use_trace else ''}: sweep {it.sweep_s:.4f} s; "
                  + ", ".join(f"{name} {seconds / it.slowdown[name]:.4f} s "
                              f"({seconds:.4f} s / {it.slowdown[name]:.3f})"
                              for name, seconds in it.measured.items()))
            for op, result in it.ops.items():
                for problem in result.problems:
                    print(f"  FAILED {op}: {problem}")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if not any(work_dir.parent.iterdir()):
            work_dir.parent.rmdir()

    iterations = untraced + traced
    print("traces", json.dumps({
        "reference": "checked" if reference else "none stored for this seed",
        "bits_moved_from_reference": bits_moved,
        "sha256": {op: r.sha256 for op, r in untraced[0].ops.items()},
        "mse": {op: r.mse for op, r in untraced[0].ops.items()},
        "cumulative_loss": {op: r.cumulative_loss for op, r in untraced[0].ops.items()},
    }, sort_keys=True))
    if args.trace:
        metrics = per_layer_metrics(recorder, traced, untraced)
        units = dict(PER_LAYER)
        out_dir = BENCH_DIR / "_out"
        out_dir.mkdir(exist_ok=True)
        recorder.write(out_dir / f"spans-{workload.name}.npz")
    else:
        metrics = end_to_end_metrics(untraced)
        units = dict(END_TO_END)
        print("measured, unscaled medians", json.dumps({
            "sweep_s": _median(sum(it.measured.values()) for it in untraced),
            "host_slowdown": _median(v for it in untraced for v in it.slowdown.values()),
        }, sort_keys=True))
    if any(v != v for v in metrics.values()):
        print("error: no iteration completed; no metrics to report", file=sys.stderr)
        return 1
    for name, value in metrics.items():
        if args.trace:
            how = f"per traced iteration, n={len(traced)}"
        elif name == "peak_rss_mb":
            how = "after the first iteration"
        else:
            how = f"median, n={len(untraced)}"
        print(f"{name:<40} {value:>16.6f} {units[name]:<16} ({how})")
    failed = sum(it.failed for it in iterations)
    attempted = len(iterations) * len(workloads.OPS)
    print(f"{'failed_ops':<40} {failed:>16} of {attempted} ops")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
