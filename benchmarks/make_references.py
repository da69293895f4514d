"""Regenerate ``benchmarks/references.json`` from the current fedoms.

From the repository root::

    python3 benchmarks/make_references.py 0 1 2

runs one untraced iteration of every workload for each seed given and stores,
per op, the trace sha256, MSE, cumulative loss, bit totals and audited frame
count.  The benchmark compares its outputs with these values whenever its
seed has an entry.  Run it only for a change that is meant to move results,
and say so where the change is described.
"""

from __future__ import annotations

import json
import shutil
import sys

import run

if run._import_fedoms() is None:
    sys.exit(f"error: no fedoms package under {run.ROOT / 'src'}")

import workloads  # noqa: E402  (needs fedoms on the path)
from hostspeed import HostSpeed  # noqa: E402


def main(seeds) -> int:
    path = run.BENCH_DIR / "references.json"
    references = json.loads(path.read_text())
    work_dir = run.BENCH_DIR / "_work" / "references"
    host = HostSpeed()
    for name, workload in workloads.WORKLOADS.items():
        for seed in seeds:
            work_dir.mkdir(parents=True, exist_ok=True)
            try:
                config_path = workloads.write_inputs(workload, seed, work_dir)
                iteration = workloads.run_iteration(config_path, work_dir, host)
            finally:
                shutil.rmtree(work_dir)
            problems = [p for r in iteration.ops.values() for p in r.problems]
            if problems:
                print(f"{name} seed {seed}: not stored, checks failed: {problems}")
                return 1
            references.setdefault(name, {})[str(seed)] = workloads.reference_record(iteration)
            print(f"{name} seed {seed}: stored")
    path.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main([int(s) for s in sys.argv[1:]]))
