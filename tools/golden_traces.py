"""Golden trace hashes: the sha256 of small runs' ``trace.csv`` and ``summary.json``.

The same config and seed give byte-identical outputs, but which bytes
depends on numpy's float64 ``exp``/``log`` loops, which numpy picks by CPU
feature at import.  So each set of hashes is keyed by the numpy version and
whether the AVX-512 loops are dispatched (``__cpu_features__["AVX512_SKX"]``).
``tests/test_golden_traces.py`` checks the runs against the set of its key.

The configs together cover every space family (identity, coordinate, random
features) and every loss, the audit, epoch batching, ``uniform_init``, the
noncooperative learner, mixed widths and a stacked fomd/nco pair.  The
summary is hashed without ``wall_seconds``, as ``fedoms run`` writes it.

Usage: PYTHONPATH=src python tools/golden_traces.py [--print]

Without ``--print`` it writes this host's set into ``tests/golden_traces.json``
(other keys are kept) and names each config whose hashes moved.  Run it once
more with ``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"`` on an
AVX-512 host to record the other dispatch's set.  With ``--print`` it writes
nothing and prints ``{"key": ..., "hashes": ...}`` as one JSON line.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from fedoms.config import build_experiment, parse_config, run_from_config
from fedoms.learners import run_many

GOLDEN = Path(__file__).resolve().parents[1] / "tests" / "golden_traces.json"

_README_SPACES = [
    {"kind": "rff", "features": 20, "width": 0.5, "radius": 1.0},
    {"kind": "rff", "features": 20, "width": 2.0, "radius": 0.5},
    {"kind": "identity", "radius": 1.0},
]
_ARMS = [{"kind": "coordinate", "index": i, "radius": 1.0} for i in range(8)]
_NESTED = [{"kind": "identity", "radius": r} for r in (0.25, 0.5, 1.0)]

CONFIGS = {
    # README's shape, smaller: mixed widths and unequal loss bounds (the
    # mirror step's Newton solve), batched into epochs, audited or not
    "rff-batched": {
        "algorithm": "fomd", "clients": 4, "subset_size": 2, "loss": "square",
        "seed": 7, "horizon": 200, "epochs": 20, "spaces": _README_SPACES,
        "data": {"source": "synthetic_linear", "input_dim": 6, "noise": 0.05}},
    "rff-batched-audited": {
        "algorithm": "fomd", "clients": 4, "subset_size": 2, "loss": "square",
        "seed": 7, "horizon": 200, "epochs": 20, "audit": True, "spaces": _README_SPACES,
        "data": {"source": "synthetic_linear", "input_dim": 6, "noise": 0.05}},
    "rff-nco": {
        "algorithm": "nco", "clients": 3, "subset_size": 2, "loss": "square",
        "seed": 2, "horizon": 120, "spaces": _README_SPACES,
        "data": {"source": "synthetic_linear", "input_dim": 6, "noise": 0.05}},
    # hidden-arm's shape, smaller: coordinate spaces and the linear loss
    "hidden-arm": {
        "algorithm": "fomd", "clients": 5, "subset_size": 2, "loss": "linear",
        "seed": 0, "horizon": 400, "spaces": _ARMS,
        "data": {"source": "biased_arm", "input_dim": 8}},
    "hidden-arm-audited": {
        "algorithm": "fomd", "clients": 5, "subset_size": 3, "loss": "linear",
        "seed": 1, "horizon": 400, "audit": True, "spaces": _ARMS,
        "data": {"source": "biased_arm", "input_dim": 8}},
    "bernoulli-nco": {
        "algorithm": "nco", "clients": 3, "subset_size": 2, "loss": "linear",
        "seed": 3, "horizon": 200, "spaces": _ARMS[:4],
        "data": {"source": "bernoulli_symmetric", "input_dim": 4}},
    "nested-absolute-uniform": {
        "algorithm": "fomd", "clients": 3, "subset_size": 2, "loss": "absolute",
        "seed": 4, "horizon": 300, "epochs": 60, "uniform_init": True,
        "spaces": _NESTED,
        "data": {"source": "synthetic_linear", "input_dim": 4, "noise": 0.1}},
}
# run as one fomd/nco stack, as ``fedoms ab`` runs a seed
PAIR = {
    "algorithm": "fomd", "clients": 4, "subset_size": 2, "loss": "absolute",
    "seed": 5, "horizon": 150, "spaces": _NESTED + _README_SPACES[:1],
    "data": {"source": "synthetic_linear", "input_dim": 4, "noise": 0.1}}


def dispatch_key() -> str:
    """The numpy version and whether its AVX-512 float loops are dispatched."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return f"numpy {np.__version__} AVX512_SKX {bool(__cpu_features__.get('AVX512_SKX'))}"


def _artifact_hashes(artifact, folder: Path) -> dict:
    summary = artifact.summary_dict()
    del summary["wall_seconds"]
    text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    trace = artifact.to_csv(folder / "trace.csv").read_bytes()
    return {"trace": hashlib.sha256(trace).hexdigest(),
            "summary": hashlib.sha256(text.encode()).hexdigest()}


def trace_hashes() -> dict:
    """Each golden run's name -> the sha256 of its trace and of its summary."""
    hashes = {}
    with tempfile.TemporaryDirectory() as folder:
        for name, blob in CONFIGS.items():
            hashes[name] = _artifact_hashes(run_from_config(parse_config(blob)), Path(folder))
        learner, streams = build_experiment(parse_config(PAIR))
        pair = run_many([("fomd", learner, streams), ("nco", learner, streams)])
        for algorithm, artifact in zip(("fomd", "nco"), pair):
            hashes[f"pair-{algorithm}"] = _artifact_hashes(artifact, Path(folder))
    return hashes


def main(argv: list[str]) -> int:
    key, hashes = dispatch_key(), trace_hashes()
    if argv[1:] == ["--print"]:
        print(json.dumps({"key": key, "hashes": hashes}))
        return 0
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    old = golden.get(key, {})
    moved = sorted(name for name in hashes if old.get(name) != hashes[name])
    golden[key] = hashes
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"{key}: wrote {len(hashes)} runs to {GOLDEN}; "
          f"moved: {', '.join(moved) if moved else 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
