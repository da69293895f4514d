"""The portable half of the byte contract: what a run keeps across numpy's
CPU dispatch.

numpy picks its float64 ``exp`` and ``log`` loops by CPU feature at import,
and the AVX-512 loops round some values differently from the others, so a
trace's last bits depend on the host.  What must not depend on it: every
sampled subset, every bit count and the audit's verdict, and the floats to
1e-12 relative.  This test runs one small audited config in two fresh
processes, one with the default dispatch and one with the AVX-512 loops
disabled by ``NPY_DISABLE_CPU_FEATURES``, which names only features that
numpy 2.4's wheels dispatch, so it loads on any x86 host.  On a host without
AVX-512 (or not x86) both processes take one path, and the test checks that
the two runs agree exactly as well.
"""

import json
import os
import subprocess
import sys

import numpy as np

_NO_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"

# mixed widths and unequal loss bounds: the mirror step's Newton solve, the
# log-softmax and materialize all call exp and log
_CONFIG = {
    "algorithm": "fomd", "clients": 3, "subset_size": 2, "loss": "square", "seed": 5,
    "horizon": 60, "epochs": 20, "audit": True,
    "spaces": [{"kind": "identity", "radius": 0.5}, {"kind": "identity", "radius": 1.0},
               {"kind": "rff", "features": 12, "width": 2.0}],
    "data": {"source": "synthetic_linear", "input_dim": 3, "noise": 0.02},
}

_SCRIPT = """
import json, sys
from fedoms import learners
from fedoms.config import build_experiment, load_config
try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_features__

learner, streams = build_experiment(load_config(sys.argv[1]))
run = ("fomd", learner, streams)
state, setup, _ = learners._run_stack([run])
down, up = setup.message_bits(state.subsets)
print(json.dumps({
    "subsets": state.subsets.tolist(), "bits": [down.tolist(), up.tolist()],
    "audit": [setup.audit.frames_checked, setup.audit.mismatches],
    "floats": {name: getattr(state, name).tolist()
               for name in ("predictions", "losses", "log_p", "weights")},
    "avx512": bool(__cpu_features__.get("AVX512_SKX")),
}))
"""


def _run(config_path, **env):
    environ = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), **env)
    proc = subprocess.run([sys.executable, "-c", _SCRIPT, str(config_path)],
                          capture_output=True, text=True, env=environ, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_an_audited_run_keeps_subsets_bits_and_floats_across_numpy_cpu_dispatch(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_CONFIG))
    default = _run(path)
    other = _run(path, NPY_DISABLE_CPU_FEATURES=_NO_AVX512)
    assert not other["avx512"]
    assert default["subsets"] == other["subsets"]
    assert default["bits"] == other["bits"]
    assert default["audit"] == other["audit"] == [2 * 3 * 20, []]
    for name, values in default["floats"].items():
        a, b = np.array(values), np.array(other["floats"][name])
        scale = np.maximum(np.abs(a), np.abs(b))
        assert (np.abs(a - b) <= 1e-12 * scale).all(), name
        if not default["avx512"]:  # one dispatch path: the same bytes
            assert a.tobytes() == b.tobytes(), name
