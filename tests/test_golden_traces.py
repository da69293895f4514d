"""The byte contract, checked: small runs' trace and summary hashes against
``tests/golden_traces.json``.

A set of hashes holds for one numpy version and one choice of its float64
``exp``/``log`` loops, so the file keys each set by both
(``tools/golden_traces.py`` names the configs and regenerates the file).
The runs are hashed in this process, with its default dispatch, and in a
subprocess with the AVX-512 loops disabled, as ``test_portable.py`` does.
A key the file does not hold skips with the key and the hashes it produced,
so a log records the set; a change that moves bits regenerates the file and
names the moved configs.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "golden_traces.py"
_GOLDEN = Path(__file__).with_name("golden_traces.json")
_NO_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"


def _in_process():
    spec = importlib.util.spec_from_file_location("golden_traces", _TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool.dispatch_key(), tool.trace_hashes()


def _without_avx512():
    environ = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path),
                   NPY_DISABLE_CPU_FEATURES=_NO_AVX512)
    proc = subprocess.run([sys.executable, str(_TOOL), "--print"], capture_output=True,
                          text=True, env=environ, timeout=60)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    return out["key"], out["hashes"]


@pytest.mark.parametrize("dispatch", [_in_process, _without_avx512],
                         ids=["default", "no-avx512"])
def test_small_runs_keep_their_golden_trace_and_summary_bytes(dispatch):
    key, hashes = dispatch()
    golden = json.loads(_GOLDEN.read_text())
    if key not in golden:
        pytest.skip(f"no golden hashes for {key!r}; this host's set: "
                    f"{json.dumps(hashes, sort_keys=True)}")
    moved = sorted(name for name in golden[key] if hashes.get(name) != golden[key][name])
    assert not moved, f"{key}: the bytes of {moved} moved"
    assert hashes.keys() == golden[key].keys()
