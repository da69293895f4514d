"""The benchmark tracer's lookup sites must name functions that exist.

``benchmarks/tracer.py`` wraps fedoms functions at the module attributes
they are looked up by, and silently skips an attribute it cannot find, so
a rename or a moved call would zero that metric without any error.  These
tests read the tracer's site tables (without importing the file as a module,
so nothing is written under ``benchmarks/``) and check that every site
still resolves to a callable.
"""

import importlib
import types
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def _load_tracer() -> types.ModuleType:
    module = types.ModuleType("benchmark_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


_TRACER = _load_tracer()

# a function is wrapped in every module that may look it up, so each
# (attribute, span) pair must resolve in at least one of its modules
_MODULE_SITES: dict[tuple[str, str], list[str]] = {}
for _module, _attr, _name, _ in _TRACER.MODULE_SITES:
    _MODULE_SITES.setdefault((_attr, _name), []).append(_module)

# sites the tracer still wraps whose function is gone, so their spans read 0
# (the FOUND lines on the tracer in CHANGES.md): mirror.step_rows went with
# the single-vector mirror twins, the one-message encoders, decode_frame
# and aggregate_reports with the one-message wire layer, whose work the audit
# does in encode_frames, decode_frames and _scatter_reports, and
# group_subsets with the space-sorted entry order (every epoch's entries are
# client-major, and each feature map runs on its space's entries).  Each such site
# must stay dead, so that one coming back is noticed, and must still be in
# the tracer's table, so that a tracer brought up to date clears this set.
_DEAD_SITES = {
    ("step_rows", "mirror.step_rows"),
    ("encode_downlink", "protocol.encode"),
    ("encode_uplink", "protocol.encode"),
    ("decode_frame", "protocol.decode"),
    ("aggregate_reports", "protocol.aggregate_reports"),
    ("group_subsets", "sampling.group_subsets"),
}


@pytest.mark.parametrize("attr, name", [
    pytest.param(attr, name, id=f"{name}:{attr}") for attr, name in _MODULE_SITES
])
def test_module_site_resolves_to_a_callable(attr, name):
    modules = _MODULE_SITES[attr, name]
    found = [m for m in modules
             if callable(getattr(importlib.import_module(m), attr, None))]
    if (attr, name) in _DEAD_SITES:
        assert not found, f"{name}: {attr} is back in {found}; drop it from _DEAD_SITES"
    else:
        assert found, f"{name}: no callable {attr} in {modules}"


def test_every_dead_site_is_still_in_the_tracer():
    assert _DEAD_SITES <= set(_MODULE_SITES), "the tracer dropped a dead site"


@pytest.mark.parametrize("module, cls_name, attr", [
    pytest.param(module, cls_name, attr, id=f"{name}:{cls_name}.{attr}")
    for module, cls_name, attr, name, _ in _TRACER.CLASS_SITES
])
def test_class_site_resolves_to_a_callable(module, cls_name, attr):
    cls = getattr(importlib.import_module(module), cls_name, None)
    assert cls is not None, f"{module} has no class {cls_name}"
    assert callable(cls.__dict__.get(attr)), f"{cls_name} defines no {attr}"

