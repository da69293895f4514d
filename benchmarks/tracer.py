"""Span recorder for the traced benchmark run.

The recorder wraps fedoms functions from the outside, at the names they are
looked up by: the modules import each other's functions directly, so a call
from ``run_epoch`` to ``subsets_from_uniforms`` goes through
``fedoms.protocol.subsets_from_uniforms``, not through ``fedoms.sampling``.
Feature maps and trace export are wrapped on their classes.  Nothing under
``src/`` is changed, and :meth:`SpanRecorder.patched` puts every original
back when it exits.

Spans (name, tag, start, end, parent, rows) are kept in flat in-memory arrays
and written out once, when the run ends.  A span's self time is its duration
minus the durations of its child spans; the run is single threaded, so
children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np


def _rows_of_input(args) -> int:
    shape = np.shape(args[1])
    return int(shape[0]) if len(shape) > 1 else 1


def _rows_of_artifact(args) -> int:
    return int(args[0].rows)


# (module, attribute, span name, rows counter).  Functions are wrapped in
# every module that looks them up; an attribute that a later version of the
# package no longer has is skipped, and its metrics then read 0.
MODULE_SITES = (
    ("fedoms.config", "parse_config", "config.parse_config", None),
    ("fedoms.config", "build_experiment", "config.build_experiment", None),
    ("fedoms.config", "build_spaces", "config.build_spaces", None),
    ("fedoms.config", "ingest_csv", "data.ingest_csv", None),
    ("fedoms.config", "preprocess_and_partition", "data.preprocess_and_partition", None),
    ("fedoms.config", "generate_adversarial", "data.generate_adversarial", None),
    ("fedoms.config", "synthetic_linear", "data.synthetic_linear", None),
    ("fedoms.learners", "run_fomd_oms", "learners.run_fomd_oms", None),
    ("fedoms.learners", "run_nco_oms", "learners.run_nco_oms", None),
    ("fedoms.learners", "sampling_uniforms", "rng.sampling_uniforms", None),
    ("fedoms.learners", "run_epoch", "protocol.run_epoch", None),
    ("fedoms.protocol", "_audit_epoch", "protocol.audit_replay", None),
    ("fedoms.protocol", "encode_downlink", "protocol.encode", None),
    ("fedoms.protocol", "encode_uplink", "protocol.encode", None),
    ("fedoms.protocol", "decode_frame", "protocol.decode", None),
    ("fedoms.protocol", "aggregate_reports", "protocol.aggregate_reports", None),
) + tuple(
    (module, attr, name, None)
    for module in ("fedoms.protocol", "fedoms.learners")
    for attr, name in (
        ("subsets_from_uniforms", "sampling.subsets_from_uniforms"),
        ("inclusion_probabilities", "sampling.inclusion_probabilities"),
        ("group_subsets", "sampling.group_subsets"),
        ("materialize", "mirror.materialize"),
        ("entropy_step_log_batch", "mirror.entropy_step_log_batch"),
        ("project_rows_per_row", "mirror.project_rows_per_row"),
        ("step_rows", "mirror.step_rows"),
        ("loss_value", "spaces.loss"),
        ("loss_derivative", "spaces.loss"),
    )
)

CLASS_SITES = (
    ("fedoms.spaces", "IdentityMap", "__call__", "spaces.feature_map", _rows_of_input),
    ("fedoms.spaces", "CoordinateMap", "__call__", "spaces.feature_map", _rows_of_input),
    ("fedoms.spaces", "GaussianRFFMap", "__call__", "spaces.feature_map", _rows_of_input),
    ("fedoms.results", "RunArtifact", "to_csv", "results.to_csv", _rows_of_artifact),
    ("fedoms.results", "RunArtifact", "summary_dict", "results.summary_dict", None),
)


class SpanRecorder:
    """In-memory spans of every wrapped call made while :meth:`patched` is open."""

    def __init__(self) -> None:
        self._name_ids: dict[str, int] = {}
        self._tag_ids: dict[str, int] = {}
        self.tag = self._tag_ids.setdefault("", 0)
        self.name_id = array("i")
        self.tag_id = array("i")
        self.parent = array("i")
        self.rows = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def set_tag(self, tag: str) -> None:
        """Label the spans opened from now on (the benchmark op in progress)."""
        self.tag = self._tag_ids.setdefault(tag, len(self._tag_ids))

    def _wrap(self, fn, name: str, rows_of):
        name_id = self._name_ids.setdefault(name, len(self._name_ids))
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.name_id)
            self.name_id.append(name_id)
            self.tag_id.append(self.tag)
            self.parent.append(stack[-1])
            self.rows.append(rows_of(args) if rows_of is not None else 0)
            self.end.append(0.0)
            stack.append(sid)
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[sid] = perf_counter()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Install the wrappers; restore the original attributes on exit."""
        saved = []
        try:
            for module_name, attr, name, rows_of in MODULE_SITES:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if callable(fn):
                    saved.append((module, attr, fn))
                    setattr(module, attr, self._wrap(fn, name, rows_of))
            for module_name, cls_name, attr, name, rows_of in CLASS_SITES:
                cls = getattr(importlib.import_module(module_name), cls_name, None)
                fn = cls.__dict__.get(attr) if cls is not None else None
                if callable(fn):
                    saved.append((cls, attr, fn))
                    setattr(cls, attr, self._wrap(fn, name, rows_of))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def table(self) -> dict:
        """Spans as numpy arrays plus per-span self time."""
        start = np.frombuffer(self.start, dtype=float).copy()
        end = np.frombuffer(self.end, dtype=float).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        duration = end - start
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=duration[has_parent],
                                 minlength=duration.size)
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "tag_id": np.frombuffer(self.tag_id, dtype=np.int32).copy(),
            "parent": parent,
            "rows": np.frombuffer(self.rows, dtype=np.int64).copy(),
            "start": start,
            "end": end,
            "duration": duration,
            "self_time": duration - child_time,
        }

    def stats(self, spans: dict, name: str, tag: str | None = None) -> dict:
        """Calls, rows, total and self seconds, and duration percentiles of one span name.

        ``spans`` is :meth:`table`; ``tag`` keeps only the spans of one op.
        """
        mask = spans["name_id"] == self._name_ids.get(name, -1)
        if tag is not None:
            mask &= spans["tag_id"] == self._tag_ids.get(tag, -1)
        duration = spans["duration"][mask]
        p50, p99 = (np.percentile(duration, [50, 99]) if duration.size else (0.0, 0.0))
        return {
            "calls": int(mask.sum()),
            "rows": int(spans["rows"][mask].sum()),
            "s": float(duration.sum()),
            "self_s": float(spans["self_time"][mask].sum()),
            "p50_us": float(p50) * 1e6,
            "p99_us": float(p99) * 1e6,
        }

    def write(self, path: Path) -> None:
        """Write every span to ``path`` (numpy ``.npz``), with the name and tag tables."""
        spans = self.table()
        np.savez(path, names=np.array(list(self._name_ids)),
                 tags=np.array(list(self._tag_ids)),
                 **{k: spans[k] for k in ("name_id", "tag_id", "parent", "rows",
                                          "start", "end", "self_time")})
