"""Span tracing of phm from outside the program.

Wraps public functions of ``cloud``, ``visible``, ``patches``, ``appearance``,
``metric`` and ``cli`` at the module attributes through which callers reach
them (their import sites), so nothing under ``src/`` is edited. Each call
becomes a span with a name, start, end, parent span and request id; self
time is the span's duration minus the time covered by its child spans on the
same thread. Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import json
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


def _observe_eigh(tracer, args, kwargs, result):
    graph = args[0] if args else kwargs.get("graph")
    tracer.count("patches.eigh_n3_sum", int(graph.n) ** 3)


def _observe_report(tracer, args, kwargs, report):
    diag = getattr(report, "diagnostics", None) or {}
    tracer.count("patches.patch_count", diag.get("patch_count", 0))
    tracer.count("patches.capped_count", diag.get("capped_patch_count", 0))
    tracer.count("patches.degenerate_count", diag.get("degenerate_patch_count", 0))
    sizes = [max(p["n_ref"], p["n_dist"]) for p in diag.get("per_patch", [])]
    tracer.maximum("patches.max_patch_n", max(sizes, default=0))


# (module, attribute path, span name, observer). A function imported into
# another module is wrapped where that module looks it up.
TARGETS = (
    # Turning input into a PointCloud: PLY parsing, and the array ingestion
    # that load_ply and in-memory callers share, under one name.
    ("phm.cli", "load_ply", "cloud.load", None),
    ("phm.cloud", "PointCloud.from_arrays", "cloud.load", None),
    ("phm.patches", "farthest_point_sample", "cloud.fps", None),
    ("phm.cloud", "SpatialIndex.__init__", "cloud.spatial_index", None),
    ("phm.cloud", "SpatialIndex.query_bulk", "cloud.query_bulk", None),
    ("phm.metric", "visible_difference", "visible.visible_difference", None),
    ("phm.visible", "symmetric_mse", "visible.symmetric_mse", None),
    ("phm.visible", "ar_texture_complexity", "visible.ar_fit", None),
    ("phm.metric", "partition_into_patch_pairs", "patches.partition", None),
    ("phm.appearance", "build_patch_graph", "patches.graph_build", None),
    ("phm.appearance", "eigendecompose", "patches.eigh", _observe_eigh),
    ("phm.metric", "prepare_pairs", "appearance.prepare", None),
    ("phm.metric", "geometry_degradation", "appearance.geometry", None),
    ("phm.metric", "texture_degradation", "appearance.texture", None),
    ("phm.appearance", "sgwt_decompose", "appearance.sgwt", None),
    ("phm.appearance", "build_wcm", "appearance.wcm", None),
    ("phm.metric", "phm_score", "metric.phm_score", _observe_report),
    ("phm.cli", "phm_score", "metric.phm_score", _observe_report),
    ("phm.cli", "_batch_row", "cli.row", None),
)
# Calls that are counted but not timed: the exact per-query fallback inside
# query_bulk, whose time stays in query_bulk's self time.
COUNTED = (("phm.cloud", "SpatialIndex.query", "cloud.query_fallback_calls"),)


class Tracer:
    """Thread-aware span recorder with per-name inclusive/self totals."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.request_id = 0
        self.spans: list[tuple] = []  # (id, parent, request, name, start, end)
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.maxima: dict[str, int] = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def maximum(self, name: str, value: int) -> None:
        with self._lock:
            self.maxima[name] = max(self.maxima.get(name, 0), value)

    def wrap(self, name: str, fn, observe=None):
        def traced(*args, **kwargs):
            stack = self._stack()
            with self._lock:
                span_id = len(self.spans)
                self.spans.append(None)
            frame = [span_id, 0.0]  # [id, time covered by children]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                with self._lock:
                    self.spans[span_id] = (span_id, parent, self.request_id, name, start, end)
                    self.inclusive[name] += dur
                    self.self_time[name] += dur - frame[1]
                    self.calls[name] += 1
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counter(self, name: str, fn):
        def counted(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def write(self, path) -> None:
        """Spans as JSON lines: id, parent, request, name, start, end (s)."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span) + "\n")


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p, None)
        if owner is None:
            return None, attr
    return (owner, attr) if hasattr(owner, attr) else (None, attr)


@contextmanager
def patched(replacements):
    """Temporarily set ``owner.attr = value`` for (owner, attr, value) triples.

    The raw attribute (for a class, its descriptor) is what gets restored.
    """
    saved = [(owner, attr, inspect.getattr_static(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def instrument(tracer: Tracer):
    """(replacements, missing): wrappers for every target found in phm.

    A missing target leaves its work in the enclosing span's self time
    (ultimately ``metric.phm_score``), so renames show up instead of hiding.
    """
    replacements, missing = [], []
    for module, path, name, observe in TARGETS:
        owner, attr = _resolve(module, path)
        if owner is None:
            missing.append(f"{module}.{path}")
            continue
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, classmethod):
            wrapped = classmethod(tracer.wrap(name, raw.__func__, observe))
        else:
            wrapped = tracer.wrap(name, raw, observe)
        replacements.append((owner, attr, wrapped))
    for module, path, name in COUNTED:
        owner, attr = _resolve(module, path)
        if owner is None:
            missing.append(f"{module}.{path}")
            continue
        replacements.append((owner, attr, tracer.counter(name, getattr(owner, attr))))
    return replacements, missing
