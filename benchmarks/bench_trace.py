"""Span recorder and layer wrappers for the traced benchmark run.

Spans are recorded from outside the package: :func:`patched` replaces the
public functions listed in ``LAYERS`` at the names their callers resolve them
by (``condiid.cli.write_csv``, ``condiid.extreme_value.sample_minstable``, ...)
with wrappers that open a span around each call, and restores the originals
when the block exits.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

# (span name, [(module, attribute), ...], counter). The counter is "rows" for
# samplers (rows returned), "bytes" for write_csv (size of the file written).
LAYERS = (
    ("cli.build_model", [("condiid.cli", "build_model")], None),
    ("sample.write_csv", [("condiid.cli", "write_csv")], "bytes"),
    ("sample.read_csv", [("condiid.cli", "read_csv")], None),
    ("moments.hausdorff_extendible",
     [("condiid.moments", "hausdorff_extendible"),
      ("condiid.lack_of_memory", "hausdorff_extendible")], None),
    ("lack_of_memory.is_ciid_extendible", [("condiid.lack_of_memory", "is_ciid_extendible")], None),
    ("extreme_value.sample_minstable", [("condiid.extreme_value", "sample_minstable")], "rows"),
    ("extreme_value.sample_logistic_direct",
     [("condiid.extreme_value", "sample_logistic_direct")], "rows"),
    ("lack_of_memory.sample_mo_shocks", [("condiid.lack_of_memory", "sample_mo_shocks")], "rows"),
    ("lack_of_memory.sample_mo_ciid", [("condiid.lack_of_memory", "sample_mo_ciid")], "rows"),
    ("lack_of_memory.sample_geo_shocks", [("condiid.lack_of_memory", "sample_geo_shocks")], "rows"),
    ("mixtures.sample",
     [("condiid.mixtures", "sample_exch_normal"), ("condiid.mixtures", "sample_l1_ciid"),
      ("condiid.mixtures", "sample_linf_ciid"), ("condiid.mixtures", "sample_spherical_ciid")],
     "rows"),
    ("mixing.sample_positive_stable",
     [("condiid.mixing", "sample_positive_stable"),
      ("condiid.extreme_value", "sample_positive_stable")], None),
    ("shock_models.sample",
     [("condiid.shock_models", "sample_dp"), ("condiid.shock_models", "exshock_sample")], "rows"),
    ("diagnostics.mc_verify", [("condiid.diagnostics", "mc_verify")], None),
    ("diagnostics.default_quantile_grid", [("condiid.diagnostics", "default_quantile_grid")], None),
    ("diagnostics.conditional_inversion_sampler",
     [("condiid.diagnostics", "conditional_inversion_sampler")], "rows"),
    ("diagnostics.empirical_kendall_tau", [("condiid.diagnostics", "empirical_kendall_tau")], None),
)

ROOT_SPAN = "cli.main"


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    rows: int = 0
    bytes: int = 0


class SpanRecorder:
    """Collects spans in memory.

    Each thread keeps its own stack of open spans.  A span opened on a worker
    thread with an empty stack (the sampler chunks ``mc_verify`` runs on a
    thread pool) takes the innermost open span of the recording thread as its
    parent.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._owner = threading.get_ident()
        self._owner_stack: list[Span] = []

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        else:
            owner = self._owner_stack
            parent = owner[-1].id if owner and stack is not owner else None
        with self._lock:
            s = Span(next(self._ids), parent, name, time.perf_counter())
            self.spans.append(s)
        stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            stack.pop()

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def _rows(out) -> int:
    data = getattr(out, "data", out)
    shape = getattr(data, "shape", None)
    return int(shape[0]) if shape else 0


def _wrap(fn, name: str, counter: str | None, recorder: SpanRecorder):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with recorder.span(name) as s:
            out = fn(*args, **kwargs)
            if counter == "rows":
                s.rows = _rows(out)
        if counter == "bytes":
            target = args[1] if len(args) > 1 else kwargs.get("path_or_buf")
            if isinstance(target, (str, os.PathLike)):
                s.bytes = os.path.getsize(target)
        return out

    return wrapper


@contextmanager
def patched(recorder: SpanRecorder, layers=LAYERS):
    """Install span wrappers for ``layers``; the originals are back on exit."""
    saved = []
    try:
        for name, targets, counter in layers:
            for module_name, attr in targets:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, _wrap(original, name, counter, recorder))
        yield recorder
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by its child spans."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - covered_length(children.get(s.id, ()), s.start, s.end)
        for s in spans
    }


def layer_totals(spans) -> dict[str, dict[str, float]]:
    """Per span name: summed self time, number of calls, rows and bytes."""
    own = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        t = out.setdefault(s.name, {"self_s": 0.0, "calls": 0, "rows": 0, "bytes": 0})
        t["self_s"] += own[s.id]
        t["calls"] += 1
        t["rows"] += s.rows
        t["bytes"] += s.bytes
    return out
