"""Span tracing for the benchmark's traced run.

Spans are recorded from the benchmark's own files: the public methods
of each layer are wrapped as *instance attributes* on the live objects
of one stack (never on the classes), and the wrappers are removed again
when the run ends.  Nothing under ``src/`` knows it is being traced, so
every gate that decides whether the batched chunk path runs sees
exactly what it sees in an untraced run.

A span is ``(layer, start, end, parent, window, rows, chunk)``.
``parent`` is the index of the enclosing span (the engine-loop root for
calls made by the engine itself), ``window`` groups every span caused by
one engine call, ``rows`` is the number of requests the call served
(one for ``submit``, the returned count for ``submit_chunk``, generated
rows for a generator ``next``) and ``chunk`` marks ``submit_chunk``
calls.
A layer's self time is the summed duration of its spans minus the
durations of their direct children; because every call nests inside
the root span, the self times of all layers add up to the root's wall
time exactly.
"""

from __future__ import annotations

import time
from typing import Dict, List

import numpy as np

# Layer names, in stack order; the index is the span's layer code.
LAYERS = ("sim", "workloads", "cluster", "core", "ssd", "hdd")
_CODE = {name: i for i, name in enumerate(LAYERS)}


class Tracer:
    """In-memory span recorder; inactive (a pass-through) until
    :meth:`open_root` is called at the start of the measured window."""

    def __init__(self):
        self.layer: List[int] = []
        self.start: List[float] = []
        self.end: List[float] = []
        self.parent: List[int] = []
        self.window: List[int] = []
        self.rows: List[int] = []
        self.chunk: List[bool] = []
        self.active = False
        self._stack: List[int] = []
        self._next_window = 0
        self._wrapped: List[tuple] = []

    # -- root span (the engine loop over the measured window) ----------
    def open_root(self) -> None:
        self.layer.append(_CODE["sim"])
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.parent.append(-1)
        self.window.append(-1)
        self.rows.append(0)
        self.chunk.append(False)
        self._stack = [0]
        self.active = True

    def close_root(self) -> None:
        if self.active:
            self.end[0] = time.perf_counter()
            self.active = False

    # -- wrapping --------------------------------------------------------
    def _call(self, code: int, fn, args, rows_of, chunk: bool = False):
        stack = self._stack
        parent = stack[-1]
        if parent == 0:
            window = self._next_window
            self._next_window += 1
        else:
            window = self.window[parent]
        index = len(self.start)
        self.layer.append(code)
        self.parent.append(parent)
        self.window.append(window)
        self.rows.append(0)
        self.chunk.append(chunk)
        self.end.append(0.0)
        stack.append(index)
        t0 = time.perf_counter()
        self.start.append(t0)
        try:
            result = fn(*args)
        finally:
            self.end[index] = time.perf_counter()
            stack.pop()
        self.rows[index] = rows_of(result)
        return result

    def wrap(self, obj, attr: str, layer: str) -> None:
        """Replace ``obj.attr`` by a span-recording wrapper."""
        original = getattr(obj, attr)
        code = _CODE[layer]
        call = self._call
        chunk = attr == "submit_chunk"
        rows_of = _chunk_rows if chunk else _one_row

        def wrapper(*args):
            if not self.active:
                return original(*args)
            return call(code, original, args, rows_of, chunk)

        self._wrapped.append((obj, attr, obj.__dict__.get(attr)))
        setattr(obj, attr, wrapper)

    def restore(self) -> None:
        """Remove every wrapper, newest first."""
        while self._wrapped:
            obj, attr, before = self._wrapped.pop()
            if before is None:
                delattr(obj, attr)
            else:
                setattr(obj, attr, before)

    def source(self, iterator):
        """A generator stand-in whose ``next`` is a ``workloads`` span."""
        return _TracedSource(self, iterator)

    # -- results ---------------------------------------------------------
    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "layer": np.asarray(self.layer, dtype=np.int8),
            "start": np.asarray(self.start, dtype=np.float64),
            "end": np.asarray(self.end, dtype=np.float64),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "window": np.asarray(self.window, dtype=np.int64),
            "rows": np.asarray(self.rows, dtype=np.int64),
            "chunk": np.asarray(self.chunk, dtype=bool),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, layers=np.asarray(LAYERS),
                            **self.arrays())


class _TracedSource:
    __slots__ = ("_tracer", "_it")

    def __init__(self, tracer: Tracer, iterator):
        self._tracer = tracer
        self._it = iterator

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        if not tracer.active:
            return next(self._it)
        return tracer._call(_CODE["workloads"], next, (self._it,), len)


def _one_row(_result) -> int:
    return 1


def _chunk_rows(result) -> int:
    return int(result[2])


def wrap_stack(tracer: Tracer, router, caches, ssds, origin) -> None:
    """Wrap the public entry points of every layer of one stack."""
    if router is not None:
        tracer.wrap(router, "submit", "cluster")
        tracer.wrap(router, "submit_chunk", "cluster")
    for cache in caches:
        tracer.wrap(cache, "submit", "core")
        tracer.wrap(cache, "submit_chunk", "core")
    for ssd in ssds:
        for attr in ("submit", "submit_write_fast", "submit_flush_fast",
                     "submit_chunk"):
            tracer.wrap(ssd, attr, "ssd")
    tracer.wrap(origin, "submit", "hdd")


def layer_report(spans: Dict[str, np.ndarray]) -> Dict[str, dict]:
    """Self time, call counts and row counts per layer, from spans."""
    layer = spans["layer"].astype(np.int64)
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    child = parent >= 0
    child_time = np.zeros(dur.shape[0])
    np.add.at(child_time, parent[child], dur[child])
    self_time = dur - child_time
    n_layers = len(LAYERS)
    report = {}
    self_by = np.bincount(layer, weights=self_time, minlength=n_layers)
    calls_by = np.bincount(layer, minlength=n_layers)
    rows_by = np.bincount(layer, weights=spans["rows"], minlength=n_layers)
    for code, name in enumerate(LAYERS):
        report[name] = {"self_s": float(self_by[code]),
                        "calls": int(calls_by[code]),
                        "rows": int(rows_by[code])}
    report["root_s"] = float(dur[0]) if dur.shape[0] else 0.0

    # Shard calls: core spans whose parent is a cluster span.
    core = layer == _CODE["core"]
    parent_layer = np.where(child, layer[np.maximum(parent, 0)], -1)
    from_router = core & (parent_layer == _CODE["cluster"])
    report["cluster"]["shard_calls"] = int(np.count_nonzero(from_router))
    report["cluster"]["shard_rows"] = int(spans["rows"][from_router].sum())

    # Core rows: every SrcCache.submit is one scalar row, whoever made
    # it; rows a submit_chunk returned are vector rows except those it
    # served through its own nested scalar submit calls.
    chunk = spans["chunk"]
    nested = core & ~chunk & (parent_layer == _CODE["core"])
    report["core"]["scalar_rows"] = int(np.count_nonzero(core & ~chunk))
    report["core"]["vector_rows"] = (
        int(spans["rows"][core & chunk].sum())
        - int(np.count_nonzero(nested)))
    return report
