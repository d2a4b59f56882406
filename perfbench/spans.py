"""Outside-in span recording around the public entry points of ``repro``.

The benchmark never edits ``src/``: it replaces a handful of public
functions and methods with thin wrappers that time each call and keep the
record in memory. Every record carries:

- a span name (one of :data:`NAMES`);
- the request id of the frame being served, read from
  :data:`REQUEST_ID` (set by the ``protocol.decode_request`` wrapper, so it
  follows the frame's asyncio task; ``-1`` outside a frame);
- start/end on ``time.perf_counter_ns`` -- ``CLOCK_MONOTONIC`` on Linux,
  which every process on the host shares, so client and server stamps
  compare directly;
- the index of the enclosing span on the same thread (``-1`` at top level),
  from which self time is span time minus child coverage;
- a row count (batch size for ``predict``) and, for the asynchronous
  micro-batch wait, the interval of the flush ``predict`` that resolved it.

Records are written out once, at exit, by :meth:`SpanLog.dump`.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import itertools
import json
import threading
import time

import numpy as np

clock = time.perf_counter_ns

#: Frame id of the request being served in the current task (``-1``: none).
REQUEST_ID: contextvars.ContextVar[int] = contextvars.ContextVar(
    "perfbench_request_id", default=-1
)

NAMES = (
    "data.load",
    "queries.label",
    "core.fit",
    "compiled.compile",
    "protocol.decode",
    "protocol.encode",
    "service.submit",
    "cache.probe",
    "batching.enqueue",
    "batching.wait",
    "compiled.predict",
    "stream.append",
    "stream.delete",
    "stream.train",
    "stream.compile",
    "stream.swap",
)
NAME_ID = {name: i for i, name in enumerate(NAMES)}

#: Wrapped entry points in the process that builds the served artifact:
#: ``(module, attribute path, span name)``.
SETUP_POINTS = (
    ("repro.data.registry", "load_dataset", "data.load"),
    ("repro.queries.executor", "ExactEngine.answer", "queries.label"),
    ("repro.core.neurosketch", "NeuroSketch.fit", "core.fit"),
    ("repro.stream.sketch", "StreamingSketch.build", "core.fit"),
    ("repro.core.neurosketch", "NeuroSketch.compile", "compiled.compile"),
    ("repro.nn.stacked", "StackedTrainResult.compile", "compiled.compile"),
    ("repro.core.compiled", "CompiledSketch.save_npz", "compiled.compile"),
    ("repro.stream.sketch", "StreamingSketch.save_npz", "compiled.compile"),
)

#: Wrapped entry points in the server process.
SERVE_POINTS = (
    ("repro.serve.protocol", "decode_request", "protocol.decode"),
    ("repro.serve.protocol", "encode_safe", "protocol.encode"),
    ("repro.serve.service", "SketchService.submit", "service.submit"),
    ("repro.serve.cache", "AnswerCache.get", "cache.probe"),
    ("repro.serve.batching", "MicroBatcher.submit", "batching.enqueue"),
    ("repro.core.compiled", "CompiledSketch.predict", "compiled.predict"),
    ("repro.stream.sketch", "StreamingSketch.append", "stream.append"),
    ("repro.stream.sketch", "StreamingSketch.delete", "stream.delete"),
    ("repro.nn.stacked", "StackedTrainer.fit", "stream.train"),
    ("repro.nn.stacked", "StackedTrainResult.compile", "stream.compile"),
    ("repro.core.compiled", "CompiledSketch.swap_from", "stream.swap"),
)

# Columns of a dumped record array.
ID, NAME, RID, T0, T1, PARENT, ROWS, AUX0, AUX1 = range(9)


class SpanLog:
    """Thread-safe in-memory span store.

    Span ids come from one shared counter (``next`` on ``itertools.count``
    is atomic under the GIL) and ``list.append`` is atomic, so wrappers on
    many threads record without a lock.
    """

    def __init__(self) -> None:
        self.records: list[tuple] = []
        self._ids = itertools.count()
        self._tls = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def last_predict(self) -> tuple[int, int]:
        """Interval of the last ``predict`` finished on this thread."""
        return getattr(self._tls, "last_predict", (-1, -1))

    def add(self, name: str, t0: int, t1: int, parent: int = -1, rows: int = 0,
            aux: tuple[int, int] = (-1, -1), rid: int | None = None,
            sid: int | None = None) -> None:
        self.records.append((
            next(self._ids) if sid is None else sid,
            NAME_ID[name],
            REQUEST_ID.get() if rid is None else rid,
            t0, t1, parent, rows, aux[0], aux[1],
        ))

    def array(self) -> np.ndarray:
        if not self.records:
            return np.empty((0, 9), dtype=np.int64)
        return np.asarray(self.records, dtype=np.int64)

    def dump(self, path: str, extra: dict | None = None) -> None:
        """Write the records (and JSON-able ``extra`` counters) to ``path``."""
        meta = np.frombuffer(json.dumps(extra or {}).encode(), dtype=np.uint8)
        with open(path, "wb") as fh:
            np.savez(fh, spans=self.array(), meta=meta)

    # ------------------------------------------------------------- wrappers

    def _wrap(self, fn, name: str):
        log = self
        is_predict = name == "compiled.predict"
        is_decode = name == "protocol.decode"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = log._stack()
            parent = stack[-1] if stack else -1
            sid = next(log._ids)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
            rows = 0
            if is_predict:
                rows = int(np.shape(args[1])[0]) if np.ndim(args[1]) == 2 else 1
                log._tls.last_predict = (t0, t1)
            if is_decode:
                rid = getattr(result, "id", None)
                REQUEST_ID.set(rid if isinstance(rid, int) else -1)
            log.add(name, t0, t1, parent=parent, rows=rows, sid=sid)
            return result

        if name == "batching.enqueue":
            return self._wrap_enqueue(wrapper)
        return wrapper

    def _wrap_enqueue(self, enqueue):
        """``MicroBatcher.submit``: also record enqueue -> Future resolved."""
        log = self

        @functools.wraps(enqueue)
        def wrapper(batcher, *args, **kwargs):
            rid = REQUEST_ID.get()
            t0 = clock()
            fut = enqueue(batcher, *args, **kwargs)

            def resolved(_, rid=rid, t0=t0):
                # Runs on the flush thread right after its predict returned.
                log.add("batching.wait", t0, clock(), aux=log.last_predict(), rid=rid)

            fut.add_done_callback(resolved)
            return fut

        return wrapper

    def install(self, points):
        """Wrap every ``(module, attr, name)`` entry point; returns an
        undo callable restoring the originals."""
        undo = []
        for module_name, attr, name in points:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(original.__func__, name))
            else:
                wrapped = self._wrap(original, name)
            setattr(owner, leaf, wrapped)
            undo.append((owner, leaf, original))

        def restore() -> None:
            for owner, leaf, original in reversed(undo):
                setattr(owner, leaf, original)

        return restore
