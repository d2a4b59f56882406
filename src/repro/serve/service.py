"""`SketchService`: named sketches behind micro-batching + an answer cache.

The façade a server embeds (and what ``repro serve`` runs):

- a registry of named sketches — anything with a batched ``predict``:
  a :class:`~repro.core.compiled.CompiledSketch`, a fitted
  :class:`~repro.core.neurosketch.NeuroSketch`, or any
  :class:`repro.api.Estimator`;
- per-sketch micro-batching (:class:`~repro.serve.batching.MicroBatcher`):
  concurrently submitted queries flush through one compiled ``predict`` on
  a size/deadline trigger;
- a per-sketch answer cache (:class:`~repro.serve.cache.AnswerCache`)
  keyed on quantized query vectors, consulted synchronously at submit time;
- async submission: :meth:`submit_many` probes the cache for a whole block
  of queries at once and enqueues its misses as one micro-batch block,
  returning one :class:`concurrent.futures.Future` for the block;
  :meth:`submit` is its one-row case, and :meth:`ask`/:meth:`ask_many` are
  the blocking convenience layer.

With the cache disabled, :meth:`ask_many` hands the *exact* query array to
the sketch's ``predict`` in one flush, so its answers are bitwise-equal to
the direct batch path (``tests/test_serve.py`` asserts this).

Every front end answers requests through :meth:`SketchService.handle`
(request -> service call) and :func:`error_response` (exception -> wire
error code): the stdio loop and the shard worker via
:meth:`SketchService.answer_line`; the socket server sends each buffered
group of single queries through :meth:`submit_many` and every other request
through ``handle``.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import gzip
import json
from concurrent.futures import Future

import numpy as np

from repro.serve import protocol
from repro.serve.batching import MicroBatcher
from repro.serve.cache import AnswerCache

# Before Python 3.11 a missed ``Future.result(timeout=...)`` and a missed
# ``asyncio.wait_for`` raise their own TimeoutError classes, not the builtin.
_TIMEOUTS = (TimeoutError, concurrent.futures.TimeoutError, asyncio.TimeoutError)


class ImmutableSketchError(RuntimeError):
    """An ingest was sent to a service or sketch without mutation support."""


def error_response(
    exc: Exception, rid: object = None, timeout_s: float | None = None
) -> protocol.ErrorResponse:
    """The one exception -> error-code table of the wire protocol.

    Protocol errors keep their own code; otherwise an unknown sketch is
    ``unknown-sketch``, a refused ingest ``immutable``, a missed deadline
    ``timeout`` and anything else the sketch raised ``internal``.
    """
    if isinstance(exc, protocol.ProtocolError):
        return exc.to_response(rid)
    if isinstance(exc, KeyError):
        message = exc.args[0] if exc.args else str(exc)
        return protocol.ErrorResponse(error=str(message), code="unknown-sketch", id=rid)
    if isinstance(exc, ImmutableSketchError):
        return protocol.ErrorResponse(error=str(exc), code="immutable", id=rid)
    if isinstance(exc, _TIMEOUTS):
        return protocol.ErrorResponse(
            error=f"request missed the {timeout_s}s deadline", code="timeout", id=rid
        )
    message = f"{type(exc).__name__}: {exc}"
    return protocol.ErrorResponse(error=message, code="internal", id=rid)


def query_response(
    request: protocol.QueryRequest, answer: float, cached: bool
) -> protocol.QueryResponse:
    """The response to a single query, from its answer and cache flag."""
    return protocol.QueryResponse(
        answer=float(answer), cached=bool(cached), id=request.id, sketch=request.sketch
    )


def ingest_summary(results) -> dict:
    """One summary dict over the append/delete results of one ingest."""
    return {
        "op": "+".join(r.op for r in results),
        "appended": sum(r.appended for r in results),
        "deleted": sum(r.deleted for r in results),
        "dirty_leaves": sorted({l for r in results for l in r.dirty_leaves}),
        "retrained_leaves": sorted({l for r in results for l in r.retrained_leaves}),
        "swapped": any(r.swapped for r in results),
        "epoch": results[-1].epoch,
        "data_version": results[-1].data_version,
    }


def load_sketch(path: str, dtype: str | None = None):
    """Load a saved sketch artifact into its servable form.

    Accepts every artifact format and always returns an object with a
    batched ``predict``: a ``compiled-sketch-v1`` payload loads straight
    into :class:`~repro.core.compiled.CompiledSketch`; a ``NeuroSketch``
    payload is loaded and compiled; a ``.npz`` path loads the binary spill
    (:meth:`~repro.core.compiled.CompiledSketch.load_npz`) or, when it is
    a stream bundle, the mutable
    :class:`~repro.stream.sketch.StreamingSketch`; a ``shm://`` URI
    attaches a published shared-memory weight block read-only
    (:func:`repro.serve.shm.attach_sketch`).

    ``dtype`` picks the compiled engine's execution tier. ``None`` keeps
    the artifact's own recorded tier (``float64`` for payloads predating
    the tiered engine), preserving bit-parity with whatever produced the
    artifact; a server that prefers speed over the last few decimal places
    passes ``"float32"`` (what ``repro serve`` defaults to).
    """
    from repro.core.compiled import CompiledSketch
    from repro.core.neurosketch import NeuroSketch

    if path.startswith("shm://"):
        from repro.serve.shm import attach_sketch

        return attach_sketch(path, dtype=dtype)
    if path.endswith(".npz"):
        from repro.stream.sketch import is_stream_bundle, load_stream_sketch

        if is_stream_bundle(path):
            return load_stream_sketch(path, serving_dtype=dtype)
        return CompiledSketch.load_npz(path, dtype=dtype)
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        state = json.load(fh)
    if not isinstance(state, dict):
        raise ValueError(f"{path!r} is not a sketch artifact")
    if state.get("format") == "compiled-sketch-v1":
        return CompiledSketch.from_dict(state, dtype=dtype)
    if "tree" in state and "models" in state:
        sketch = NeuroSketch.from_dict(state)
        return sketch.compile(dtype="float64" if dtype is None else dtype)
    raise ValueError(f"{path!r} is not a recognized sketch artifact")


class _Entry:
    """One registered sketch with its batcher and cache.

    ``cache_ns`` namespaces keys when the cache object is shared between
    sketches (the same query has different answers per sketch); a private
    per-sketch cache uses the empty namespace.
    """

    __slots__ = ("name", "sketch", "batcher", "cache", "cache_ns")

    def __init__(
        self,
        name: str,
        sketch,
        batcher: MicroBatcher,
        cache: AnswerCache | None,
        cache_ns: bytes = b"",
    ):
        self.name = name
        self.sketch = sketch
        self.batcher = batcher
        self.cache = cache
        self.cache_ns = cache_ns


class SketchService:
    """Serve one or more named sketches (dataset × aggregate) concurrently.

    Parameters
    ----------
    max_batch_size, max_delay_s:
        Micro-batching triggers (see :class:`MicroBatcher`). Pass
        ``"auto"`` to derive each sketch's flush threshold from its
        engine's observed segment-size distribution
        (:meth:`~repro.core.compiled.CompiledSketch.segment_stats`);
        sketches without ``segment_stats`` keep the fixed default.
    cache:
        ``True`` (default) gives every registered sketch its own
        :class:`AnswerCache`; ``False`` disables caching; an
        :class:`AnswerCache` instance is used as-is for every sketch
        registered afterwards.
    cache_resolution, cache_entries, cache_exact:
        Knobs for the per-sketch caches built when ``cache=True``.
    infer_dtype:
        When set (``"float32"``/``"float64"``), every sketch registered
        afterwards that exposes an execution tier — a
        :class:`~repro.core.compiled.CompiledSketch` (via ``with_dtype``)
        or a fitted :class:`~repro.core.neurosketch.NeuroSketch` (via
        ``compile``) — is re-tiered to it at registration. ``None``
        (default) serves every sketch exactly as handed in, so answers stay
        bitwise-identical to the caller's own ``predict``.
    workers:
        Flush worker threads per registered sketch (see
        :class:`MicroBatcher`). With a compiled sketch, each concurrent
        flush checks its own execution context out of the engine's replica
        pool, so N workers mean up to N predicts genuinely in parallel;
        registration raises the engine's ``max_replicas`` to at least this
        many so the workers never starve.
    allow_mutations:
        ``True`` lets :meth:`ingest` mutate registered streaming sketches
        (what ``repro serve --mutable`` sets). The default ``False``
        answers every ingest with :class:`ImmutableSketchError` so a
        read-only deployment cannot be mutated over the wire.
    """

    def __init__(
        self,
        max_batch_size: int | str = 64,
        max_delay_s: float = 2e-3,
        cache: bool | AnswerCache = True,
        cache_resolution: float = 1e-4,
        cache_entries: int = 65_536,
        cache_exact: bool = False,
        infer_dtype: str | None = None,
        workers: int = 1,
        allow_mutations: bool = False,
    ) -> None:
        if infer_dtype is not None:
            from repro.core.compiled import resolve_dtype

            resolve_dtype(infer_dtype)
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if isinstance(max_batch_size, str):
            if max_batch_size != "auto":
                raise ValueError(
                    f"max_batch_size must be an int >= 1 or 'auto', got {max_batch_size!r}"
                )
            self.max_batch_size: int | str = "auto"
        else:
            self.max_batch_size = int(max_batch_size)
        self.max_delay_s = float(max_delay_s)
        self.workers = int(workers)
        self.allow_mutations = bool(allow_mutations)
        self.infer_dtype = infer_dtype
        self._cache_spec = cache
        self._cache_resolution = float(cache_resolution)
        self._cache_entries = int(cache_entries)
        self._cache_exact = bool(cache_exact)
        self._entries: dict[str, _Entry] = {}
        self._default: str | None = None
        self._closed = False

    # -------------------------------------------------------------- registry

    def register(self, name: str, sketch, default: bool = False) -> None:
        """Add a named sketch (anything with a batched ``predict``).

        The first registered sketch becomes the default target for
        ``ask``/``submit`` calls that don't name one; ``default=True``
        reassigns that role.
        """
        if self._closed:
            raise RuntimeError("SketchService is closed")
        key = name.strip().lower()
        if not key:
            raise ValueError("sketch name must be non-empty")
        if key in self._entries:
            raise ValueError(f"sketch {key!r} is already registered")
        if not callable(getattr(sketch, "predict", None)):
            raise TypeError(f"sketch {key!r} has no predict(Q) method")
        if self.infer_dtype is not None:
            if callable(getattr(sketch, "with_dtype", None)):
                sketch = sketch.with_dtype(self.infer_dtype)
            elif callable(getattr(sketch, "compile", None)):
                sketch = sketch.compile(dtype=self.infer_dtype)
        # A compiled engine must offer at least one execution context per
        # flush worker, or concurrent flushes would queue on the pool.
        if isinstance(getattr(sketch, "max_replicas", None), int):
            sketch.max_replicas = max(sketch.max_replicas, self.workers)
        cache_ns = b""
        if self._cache_spec is False or self._cache_spec is None:
            cache = None
        elif isinstance(self._cache_spec, AnswerCache):
            cache = self._cache_spec
            cache_ns = key.encode() + b"\x00"  # shared cache: partition by name
        else:
            cache = AnswerCache(
                resolution=self._cache_resolution,
                max_entries=self._cache_entries,
                exact=self._cache_exact,
            )
        segment_hint = None
        if self.max_batch_size == "auto":
            segment_stats = getattr(sketch, "segment_stats", None)
            if callable(segment_stats):
                segment_hint = lambda: segment_stats()["suggested_max_batch"]  # noqa: E731
        # Without a hint, "auto" degrades to the fixed default threshold.
        batcher = MicroBatcher(
            sketch.predict,
            max_batch_size=self.max_batch_size,
            max_delay_s=self.max_delay_s,
            workers=self.workers,
            segment_hint=segment_hint,
        )
        self._entries[key] = _Entry(key, sketch, batcher, cache, cache_ns)
        if default or self._default is None:
            self._default = key

    def sketch_names(self) -> tuple[str, ...]:
        return tuple(self._entries)

    def _entry(self, sketch: str | None) -> _Entry:
        if self._closed:
            raise RuntimeError("SketchService is closed")
        if sketch is None:
            if self._default is None:
                raise RuntimeError("no sketch registered")
            return self._entries[self._default]
        key = sketch.strip().lower()
        if key not in self._entries:
            raise KeyError(f"unknown sketch {sketch!r}; have {self.sketch_names()}")
        return self._entries[key]

    # ------------------------------------------------------------ submission

    def submit(self, q: np.ndarray, sketch: str | None = None) -> Future:
        """Async single query: the one-row case of :meth:`submit_many`.

        The returned Future resolves to the answer as a ``float`` and its
        ``cached`` attribute is a ``bool``.
        """
        q = np.asarray(q, dtype=np.float64).ravel()
        return self._submit_block(self._entry(sketch), q[None, :], scalar=True)

    def submit_many(self, Q: np.ndarray, sketch: str | None = None) -> Future:
        """Async block of queries: one Future resolving to the ``(m,)``
        answers in input order.

        The answer cache is probed for every row at once and the misses are
        enqueued as **one** micro-batch block, so a whole block costs one
        cache lock, one enqueue and one Future however many rows it has. A
        fully cached block returns an already-resolved Future without
        touching the queue; otherwise the misses' answers are cached when
        their micro-batch flushes. The Future's ``cached`` attribute is a
        list of booleans marking the rows answered from the cache, so
        callers (the socket server) can report hits without diffing stats.
        """
        Q = np.atleast_2d(np.asarray(Q, dtype=np.float64))
        return self._submit_block(self._entry(sketch), Q, scalar=False)

    def _submit_block(self, entry: _Entry, Q: np.ndarray, scalar: bool) -> Future:
        keys, answers, misses = self._probe(entry, Q)
        fut: Future = Future()
        if scalar:
            fut.cached = not misses
        else:
            fut.cached = [True] * len(answers)
            for i in misses:
                fut.cached[i] = False

        def resolve() -> None:
            fut.set_result(float(answers[0]) if scalar else answers)

        if not misses:
            resolve()
            return fut
        block = entry.batcher.submit(Q[misses])

        def finish(done: Future) -> None:
            # A caller that gave up on ``fut`` (a missed deadline) cancelled
            # it; the flushed answers are still cached for the next asker.
            exc = done.exception()
            if exc is None:
                answers[misses] = done.result()
                if entry.cache is not None:
                    entry.cache.put_many([keys[i] for i in misses], answers[misses])
            if not fut.set_running_or_notify_cancel():
                return
            if exc is None:
                resolve()
            else:
                fut.set_exception(exc)

        block.add_done_callback(finish)
        return fut

    def _probe(self, entry: _Entry, Q: np.ndarray) -> tuple[list, np.ndarray, list[int]]:
        """Every row's cache key, the cached answers (NaN where uncached) and
        the uncached row indices."""
        if entry.cache is None:
            return [], np.full(Q.shape[0], np.nan), list(range(Q.shape[0]))
        keys = entry.cache.keys(Q, entry.cache_ns)
        hits = entry.cache.get_many(keys)
        answers = np.array([np.nan if value is None else value for value in hits])
        return keys, answers, [i for i, value in enumerate(hits) if value is None]

    def ask(self, q: np.ndarray, sketch: str | None = None) -> float:
        """Blocking single query: the one-row case of :meth:`ask_many`."""
        q = np.asarray(q, dtype=np.float64).ravel()
        return float(self.ask_many(q[None, :], sketch)[0])

    def ask_many(self, Q: np.ndarray, sketch: str | None = None) -> np.ndarray:
        """Blocking batch: answers in input order, shape ``(m,)``.

        Cached rows are answered from the cache; the remaining rows run
        through :meth:`MicroBatcher.run` as one block in the calling thread
        (sweeping up any concurrently submitted queries), so a lone blocking
        caller never waits out the accumulation deadline. With the cache
        disabled the sketch's ``predict`` sees exactly ``Q`` and the answers
        are bitwise-identical to the direct batch path.
        """
        entry = self._entry(sketch)
        Q = np.atleast_2d(np.asarray(Q, dtype=np.float64))
        keys, answers, misses = self._probe(entry, Q)
        if misses:
            answers[misses] = entry.batcher.run(Q[misses])
            if entry.cache is not None:
                entry.cache.put_many([keys[i] for i in misses], answers[misses])
        return answers

    # ------------------------------------------------------------- mutations

    def ingest(
        self,
        rows=None,
        delete: tuple | None = None,
        sketch: str | None = None,
    ) -> dict:
        """Apply appends/deletes to a streaming sketch; returns a summary.

        ``rows`` are raw-unit data rows to append; ``delete`` is a
        ``(lo, hi)`` raw-unit box tombstoning live rows in ``[lo, hi)``
        (append applies first when both are given). Pending micro-batches
        are flushed before the mutation, so every answer computed before
        this call reflects pre-mutation data; the mutation itself runs
        under the sketch's own lock while serving continues on the old
        epoch until the hot-swap lands. Cached answers whose quantized
        query cells intersect a dirty leaf's query-space box are evicted
        from every registered entry sharing this sketch's stream state
        (each dtype-tier view included).
        """
        entry = self._entry(sketch)
        target = entry.sketch
        if not self.allow_mutations:
            raise ImmutableSketchError(
                "service does not accept mutations (start it with allow_mutations=True)"
            )
        if not callable(getattr(target, "append", None)):
            raise ImmutableSketchError(f"sketch {entry.name!r} is not a streaming sketch")
        if rows is None and delete is None:
            raise ValueError("ingest needs rows to append and/or delete bounds")
        self.flush()
        results = []
        if rows is not None:
            results.append(target.append(np.asarray(rows, dtype=np.float64)))
        if delete is not None:
            lo, hi = delete
            results.append(
                target.delete(
                    np.asarray(lo, dtype=np.float64), np.asarray(hi, dtype=np.float64)
                )
            )
        evicted = self._invalidate_dirty(target, results)
        return {**ingest_summary(results), "cache_evictions": evicted}

    def _invalidate_dirty(self, target, results) -> int:
        """Evict cached answers reachable from the dirty leaves' boxes."""
        mut = getattr(target, "_mut", None)
        evicted = 0
        for e in self._entries.values():
            if e.cache is None or getattr(e.sketch, "_mut", None) is not mut:
                continue
            for r in results:
                if r.dirty_lo.shape[0]:
                    evicted += e.cache.invalidate_region(
                        r.dirty_lo, r.dirty_hi, namespace=e.cache_ns
                    )
        return evicted

    def epoch_info(self, sketch: str | None = None) -> dict:
        """Current model epoch / data version of one sketch.

        Immutable sketches never swap, so they report their engine's swap
        counter (0 for a plain estimator) and data version 0.
        """
        entry = self._entry(sketch)
        return {
            "epoch": int(getattr(entry.sketch, "epoch", 0)),
            "data_version": int(getattr(entry.sketch, "data_version", 0)),
        }

    # -------------------------------------------------------------- requests

    def handle(
        self, request: protocol.Request, timeout_s: float | None = None
    ) -> protocol.Response:
        """Answer one decoded protocol request (blocks; raises on failure).

        ``timeout_s`` bounds the wait for a single query's micro-batch;
        batch, ingest, stats and epoch requests run to completion.
        """
        if isinstance(request, protocol.QueryRequest):
            fut = self.submit(np.asarray(request.q, dtype=np.float64), request.sketch)
            return query_response(request, fut.result(timeout=timeout_s), fut.cached)
        if isinstance(request, protocol.BatchQueryRequest):
            answers = self.ask_many(np.asarray(request.q, dtype=np.float64), request.sketch)
            return protocol.BatchQueryResponse(
                answers=tuple(float(a) for a in answers), id=request.id, sketch=request.sketch
            )
        if isinstance(request, protocol.IngestRequest):
            summary = self.ingest(
                list(request.rows) if request.rows else None, request.delete, request.sketch
            )
            return protocol.IngestResponse(ingest=summary, id=request.id, sketch=request.sketch)
        if isinstance(request, protocol.EpochRequest):
            info = self.epoch_info(request.sketch)
            return protocol.EpochResponse(**info, id=request.id, sketch=request.sketch)
        if isinstance(request, protocol.StatsRequest):
            return protocol.StatsResponse(stats=self.stats(request.sketch), id=request.id)
        raise TypeError(f"not a protocol request: {request!r}")

    def answer_line(
        self,
        line: str | bytes,
        max_line_bytes: int = protocol.MAX_LINE_BYTES,
        timeout_s: float | None = None,
    ) -> protocol.Response:
        """One protocol frame -> one protocol response (never raises).

        The request handler of the synchronous transports, the ``repro
        serve`` stdio loop and the shard worker.
        """
        rid: object = None
        try:
            protocol.check_line_size(line, max_line_bytes)
            request = protocol.decode_request(line)
            rid = request.id
            return self.handle(request, timeout_s)
        except Exception as exc:  # a bad frame or a failing sketch must not kill the loop
            return error_response(exc, rid, timeout_s)

    # ------------------------------------------------------------- lifecycle

    def flush(self) -> None:
        """Flush every sketch's pending micro-batch in the calling thread."""
        for entry in self._entries.values():
            entry.batcher.drain()

    def stats(self, sketch: str | None = None) -> dict:
        """Batcher + cache (+ engine replica pool) counters for one sketch."""
        entry = self._entry(sketch)
        out = {
            "sketch": entry.name,
            "batcher": entry.batcher.stats(),
            "cache": entry.cache.stats() if entry.cache is not None else None,
        }
        replica_stats = getattr(entry.sketch, "replica_stats", None)
        if callable(replica_stats):
            out["engine"] = replica_stats()
        if callable(getattr(entry.sketch, "append", None)):
            out["mutable"] = self.allow_mutations
            stream_stats = getattr(entry.sketch, "stats", None)
            if callable(stream_stats):
                out["stream"] = stream_stats()
        return out

    def close(self) -> None:
        """Stop every batcher worker (idempotent; pending work is flushed)."""
        if self._closed:
            return
        self._closed = True
        for entry in self._entries.values():
            entry.batcher.close()

    def __enter__(self) -> "SketchService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
