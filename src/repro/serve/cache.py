"""Answer cache keyed on quantized query vectors.

Range aggregate answers are smooth in the query vector (that is what makes
NeuroSketch work), so two queries that agree to within a small grid step get
the same cached answer. The cache key is the query snapped to a uniform
grid of configurable ``resolution``; ``exact=True`` bypasses quantization
and keys on the raw float64 bytes instead, so only bit-identical repeats
hit. Entries are LRU-bounded and all operations are thread-safe.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

_MISS = object()

#: Quantized components must stay well inside int64 after rounding:
#: ``astype(np.int64)`` on values beyond the representable range (or on
#: non-finite values) wraps silently, so two distinct queries could share
#: a key and serve each other's answers. Components past this bound (or
#: non-finite ones) fall back to exact-bytes keys instead.
_QUANT_LIMIT = float(2**62)


class AnswerCache:
    """LRU cache from (quantized) query vectors to answers.

    Parameters
    ----------
    resolution:
        Grid step used to quantize queries into keys. Queries that round to
        the same grid cell share an answer; larger values trade accuracy
        for hit rate.
    max_entries:
        LRU bound; the least recently used entry is evicted first.
    exact:
        Bypass quantization: keys are the raw float64 bytes, so only
        bit-identical queries hit (no quantization error, lower hit rate).
    """

    def __init__(
        self,
        resolution: float = 1e-4,
        max_entries: int = 65_536,
        exact: bool = False,
    ) -> None:
        if resolution <= 0:
            raise ValueError("resolution must be positive")
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.resolution = float(resolution)
        self.max_entries = int(max_entries)
        self.exact = bool(exact)
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self._lock = threading.Lock()
        self._data: OrderedDict[bytes, float] = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

    def key(self, q: np.ndarray, namespace: bytes = b"") -> bytes:
        """The cache key of a query vector.

        ``namespace`` partitions a cache shared between sketches: the same
        query against different sketches has different answers, so the
        serving layer prefixes keys with the sketch name.
        """
        q = np.asarray(q, dtype=np.float64).ravel()
        if self.exact:
            return namespace + b"x" + q.tobytes()
        # Scaling may overflow to inf for extreme coordinates — that is
        # exactly the case the fallback below catches, not an error.
        with np.errstate(over="ignore", invalid="ignore"):
            scaled = np.round(q / self.resolution)
        # The mode byte keeps the two key spaces disjoint: an exact-bytes
        # fallback key can never alias a quantized key of the same length.
        if np.all(np.isfinite(scaled)) and np.all(np.abs(scaled) < _QUANT_LIMIT):
            return namespace + b"q" + scaled.astype(np.int64).tobytes()
        return namespace + b"x" + q.tobytes()

    def keys(self, Q: np.ndarray, namespace: bytes = b"") -> list[bytes]:
        """The cache keys of every row of an ``(m, d)`` query block.

        Quantizes the whole block in one numpy pass; each key is
        bitwise-equal to :meth:`key` of its row, exact-bytes fallback
        included.
        """
        Q = np.ascontiguousarray(np.atleast_2d(Q), dtype=np.float64)
        m, d = Q.shape
        raw = Q.tobytes()
        width = 8 * d
        exact_prefix = namespace + b"x"
        if self.exact:
            return [exact_prefix + raw[i * width : (i + 1) * width] for i in range(m)]
        with np.errstate(over="ignore", invalid="ignore"):
            scaled = np.round(Q / self.resolution)
            # Non-finite components fail the bound too (NaN compares False).
            ok = (np.abs(scaled) < _QUANT_LIMIT).all(axis=1)
        grid = np.where(ok[:, None], scaled, 0.0).astype(np.int64).tobytes()
        quant_prefix = namespace + b"q"
        return [
            quant_prefix + grid[i * width : (i + 1) * width]
            if good
            else exact_prefix + raw[i * width : (i + 1) * width]
            for i, good in enumerate(ok.tolist())
        ]

    def get_many(self, keys: list[bytes]) -> list[float | None]:
        """Cached answer per key, ``None`` per miss (counts each, one lock)."""
        out: list[float | None] = []
        with self._lock:
            for key in keys:
                value = self._data.get(key, _MISS)
                if value is _MISS:
                    self.misses += 1
                    out.append(None)
                else:
                    self._data.move_to_end(key)
                    self.hits += 1
                    out.append(value)
        return out

    def put_many(self, keys: list[bytes], answers) -> None:
        """Store one answer per key, then evict down to the LRU bound."""
        with self._lock:
            for key, answer in zip(keys, answers):
                self._data[key] = float(answer)
                self._data.move_to_end(key)
            while len(self._data) > self.max_entries:
                self._data.popitem(last=False)

    def get(self, q: np.ndarray, namespace: bytes = b"") -> float | None:
        """Cached answer, or ``None`` on a miss (counts either way)."""
        return self.get_many([self.key(q, namespace)])[0]

    def put(self, q: np.ndarray, answer: float, namespace: bytes = b"") -> None:
        self.put_many([self.key(q, namespace)], [answer])

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self.hits = 0
            self.misses = 0
            self.invalidations = 0

    def invalidate_region(
        self,
        lo: np.ndarray,
        hi: np.ndarray,
        namespace: bytes = b"",
        dim: int | None = None,
    ) -> int:
        """Evict every entry whose query may fall inside the given boxes.

        ``lo``/``hi`` are ``(k, d)`` (or ``(d,)``) arrays of query-space
        boxes — in the streaming path, the bounding boxes of the kd-tree
        leaves a data mutation dirtied. Eviction is *conservative over the
        quantized grid*: a quantized key stands for its whole grid cell
        (half a ``resolution`` step each way), so any cell that intersects
        a box goes, which is exactly what makes a query straddling a dirty
        leaf boundary miss afterwards. Exact-bytes keys are compared as
        points. Only entries under ``namespace`` whose dimensionality
        matches the boxes are touched (a shared cache holds other sketches'
        keys too — and, under the empty namespace, other widths' keys).
        Returns the eviction count; ``stats()["invalidations"]`` accumulates
        it.
        """
        lo = np.atleast_2d(np.asarray(lo, dtype=np.float64))
        hi = np.atleast_2d(np.asarray(hi, dtype=np.float64))
        if lo.shape != hi.shape or lo.ndim != 2:
            raise ValueError("lo and hi must be matching (k, d) box arrays")
        if dim is None:
            dim = lo.shape[1]
        elif dim != lo.shape[1]:
            raise ValueError(f"boxes have dim {lo.shape[1]}, expected {dim}")
        if lo.shape[0] == 0:
            return 0
        half = 0.5 * self.resolution
        qlo = lo - half
        qhi = hi + half
        nslen = len(namespace)
        itemsize = 8 * dim
        with self._lock:
            doomed: list[bytes] = []
            for key in self._data:
                if not key.startswith(namespace) or len(key) != nslen + 1 + itemsize:
                    continue
                mode = key[nslen : nslen + 1]
                payload = key[nslen + 1 :]
                if mode == b"q":
                    q = np.frombuffer(payload, dtype=np.int64) * self.resolution
                    if np.any(np.all((q >= qlo) & (q <= qhi), axis=1)):
                        doomed.append(key)
                elif mode == b"x":
                    q = np.frombuffer(payload, dtype=np.float64)
                    if np.any(np.all((q >= lo) & (q <= hi), axis=1)):
                        doomed.append(key)
            for key in doomed:
                del self._data[key]
            self.invalidations += len(doomed)
            return len(doomed)

    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._data),
                "hits": self.hits,
                "misses": self.misses,
                "invalidations": self.invalidations,
                "resolution": self.resolution,
                "exact": self.exact,
                "max_entries": self.max_entries,
            }
