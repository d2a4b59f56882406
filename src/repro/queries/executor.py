"""Exact query-function evaluation.

This is the "ground truth" engine: it computes ``f_D(q)`` exactly. Axis-
aligned ranges go through a sorted-attribute index, built once per engine on
the first axis-range batch: every attribute's stable sort permutation plus
its sorted values, O(n·d) memory. For each query the engine binary-searches
the half-open ``[lo, hi)`` span of every attribute, scans only the rows
inside the narrowest span, and filters them by the remaining attributes,
most selective first, with the same ``>= lo`` / ``< hi`` tests — inactive
attributes included, so a row at exactly 1.0 matches nothing. (An attribute
whose span holds every row filters nothing and is skipped.) The matched rows
are then aggregated in storage order by the
:class:`~repro.queries.aggregates.Aggregate` itself, so an answer depends
only on the matched row set: not on which attribute was scanned, nor on
which other queries share the batch, and it equals the naive per-query mask
bit for bit. Other predicates fall back to a per-query masked evaluation.

The paper uses an equivalent scan (Section 4.2, "a typical algorithm
iterates over the points in the database ... checks whether it matches the
RAQ predicate") to label training queries.
"""

from __future__ import annotations

import numpy as np

from repro.queries.aggregates import Aggregate, get_aggregate
from repro.queries.predicates import AxisRangePredicate, Predicate


class SortedAttributeIndex:
    """Each attribute's stable sort permutation and sorted values over ``X``."""

    def __init__(self, X: np.ndarray) -> None:
        order = np.argsort(X, axis=0, kind="stable")
        self.X = X
        #: ``(d, n)``: row ids of ``X`` in ascending order of each attribute.
        self.order = np.ascontiguousarray(order.T)
        #: ``(d, n)``: each attribute's values in that order.
        self.values = np.ascontiguousarray(np.take_along_axis(X, order, axis=0).T)

    @property
    def nbytes(self) -> int:
        return int(self.order.nbytes + self.values.nbytes)

    def answer(
        self,
        measure: np.ndarray,
        lo: np.ndarray,
        hi: np.ndarray,
        aggregate: Aggregate,
    ) -> np.ndarray:
        """Exact answers for ``(m, d)`` bounds ``lo``/``hi`` (see module doc)."""
        n = self.X.shape[0]
        start = np.stack([np.searchsorted(v, b) for v, b in zip(self.values, lo.T)], axis=1)
        stop = np.stack([np.searchsorted(v, b) for v, b in zip(self.values, hi.T)], axis=1)
        width = stop - start
        by_width = np.argsort(width, axis=1, kind="stable")
        out = np.empty(lo.shape[0], dtype=np.float64)
        per_query = zip(
            by_width.tolist(), start.tolist(), stop.tolist(), width.tolist(),
            lo.tolist(), hi.tolist(),
        )
        for i, (attrs, a, b, w, lo_i, hi_i) in enumerate(per_query):
            j = attrs[0]
            rows = self.order[j, a[j]:b[j]]
            for k in attrs[1:]:
                if w[k] == n or not rows.size:
                    break
                x = self.X[rows, k]
                rows = rows[(x >= lo_i[k]) & (x < hi_i[k])]
            out[i] = aggregate(measure[np.sort(rows)])
        return out


def evaluate_axis_range_batch(
    X: np.ndarray,
    measure: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    aggregate: Aggregate,
) -> np.ndarray:
    """Exact answers for a batch of axis-aligned range queries.

    Parameters
    ----------
    X:
        ``(n, d)`` normalized data.
    measure:
        ``(n,)`` raw measure values.
    lo, hi:
        ``(m, d)`` full per-attribute bounds (inactive attributes spanning
        ``[0, 1]``).
    aggregate:
        Resolved aggregate object.
    """
    return SortedAttributeIndex(X).answer(measure, lo, hi, aggregate)


def evaluate_predicate_batch(
    X: np.ndarray,
    measure: np.ndarray,
    predicate: Predicate,
    Q: np.ndarray,
    aggregate: Aggregate,
) -> np.ndarray:
    """Generic per-query exact evaluation for arbitrary predicates."""
    Q = np.atleast_2d(np.asarray(Q, dtype=np.float64))
    out = np.empty(Q.shape[0], dtype=np.float64)
    for i, q in enumerate(Q):
        out[i] = aggregate(measure[predicate.matches(q, X)])
    return out


class ExactEngine:
    """Exact RAQ evaluation over one dataset's normalized view.

    This is both the training-label generator and the "exact scan" baseline's
    compute core.
    """

    def __init__(self, X: np.ndarray, measure: np.ndarray) -> None:
        X = np.asarray(X, dtype=np.float64)
        measure = np.asarray(measure, dtype=np.float64)
        if X.ndim != 2 or measure.ndim != 1 or X.shape[0] != measure.shape[0]:
            raise ValueError("X must be (n, d) and measure (n,) with matching n")
        self.X = X
        self.measure = measure
        self._index: SortedAttributeIndex | None = None

    def answer(self, predicate: Predicate, Q: np.ndarray, aggregate) -> np.ndarray:
        """Exact answers for a batch of queries ``Q`` (shape ``(m, param_dim)``)."""
        aggregate = get_aggregate(aggregate)
        Q = np.atleast_2d(np.asarray(Q, dtype=np.float64))
        if isinstance(predicate, AxisRangePredicate):
            lo, hi = predicate.batch_bounds(Q)
            if self._index is None:
                self._index = SortedAttributeIndex(self.X)
            return self._index.answer(self.measure, lo, hi, aggregate)
        return evaluate_predicate_batch(self.X, self.measure, predicate, Q, aggregate)

    def answer_one(self, predicate: Predicate, q: np.ndarray, aggregate) -> float:
        """Exact answer for a single query."""
        return float(self.answer(predicate, np.atleast_2d(q), aggregate)[0])

    def index_bytes(self) -> int:
        """Bytes of the sorted-attribute index; 0 until an axis-range batch builds it."""
        return 0 if self._index is None else self._index.nbytes
