"""Exact engine (ground truth): the sorted-attribute exact executor as a baseline."""

from __future__ import annotations

import numpy as np

from repro.baselines.base import AQPMethod
from repro.queries.query_function import QueryFunction


class ExactScan(AQPMethod):
    """Answers every query exactly through :class:`~repro.queries.executor.ExactEngine`.

    Axis-range queries scan only their narrowest attribute span of a
    sorted-attribute index the engine builds on its first batch; other
    predicates scan every row.
    """

    name = "exact"

    def __init__(self) -> None:
        self._qf: QueryFunction | None = None

    def fit(self, query_function: QueryFunction = None, Q_train=None, y_train=None) -> "ExactScan":
        self._qf = query_function
        return self

    def predict(self, Q: np.ndarray) -> np.ndarray:
        if self._qf is None:
            raise RuntimeError("ExactScan is not fitted")
        return self._qf(Q)

    def num_bytes(self) -> int:
        """The raw table plus, once built, the engine's sorted-attribute index."""
        if self._qf is None:
            raise RuntimeError("ExactScan is not fitted")
        return self._qf.dataset.size_bytes() + self._qf.engine.index_bytes()
