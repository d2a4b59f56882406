"""The query function ``f_D``.

A :class:`QueryFunction` binds a dataset, a predicate function and an
aggregation function into the paper's ``f_D : [0,1]^d -> R`` (Section 2).
Calling it evaluates exact answers (the observed query function); learned
models approximate it.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from repro.data.dataset import Dataset
from repro.queries.aggregates import Aggregate, get_aggregate
from repro.queries.executor import ExactEngine
from repro.queries.predicates import AxisRangePredicate, Predicate


class QueryFunction:
    """Exact query function over a dataset.

    Parameters
    ----------
    dataset:
        The underlying data.
    predicate:
        A :class:`~repro.queries.predicates.Predicate` interpreting query
        vectors against the dataset's normalized view.
    aggregate:
        Aggregate name or object (e.g. ``"AVG"``).
    measure:
        Measure column name; defaults to the dataset's measure attribute.
    """

    def __init__(
        self,
        dataset: Dataset,
        predicate: Predicate,
        aggregate: Union[str, Aggregate] = "AVG",
        measure: str | None = None,
    ) -> None:
        self.dataset = dataset
        self.predicate = predicate
        self.aggregate = get_aggregate(aggregate)
        self.measure = measure if measure is not None else dataset.measure
        self.engine = ExactEngine(dataset.X, dataset.column(self.measure))

    # ------------------------------------------------------------ constructors

    @classmethod
    def axis_range(
        cls,
        dataset: Dataset,
        aggregate: Union[str, Aggregate] = "AVG",
        active_attrs: Sequence[str] | None = None,
        fixed_range: Sequence[float] | float | None = None,
        measure: str | None = None,
    ) -> "QueryFunction":
        """The Section-2 SQL form over named active attributes.

        ``active_attrs=None`` makes every attribute available to the workload
        generator (which activates a random subset per query, Section 5.1).
        ``fixed_range`` fixes the range widths, Example-2.1 style, so queries
        only carry lower corners.
        """
        if active_attrs is None:
            active_idx = tuple(range(dataset.dim))
        else:
            active_idx = tuple(dataset.column_index(a) for a in active_attrs)
        fixed_r = None
        if fixed_range is not None:
            if np.isscalar(fixed_range):
                fixed_r = [float(fixed_range)] * len(active_idx)
            else:
                fixed_r = list(fixed_range)
        predicate = AxisRangePredicate(dataset.dim, active_idx, fixed_r=fixed_r)
        return cls(dataset, predicate, aggregate, measure=measure)

    # --------------------------------------------------------------- protocol

    @property
    def dim(self) -> int:
        """Dimensionality ``d`` of the query function's input."""
        return self.predicate.param_dim

    def __call__(self, Q: np.ndarray) -> np.ndarray:
        """Exact answers ``f_D(q)`` for a batch of query vectors."""
        return self.engine.answer(self.predicate, Q, self.aggregate)

    def answer_one(self, q: np.ndarray) -> float:
        return self.engine.answer_one(self.predicate, q, self.aggregate)

    def selectivity(self, Q: np.ndarray) -> np.ndarray:
        """Fraction of rows matched per query (diagnostics, Lemma 3.6's ξ)."""
        counts = self.engine.answer(self.predicate, Q, "COUNT")
        return counts / self.dataset.n

    def with_aggregate(self, aggregate: Union[str, Aggregate]) -> "QueryFunction":
        """Same predicate/data, different aggregation function."""
        return QueryFunction(self.dataset, self.predicate, aggregate, measure=self.measure)

    def describe(self) -> str:
        return (
            f"f_D[{self.dataset.name}]: {self.aggregate.name}({self.measure}) "
            f"over {type(self.predicate).__name__} (d={self.dim})"
        )

    def __repr__(self) -> str:
        return f"QueryFunction({self.describe()})"
