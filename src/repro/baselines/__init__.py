"""Baseline AQP engines the paper compares against (Section 5.1).

- :class:`~repro.baselines.exact.ExactScan` — ground-truth exact engine.
- :class:`~repro.baselines.tree_agg.TreeAgg` — the paper's own sampling
  baseline: uniform sample + R-tree index (the R-tree itself is built from
  scratch in :mod:`repro.baselines.rtree`).
- :class:`~repro.baselines.verdictdb.VerdictLite` — VerdictDB-style
  scramble-sample engine (uniform sample, no index).
- :class:`~repro.baselines.uniform.UniformAnswerEstimator` — always answers
  ``mean(y_train)``; the floor any learned estimator must beat.

All of them implement the unified :class:`repro.api.Estimator` protocol;
the historical ``answer``/``answer_one`` spellings survive as deprecation
shims on :class:`~repro.baselines.base.AQPMethod`.

DBEst-lite (mixture density networks), DeepDB-lite (sum-product networks)
and a histogram synopsis are planned (see ROADMAP.md) but not implemented
yet; the bench harness's estimator registry only exposes what exists.
"""

from repro.baselines.base import AQPMethod
from repro.baselines.exact import ExactScan
from repro.baselines.rtree import RTree
from repro.baselines.tree_agg import TreeAgg
from repro.baselines.uniform import UniformAnswerEstimator
from repro.baselines.verdictdb import VerdictLite

__all__ = [
    "AQPMethod",
    "ExactScan",
    "RTree",
    "TreeAgg",
    "UniformAnswerEstimator",
    "VerdictLite",
]
