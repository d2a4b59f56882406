"""Estimator registry entries (and deprecation shims for the old adapters).

The estimator protocol itself lives in :mod:`repro.api` — one
:class:`~repro.api.Estimator` ABC that :class:`NeuroSketch` and every
baseline implement natively — so the adapter classes this module used to
define are gone. What remains here is:

- :class:`NeuroSketchEstimator` — a thin :class:`NeuroSketch` subclass whose
  ``predict``/``predict_one`` default to the compiled packed-array engine
  (what a benchmark or server should measure), with the reference object
  path kept reachable for parity/speedup reporting.
- the built-in registry entries (``neurosketch``, ``exact``, ``rtree``,
  ``tree-agg``, ``verdictdb``, ``uniform``) resolved by the CLI, the
  experiment runner and the serving layer.
- :class:`BaselineEstimator` — a deprecated wrapper that warns and
  delegates, for callers written against the pre-unification API.

Registered estimators:

- ``neurosketch`` — the paper's method (kd-tree + per-leaf MLPs).
- ``exact`` — exact-engine ground truth (accuracy 0 by construction; its value
  is the latency/storage reference point).
- ``rtree`` — an R-tree over the *full* dataset: exact answers through the
  index, i.e. the no-sampling limit of TREE-AGG.
- ``tree-agg`` — the paper's sampling baseline (uniform sample + R-tree).
- ``verdictdb`` — VerdictDB-lite scramble-sample scan.
- ``uniform`` — answers every query with ``mean(y_train)``; the sanity
  baseline any learned estimator must beat.
"""

from __future__ import annotations

import warnings

import numpy as np

from repro.api import (
    Estimator,
    build_estimator,
    estimator_names,
    register_estimator,
    resolve_estimator_name,
)
from repro.baselines.base import AQPMethod
from repro.baselines.exact import ExactScan
from repro.baselines.tree_agg import TreeAgg
from repro.baselines.uniform import UniformAnswerEstimator
from repro.baselines.verdictdb import VerdictLite
from repro.core.compiled import resolve_dtype
from repro.core.neurosketch import NeuroSketch
from repro.nn.training import TrainConfig

__all__ = [
    "Estimator",
    "NeuroSketchEstimator",
    "BaselineEstimator",
    "UniformAnswerEstimator",
    "build_estimator",
    "estimator_names",
    "register_estimator",
    "resolve_estimator_name",
]


class NeuroSketchEstimator(NeuroSketch):
    """NeuroSketch serving the compiled engine by default.

    ``compile=True`` (the default) flattens the fitted sketch into the
    packed-array engine (:mod:`repro.core.compiled`) at fit time, so timing
    runs measure the fast path; ``infer_dtype`` picks that engine's
    execution tier (``"float64"``, the bit-parity reference and the default
    here, or ``"float32"``, the serving tier the benchmark runner selects).
    The reference object path stays reachable through
    :meth:`predict_object`/:meth:`predict_one_object`, which the runner uses
    to report the compiled-vs-object speedup.
    """

    def __init__(
        self,
        tree_height: int = 4,
        n_partitions: int | None = 8,
        depth: int = 5,
        width_first: int = 60,
        width_rest: int = 30,
        epochs: int = 60,
        batch_size: int = 256,
        lr: float = 1e-3,
        optimizer: str = "adam",
        patience: int = 15,
        min_delta: float = 1e-6,
        train_backend: str = "stacked",
        build_workers: int = 1,
        build_shards: int | None = None,
        seed: int = 0,
        compile: bool = True,
        infer_dtype: str = "float64",
    ) -> None:
        super().__init__(
            tree_height=tree_height,
            n_partitions=n_partitions,
            depth=depth,
            width_first=width_first,
            width_rest=width_rest,
            train_config=TrainConfig(
                epochs=epochs,
                batch_size=batch_size,
                lr=lr,
                optimizer=optimizer,
                patience=patience,
                min_delta=min_delta,
                seed=seed,
            ),
            train_backend=train_backend,
            seed=seed,
        )
        resolve_dtype(infer_dtype)  # fail on a bad tier before any training
        self.compile_enabled = bool(compile)
        self.infer_dtype = str(infer_dtype)
        self.build_workers = int(build_workers)
        self.build_shards = None if build_shards is None else int(build_shards)

    @property
    def sketch(self) -> NeuroSketch:
        """Pre-unification accessor (the estimator *is* the sketch now)."""
        return self

    def fit(self, query_function=None, Q_train=None, y_train=None) -> "NeuroSketchEstimator":
        super().fit(
            query_function,
            Q_train,
            y_train,
            build_workers=self.build_workers,
            build_shards=self.build_shards,
        )
        if self.compile_enabled:
            # Compilation is part of the build, so build-time measurements
            # include it (it is orders of magnitude cheaper than training).
            self.compile(dtype=self.infer_dtype)
        return self

    def predict(self, Q: np.ndarray, compiled: bool | None = None) -> np.ndarray:
        use = self.compile_enabled if compiled is None else compiled
        return super().predict(Q, compiled=use, dtype=self.infer_dtype)

    def predict_one(self, q: np.ndarray, compiled: bool | None = None) -> float:
        use = self.compile_enabled if compiled is None else compiled
        return super().predict_one(q, compiled=use, dtype=self.infer_dtype)

    def predict_object(self, Q: np.ndarray) -> np.ndarray:
        """Reference object-path batch predict (parity / speedup baseline)."""
        return super().predict(Q, compiled=False)

    def predict_one_object(self, q: np.ndarray) -> float:
        """Reference object-path single-query predict."""
        return super().predict_one(q, compiled=False)


class BaselineEstimator(Estimator):
    """Deprecated: baselines implement :class:`~repro.api.Estimator` natively.

    Kept so pre-unification callers (``BaselineEstimator(TreeAgg(...))``)
    keep working; it warns on construction and delegates every call.
    """

    def __init__(self, method: AQPMethod, name: str | None = None) -> None:
        warnings.warn(
            "BaselineEstimator is deprecated: baselines implement the "
            "repro.api.Estimator protocol directly",
            DeprecationWarning,
            stacklevel=2,
        )
        self._method = method
        self.name = name if name is not None else method.name.lower()

    def fit(self, query_function=None, Q_train=None, y_train=None) -> "BaselineEstimator":
        # Pre-unification AQPMethod subclasses declared fit(query_function,
        # **kwargs); pass only what both signatures accept.
        self._method.fit(query_function)
        return self

    def _is_old_style(self) -> bool:
        # An old-style subclass overrides answer() but never predict();
        # checking the override (rather than catching NotImplementedError)
        # keeps a concrete estimator's own NotImplementedError — e.g.
        # VerdictLite on STD — propagating undisturbed.
        return type(self._method).predict is Estimator.predict

    def predict(self, Q: np.ndarray) -> np.ndarray:
        if self._is_old_style():
            return self._method.answer(Q)
        return self._method.predict(Q)

    def predict_one(self, q: np.ndarray) -> float:
        if self._is_old_style():
            return float(self._method.answer(np.atleast_2d(q))[0])
        return self._method.predict_one(q)

    def num_bytes(self) -> int:
        return self._method.num_bytes()

    def supports(self, query_function) -> bool:
        return self._method.supports(query_function)


# --------------------------------------------------------------------- registry


def _named(estimator: Estimator, name: str) -> Estimator:
    """Give a registry entry its CLI name (e.g. TreeAgg doubling as rtree)."""
    estimator.name = name
    return estimator


def _make_neurosketch(**kw) -> Estimator:
    return NeuroSketchEstimator(
        tree_height=kw["tree_height"],
        n_partitions=kw["n_partitions"],
        depth=kw["depth"],
        width_first=kw["width_first"],
        width_rest=kw["width_rest"],
        epochs=kw["epochs"],
        batch_size=kw["batch_size"],
        lr=kw["lr"],
        optimizer=kw.get("optimizer", "adam"),
        patience=kw.get("patience", 15),
        min_delta=kw.get("min_delta", 1e-6),
        train_backend=kw.get("train_backend", "stacked"),
        build_workers=kw.get("build_workers", 1),
        build_shards=kw.get("build_shards"),
        seed=kw["seed"],
        compile=kw.get("compile", True),
        infer_dtype=kw.get("infer_dtype", "float64"),
    )


register_estimator("neurosketch", _make_neurosketch)
register_estimator("exact", lambda **kw: ExactScan())
register_estimator(
    "rtree", lambda **kw: _named(TreeAgg(sample_size=1.0, seed=kw["seed"]), "rtree")
)
register_estimator(
    "tree-agg", lambda **kw: TreeAgg(sample_size=kw["sample_frac"], seed=kw["seed"])
)
register_estimator(
    "verdictdb", lambda **kw: VerdictLite(sample_size=kw["sample_frac"], seed=kw["seed"])
)
register_estimator("uniform", lambda **kw: UniformAnswerEstimator())
