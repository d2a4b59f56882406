"""The unified estimator protocol (repro.api) and its deprecation shims."""

import numpy as np
import pytest

from repro.api import (
    Estimator,
    build_estimator,
    estimator_names,
    register_estimator,
    resolve_estimator_name,
)
from repro.baselines import (
    AQPMethod,
    ExactScan,
    TreeAgg,
    UniformAnswerEstimator,
    VerdictLite,
)
from repro.core.neurosketch import NeuroSketch
from repro.data import load_dataset
from repro.eval.adapters import BaselineEstimator, NeuroSketchEstimator
from repro.queries import QueryFunction, WorkloadGenerator


@pytest.fixture(scope="module")
def problem():
    ds = load_dataset("synthetic", n=400, seed=0)
    qf = QueryFunction.axis_range(ds, aggregate="AVG")
    Q = WorkloadGenerator(qf, seed=1).sample(30)
    return qf, Q, qf(Q)


@pytest.fixture(scope="module")
def tiny_sketch(problem):
    qf, Q, y = problem
    est = build_estimator(
        "neurosketch", tree_height=1, n_partitions=None, depth=2,
        width_first=6, width_rest=6, epochs=1, seed=0,
    )
    return est.fit(qf, Q, y)


def test_everything_subclasses_the_one_protocol():
    # The acceptance criterion of the unification: NeuroSketch and every
    # baseline implement repro.api.Estimator, not parallel protocols.
    for cls in (NeuroSketch, NeuroSketchEstimator, ExactScan, TreeAgg,
                VerdictLite, UniformAnswerEstimator, AQPMethod):
        assert issubclass(cls, Estimator), cls


def test_registry_builds_only_estimators():
    for name in estimator_names():
        assert isinstance(build_estimator(name), Estimator), name


def test_default_predict_one_routes_through_predict():
    calls = []

    class Doubler(Estimator):
        def predict(self, Q):
            Q = np.atleast_2d(np.asarray(Q, dtype=np.float64))
            calls.append(Q.shape)
            return 2.0 * Q.sum(axis=1)

    est = Doubler()
    assert est.predict_one(np.array([1.0, 2.0])) == pytest.approx(6.0)
    assert calls == [(1, 2)]
    assert est.supports(None)  # default support matrix says yes


def test_protocol_save_load_round_trips_neurosketch(tmp_path, tiny_sketch, problem):
    _, Q, _ = problem
    path = str(tmp_path / "sketch.json.gz")
    tiny_sketch.save(path)
    loaded = NeuroSketch.load(path)
    assert isinstance(loaded, NeuroSketch)
    np.testing.assert_allclose(
        loaded.predict(Q), tiny_sketch.predict_object(Q), rtol=1e-12, atol=1e-12
    )


def test_save_refuses_non_serializable_estimators(tmp_path, problem):
    qf, Q, y = problem
    est = ExactScan().fit(qf, Q, y)
    with pytest.raises(NotImplementedError):
        est.save(str(tmp_path / "exact.json.gz"))


def test_answer_shims_warn_and_delegate(problem):
    qf, Q, y = problem
    est = TreeAgg(sample_size=1.0, seed=0).fit(qf, Q, y)
    with pytest.warns(DeprecationWarning, match="answer"):
        batch = est.answer(Q)
    np.testing.assert_array_equal(batch, est.predict(Q))
    with pytest.warns(DeprecationWarning, match="answer_one"):
        one = est.answer_one(Q[0])
    assert one == est.predict_one(Q[0])


def test_baseline_estimator_wrapper_warns_and_delegates(problem):
    qf, Q, y = problem
    with pytest.warns(DeprecationWarning, match="BaselineEstimator"):
        est = BaselineEstimator(ExactScan(), name="exact")
    est.fit(qf, Q, y)
    np.testing.assert_allclose(est.predict(Q), y)
    assert est.predict_one(Q[0]) == pytest.approx(y[0])
    # The fixture's labels built the engine's sorted-attribute index.
    assert qf.engine.index_bytes() > 0
    assert est.num_bytes() == qf.dataset.size_bytes() + qf.engine.index_bytes()


def test_register_estimator_round_trip():
    class Dummy(Estimator):
        name = "dummy-protocol-test"

        def fit(self, query_function=None, Q_train=None, y_train=None):
            return self

        def predict(self, Q):
            return np.zeros(np.atleast_2d(Q).shape[0])

        def num_bytes(self):
            return 0

    register_estimator("Dummy-Protocol-Test", lambda **kw: Dummy())
    try:
        assert resolve_estimator_name("dummy-protocol-test") == "dummy-protocol-test"
        est = build_estimator("dummy-protocol-test")
        assert isinstance(est, Dummy)
    finally:
        from repro import api
        del api._FACTORIES["dummy-protocol-test"]


def test_resolve_rejects_unknown_names():
    with pytest.raises(KeyError, match="unknown estimator"):
        resolve_estimator_name("martians")


def test_baseline_estimator_supports_pre_unification_subclasses(problem):
    # A subclass written against the old protocol: fit(qf, **kwargs) and an
    # answer() override, no predict(). The wrapper must still drive it.
    qf, Q, y = problem

    class OldStyle(AQPMethod):
        name = "old-style"

        def fit(self, query_function, **kwargs):
            self._qf = query_function
            return self

        def answer(self, Q):
            return self._qf(Q)

        def num_bytes(self):
            return 0

    with pytest.warns(DeprecationWarning, match="BaselineEstimator"):
        est = BaselineEstimator(OldStyle())
    est.fit(qf, Q, y)
    np.testing.assert_allclose(est.predict(Q), y)
    assert est.predict_one(Q[0]) == pytest.approx(y[0])


def test_failed_save_leaves_existing_artifact_intact(tmp_path, problem):
    qf, Q, y = problem
    path = tmp_path / "artifact.json.gz"
    path.write_bytes(b"precious bytes")
    est = ExactScan().fit(qf, Q, y)
    with pytest.raises(NotImplementedError):
        est.save(str(path))
    assert path.read_bytes() == b"precious bytes"


def test_baseline_wrapper_propagates_real_not_implemented(problem):
    # VerdictLite raising NotImplementedError for STD must surface as-is,
    # not be swallowed by the old-protocol fallback (which would emit a
    # spurious DeprecationWarning; pytest runs with warnings-as-errors).
    qf, Q, y = problem
    with pytest.warns(DeprecationWarning, match="BaselineEstimator"):
        est = BaselineEstimator(VerdictLite(sample_size=0.5, seed=0))
    est.fit(qf.with_aggregate("STD"), Q, y)
    with pytest.raises(NotImplementedError, match="STD"):
        est.predict(Q)
    with pytest.raises(NotImplementedError, match="STD"):
        est.predict_one(Q[0])
