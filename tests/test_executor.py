"""Exact-executor tests: the sorted-attribute engine must match a naive loop."""

import numpy as np
import pytest

from repro.data.dataset import Dataset
from repro.queries import AxisRangePredicate, QueryFunction, WorkloadGenerator
from repro.queries.aggregates import AGGREGATE_NAMES, get_aggregate
from repro.queries.executor import ExactEngine, evaluate_axis_range_batch
from repro.queries.workload import sample_axis_queries


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(0)
    raw = rng.uniform(0.0, 10.0, size=(500, 3))
    ds = Dataset(raw, ["a", "b", "m"], measure="m", name="toy")
    qf = QueryFunction.axis_range(ds, aggregate="AVG")
    Q = WorkloadGenerator(qf, seed=1).sample(40)
    return ds, qf, Q


def _loop(X, measure, lo, hi, agg_name):
    """Reference implementation: per-query boolean mask over all the rows."""
    agg = get_aggregate(agg_name)
    return np.array([agg(measure[np.all((X >= l) & (X < h), axis=1)]) for l, h in zip(lo, hi)])


def _naive(ds, qf, Q, agg_name):
    lo, hi = qf.predicate.batch_bounds(Q)
    return _loop(ds.X, ds.column("m"), lo, hi, agg_name)


@pytest.mark.parametrize("agg", ["COUNT", "SUM", "AVG", "STD", "MEDIAN"])
def test_vectorized_matches_naive_loop(setup, agg):
    ds, qf, Q = setup
    got = qf.with_aggregate(agg)(Q)
    np.testing.assert_allclose(got, _naive(ds, qf, Q, agg), rtol=1e-10, atol=1e-10)


def test_empty_range_answers_zero(setup):
    ds, qf, _ = setup
    # A box outside the data domain matches nothing.
    q = np.array([0.999, 0.999, 0.999, 0.0005, 0.0005, 0.0005])
    for agg in ("COUNT", "SUM", "AVG", "MEDIAN"):
        assert qf.with_aggregate(agg).answer_one(q) == 0.0


def test_avg_equals_sum_over_count(setup):
    ds, qf, Q = setup
    counts = qf.with_aggregate("COUNT")(Q)
    sums = qf.with_aggregate("SUM")(Q)
    avgs = qf.with_aggregate("AVG")(Q)
    nonempty = counts > 0
    np.testing.assert_allclose(avgs[nonempty], sums[nonempty] / counts[nonempty])


def test_selectivity_in_unit_interval(setup):
    _, qf, Q = setup
    sel = qf.selectivity(Q)
    assert np.all(sel >= 0.0) and np.all(sel <= 1.0)


# ---------------------------------------------------------------- edge cases


def _random_bounds(rng, m, d):
    lo = rng.uniform(0.0, 0.7, size=(m, d))
    hi = lo + rng.uniform(0.05, 0.3, size=(m, d))
    return lo, np.minimum(hi, 1.0)


@pytest.mark.parametrize("agg", ["AVG", "STD", "VAR"])
def test_zero_match_moment_aggregates_do_not_warn(agg):
    """Empty selections must yield 0.0 with no divide/invalid warnings.

    The suite runs with ``filterwarnings = error``, so an empty selection
    reaching a value aggregate (the mean of nothing) would fail this test
    outright.
    """
    rng = np.random.default_rng(11)
    X = rng.uniform(0.0, 1.0, size=(60, 2))
    measure = rng.uniform(0.0, 5.0, size=60)
    # Boxes entirely outside the data domain: zero matches for every query.
    lo = np.full((8, 2), 2.0)
    hi = np.full((8, 2), 3.0)
    out = evaluate_axis_range_batch(X, measure, lo, hi, get_aggregate(agg))
    np.testing.assert_array_equal(out, np.zeros(8))
    assert np.all(np.isfinite(out))


@pytest.mark.parametrize("agg", ["COUNT", "SUM", "AVG", "STD", "MEDIAN"])
def test_one_dimensional_data(agg):
    """d=1 data: the only attribute is always the scanned one."""
    rng = np.random.default_rng(13)
    X = rng.uniform(0.0, 1.0, size=(200, 1))
    measure = rng.uniform(0.0, 10.0, size=200)
    lo, hi = _random_bounds(rng, 25, 1)
    got = evaluate_axis_range_batch(X, measure, lo, hi, get_aggregate(agg))

    reference = get_aggregate(agg)
    expected = []
    for k in range(25):
        mask = ((X >= lo[k]) & (X < hi[k])).all(axis=1)
        expected.append(reference(measure[mask]))
    np.testing.assert_allclose(got, np.array(expected), rtol=1e-12, atol=1e-12)


def test_one_dimensional_end_to_end_dataset():
    """A 1-attribute dataset (measure == the only column) evaluates cleanly."""
    rng = np.random.default_rng(17)
    raw = rng.uniform(0.0, 10.0, size=(150, 1))
    ds = Dataset(raw, ["m"], measure="m", name="one-d")
    qf = QueryFunction.axis_range(ds, aggregate="AVG")
    Q = WorkloadGenerator(qf, seed=3).sample(20)
    got = qf(Q)
    np.testing.assert_allclose(got, _naive(ds, qf, Q, "AVG"), rtol=1e-10, atol=1e-10)


# ------------------------------------------------- sorted-attribute kernel

#: Every registered aggregate plus a percentile.
ALL_AGGREGATES = [*AGGREGATE_NAMES, "P90"]


def _grid_table(rng, n, d):
    """Values on a 1/8 grid: heavy ties on every attribute, some rows at 1.0."""
    X = rng.integers(0, 9, size=(n, d)) / 8.0
    measure = rng.normal(50.0, 10.0, size=n)
    return X, measure


def _grid_bounds(rng, m, d):
    """Bounds on the same grid, so rows sit exactly on ``lo`` and on ``hi``;
    about a third of the attributes are inactive (``[0, 1]``)."""
    lo = rng.integers(0, 8, size=(m, d))
    hi = np.minimum(lo + rng.integers(1, 5, size=(m, d)), 8)
    lo, hi = lo / 8.0, hi / 8.0
    inactive = rng.random((m, d)) < 0.35
    return np.where(inactive, 0.0, lo), np.where(inactive, 1.0, hi)


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("agg", ALL_AGGREGATES)
def test_ties_and_bounds_on_the_grid_match_the_loop(agg, d):
    rng = np.random.default_rng(19 + d)
    X, measure = _grid_table(rng, 400, d)
    lo, hi = _grid_bounds(rng, 60, d)
    assert np.isin(X, lo).any() and np.isin(X, hi).any() and (X == 1.0).any()
    got = evaluate_axis_range_batch(X, measure, lo, hi, get_aggregate(agg))
    # Matched rows are aggregated in storage order, as the loop does: bitwise.
    np.testing.assert_array_equal(got, _loop(X, measure, lo, hi, agg))


def test_row_at_one_on_an_inactive_attribute_matches_nothing():
    X = np.array([[0.5, 0.5], [0.5, 1.0], [1.0, 0.5], [0.0, 0.0]])
    measure = np.array([1.0, 2.0, 4.0, 8.0])
    lo, hi = np.zeros((1, 2)), np.ones((1, 2))
    for agg, want in (("COUNT", 2.0), ("SUM", 9.0), ("MAX", 8.0)):
        got = evaluate_axis_range_batch(X, measure, lo, hi, get_aggregate(agg))
        assert got[0] == want


@pytest.mark.parametrize("agg", ALL_AGGREGATES)
def test_empty_engine_answers_the_empty_value(agg):
    """n = 0, as after deleting every live row."""
    predicate = AxisRangePredicate(3)
    Q = sample_axis_queries(predicate, 5, np.random.default_rng(23))
    got = ExactEngine(np.empty((0, 3)), np.empty(0)).answer(predicate, Q, agg)
    np.testing.assert_array_equal(got, np.full(5, get_aggregate(agg).empty_value))


@pytest.mark.parametrize("agg", ["COUNT", "AVG", "MEDIAN"])
def test_fixed_range_predicate_matches_the_loop(agg):
    rng = np.random.default_rng(29)
    X, measure = rng.uniform(0.0, 1.0, size=(500, 4)), rng.uniform(0.0, 10.0, size=500)
    predicate = AxisRangePredicate(4, active_attrs=(0, 2), fixed_r=[0.25, 0.5])
    Q = sample_axis_queries(predicate, 40, rng)
    got = ExactEngine(X, measure).answer(predicate, Q, agg)
    lo, hi = predicate.batch_bounds(Q)
    np.testing.assert_array_equal(got, _loop(X, measure, lo, hi, agg))


@pytest.mark.parametrize("agg", ALL_AGGREGATES)
def test_answer_does_not_depend_on_the_batch(agg):
    """Alone, in a batch, or in a reversed batch: bit-identical answers."""
    rng = np.random.default_rng(31)
    X, measure = _grid_table(rng, 300, 3)
    X[:150] = rng.uniform(0.0, 1.0, size=(150, 3))  # ties and distinct values
    predicate = AxisRangePredicate(3)
    Q = sample_axis_queries(predicate, 30, rng, n_active=2)
    engine = ExactEngine(X, measure)
    batch = engine.answer(predicate, Q, agg)
    np.testing.assert_array_equal(engine.answer(predicate, Q[::-1], agg)[::-1], batch)
    alone = [engine.answer_one(predicate, q, agg) for q in Q]
    np.testing.assert_array_equal(np.array(alone), batch)


def test_index_is_built_once_in_linear_memory():
    rng = np.random.default_rng(41)
    X, measure = rng.uniform(0.0, 1.0, size=(300, 4)), rng.uniform(0.0, 1.0, size=300)
    predicate = AxisRangePredicate(4)
    Q = sample_axis_queries(predicate, 10, rng)
    engine = ExactEngine(X, measure)
    assert engine.index_bytes() == 0  # lazy: nothing until the first batch
    engine.answer(predicate, Q, "COUNT")
    index = engine._index
    assert 0 < engine.index_bytes() <= 3 * X.nbytes  # O(n*d): no per-attribute row copies
    engine.answer(predicate, Q, "SUM")
    assert engine._index is index


@pytest.mark.parametrize("base", [1e6, 1e8])
@pytest.mark.parametrize("agg, reference", [("STD", np.std), ("VAR", np.var)])
def test_std_var_keep_precision_under_a_large_measure_offset(agg, reference, base):
    """``sumsq/n - mean**2`` cancels catastrophically on ``base + N(0, 1)``
    (at 1e8 it returned 0.0 for every STD); the two-pass aggregate does not."""
    rng = np.random.default_rng(37)
    X = rng.uniform(0.0, 1.0, size=(5000, 2))
    measure = base + rng.normal(0.0, 1.0, size=5000)
    lo = rng.uniform(0.0, 0.5, size=(20, 2))
    hi = lo + rng.uniform(0.2, 0.5, size=(20, 2))
    got = evaluate_axis_range_batch(X, measure, lo, hi, get_aggregate(agg))
    masks = [np.all((X >= l) & (X < h), axis=1) for l, h in zip(lo, hi)]
    assert min(mask.sum() for mask in masks) >= 100
    expected = np.array([reference(measure[mask]) for mask in masks])
    np.testing.assert_allclose(got, expected, rtol=1e-9)
    assert np.all(np.abs(got - 1.0) < 0.5)  # N(0, 1): STD and VAR are both ~1
