"""Parity harness: the compiled engine must match the object path to 1e-12.

Property-style randomized coverage over seeds, query dims, tree heights and
merged/unmerged trees, plus the adversarial inputs that distinguish routing
implementations: single queries, empty batches, and queries sitting exactly
on a split value.
"""

import json

import numpy as np
import pytest

from repro.core.compiled import CompiledSketch, FlatTree
from repro.core.kdtree import QueryKDTree
from repro.core.neurosketch import NeuroSketch
from repro.nn.network import MLP, mlp_architecture
from repro.nn.training import TrainConfig, Trainer

RTOL = 1e-12
ATOL = 1e-12


def make_sketch(seed=0, dim=3, height=3, partitions=None, n=160, depth=3):
    """A quickly-fitted sketch (1 epoch — parity does not need accuracy)."""
    rng = np.random.default_rng(seed)
    Q = rng.uniform(0.0, 1.0, size=(n, dim))
    y = rng.normal(size=n)
    ns = NeuroSketch(
        tree_height=height,
        n_partitions=partitions,
        depth=depth,
        width_first=12,
        width_rest=8,
        train_config=TrainConfig(epochs=1, batch_size=32, seed=seed),
        seed=seed,
    )
    ns.fit(Q_train=Q, y_train=y)
    return ns, Q, rng


def assert_parity(ns, Q):
    ref = ns.predict(Q)
    compiled = ns.compile()
    np.testing.assert_allclose(compiled.predict(Q), ref, rtol=RTOL, atol=ATOL)
    np.testing.assert_allclose(ns.predict(Q, compiled=True), ref, rtol=RTOL, atol=ATOL)
    for q in Q[: min(16, Q.shape[0])]:
        one_obj = ns.predict_one(q)
        one_fast = compiled.predict_one(q)
        np.testing.assert_allclose(one_fast, one_obj, rtol=RTOL, atol=ATOL)
        np.testing.assert_allclose(one_fast, ns.predict_one(q, compiled=True))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("dim,height", [(1, 2), (2, 4), (3, 3), (6, 5)])
def test_randomized_parity_unmerged(seed, dim, height):
    ns, Q, rng = make_sketch(seed=seed, dim=dim, height=height)
    assert_parity(ns, Q)
    assert_parity(ns, rng.uniform(-0.5, 1.5, size=(64, dim)))  # off-distribution


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("partitions", [2, 5])
def test_randomized_parity_merged(seed, partitions):
    ns, Q, rng = make_sketch(seed=seed, dim=3, height=4, partitions=partitions)
    assert ns.tree.n_leaves <= partitions
    assert_parity(ns, Q)
    assert_parity(ns, rng.uniform(0.0, 1.0, size=(48, 3)))


def test_height_zero_single_leaf_parity():
    ns, Q, _ = make_sketch(seed=5, dim=2, height=0)
    assert ns.tree.n_leaves == 1
    assert_parity(ns, Q)


def test_single_query_and_1d_input():
    ns, Q, _ = make_sketch(seed=7, dim=4, height=3)
    compiled = ns.compile()
    one_row = compiled.predict(Q[:1])
    assert one_row.shape == (1,)
    np.testing.assert_allclose(one_row[0], ns.predict_one(Q[0]), rtol=RTOL, atol=ATOL)
    flat = compiled.predict(Q[0])  # 1-D input promoted like the object path
    np.testing.assert_allclose(flat, one_row, rtol=RTOL, atol=ATOL)


def test_empty_batch():
    ns, Q, _ = make_sketch(seed=8, dim=3, height=2)
    compiled = ns.compile()
    empty = np.empty((0, 3))
    assert compiled.predict(empty).shape == (0,)
    np.testing.assert_array_equal(compiled.tree.route_batch(empty), np.empty(0, dtype=np.int64))
    assert ns.predict(empty, compiled=True).shape == ns.predict(empty).shape == (0,)


def test_boundary_queries_on_split_values():
    """Queries exactly on an internal split must route identically (<= left)."""
    ns, Q, _ = make_sketch(seed=9, dim=3, height=4)
    splits = []
    stack = [ns.tree.root]
    while stack:
        node = stack.pop()
        if not node.is_leaf:
            splits.append((node.dim, node.val))
            stack.extend((node.left, node.right))
    assert splits
    boundary = np.repeat(Q[:1], len(splits), axis=0).copy()
    for i, (dim, val) in enumerate(splits):
        boundary[i, dim] = val
    compiled = ns.compile()
    expected = np.array([ns.tree.route(q).leaf_id for q in boundary])
    np.testing.assert_array_equal(compiled.tree.route_batch(boundary), expected)
    np.testing.assert_array_equal(
        [compiled.tree.route_one(q) for q in boundary], expected
    )
    assert_parity(ns, boundary)


def test_flat_tree_matches_object_routing_everywhere():
    ns, Q, rng = make_sketch(seed=11, dim=2, height=5, n=400)
    flat = FlatTree.from_tree(ns.tree)
    probes = rng.uniform(-0.2, 1.2, size=(300, 2))
    np.testing.assert_array_equal(flat.route_batch(probes), ns.tree.route_batch(probes))
    assert flat.n_leaves == ns.tree.n_leaves
    assert flat.n_internal == ns.tree.n_internal


def test_compile_is_cached_and_invalidated_by_fit():
    ns, Q, _ = make_sketch(seed=12, dim=2, height=2)
    first = ns.compile()
    assert ns.compile() is first
    assert ns.compile(force=True) is not first
    rng = np.random.default_rng(0)
    ns.fit(Q_train=rng.uniform(size=(80, 2)), y_train=rng.normal(size=80))
    assert ns.compile() is not first


def test_compiled_round_trip_serialization(tmp_path):
    ns, Q, _ = make_sketch(seed=13, dim=3, height=3, partitions=4)
    compiled = ns.compile()
    ref = compiled.predict(Q)

    clone = CompiledSketch.from_dict(compiled.to_dict())
    np.testing.assert_allclose(clone.predict(Q), ref, rtol=RTOL, atol=ATOL)

    path = tmp_path / "compiled.json.gz"
    compiled.save(str(path))
    loaded = CompiledSketch.load(str(path))
    np.testing.assert_allclose(loaded.predict(Q), ref, rtol=RTOL, atol=ATOL)
    np.testing.assert_allclose(loaded.predict_one(Q[3]), ns.predict_one(Q[3]), rtol=RTOL, atol=ATOL)


def test_saved_object_sketch_loads_into_fast_path(tmp_path):
    """NeuroSketch.save -> load -> compile: the persisted form feeds the engine."""
    ns, Q, _ = make_sketch(seed=14, dim=2, height=3)
    ref = ns.predict(Q)
    path = tmp_path / "sketch.json.gz"
    ns.save(str(path))
    loaded = NeuroSketch.load(str(path))
    np.testing.assert_allclose(loaded.predict(Q, compiled=True), ref, rtol=RTOL, atol=ATOL)


def test_size_accounting_matches_object_path():
    ns, _, _ = make_sketch(seed=15, dim=3, height=3)
    compiled = ns.compile()
    assert compiled.num_params() == ns.num_params()
    assert compiled.num_bytes() == ns.num_bytes()
    assert compiled.n_leaves == ns.tree.n_leaves


def test_heterogeneous_leaf_architectures_form_groups():
    """Leaves with different MLP shapes compile into separate stacked groups."""
    ns, Q, rng = make_sketch(seed=16, dim=2, height=2)
    lid = ns.tree.n_leaves - 1
    leaf = [leaf for leaf in ns.tree.leaves() if leaf.leaf_id == lid][0]
    arch = mlp_architecture(2, depth=2, width_first=5, width_rest=5)
    other = Trainer(TrainConfig(epochs=1, seed=1)).fit(
        MLP(arch, seed=1), ns.tree.Q[leaf.indices], rng.normal(size=len(leaf.indices))
    )
    ns.models[lid].regressor = other
    compiled = ns.compile(force=True)
    assert len(compiled.groups) == 2
    assert_parity(ns, Q)
    clone = CompiledSketch.from_dict(compiled.to_dict())
    np.testing.assert_allclose(clone.predict(Q), ns.predict(Q), rtol=RTOL, atol=ATOL)


def test_compile_rejects_unfitted_and_bad_inputs():
    ns = NeuroSketch(tree_height=2)
    with pytest.raises(RuntimeError):
        ns.compile()
    fitted, Q, _ = make_sketch(seed=17, dim=3, height=2)
    compiled = fitted.compile()
    with pytest.raises(ValueError):
        compiled.predict(np.zeros((4, 5)))  # wrong query dim
    with pytest.raises(ValueError):
        compiled.predict_one(np.zeros(1))  # short query must not broadcast
    with pytest.raises(ValueError):
        CompiledSketch.from_dict({"format": "something-else"})

    state = compiled.to_dict()
    bad = json.loads(json.dumps(state))
    bad["groups"][0]["x_mean"] = [[0.0]] * len(bad["groups"][0]["leaf_ids"])
    with pytest.raises(ValueError):  # truncated scaler stats fail at load
        CompiledSketch.from_dict(bad)
    bad = json.loads(json.dumps(state))
    bad["groups"][0]["y_mean"] = bad["groups"][0]["y_mean"][:-1] or [0.0, 0.0]
    with pytest.raises(ValueError):
        CompiledSketch.from_dict(bad)


def test_compile_rejects_non_mlp_leaf_models():
    from repro.nn.construction import ConstructedNetwork
    from repro.nn.training import TrainedRegressor

    ns, _, _ = make_sketch(seed=18, dim=2, height=1)
    net = ConstructedNetwork.build(lambda X: X.sum(axis=1), d=2, t=1)
    ns.models[0].regressor = TrainedRegressor(net, None, None)
    with pytest.raises(TypeError):
        ns.compile(force=True)


def test_skewed_batch_takes_per_leaf_path_with_parity():
    """One hot leaf plus one-query stragglers: padding would inflate memory
    by ~n_leaves, so forward_batch_padded drops to the per-leaf loop —
    answers must still match the object path."""
    ns, Q, rng = make_sketch(seed=21, dim=2, height=5, n=1200)
    compiled = ns.compile()
    leaves = compiled.tree.route_batch(Q)
    hot = np.bincount(leaves).argmax()
    hot_queries = Q[leaves == hot]
    stragglers = []
    for lid in range(compiled.n_leaves):
        if lid != hot and (leaves == lid).any():
            stragglers.append(Q[leaves == lid][0])
    skewed = np.concatenate([np.repeat(hot_queries, 30, axis=0), np.array(stragglers)])
    n_used = len(stragglers) + 1
    assert n_used * (leaves == hot).sum() * 30 > 4 * skewed.shape[0] + 1024  # fallback fires
    np.testing.assert_allclose(
        compiled.predict(skewed), ns.predict(skewed), rtol=RTOL, atol=ATOL
    )
    # The padded reference schedule drops to its per-leaf loop here; it must
    # still agree with both the object path and the segmented schedule.
    np.testing.assert_allclose(
        compiled.predict_padded(skewed), ns.predict(skewed), rtol=RTOL, atol=ATOL
    )
    shuffled = skewed[rng.permutation(skewed.shape[0])]
    np.testing.assert_allclose(
        compiled.predict(shuffled), ns.predict(shuffled), rtol=RTOL, atol=ATOL
    )


def test_flat_tree_rejects_malformed_payloads():
    """Corrupt serialized trees must fail fast, not hang or IndexError."""
    ns, _, _ = make_sketch(seed=22, dim=2, height=2)
    good = FlatTree.from_tree(ns.tree).to_dict()

    cyclic = {**good, "left": list(good["left"])}
    cyclic["left"][0] = 0  # self-loop at the root: routing would spin forever
    with pytest.raises(ValueError):
        FlatTree.from_dict(cyclic)

    out_of_range = {**good, "right": list(good["right"])}
    out_of_range["right"][0] = len(good["split_dim"])  # past the arrays
    with pytest.raises(ValueError):
        FlatTree.from_dict(out_of_range)

    dup_leaves = {**good, "leaf_id": [0 if i >= 0 else -1 for i in good["leaf_id"]]}
    with pytest.raises(ValueError):
        FlatTree.from_dict(dup_leaves)

    leaf_with_child = {**good, "left": list(good["left"])}
    leaf_idx = good["split_dim"].index(-1)
    leaf_with_child["left"][leaf_idx] = leaf_idx + 1
    with pytest.raises(ValueError):
        FlatTree.from_dict(leaf_with_child)


def test_unlabelled_tree_rejected_by_flattener():
    tree = QueryKDTree(np.random.default_rng(0).uniform(size=(32, 2)), height=2)
    for leaf in tree.leaves():
        leaf.leaf_id = None
    with pytest.raises(ValueError):
        FlatTree.from_tree(tree)


# ------------------------------------------- warm-start & segment statistics


def test_predict_one_warm_start_hits_same_leaf_repeats():
    ns, Q, _ = make_sketch(seed=7, dim=3, height=3)
    engine = ns.compile()
    q = Q[0]
    for _ in range(10):
        np.testing.assert_allclose(
            engine.predict_one(q), ns.predict_one(q), rtol=RTOL, atol=ATOL
        )
    stats = engine.replica_stats()
    # First call routes (miss, caches the leaf); the other 9 warm-start.
    assert stats["warm_misses"] >= 1
    assert stats["warm_hits"] >= 9
    assert 0.0 < stats["warm_hit_rate"] <= 1.0


def test_predict_one_warm_start_is_exact_across_leaf_changes():
    """Alternating leaves defeats the cache; answers must stay routed-exact."""
    ns, Q, _ = make_sketch(seed=8, dim=2, height=2)
    engine = ns.compile()
    for q in Q[:40]:
        np.testing.assert_allclose(
            engine.predict_one(q), ns.predict_one(q), rtol=RTOL, atol=ATOL
        )
    stats = engine.replica_stats()
    assert stats["warm_hits"] + stats["warm_misses"] == 40


def test_segment_stats_observe_batches_and_suggest_threshold():
    from repro.core.compiled import (
        DEFAULT_MAX_BATCH,
        MAX_AUTO_BATCH,
        MIN_AUTO_BATCH,
    )

    ns, Q, _ = make_sketch(seed=9, dim=3, height=3)
    engine = ns.compile()
    idle = engine.segment_stats()
    assert idle["batches"] == 0
    assert idle["suggested_max_batch"] == DEFAULT_MAX_BATCH  # no data yet
    engine.predict(Q)
    engine.predict(Q[:32])
    stats = engine.segment_stats()
    assert stats["batches"] == 2
    assert stats["rows"] == Q.shape[0] + 32
    assert stats["segments"] >= 2
    assert stats["mean_segment_rows"] > 0
    assert MIN_AUTO_BATCH <= stats["suggested_max_batch"] <= MAX_AUTO_BATCH
