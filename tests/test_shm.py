"""Shared-memory weight publishing: zero-copy attach, epochs, the router.

The contract under test (see :mod:`repro.serve.shm`): a published engine
attaches bitwise-identical on any tier, the attached canonical arrays are
read-only views into the block (nothing copied), a streaming retrain
republishes as a fresh epoch without disturbing workers mapped to the old
one, and a 2-process router serves through one physical copy of the
weights — with every block unlinked again on shutdown.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.compiled import CompiledSketch
from repro.serve import Client, load_sketch, prepare_worker_artifact, start_router_thread
from repro.serve.shm import (
    ShmPublisher,
    attach_sketch,
    block_bytes,
    is_shm_uri,
    publish_artifact,
    publish_sketch,
    shm_available,
)

DATA = Path(__file__).resolve().parent / "data"
GOLDEN = str(DATA / "golden_sketch.json.gz")

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="POSIX shared memory is unavailable"
)


@pytest.fixture(scope="module")
def golden_engine():
    return load_sketch(GOLDEN, dtype="float32")


@pytest.fixture()
def published(golden_engine):
    publisher = publish_sketch(golden_engine)
    try:
        yield publisher, golden_engine
    finally:
        publisher.close()


def queries(engine, n=48, seed=11):
    rng = np.random.default_rng(seed)
    return rng.uniform(-0.5, 1.5, size=(n, engine.input_dim))


# ------------------------------------------------------------- publish/attach


def test_publish_attach_bitwise_parity_across_tiers(published):
    publisher, engine = published
    assert is_shm_uri(publisher.uri)
    Q = queries(engine)
    for tier in ("float32", "float64"):
        local = load_sketch(GOLDEN, dtype=tier)
        attached = attach_sketch(publisher.uri, dtype=tier)
        assert isinstance(attached, CompiledSketch)
        np.testing.assert_array_equal(attached.predict(Q), local.predict(Q))
        assert attached.shm_uri == publisher.uri
        assert attached.shm_epoch == 0
        assert attached.shm_bytes == publisher.data_bytes


def test_attached_weights_are_read_only_shared_views(published):
    publisher, engine = published
    attached = attach_sketch(publisher.uri, dtype="float32")
    group = attached.groups[0]
    # Canonical weights come straight out of the block: read-only, and
    # not privately owned by the group.
    assert not group.W[0].flags.writeable
    assert not group.W[0].flags.owndata
    with pytest.raises(ValueError):
        group.W[0][0, 0, 0] = 1.0
    # Published tier matches, so the fused plan tensors are adopted
    # zero-copy too (the padded serving weights themselves are shared).
    assert not group._A[0].flags.writeable
    with pytest.raises(ValueError):
        group._A[0][0, 0, 0] = 1.0
    # Serving through read-only weights works: predict touches only
    # private scratch arenas.
    attached.predict(queries(engine, n=8))


def test_block_bytes_reports_current_epoch(published):
    publisher, _ = published
    assert block_bytes(publisher.uri) == publisher.data_bytes


def test_attach_rejects_non_uri_and_missing_block():
    with pytest.raises(ValueError):
        attach_sketch("/tmp/not-a-uri.npz")
    with pytest.raises(FileNotFoundError):
        attach_sketch("shm://repro-test-definitely-absent")


def test_publish_artifact_round_trip_and_close_unlinks(tmp_path, golden_engine):
    artifact = prepare_worker_artifact(GOLDEN, dir=str(tmp_path))
    publisher = publish_artifact(artifact, dtype="float32")
    assert isinstance(publisher, ShmPublisher)
    Q = queries(golden_engine)
    attached = attach_sketch(publisher.uri, dtype="float32")
    np.testing.assert_array_equal(attached.predict(Q), golden_engine.predict(Q))
    uri = publisher.uri
    publisher.close()
    # Both blocks are unlinked: a fresh attach can no longer resolve.
    with pytest.raises(FileNotFoundError):
        attach_sketch(uri)
    # ...but the existing attachment keeps its mapping and keeps serving.
    np.testing.assert_array_equal(attached.predict(Q), golden_engine.predict(Q))


def test_publish_artifact_falls_back_to_none(tmp_path):
    bogus = tmp_path / "junk.npz"
    bogus.write_bytes(b"not an npz")
    assert publish_artifact(str(bogus)) is None


def test_loaders_resolve_shm_uris(published):
    publisher, engine = published
    Q = queries(engine, n=16)
    want = engine.predict(Q)
    got = load_sketch(publisher.uri, dtype="float32")
    np.testing.assert_array_equal(got.predict(Q), want)


# ------------------------------------------------------------ epoch republish


def test_republish_flips_epoch_and_old_attachment_survives(published):
    publisher, engine = published
    Q = queries(engine)
    old = attach_sketch(publisher.uri, dtype="float32")
    want_old = old.predict(Q)

    # "Retrain": publish a float64 re-tier as the next epoch (same
    # canonical weights, so parity is easy to state; a real retrain swaps
    # in new weights the same way).
    new_engine = engine.with_dtype("float64")
    assert publisher.republish(new_engine) == 1
    assert publisher.epoch == 1

    fresh = attach_sketch(publisher.uri)
    assert fresh.shm_epoch == 1
    assert fresh.dtype_name == "float64"
    np.testing.assert_array_equal(fresh.predict(Q), new_engine.predict(Q))
    # The old epoch's block was unlinked, but POSIX keeps the mapping
    # alive for attachers that already hold it: the old engine still
    # answers, bit-identically to before the flip.
    np.testing.assert_array_equal(old.predict(Q), want_old)


def test_streaming_retrain_republishes_the_swapped_engine():
    from test_stream import rows_near, small_sketch

    sketch = small_sketch()  # default policy: retrain on any dirty row
    publisher = publish_sketch(sketch.engine(sketch.serving_dtype))
    sketch.set_weight_publisher(publisher)
    try:
        rows = rows_near(sketch, np.array([0.5, 0.5]), k=4, seed=31)
        result = sketch.append(rows)
        assert result.swapped
        assert publisher.epoch == 1  # the hot-swap republished
        Q = np.random.default_rng(12).uniform(0.0, 1.0, size=(24, 2))
        attached = attach_sketch(publisher.uri)
        want = sketch.engine(sketch.serving_dtype).predict(Q)
        np.testing.assert_array_equal(attached.predict(Q), want)
    finally:
        publisher.close()


# ----------------------------------------------------------------- the router


@pytest.mark.skipif(sys.platform == "win32", reason="router shards over POSIX pipes")
def test_router_serves_two_workers_from_one_weight_block(tmp_path):
    artifact = prepare_worker_artifact(GOLDEN, dir=str(tmp_path))
    handle = start_router_thread(
        artifact,
        processes=2,
        worker_args=("--no-cache", "--register-tiers", "--infer-dtype", "float32"),
        restart_delay_s=0.2,
    )
    try:
        shared = handle.server.router_stats()["shared_weights"]
        assert shared is not None
        assert is_shm_uri(shared["uri"]) and shared["epoch"] == 0
        assert shared["block_bytes"] > 0
        base = shared["uri"][len("shm://") :]

        # Every worker's address space maps the *same* data block — one
        # physical copy of the weights, not one per process.
        pids = [w["pid"] for w in handle.server.router_stats()["workers"]]
        assert len(pids) == 2
        for pid in pids:
            maps = Path(f"/proc/{pid}/maps").read_text()
            assert f"{base}-e0" in maps

        local = load_sketch(GOLDEN, dtype="float32")
        Q = queries(local, n=32, seed=5)
        want = np.asarray(local.predict(Q), dtype=np.float64)
        with Client.connect(handle.address) as client:
            for _ in range(2):  # round-robins across both shards
                got = np.asarray(client.ask_many(Q, sketch="float32"), dtype=np.float64)
                assert got.tobytes() == want.tobytes()
    finally:
        handle.stop()
    # Shutdown unlinked the blocks.
    with pytest.raises(FileNotFoundError):
        block_bytes(f"shm://{base}")


@pytest.mark.skipif(sys.platform == "win32", reason="router shards over POSIX pipes")
def test_router_share_weights_off_falls_back_to_npz_boot(tmp_path):
    artifact = prepare_worker_artifact(GOLDEN, dir=str(tmp_path))
    handle = start_router_thread(
        artifact, processes=1, share_weights=False, restart_delay_s=0.2
    )
    try:
        assert handle.server.router_stats()["shared_weights"] is None
        local = load_sketch(GOLDEN)
        Q = queries(local, n=8, seed=6)
        with Client.connect(handle.address) as client:
            got = np.asarray(client.ask_many(Q), dtype=np.float64)
        assert got.tobytes() == np.asarray(local.predict(Q), dtype=np.float64).tobytes()
    finally:
        handle.stop()
