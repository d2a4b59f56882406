"""The asyncio socket server: round trips, concurrency parity, robustness."""

import asyncio
import socket
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.serve import (
    Client,
    ServerError,
    SketchService,
    load_sketch,
    protocol,
    start_server_thread,
)
from repro.eval.metrics import normalized_max_abs_diff
from repro.serve.client import parse_address
from repro.serve.protocol import (
    BatchQueryRequest,
    ErrorResponse,
    IngestRequest,
    QueryRequest,
    StatsRequest,
)
from repro.serve.server import LINE_SLACK, read_frames

DATA = Path(__file__).resolve().parent / "data"


class SumSketch:
    """Deterministic fake sketch: answer = sum of query components."""

    def predict(self, Q):
        Q = np.atleast_2d(np.asarray(Q, dtype=np.float64))
        return Q.sum(axis=1)


class SlowSketch(SumSketch):
    """SumSketch that sleeps per predict call (timeout/drain tests)."""

    def __init__(self, delay_s: float):
        self.delay_s = delay_s
        self.n_calls = 0

    def predict(self, Q):
        self.n_calls += 1
        time.sleep(self.delay_s)
        return super().predict(Q)


class Boom:
    """A sketch whose predict always raises (``internal`` error tests)."""

    def predict(self, Q):
        raise RuntimeError("kaboom")


@pytest.fixture()
def golden_compiled():
    return load_sketch(str(DATA / "golden_sketch.json.gz"))


@pytest.fixture()
def sum_server():
    """A live server over a SumSketch service (cache on, 2 workers)."""
    svc = SketchService(workers=2, max_delay_s=1e-3)
    svc.register("sum", SumSketch())
    handle = start_server_thread(svc)
    try:
        yield svc, handle
    finally:
        handle.stop()
        svc.close()


# ------------------------------------------------------------- basic round trip


def test_client_round_trip_query_batch_stats(sum_server):
    _, handle = sum_server
    with Client.connect(handle.address) as client:
        assert client.ask([1.0, 2.0]) == 3.0
        assert client.last_cached is False
        assert client.ask([1.0, 2.0]) == 3.0
        assert client.last_cached is True  # answer cache hit, flagged on the wire
        Q = np.arange(12.0).reshape(4, 3)
        np.testing.assert_array_equal(client.ask_many(Q), Q.sum(axis=1))
        np.testing.assert_array_equal(
            client.ask_many(Q, pipeline=True), Q.sum(axis=1)
        )
        stats = client.stats()
        assert stats["sketch"] == "sum"
        assert stats["server"]["requests"] >= 4
        assert stats["batcher"]["workers"] == 2


def test_parse_address_shapes():
    assert parse_address("127.0.0.1:80") == ("127.0.0.1", 80)
    assert parse_address(("h", 9)) == ("h", 9)
    for bad in ("no-port", ":80", "h:not-a-number"):
        with pytest.raises(ValueError):
            parse_address(bad)


def test_unknown_sketch_is_a_structured_error(sum_server):
    _, handle = sum_server
    with Client.connect(handle.address) as client:
        with pytest.raises(ServerError) as excinfo:
            client.ask([1.0], sketch="nope")
        assert excinfo.value.code == "unknown-sketch"
        assert client.ask([1.0, 1.0], sketch="sum") == 2.0  # connection survived


# --------------------------------------------------- concurrent answer parity


@pytest.mark.parametrize("tier", ["float64", "float32"])
def test_concurrent_clients_get_bitwise_identical_answers(golden_compiled, tier):
    """N clients over the socket == local predict, float-exact per tier.

    Each client batches its workload on its own sketch entry (all entries
    share one engine), so concurrency exercises the replica pool while
    every flush hands the engine exactly that client's block — the wire
    answers must match a local ``predict`` to the bit.
    """
    engine = golden_compiled.with_dtype(tier)
    n_clients = 8
    rng = np.random.default_rng(5)
    Q = rng.uniform(0.0, 1.0, size=(48, engine.input_dim))
    expected = engine.predict(Q)
    svc = SketchService(cache=False, workers=n_clients)
    for c in range(n_clients):
        svc.register(f"c{c}", engine)
    handle = start_server_thread(svc)
    try:
        results = [None] * n_clients
        barrier = threading.Barrier(n_clients)

        def worker(i):
            with Client.connect(handle.address) as client:
                barrier.wait(timeout=30.0)
                results[i] = client.ask_many(Q, sketch=f"c{i}")

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        for i, answers in enumerate(results):
            assert answers is not None, f"client {i} never answered"
            np.testing.assert_array_equal(answers, expected)
    finally:
        handle.stop()
        svc.close()


def test_pipelined_concurrent_clients_share_one_entry(sum_server):
    # The throughput shape: many clients pipelining single-query frames
    # into one shared entry; answers must come back matched to their ids.
    _, handle = sum_server
    n_clients = 8
    rng = np.random.default_rng(9)
    blocks = [rng.uniform(size=(25, 3)) for _ in range(n_clients)]
    results = [None] * n_clients

    def worker(i):
        with Client.connect(handle.address) as client:
            results[i] = client.ask_many(blocks[i], sketch="sum", pipeline=True)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30.0)
    for i in range(n_clients):
        np.testing.assert_allclose(results[i], blocks[i].sum(axis=1), rtol=1e-12)


# ----------------------------------------------------------------- robustness


def test_malformed_lines_keep_the_connection_alive(sum_server):
    _, handle = sum_server
    with Client.connect(handle.address) as client:
        sock = client._require_open()
        for garbage in (b"this is not json\n", b'"a string"\n', b'{"op": "nope"}\n'):
            sock.sendall(garbage)
            with pytest.raises(ServerError) as excinfo:
                client._read_response()
            assert excinfo.value.code in ("bad-json", "bad-request")
        assert client.ask([2.0, 3.0]) == 5.0


def test_oversized_line_yields_error_and_connection_survives():
    svc = SketchService(cache=False)
    svc.register("sum", SumSketch())
    handle = start_server_thread(svc, max_line_bytes=512)
    try:
        with Client.connect(handle.address) as client:
            sock = client._require_open()
            # Over the frame bound but under the hard stream limit: the
            # whole line arrives and is rejected by size check.
            sock.sendall(b"[" + b"0.5," * 160 + b"0.5]\n")
            with pytest.raises(ServerError) as excinfo:
                client._read_response()
            assert excinfo.value.code == "oversized"
            # Grossly over even the stream limit: the discard path eats it
            # without buffering the whole line.
            sock.sendall(b"[" + b"0.5," * 20_000 + b"0.5]\n")
            with pytest.raises(ServerError) as excinfo:
                client._read_response()
            assert excinfo.value.code == "oversized"
            assert client.ask([1.0, 1.0], sketch="sum") == 2.0
    finally:
        handle.stop()
        svc.close()


def test_slow_sketch_times_out_with_structured_error():
    svc = SketchService(cache=False, max_delay_s=1e-3)
    svc.register("slow", SlowSketch(delay_s=2.0))
    handle = start_server_thread(svc, request_timeout_s=0.2)
    try:
        with Client.connect(handle.address) as client:
            t0 = time.perf_counter()
            with pytest.raises(ServerError) as excinfo:
                client.ask([1.0])
            assert excinfo.value.code == "timeout"
            assert time.perf_counter() - t0 < 1.5  # did not wait out the sketch
    finally:
        handle.stop()
        svc.close()


def test_sketch_exception_reports_internal_error():
    svc = SketchService(cache=False, max_delay_s=1e-3)
    svc.register("boom", Boom())
    handle = start_server_thread(svc)
    try:
        with Client.connect(handle.address) as client:
            with pytest.raises(ServerError) as excinfo:
                client.ask([1.0])
            assert excinfo.value.code == "internal"
            assert "kaboom" in str(excinfo.value)
            assert client._rfile is not None  # connection object still open
    finally:
        handle.stop()
        svc.close()


def test_oversized_line_counts_as_a_request_and_an_error():
    """``errors`` can never exceed ``requests``: a line discarded for running
    past the stream limit counts in both, like every other bad frame."""
    svc = SketchService(cache=False)
    svc.register("sum", SumSketch())
    handle = start_server_thread(svc, max_line_bytes=512)
    try:
        with Client.connect(handle.address) as client:
            client._require_open().sendall(b"[" + b"0.5," * 20_000 + b"0.5]\n")
            with pytest.raises(ServerError) as excinfo:
                client._read_response()
            assert excinfo.value.code == "oversized"
            server = client.stats()["server"]
        assert (server["requests"], server["errors"]) == (2, 1)  # the line + the stats frame
    finally:
        handle.stop()
        svc.close()


def _read_groups(chunks: list[bytes], tail: bytes, max_line_bytes: int = 64) -> list[list]:
    """Every group :func:`read_frames` yields for a stream fed ``chunks``
    (each one only after the group it completes was taken), then ``tail``
    and EOF."""

    async def run():
        reader = asyncio.StreamReader(limit=max_line_bytes + LINE_SLACK)
        frames = read_frames(reader, max_line_bytes)
        groups = []
        for chunk in chunks:
            reader.feed_data(chunk)
            groups.append(await asyncio.wait_for(frames.__anext__(), 5.0))
        reader.feed_data(tail)
        reader.feed_eof()
        groups.extend([g async for g in frames])
        return groups

    return asyncio.run(run())


def test_read_frames_yields_every_buffered_line_as_one_group():
    over = b"x" * (64 + LINE_SLACK + 1)
    groups = _read_groups(
        [
            b"a\n\n  \r\nb\r\nc",  # blank lines dropped, "c" waits for its newline
            b"d\n" + over[:100],  # an over-limit line starts ...
            over[100:] + b"\ne\n",  # ... and is dropped whole, as one None
        ],
        tail=b"tail",  # an unterminated final line counts at EOF
    )
    assert groups == [[b"a", b"b"], [b"cd"], [None, b"e"], [b"tail"]]


def test_read_frames_drops_an_over_limit_line_cut_by_eof():
    over = b"x" * (64 + LINE_SLACK + 1)
    assert _read_groups([b"a\n" + over], tail=b"") == [[b"a"], [None]]


# ------------------------------------------------------------ pipelined groups


@pytest.mark.parametrize("tier,budget", [("float64", 1e-12), ("float32", 1e-5)])
def test_pipelined_burst_is_answered_once_per_id_in_few_flushes(golden_compiled, tier, budget):
    """One write carries 256 query frames with bad, unknown-sketch, stats
    and batch frames mixed in: every id is answered exactly once with the
    right code, the answers match in-process ``predict``, and the queries
    reach the batcher in a handful of blocks, not one per frame."""
    engine = golden_compiled.with_dtype(tier)
    Q = np.random.default_rng(11).uniform(0.0, 1.0, size=(256, engine.input_dim))
    B = Q[:5]
    frames = [protocol.encode(QueryRequest(q=tuple(q), id=i)) for i, q in enumerate(Q)]
    extras = {
        64: "{not json",
        128: protocol.encode(QueryRequest(q=tuple(Q[0]), id=1000, sketch="nope")),
        192: protocol.encode(StatsRequest(id=1001)),
        255: protocol.encode(BatchQueryRequest(q=tuple(map(tuple, B)), id=1002)),
    }
    for at in sorted(extras, reverse=True):
        frames.insert(at, extras[at])
    svc = SketchService(cache=False, workers=2, max_delay_s=1e-3)
    svc.register("g", engine)
    batcher = svc._entries["g"].batcher
    enqueued: list[int] = []  # rows per micro-batch block
    submit = batcher.submit
    batcher.submit = lambda Q: enqueued.append(len(Q)) or submit(Q)
    handle = start_server_thread(svc)
    try:
        with Client.connect(handle.address) as client:
            flushes0 = client.stats()["batcher"]["n_flushes"]
            client._require_open().sendall(("\n".join(frames) + "\n").encode())
            responses = [protocol.decode_response(client._rfile.readline()) for _ in frames]
            flushes = client.stats()["batcher"]["n_flushes"] - flushes0
    finally:
        handle.stop()
        svc.close()
    by_id: dict = {}
    for r in responses:
        assert r.id not in by_id, f"id {r.id} answered twice"
        by_id[r.id] = r
    assert set(by_id) == set(range(256)) | {None, 1000, 1001, 1002}
    assert (by_id[None].code, by_id[1000].code) == ("bad-json", "unknown-sketch")
    # Every frame up to the stats frame was counted before it was answered.
    assert by_id[1001].stats["server"]["requests"] >= frames.index(extras[192]) + 1
    np.testing.assert_array_equal(by_id[1002].answers, engine.predict(B))
    got = np.array([by_id[i].answer for i in range(256)])
    assert normalized_max_abs_diff(got, engine.predict(Q)) <= budget
    assert flushes <= 8
    # One block per buffered group, not one per frame.
    assert sum(enqueued) == 256 and len(enqueued) <= 8


def test_group_on_a_slow_sketch_times_out_together_and_the_connection_survives():
    svc = SketchService(cache=False, max_delay_s=1e-3)
    svc.register("slow", SlowSketch(delay_s=1.5))
    svc.register("sum", SumSketch())
    handle = start_server_thread(svc, request_timeout_s=0.2)
    try:
        with Client.connect(handle.address) as client:
            frames = [
                protocol.encode(QueryRequest(q=(float(i), 1.0), id=i, sketch="slow"))
                for i in range(6)
            ]
            t0 = time.perf_counter()
            client._require_open().sendall(("\n".join(frames) + "\n").encode())
            responses = [protocol.decode_response(client._rfile.readline()) for _ in frames]
            assert time.perf_counter() - t0 < 1.2  # did not wait out the sketch
            assert sorted(r.id for r in responses) == list(range(6))
            assert {r.code for r in responses} == {"timeout"}
            assert client.ask([2.0, 3.0], sketch="sum") == 5.0
    finally:
        handle.stop()
        svc.close()


# ------------------------------------------------------------- shutdown drain


def test_stop_with_drain_answers_everything_in_flight():
    """No dropped futures: requests accepted before stop() all resolve."""
    sketch = SlowSketch(delay_s=0.25)
    svc = SketchService(cache=False, max_delay_s=1e-3, workers=2)
    svc.register("slow", sketch)
    handle = start_server_thread(svc)
    client = Client.connect(handle.address)
    try:
        n = 4
        frames = []
        from repro.serve import protocol
        from repro.serve.protocol import QueryRequest

        for i in range(n):
            frames.append(protocol.encode(QueryRequest(q=(float(i), 1.0), id=i)))
        client._require_open().sendall(("\n".join(frames) + "\n").encode())
        time.sleep(0.1)  # server has decoded and submitted; flush in progress
        handle.stop(drain=True)  # blocks until in-flight work is answered
        by_id = {}
        for _ in range(n):
            response = client._read_response()
            by_id[response.id] = response.answer
        assert by_id == {i: float(i) + 1.0 for i in range(n)}
    finally:
        client.close()
        svc.close()


def test_stop_with_drain_answers_a_whole_group_in_flight():
    """A group caught mid-flush by stop(drain=True) is answered in full: its
    queries (one micro-batch) and the batch frame riding with them."""
    sketch = SlowSketch(delay_s=0.3)
    svc = SketchService(cache=False, max_delay_s=1e-3, workers=1)
    svc.register("slow", sketch)
    handle = start_server_thread(svc)
    client = Client.connect(handle.address)
    try:
        n = 32
        frames = [protocol.encode(QueryRequest(q=(float(i), 1.0), id=i)) for i in range(n)]
        frames.append(protocol.encode(BatchQueryRequest(q=((1.0, 2.0), (3.0, 4.0)), id=n)))
        client._require_open().sendall(("\n".join(frames) + "\n").encode())
        time.sleep(0.1)  # the group is decoded and its block is flushing
        handle.stop(drain=True)
        by_id = {}
        for _ in frames:
            response = protocol.decode_response(client._rfile.readline())
            by_id[response.id] = getattr(response, "answer", None) or response.answers
        assert by_id == {**{i: float(i) + 1.0 for i in range(n)}, n: (3.0, 7.0)}
        # The 32 queries went to the engine as one block: at most one predict
        # for them and one for the batch (which may sweep the block up).
        assert sketch.n_calls <= 2
    finally:
        client.close()
        svc.close()


def test_requests_after_drain_get_shutting_down(sum_server):
    svc, handle = sum_server
    with Client.connect(handle.address) as client:
        assert client.ask([1.0, 1.0]) == 2.0
        # Flip the drain flag directly (stop() would close the socket).
        handle.server._draining = True
        with pytest.raises(ServerError) as excinfo:
            client.ask([2.0, 2.0])
        assert excinfo.value.code == "shutting-down"


def test_stop_is_idempotent_and_frees_the_port():
    svc = SketchService(cache=False)
    svc.register("sum", SumSketch())
    handle = start_server_thread(svc)
    host, port = handle.address
    handle.stop()
    handle.stop()  # second stop is a no-op
    svc.close()
    # The port is actually released.
    probe = socket.socket()
    try:
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        probe.bind((host, port))
    finally:
        probe.close()


def test_stats_include_engine_replica_pool(golden_compiled):
    svc = SketchService(cache=False, workers=4)
    svc.register("golden", golden_compiled.with_dtype("float32"))
    handle = start_server_thread(svc)
    try:
        with Client.connect(handle.address) as client:
            client.ask_many(np.full((8, golden_compiled.input_dim), 0.5), sketch="golden")
            stats = client.stats("golden")
        assert stats["engine"]["max_replicas"] >= 4  # register() raised it
        assert 1 <= stats["engine"]["replicas"] <= stats["engine"]["max_replicas"]
        assert stats["engine"]["dtype"] == "float32"
    finally:
        handle.stop()
        svc.close()


# ------------------------------------------------------------------ CLI query


def test_cli_query_connect_round_trip(sum_server, capsys):
    from repro.cli import main

    _, handle = sum_server
    address = "{}:{}".format(*handle.address)
    rc = main(["query", "--connect", address, "--name", "sum", "0.25", "0.5"])
    assert rc == 0
    assert float(capsys.readouterr().out.strip()) == 0.75


def test_cli_query_requires_exactly_one_source(capsys):
    from repro.cli import main

    assert main(["query", "0.5"]) == 2
    assert "exactly one" in capsys.readouterr().err
    assert main(["query", "--sketch", "x", "--connect", "y:1", "0.5"]) == 2
    assert "exactly one" in capsys.readouterr().err


def test_cli_query_connect_refused_is_clean(capsys):
    from repro.cli import main

    # A port nothing listens on: operator error, not a traceback.
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    _, port = probe.getsockname()
    probe.close()
    rc = main(["query", "--connect", f"127.0.0.1:{port}", "0.5"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error" in err and "Traceback" not in err


# ----------------------------------------------------------- streaming ingest


def test_server_ingest_over_socket_matches_in_process_twin(tmp_path):
    """A second client mutates the sketch mid-traffic; after the hot-swap,
    the first client's batched answers are bitwise-equal to an in-process
    sketch that applied the same updates."""
    from test_stream import rows_near, small_sketch

    from repro.stream import load_stream_sketch

    sketch = small_sketch()
    bundle = str(tmp_path / "bundle.npz")
    sketch.save_npz(bundle)
    twin = load_stream_sketch(bundle)
    svc = SketchService(cache=False, max_delay_s=1e-3, allow_mutations=True)
    svc.register("stream", sketch)
    handle = start_server_thread(svc)
    try:
        Q = np.random.default_rng(31).uniform(0.0, 1.0, size=(24, 2))
        with Client.connect(handle.address) as reader:
            before = np.asarray(reader.ask_many(Q), dtype=np.float64)
            assert before.tobytes() == np.asarray(twin.predict(Q)).tobytes()
            assert reader.epoch() == (0, 0)
            rows = rows_near(sketch, np.array([0.5, 0.5]), k=6, seed=60)
            with Client.connect(handle.address) as writer:
                summary = writer.ingest(rows=rows)
            assert summary["swapped"] and summary["epoch"] == 1
            twin.append(rows)
            after = np.asarray(reader.ask_many(Q), dtype=np.float64)
            assert after.tobytes() == np.asarray(twin.predict(Q)).tobytes()
            assert not np.array_equal(after, before)
            assert reader.epoch() == (1, 1)
            stats = reader.stats()
            assert stats["mutable"] is True and stats["stream"]["epoch"] == 1
    finally:
        handle.stop()
        svc.close()


def test_server_without_mutations_answers_ingest_with_immutable_code():
    from test_stream import small_sketch

    svc = SketchService(cache=False, max_delay_s=1e-3)  # allow_mutations off
    svc.register("stream", small_sketch())
    handle = start_server_thread(svc)
    try:
        with Client.connect(handle.address) as client:
            with pytest.raises(ServerError) as excinfo:
                client.ingest(rows=[[1.0, 2.0]])
            assert excinfo.value.code == "immutable"
            # The refusal mutated nothing and the connection still serves.
            assert client.epoch() == (0, 0)
    finally:
        handle.stop()
        svc.close()


# --------------------------------------------------- one handler, every front end


def test_answer_line_reports_a_missed_deadline_as_timeout():
    """The synchronous transports (stdio loop, shard worker) report a missed
    single-query deadline as ``timeout`` whichever TimeoutError class the
    running Python raises for it."""
    svc = SketchService(cache=False, max_delay_s=1e-3)
    svc.register("slow", SlowSketch(delay_s=1.0))
    try:
        t0 = time.perf_counter()
        frame = protocol.encode(QueryRequest(q=(1.0,), id=3))
        response = svc.answer_line(frame, timeout_s=0.2)
        assert isinstance(response, ErrorResponse)
        assert (response.code, response.id) == ("timeout", 3)
        assert time.perf_counter() - t0 < 0.8  # did not wait out the sketch
    finally:
        svc.close()


def test_sync_and_socket_transports_answer_errors_with_the_same_codes():
    """The same five bad frames get the same error code from the stdio/worker
    handler (``answer_line``) as from the socket server."""
    frames = [
        b"{not json",
        protocol.encode(QueryRequest(q=(0.5,) * 200, id=1)).encode(),  # > 512 bytes
        protocol.encode(QueryRequest(q=(0.5,), id=2, sketch="nope")).encode(),
        protocol.encode(IngestRequest(rows=((0.1, 0.2),), id=3)).encode(),
        protocol.encode(QueryRequest(q=(0.5,), id=4, sketch="boom")).encode(),
    ]
    want = [
        ("bad-json", None),
        ("oversized", None),
        ("unknown-sketch", 2),
        ("immutable", 3),
        ("internal", 4),
    ]
    svc = SketchService(cache=False, max_delay_s=1e-3)
    svc.register("sum", SumSketch())
    svc.register("boom", Boom())
    handle = start_server_thread(svc, max_line_bytes=512)
    try:
        sync = [svc.answer_line(frame, max_line_bytes=512, timeout_s=5.0) for frame in frames]
        wire = []
        with socket.create_connection(handle.address, timeout=10.0) as sock:
            rfile = sock.makefile("rb")
            for frame in frames:
                sock.sendall(frame + b"\n")
                wire.append(protocol.decode_response(rfile.readline()))
            rfile.close()
    finally:
        handle.stop()
        svc.close()
    assert all(isinstance(r, ErrorResponse) for r in sync + wire)
    assert [(r.code, r.id) for r in sync] == want
    assert [(r.code, r.id) for r in wire] == want
