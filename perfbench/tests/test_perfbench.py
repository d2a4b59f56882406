"""Tests of the benchmark itself (not of ``repro``).

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import socket
import sys
import threading
import types
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import bench, ledger, loadgen  # noqa: E402
from perfbench.spans import ID, NAME, NAME_ID, PARENT, T0, T1, SpanLog  # noqa: E402


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    for w in spec["workloads"]:
        assert w["why"] == bench.WORKLOADS[w["name"]].why


def test_frames_decode_through_the_protocol():
    from repro.serve import protocol

    q = [0.1, 1 / 3, 2.5e-17, 1.0]
    request = protocol.decode_request(loadgen.query_frame(7, q).strip())
    assert request.id == 7 and list(request.q) == q
    batch = protocol.decode_request(loadgen.batch_frame(8, [q, q]).strip())
    assert batch.id == 8 and [list(r) for r in batch.q] == [q, q]
    rows = np.array([[1.5, 2.0], [3.0, 4.25]])
    ingest = protocol.decode_request(
        loadgen.ingest_frame(9, rows=rows, delete=(rows[0], rows[1])).strip())
    assert ingest.id == 9 and np.array_equal(np.asarray(ingest.rows), rows)


@pytest.fixture(scope="module")
def tiny_artifact(tmp_path_factory):
    """A small saved engine plus a context whose query function labels it."""
    from repro.core import NeuroSketch
    from repro.data import registry
    from repro.queries import QueryFunction, WorkloadGenerator

    ds = registry.load_dataset("synthetic", n=2000, seed=0)
    qf = QueryFunction.axis_range(ds, aggregate="AVG")
    Q, y = WorkloadGenerator(qf, seed=1).labelled_sample(200)
    path = tmp_path_factory.mktemp("artifact") / "tiny.npz"
    NeuroSketch(tree_height=1, n_partitions=None, seed=0).fit(qf, Q, y).compile(
        dtype="float32").save_npz(str(path))
    ctx = bench.Context(bench.WORKLOADS["point_paced"], 0, 1.0, work=None, ds=ds, qf=qf)
    return ctx, path, WorkloadGenerator(qf, seed=2).sample(50)


def _served(path, Q):
    from repro.serve import load_sketch

    res = loadgen.Results(Q.shape[0])
    res.sent[:] = 1
    res.recv[:] = 2
    res.answer[:] = load_sketch(str(path), dtype="float32").predict(Q)
    return res


def test_correct_answers_pass_and_a_corrupted_answer_fails(tiny_artifact):
    ctx, path, Q = tiny_artifact
    res = _served(path, Q)
    check = bench.verify_point(ctx, path, {"results": res}, Q)
    assert (check["attempted"], check["missing"], check["errors"], check["mismatches"]) == (
        50, 0, 0, 0)
    res.answer[17] *= 1.001
    assert bench.verify_point(ctx, path, {"results": res}, Q)["mismatches"] == 1


def test_missing_and_error_frames_count_as_failed(tiny_artifact):
    ctx, path, Q = tiny_artifact
    res = _served(path, Q)
    res.recv[3] = -1
    res.answer[3] = np.nan
    res.errors[5] = "timeout"
    res.answer[5] = np.nan
    check = bench.verify_point(ctx, path, {"results": res}, Q)
    assert check["missing"] == 1 and check["errors"] == 1 and check["mismatches"] == 0


class _AnswerServer:
    """Answers every query frame with 0.0 after ``delay_s``."""

    def __init__(self, delay_s: float = 0.0) -> None:
        self.delay_s = delay_s
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.address = self.sock.getsockname()[:2]
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self) -> None:
        conn, _ = self.sock.accept()
        buf = b""
        with conn:
            while True:
                chunk = conn.recv(1 << 16)
                if not chunk:
                    return
                buf += chunk
                *lines, buf = buf.split(b"\n")
                for line in lines:
                    if self.delay_s:
                        threading.Event().wait(self.delay_s)
                    rid = json.loads(line)["id"]
                    conn.sendall(b'{"v":1,"ok":true,"id":%d,"answer":0.0}\n' % rid)

    def close(self) -> None:
        self.sock.close()
        self.thread.join(timeout=5)


def _paced_run(rate: float, n: int, delay_s: float, lead_s: float):
    server = _AnswerServer(delay_s)
    conn = loadgen.Conn(server.address)
    try:
        res = loadgen.Results(n)
        streams = bench.paced_streams(np.zeros((n, 2)), 1, rate)
        loadgen.run_paced([conn], streams, res, lead_s=lead_s)
    finally:
        conn.close()
        server.close()
    ctx = bench.Context(bench.WORKLOADS["point_paced"], 0, 1.0, work=None)
    # As if the server had used 1 ms of CPU per answer and the generator 0.25 ms.
    phase = {"results": res, "server_cpu_s": 1e-3 * n, "client_cpu_s": 2.5e-4 * n}
    return res, bench.wire_metrics(ctx, phase)


def test_open_loop_generator_reports_lateness_on_schedule():
    res, figures = _paced_run(rate=500.0, n=100, delay_s=0.0, lead_s=0.01)
    assert res.answered.all()
    assert figures["server_cpu_us"] == pytest.approx(1000.0)
    assert figures["server_cpu_ratio"] == pytest.approx(4.0)
    assert figures["lateness_ms"]["p50"] < bench.LATE_MS
    assert not figures["generator_behind"]


def test_open_loop_generator_flags_falling_behind():
    # The whole 200 ms schedule is already overdue when the loop starts.
    res, figures = _paced_run(rate=500.0, n=100, delay_s=0.0, lead_s=-0.5)
    assert figures["lateness_ms"]["p50"] > 250.0
    assert figures["generator_behind"]
    # Latency is timed from the due time, so the lateness is inside it.
    assert figures["p50_ms"] >= figures["lateness_ms"]["p50"]


def test_slow_server_shows_as_latency_not_lateness():
    # Each answer takes 30 ms but sends stay on the 10 ms schedule: the open
    # loop charges the backlog to latency, not to the generator.
    res, figures = _paced_run(rate=100.0, n=40, delay_s=0.03, lead_s=0.01)
    assert res.answered.all()
    assert not figures["generator_behind"]
    assert figures["p99_ms"] > 200.0


def test_percentile_tail_keeps_ten_samples_beyond():
    assert bench.percentile_tail(np.arange(2000.0))[0] == 99.0
    pct, _ = bench.percentile_tail(np.arange(200.0))
    assert pct == pytest.approx(95.0)


def _span(name, rid, t0, t1, aux=(-1, -1), sid=0, parent=-1, rows=0):
    return (sid, NAME_ID[name], rid, t0, t1, parent, rows, aux[0], aux[1])


def test_wire_ledger_reconciles_with_the_round_trip():
    # One request: decode, submit (cache probe + enqueue), wait with its
    # flush predict, encode; client sent at 0 and received at 1000.
    spans = np.array([
        _span("protocol.decode", 0, 100, 150),
        _span("service.submit", 0, 160, 200),
        _span("cache.probe", 0, 165, 175),
        _span("batching.enqueue", 0, 180, 190),
        _span("batching.wait", 0, 180, 700, aux=(600, 690)),
        _span("protocol.encode", 0, 720, 760),
    ], dtype=np.int64)
    out = ledger.wire_ledger(spans, np.array([0]), np.array([1000]), np.array([True]))
    stage_sum = sum(out[name] for name in ledger.WIRE_STAGES)
    assert stage_sum + out["ledger.unattributed_us"] == pytest.approx(out["round_trip_us"])
    assert out["wire.transit_us"] == pytest.approx((1000 - 660) / 1e3)
    assert out["batching.wait_us"] == pytest.approx((520 - 90) / 1e3)
    # Only the stretch after the enqueue returned inside submit is counted twice.
    assert out["ledger.unattributed_us"] == pytest.approx(-(200 - 190) / 1e3)


def test_union_length_merges_overlaps_and_skips_missing():
    a = np.array([[0.0, 10.0], [0.0, 1.0]])
    b = np.array([[5.0, 20.0], [np.nan, np.nan]])
    c = np.array([[30.0, 31.0], [2.0, 3.0]])
    assert ledger.union_length([a, b, c]).tolist() == [21.0, 2.0]


def test_span_wrappers_nest_and_restore():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    module = types.ModuleType("perfbench_test_layer")
    module.Layer = Layer
    sys.modules[module.__name__] = module
    try:
        log = SpanLog()
        restore = log.install([(module.__name__, "Layer.outer", "core.fit"),
                               (module.__name__, "Layer.inner", "queries.label")])
        assert Layer().outer() == 2
        restore()
        assert Layer.outer.__name__ == "outer" and not hasattr(Layer.outer, "__wrapped__")
    finally:
        del sys.modules[module.__name__]
    arr = log.array()
    assert arr.shape[0] == 2
    inner = arr[arr[:, NAME] == NAME_ID["queries.label"]][0]
    outer = arr[arr[:, NAME] == NAME_ID["core.fit"]][0]
    assert inner[PARENT] == outer[ID]
    own = ledger.stage_seconds(arr, ("core.fit", "queries.label"))
    assert own["core.fit"] * 1e9 == pytest.approx(
        outer[T1] - outer[T0] - (inner[T1] - inner[T0]))
