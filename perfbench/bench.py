"""The repo benchmark: three workloads against the paper-default sketch.

Every workload serves the system the way users run it: ``repro serve``
(CLI defaults: 4 flush workers, max batch 64, 2 ms deadline, answer cache
on) as its own process, driven from this process over the JSON-lines
socket. This process only generates load and checks answers.

Set-up (``setup_s``) is the user's path from nothing to a first answer:
load the data, label the training queries, fit, compile and save the
artifact, start the serving process and get its first answer. It runs
:data:`SETUP_REPEATS` times per run; the median is reported.

The workload seed drives only the generated inputs (queries, frame
schedule, ingest rows). The served sketch is always the same paper-default
build (fixed data and training seeds), so a change in the program, not in
the model, is what moves the numbers.

The bounded serving cost is ``server_cpu_ratio``: the serving process's
CPU time over the measured phase divided by the load generator's CPU time
over the same phase, that is the server's CPU per answer in units of the
generator's CPU per operation. Wall-clock latency and throughput
(``p50_ms``, ``p90_ms``, ``p99_ms``, ``qps``) and the raw CPU per answer
(``server_cpu_us``) are measured too and printed in the report line, but
they are not bounded:

- on a host whose virtual CPUs are time-shared, a request's wall time
  includes every moment the host ran something else, and that share
  changes from run to run far more than the program's own cost does.
  Process CPU time leaves it out (the guest kernel accounts stolen time
  apart);
- CPU time per operation still drifts with the load other tenants put on
  the shared caches and cores: on a 2-vCPU VM the server's CPU per answer
  moved by up to 45 % between stretches of minutes. The generator runs on
  the same CPU as the server (see :class:`Context`) at the same time and
  slows with it, so the ratio cancels most of that drift. The generator's
  own work per operation is the benchmark's code: it changes only with
  what the server sends back and how many answers arrive together.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perfbench import ledger, loadgen
from perfbench.spans import SETUP_POINTS, SpanLog

ROOT = Path(__file__).resolve().parents[1]
LAUNCH = Path(__file__).resolve().parent / "launch.py"
clock = time.perf_counter_ns

#: Seed kept out of tuning: a later performance claim is checked on it.
HELD_OUT_SEED = 7919
SETUP_REPEATS = 3
#: The repo's float32 serving-tier parity budget (normalized max abs diff).
PARITY_BUDGET = 1e-5
#: Frame-id bases keeping warm-up and control frames apart from measured ones.
WARM_BASE = 1_000_000_000
CONTROL_BASE = 2_000_000_000
FILL_BASE = 3_000_000_000

# The paper-default sketch (arXiv 2211.10832 section 5): G5 synthetic data,
# AVG, h=4, s=8, 5 layers of 60/30, 2000 training queries, 60 epochs.
DATASET, AGGREGATE, N_TRAIN, DATA_SEED, QUERY_SEED, FIT_SEED = "synthetic", "AVG", 2000, 0, 1, 0

PACED_RATE = 250.0  # requests/s: 4 ms apart, so rarely two in one 2 ms flush window
FLOOD_WINDOW = 64  # frames in flight per connection
# One connection: at most one full micro-batch is pending, so the number of
# engine execution contexts the server creates (and with it its peak RSS)
# does not depend on how two connections' frames happen to interleave.
FLOOD_CONNECTIONS = 1
FLOOD_POOL_RATE = 25_000  # unique queries generated per measured second
HOT_SET = 256
ZIPF_S = 1.1
INGEST_ROWS = 64
# An ingest slows the reads around it for a few hundred ms on a 2-core host.
# 6 s apart, at most two of the latency windows hold one, so the windowed
# p50/p90 stay on cache-hit reads; p99 and the ingest round trip show it.
INGEST_EVERY_S = 6.0
CORNER_EPS = (0.1, 0.05, 0.02, 0.01)
N_LABELLED = 4000  # served answers scored against exact labels (nmae)
PROBE_EXTRA = N_LABELLED - HOT_SET
#: Windows for the windowed latency figures (see :func:`latency_figures`).
WINDOW_OPS = 500
MAX_WINDOWS = 8
LATE_MS = 1.0  # a median paced send later than this: the generator fell behind


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "paced" | "flood" | "ingest"

    @property
    def mutable(self) -> bool:
        return self.kind == "ingest"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("point_paced", "open loop of unique single queries at a low fixed rate: "
                 "the micro-batch deadline wait dominates", "paced"),
        Workload("point_flood", "closed loop, one connection with 64 unique queries in "
                 "flight: per-frame serving cost and full micro-batches set capacity", "flood"),
        Workload("ingest_mixed", "cache-hit reads from a skewed hot set beside paced "
                 "localized ingests: stream retrain, hot swap, cache invalidation", "ingest"),
    )
}


class BenchError(RuntimeError):
    """The benchmark could not run (not a wrong answer: no result is printed)."""


# --------------------------------------------------------------------- files


class WorkDir:
    """Private scratch directory inside the checkout; children get it as
    ``TMPDIR`` so anything the program leaves behind shows up here."""

    def __init__(self) -> None:
        self.path = ROOT / ".perfbench-work" / f"run-{os.getpid()}-{clock()}"
        self.tmp = self.path / "tmp"
        self.tmp.mkdir(parents=True)
        self.ours: set[Path] = set()

    def file(self, name: str) -> Path:
        path = self.path / name
        self.ours.add(path)
        return path

    def env(self) -> dict:
        env = dict(os.environ)
        env["TMPDIR"] = str(self.tmp)
        return env

    def leftovers(self) -> list[str]:
        """Files in the work dir the benchmark did not create itself."""
        found = []
        for path in self.path.rglob("*"):
            if path.is_file() and path not in self.ours:
                found.append(str(path.relative_to(self.path)))
        return sorted(found)

    def remove(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.path.parent.rmdir()  # only when no concurrent run uses it
        except OSError:
            pass


def shm_blocks() -> set[str]:
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("repro-")}
    except OSError:
        return set()


# ----------------------------------------------------------------- processes


class Server:
    """``repro serve --listen`` in its own process (via the launcher)."""

    def __init__(self, work: WorkDir, artifact: Path, mutable: bool, spans: Path | None,
                 cpus: set[int]) -> None:
        self.log = work.file(f"serve-{clock()}.log")
        cmd = [sys.executable, str(LAUNCH), "serve"]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        cmd += ["--cpus", ",".join(map(str, sorted(cpus)))]
        cmd += ["--", "--sketch", str(artifact), "--listen", "127.0.0.1:0"]
        if mutable:
            cmd.append("--mutable")
        self.t_spawn = clock()
        with open(self.log, "wb") as err:
            self.proc = subprocess.Popen(cmd, cwd=ROOT, env=work.env(),
                                         stdin=subprocess.DEVNULL,
                                         stdout=subprocess.DEVNULL, stderr=err)
        self.address = self._wait_banner()

    def _wait_banner(self, timeout_s: float = 60.0) -> tuple[str, int]:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            text = self.log.read_text(errors="replace")
            marker = "listening on "
            if marker in text:
                host, port = text.split(marker, 1)[1].split()[0].rsplit(":", 1)
                return host, int(port)
            if self.proc.poll() is not None:
                raise BenchError(f"server exited during boot:\n{text}")
            time.sleep(0.0005)
        raise BenchError("server did not bind within 60 s")

    def first_answer(self, q) -> float:
        """Boot probe: connect and get one answer; returns seconds since spawn."""
        conn = loadgen.Conn(self.address)
        try:
            msg = exchange(conn, loadgen.query_frame(CONTROL_BASE, q))
        finally:
            conn.close()
        if not msg.get("ok"):
            raise BenchError(f"boot probe failed: {msg}")
        return (clock() - self.t_spawn) / 1e9

    def cpu_s(self) -> float:
        """User plus system CPU seconds the server has used so far."""
        with open(f"/proc/{self.proc.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def rss_mb(self) -> float:
        """Peak resident set size (``VmHWM``) of the server so far, in MB."""
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("VmHWM not reported by /proc")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)  # repro serve drains, then exits
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def exchange(conn: loadgen.Conn, frame: bytes, timeout_s: float = 60.0) -> dict:
    """Send one control frame and block for its single response line."""
    conn.sock.settimeout(timeout_s)
    conn.send(frame)
    while b"\n" not in conn.buf:
        chunk = conn.sock.recv(1 << 16)
        if not chunk:
            raise BenchError("server closed the connection")
        conn.buf += chunk
    line, conn.buf = conn.buf.split(b"\n", 1)
    return json.loads(line)


# ---------------------------------------------------------------------- setup


@dataclass
class Context:
    """What every phase of one run shares."""

    workload: Workload
    seed: int
    seconds: float
    work: WorkDir
    ds: object = None
    qf: object = None
    n_conn: int = 1
    # The server and, while it drives load, the generator run on this one
    # CPU. No wake-up then crosses CPUs: in a virtual machine that is an
    # interrupt through the hypervisor, whose cost moves with the host's
    # load and lands in the CPU time of whichever side sent it.
    cpu: int | None = None
    procs: list = field(default_factory=list)


def build_artifact(ctx: Context, path: Path):
    """Load -> label -> fit -> compile/save, through the public API."""
    from repro.core import NeuroSketch
    from repro.data import registry
    from repro.queries import QueryFunction, WorkloadGenerator
    from repro.stream import StreamingSketch

    ds = registry.load_dataset(DATASET, seed=DATA_SEED)
    qf = QueryFunction.axis_range(ds, aggregate=AGGREGATE)
    workload = WorkloadGenerator(qf, seed=QUERY_SEED)
    if ctx.workload.mutable:
        # StreamingSketch defaults: 64 unmerged leaves; it labels its own queries.
        sketch = StreamingSketch.build(ds, workload.sample(N_TRAIN), aggregate=AGGREGATE,
                                       seed=FIT_SEED)
        sketch.save_npz(str(path))
        return sketch
    Q, y = workload.labelled_sample(N_TRAIN)
    sketch = NeuroSketch(seed=FIT_SEED).fit(qf, Q, y)
    sketch.compile(dtype="float32").save_npz(str(path))
    return sketch


def set_up(ctx: Context, inputs: dict):
    """One full set-up; returns ``(seconds, server, artifact, sketch, boot_s)``."""
    artifact = ctx.work.file(f"artifact-{clock()}.npz")
    t0 = clock()
    sketch = build_artifact(ctx, artifact)
    server = Server(ctx.work, artifact, ctx.workload.mutable, None, {ctx.cpu})
    ctx.procs.append(server)
    boot_s = server.first_answer(inputs["boot_query"])
    return (clock() - t0) / 1e9, server, artifact, sketch, boot_s


def make_inputs(ctx: Context) -> dict:
    """Every generated input of the run, from the workload seed alone."""
    from repro.queries import WorkloadGenerator

    rng = np.random.default_rng([ctx.seed, 17])
    gen = WorkloadGenerator(ctx.qf, seed=np.random.default_rng([ctx.seed, 23]))
    inputs = {"boot_query": gen.sample(1)[0].tolist()}
    kind = ctx.workload.kind
    secs = ctx.seconds
    if kind == "paced":
        inputs["Q"] = gen.sample(int(PACED_RATE * secs))
        inputs["warm"] = gen.sample(int(PACED_RATE * 0.5))
    elif kind == "flood":
        inputs["Q"] = gen.sample(int(FLOOD_POOL_RATE * secs))
        inputs["warm"] = gen.sample(4 * FLOOD_WINDOW * ctx.n_conn)
    else:
        hot = gen.sample(HOT_SET)
        weights = 1.0 / np.arange(1, HOT_SET + 1) ** ZIPF_S
        inputs["hot"] = hot
        inputs["reads"] = rng.choice(HOT_SET, size=int(PACED_RATE * secs),
                                     p=weights / weights.sum())
        inputs["probe"] = np.vstack([hot, gen.sample(PROBE_EXTRA)])
        inputs["n_ingests"] = 2 * max(1, int(secs / (2 * INGEST_EVERY_S)))  # append/delete pairs
        inputs["corner_units"] = [rng.random((INGEST_ROWS, ctx.ds.dim))
                                  for _ in range(inputs["n_ingests"] // 2)]
    return inputs


def ingest_ops(inputs: dict, sketch) -> list[tuple]:
    """The ingest sequence: localized corner appends, each followed by a
    delete of its own box, so the data size stays level. The corner is
    shrunk until no batch dirties more than a quarter of the leaves."""
    leaves = sketch.n_leaves
    for eps in CORNER_EPS:
        batches = [sketch.store.scaler.inverse_transform(u * eps)
                   for u in inputs["corner_units"]]
        dirty = [sketch.preview_dirty(b).size for b in batches]
        if max(dirty) * 4 <= leaves:
            break
    else:
        raise BenchError(f"no corner size keeps ingest batches under 1/4 of {leaves} leaves")
    ops = []
    for k in range(inputs["n_ingests"]):
        rows = batches[k // 2]
        if k % 2 == 0:
            ops.append(("append", rows, None))
        else:
            ops.append(("delete", None, (rows.min(axis=0), rows.max(axis=0) + 1e-9)))
    return ops


# ---------------------------------------------------------------- measurement


def paced_streams(Q: np.ndarray, n_conn: int, rate: float, base: int = 0):
    """Query ``i`` due ``i / rate`` seconds after the origin, round-robin
    over the connections."""
    step = 1e9 / rate
    streams = [[] for _ in range(n_conn)]
    for i, q in enumerate(Q.tolist()):
        streams[i % n_conn].append((int(i * step), i, loadgen.query_frame(base + i, q)))
    return streams


def measure_wire(ctx: Context, server: Server, inputs: dict, ops=None) -> dict:
    """Warm up, then drive one measured phase; returns the raw outcome.

    The generator's own garbage collector is off while it drives load: a
    full collection over the set-up objects stalls the send schedule for
    milliseconds, which would read as server latency."""
    conns = [loadgen.Conn(server.address) for _ in range(ctx.n_conn)]
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {ctx.cpu})
    gc.collect()
    gc.disable()
    try:
        return _measure_wire(ctx, server, conns, inputs, ops)
    except OSError as exc:  # ConnectionError and socket timeouts included
        raise BenchError(f"lost the connection to the server: {exc!r}") from exc
    finally:
        gc.enable()
        os.sched_setaffinity(0, cpus)
        for conn in conns:
            conn.close()


def _measure_wire(ctx, server, conns, inputs, ops) -> dict:
    kind = ctx.workload.kind
    out = {}
    if kind == "paced":
        warm = loadgen.Results(len(inputs["warm"]), base=WARM_BASE)
        loadgen.run_paced(conns, paced_streams(inputs["warm"], len(conns), PACED_RATE, WARM_BASE),
                          warm)
    elif kind == "flood":
        out["fill_failed"] = fill_cache(ctx, conns[0])
        warm = loadgen.Results(len(inputs["warm"]), base=WARM_BASE)
        frames = ((i, loadgen.query_frame(WARM_BASE + i, q))
                  for i, q in enumerate(inputs["warm"].tolist()))
        loadgen.run_window(conns, FLOOD_WINDOW, frames, warm, 60.0)
    else:  # ingest: fill the cache with the hot set
        warm = loadgen.Results(HOT_SET, base=WARM_BASE)
        loadgen.run_paced(conns[:1], paced_streams(inputs["hot"], 1, 2000.0, WARM_BASE), warm)
    out["warm_failed"] = int((~warm.answered).sum() + len(warm.errors)) + out.pop("fill_failed", 0)
    stats0 = exchange(conns[0], loadgen.stats_frame(CONTROL_BASE + 1)).get("stats", {})
    cpu0, client0 = server.cpu_s(), time.thread_time()
    if kind == "paced":
        Q = inputs["Q"]
        res = loadgen.Results(len(Q))
        start = loadgen.run_paced(conns, paced_streams(Q, len(conns), PACED_RATE), res)
        window = (start, int(res.recv.max()))
    elif kind == "flood":
        Q = inputs["Q"]
        res = loadgen.Results(len(Q))
        frames = ((i, loadgen.query_frame(i, q.tolist())) for i, q in enumerate(Q))
        window = loadgen.run_window(conns, FLOOD_WINDOW, frames, res, ctx.seconds)
        out["pool_exhausted"] = bool(res.sent[-1] >= 0)
    else:
        reads = inputs["reads"]
        hot = inputs["hot"].tolist()
        n_reads = len(reads)
        res = loadgen.Results(n_reads + len(ops))
        step = 1e9 / PACED_RATE
        read_stream = [(int(i * step), i, loadgen.query_frame(i, hot[h]))
                       for i, h in enumerate(reads)]
        ingest_stream = []
        for k, (op, rows, box) in enumerate(ops):
            due = int((0.5 + k) * INGEST_EVERY_S * 1e9)
            ingest_stream.append((due, n_reads + k,
                                  loadgen.ingest_frame(n_reads + k, rows=rows, delete=box)))
        if len(conns) > 1:  # reads and ingests on their own connections
            start = loadgen.run_paced(conns[:2], [read_stream, ingest_stream], res,
                                      serial=(False, True))
        else:  # a one-core host: both streams share the only connection
            start = loadgen.run_paced(conns, [sorted(read_stream + ingest_stream)], res)
        window = (start, int(res.recv.max()))
        out["n_reads"] = n_reads
    out["server_cpu_s"] = server.cpu_s() - cpu0
    out["client_cpu_s"] = time.thread_time() - client0
    stats1 = exchange(conns[0], loadgen.stats_frame(CONTROL_BASE + 2)).get("stats", {})
    if kind == "ingest":
        probe = exchange(conns[0], loadgen.batch_frame(CONTROL_BASE + 3, inputs["probe"].tolist()))
        out["probe_answers"] = np.asarray(probe.get("answers", []), dtype=np.float64)
        out["probe_error"] = None if probe.get("ok") else probe.get("code")
    out.update(results=res, window=window, stats0=stats0, stats1=stats1,
               rss_mb=server.rss_mb())
    return out


def fill_cache(ctx: Context, conn: loadgen.Conn) -> int:
    """Have the server answer as many distinct queries as its answer cache
    holds, in flush-sized batch frames; returns the failed frames.

    The measured unique queries then run at the cache's steady state (every
    insert evicts one entry), so the server's peak RSS does not depend on
    how many answers the run got through."""
    from repro.queries import WorkloadGenerator

    stats = exchange(conn, loadgen.stats_frame(CONTROL_BASE + 4)).get("stats", {})
    size = int((stats.get("cache") or {}).get("max_entries", 0))
    Q = WorkloadGenerator(ctx.qf, seed=np.random.default_rng([ctx.seed, 29])).sample(size)
    failed = 0
    for k in range(0, size, FLOOD_WINDOW):
        rows = Q[k:k + FLOOD_WINDOW]
        msg = exchange(conn, loadgen.batch_frame(FILL_BASE + k, rows.tolist()))
        failed += not msg.get("ok") or len(msg.get("answers", ())) != len(rows)
    return failed


# --------------------------------------------------------------- verification


def percentile_tail(samples: np.ndarray) -> tuple[float, float]:
    """(percentile, value): the highest percentile up to 99 with at least
    ten samples beyond it."""
    n = samples.size
    if n < 11:
        return 0.0, float("nan")
    pct = min(99.0, 100.0 * (1.0 - 10.0 / n))
    return pct, float(np.percentile(samples, pct))


def verify_point(ctx: Context, artifact: Path, phase: dict, Q: np.ndarray) -> dict:
    """Wire answers vs in-process ``predict`` of the same artifact, plus nMAE
    of the served answers on a labelled subset."""
    from repro.eval.metrics import normalized_max_abs_diff, normalized_mae
    from repro.serve import load_sketch

    res = phase["results"]
    sent = res.sent >= 0
    ok = res.answered & ~np.isnan(res.answer)
    ref = load_sketch(str(artifact), dtype="float32").predict(Q[ok])
    scale = max(float(np.abs(ref).max()), 1e-300) if ref.size else 1.0
    bad = np.abs(res.answer[ok] - ref) > PARITY_BUDGET * scale
    idx = np.flatnonzero(ok)[:N_LABELLED]
    exact = ctx.qf(Q[idx])
    return {
        "attempted": int(sent.sum()),
        "missing": int((sent & ~res.answered).sum()),
        "errors": len(res.errors),
        "mismatches": int(bad.sum()),
        "parity": normalized_max_abs_diff(res.answer[ok], ref) if ref.size else None,
        "nmae": normalized_mae(res.answer[idx], exact),
        "labelled": int(idx.size),
    }


def verify_ingest(ctx: Context, artifact: Path, phase: dict, inputs: dict, ops) -> dict:
    """Replay the ingests in-process through ``load_stream_sketch``: every
    read must match a model epoch it could have seen, and the final probe
    must match the replayed final state."""
    from repro.eval.metrics import normalized_max_abs_diff, normalized_mae
    from repro.queries.executor import ExactEngine
    from repro.stream import load_stream_sketch

    res = phase["results"]
    n_reads = phase["n_reads"]
    hot = inputs["hot"]
    twin = load_stream_sketch(str(artifact), serving_dtype="float32")
    states = [twin.predict(hot)]
    summaries = []
    for op, rows, box in ops:
        r = twin.append(rows) if op == "append" else twin.delete(*box)
        summaries.append(r)
        states.append(twin.predict(hot))
    states = np.stack(states)
    scale = float(np.abs(states[0]).max())

    ing = np.arange(n_reads, res.n)
    done = np.sort(res.recv[ing][res.recv[ing] >= 0])
    started = np.sort(res.sent[ing][res.sent[ing] >= 0])
    reads = np.arange(n_reads)
    ok = res.answered[reads] & ~np.isnan(res.answer[reads])
    lo = np.searchsorted(done, res.sent[reads], side="right")
    hi = np.searchsorted(started, res.recv[reads], side="right")
    mismatches = 0
    for i in np.flatnonzero(ok):
        cand = states[lo[i]: hi[i] + 1, inputs["reads"][i]]
        if not np.any(np.abs(cand - res.answer[i]) <= PARITY_BUDGET * scale):
            mismatches += 1
    ingest_errors = sum(1 for k in ing if k in res.errors)
    summaries_wire = [res.payload.get(k, {}).get("ingest") for k in ing]
    for wire, local in zip(summaries_wire, summaries):
        if wire is None or sorted(wire.get("dirty_leaves", [])) != sorted(local.dirty_leaves):
            mismatches += 1
    probe = inputs["probe"]
    final = twin.predict(probe)
    answers = phase["probe_answers"]
    probe_ok = phase["probe_error"] is None and answers.shape == final.shape
    if probe_ok and normalized_max_abs_diff(answers, final) > PARITY_BUDGET:
        probe_ok = False
    exact = ExactEngine(twin.store.live_X, twin.store.live_measure).answer(
        twin.predicate, probe, twin.aggregate)
    sent = res.sent >= 0
    return {
        "attempted": int(sent.sum()) + 1,
        "missing": int((sent & ~res.answered).sum()),
        "errors": len(res.errors) + (phase["probe_error"] is not None),
        "mismatches": mismatches + (not probe_ok),
        "ingest_errors": ingest_errors,
        "parity": normalized_max_abs_diff(answers, final) if answers.shape == final.shape else None,
        "nmae": normalized_mae(answers, exact) if answers.shape == final.shape else float("nan"),
        "labelled": int(probe.shape[0]),
    }


# ---------------------------------------------------------------------- metrics


def latency_figures(done: np.ndarray, lat_ms: np.ndarray, start: int, stop: int) -> dict:
    """Latency and answers/s of operations completing at clock ``done``.

    ``p50_ms``, ``p90_ms`` and ``qps`` are medians over equal windows of the
    run (as many as hold :data:`WINDOW_OPS` operations, at most
    :data:`MAX_WINDOWS`), so a burst of host noise moves one window, not the
    figure. ``p99_ms`` is taken over the whole run: the highest percentile
    up to 99 with at least ten samples beyond it.
    """
    windows = int(np.clip(lat_ms.size // WINDOW_OPS, 1, MAX_WINDOWS))
    edges = np.linspace(start, stop, windows + 1)
    parts = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        sel = (done >= lo) & (done <= hi)
        p50, p90 = np.percentile(lat_ms[sel], [50, 90]) if sel.any() else (np.nan, np.nan)
        parts.append((p50, p90, sel.sum() / ((hi - lo) / 1e9)))
    p50, p90, qps = (float(np.median(col)) for col in zip(*parts))
    pct, tail = percentile_tail(lat_ms)
    return {"p50_ms": p50, "p90_ms": p90, "qps": qps, "p99_ms": tail, "p99_percentile": pct,
            "latency_samples": int(lat_ms.size), "windows": windows}


def wire_metrics(ctx: Context, phase: dict) -> dict:
    res = phase["results"]
    kind = ctx.workload.kind
    n = phase.get("n_reads", res.n)
    ok = res.answered[:n] & ~np.isnan(res.answer[:n])
    recv = res.recv[:n][ok]
    # Ingest work is included: it is server CPU spent so reads stay current.
    answers = max(1, int(ok.sum()))
    cpu = {"server_cpu_us": 1e6 * phase["server_cpu_s"] / answers,
           "client_cpu_us": 1e6 * phase["client_cpu_s"] / answers,
           "server_cpu_ratio": phase["server_cpu_s"] / phase["client_cpu_s"]}
    if kind == "flood":
        start, stop = phase["window"]
        out = latency_figures(recv, (recv - res.sent[:n][ok]) / 1e6, start, stop)
        out["pool_exhausted"] = phase["pool_exhausted"]  # the run ended early
    else:
        due = res.due[:n][ok]
        out = latency_figures(recv, (recv - due) / 1e6, int(due.min()), int(recv.max()))
        late = res.lateness_ms(n)
        out["lateness_ms"] = {"p50": float(np.median(late)), "p99": percentile_tail(late)[1],
                              "max": float(late.max())}
        # Jitter is reported; falling behind means sends bunch up: a median
        # send later than LATE_MS or a p99 later than one read interval.
        out["generator_behind"] = bool(out["lateness_ms"]["p50"] > LATE_MS
                                       or out["lateness_ms"]["p99"] > 1e3 / PACED_RATE)
    if kind == "ingest":
        ing = np.arange(n, res.n)
        done = res.recv[ing] >= 0
        rtt = (res.recv[ing][done] - res.sent[ing][done]) / 1e9
        out["ingest_p50_s"] = float(np.median(rtt)) if rtt.size else None
        out["ingests"] = int(done.sum())
    out.update(cpu)
    return out


def counters(stats0: dict, stats1: dict) -> dict:
    """Per-layer counters over the measured window, from two stats frames."""
    def delta(*path):
        a, b = stats0, stats1
        for key in path:
            a, b = (a or {}).get(key), (b or {}).get(key)
        return (b or 0) - (a or 0)

    flushes = delta("batcher", "n_flushes")
    hits, misses = delta("cache", "hits"), delta("cache", "misses")
    warm_hits, warm_misses = delta("engine", "warm_hits"), delta("engine", "warm_misses")
    return {
        "cache.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "batching.rows_per_flush": delta("batcher", "n_rows_flushed") / flushes if flushes else 0.0,
        "batching.flushes": float(flushes),
        "compiled.warm_hit_rate": (warm_hits / (warm_hits + warm_misses)
                                   if warm_hits + warm_misses else 0.0),
    }


# ------------------------------------------------------------------- the run


def provenance(seed: int) -> dict:
    from repro.eval.timing import environment_provenance

    nproc = os.cpu_count() or 1
    affinity = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "nproc": nproc,
        "cpu_affinity": affinity,
        "environment": environment_provenance(),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "multi_process_scaling_evidence": len(affinity or range(nproc)) >= 4,
    }


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None  # a plain checkout: src_sha256 identifies the code


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One benchmark run; returns ``(result, report)``."""
    from repro.data import registry
    from repro.queries import QueryFunction

    workload = WORKLOADS[workload_name]
    shm_before = shm_blocks()
    work = WorkDir()
    ctx = Context(workload, seed, seconds, work)
    cpus = sorted(os.sched_getaffinity(0))
    ctx.n_conn = FLOOD_CONNECTIONS if workload.kind == "flood" else min(2, len(cpus))
    ctx.cpu = cpus[-1]
    report = {"workload": workload.name, "trace": int(trace), "seconds": seconds,
              "provenance": provenance(seed),
              "measured_on_cpu": ctx.cpu}
    checks = []
    try:
        ctx.ds = registry.load_dataset(DATASET, seed=DATA_SEED)
        ctx.qf = QueryFunction.axis_range(ctx.ds, aggregate=AGGREGATE)
        inputs = make_inputs(ctx)
        if trace:
            metrics = traced_run(ctx, inputs, report, checks)
        else:
            metrics = plain_run(ctx, inputs, report, checks)
    finally:
        # Runs on every exit path, interrupts included: no server outlives
        # the run and the scratch directory goes with it.
        for proc in ctx.procs:
            proc.stop()
        leftovers = work.leftovers()
        work.remove()
    leftovers += sorted(f"/dev/shm/{n}" for n in shm_blocks() - shm_before)
    alive = [p.proc.pid for p in ctx.procs if p.proc.poll() is None]
    report["leftovers"] = leftovers
    report["processes_alive"] = alive
    attempted = sum(c["attempted"] for c in checks)
    failed = sum(c["missing"] + c["errors"] + c["mismatches"] for c in checks)
    failed += len(leftovers) + len(alive)
    report["checks"] = checks
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, report


def plain_run(ctx: Context, inputs: dict, report: dict, checks: list) -> dict:
    """``--trace 0``: median set-up over repeats, then one measured phase."""
    setups = []
    for _ in range(SETUP_REPEATS):
        if setups:
            setups[-1][1].stop()
        setups.append(set_up(ctx, inputs))
    setup_s = [s[0] for s in setups]
    _, server, artifact, sketch, _ = setups[-1]
    report["setup_s_all"] = setup_s
    phase_metrics = measure_phase(ctx, server, artifact, sketch, inputs, report, checks)
    values = {**phase_metrics, "setup_s": statistics.median(setup_s)}
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit in E2E_UNITS.items()}


def measure_phase(ctx: Context, server, artifact: Path, sketch, inputs: dict,
                  report: dict, checks: list, tag: str = "untraced") -> dict:
    """Drive one measured phase on a booted serving process, stop it and
    check its answers. Returns the phase's end-to-end figures."""
    kind = ctx.workload.kind
    ops = ingest_ops(inputs, sketch) if kind == "ingest" else None
    phase = measure_wire(ctx, server, inputs, ops)
    server.stop()
    if kind == "ingest":
        check = verify_ingest(ctx, artifact, phase, inputs, ops)
    else:
        check = verify_point(ctx, artifact, phase, inputs["Q"])
    check["errors"] += phase["warm_failed"]
    figures = wire_metrics(ctx, phase)
    figures["rss_mb"] = phase["rss_mb"]
    if figures.get("generator_behind"):
        print(f"perfbench: warning: the load generator fell behind its schedule in the "
              f"{tag} phase (p99 lateness {figures['lateness_ms']['p99']:.3f} ms); its "
              f"latencies include generator delay", file=sys.stderr)
    figures["nmae"] = check["nmae"]
    check["phase"] = tag
    checks.append(check)
    report[tag] = {**figures, "parity": check["parity"]}
    return {**figures, "_phase": phase}


def traced_run(ctx: Context, inputs: dict, report: dict, checks: list) -> dict:
    """``--trace 1``: a traced set-up, an untraced phase, then a traced phase
    whose spans give the per-layer ledger."""
    log = SpanLog()
    restore = log.install(SETUP_POINTS)
    try:
        _, server, artifact, sketch, boot_s = set_up(ctx, inputs)
    finally:
        restore()
    setup = ledger.stage_seconds(log.array(), ("data.load", "queries.label", "core.fit",
                                               "compiled.compile"))
    plain = measure_phase(ctx, server, artifact, sketch, inputs, report, checks)
    spans_path = ctx.work.file("spans.npz")
    traced_proc = Server(ctx.work, artifact, ctx.workload.mutable, spans_path, {ctx.cpu})
    ctx.procs.append(traced_proc)
    traced_proc.first_answer(inputs["boot_query"])
    traced = measure_phase(ctx, traced_proc, artifact, sketch, inputs, report, checks, "traced")
    with np.load(spans_path) as data:
        spans = data["spans"]
        extra = json.loads(bytes(data["meta"]).decode() or "{}")
    layers = per_layer(ctx, setup, boot_s, plain, traced, spans, extra)
    report["ledger"] = layers["ledger"]
    return layers["metrics"]


E2E_UNITS = {
    "setup_s": "s",
    "server_cpu_ratio": "1",
    "nmae": "1",
    "rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "data.load_s": "s",
    "queries.label_s": "s",
    "core.fit_s": "s",
    "compiled.compile_s": "s",
    "server.boot_s": "s",
    # Per-request stage self times (see perfbench/ledger.py).
    "wire.transit_us": "us",
    "server.frame_self_us": "us",
    "protocol.decode_us": "us",
    "service.submit_us": "us",
    "cache.probe_us": "us",
    "batching.wait_us": "us",
    "compiled.predict_in_wait_us": "us",
    "protocol.encode_us": "us",
    "ledger.unattributed_us": "us",
    "compiled.predict_us_per_row": "us",
    "trace.overhead_p50_ms": "ms",
    "trace.overhead_qps": "answers/s",
    "trace.overhead_cpu_us": "us",
    "cache.hit_rate": "1",
    "batching.rows_per_flush": "rows",
    "batching.flushes": "count",
    "compiled.mean_segment_rows": "rows",
    "compiled.warm_hit_rate": "1",
    "stream.dirty_leaves": "count",
    "stream.retrained_leaves": "count",
    "cache.evictions": "count",
}

#: Ledger entries only some workloads have; they go in the report line,
#: with the reason where a workload has none.
INGEST_ONLY = ("stream.append_s", "stream.delete_s", "stream.retrain_s", "ingest_p50_s")


def per_layer(ctx: Context, setup: dict, boot_s: float, plain: dict, traced: dict,
              spans: np.ndarray, extra: dict) -> dict:
    """Per-layer metrics of the traced phase, plus the full ledger."""
    phase = traced["_phase"]
    res = phase["results"]
    n = phase.get("n_reads", res.n)
    start, stop = phase["window"]
    measured = ledger.window(spans, start, stop)
    ok = res.answered[:n] & ~np.isnan(res.answer[:n])
    wire = ledger.wire_ledger(measured, res.sent[:n], res.recv[:n], ok)
    values = {
        "data.load_s": setup["data.load"],
        "queries.label_s": setup["queries.label"],
        "core.fit_s": setup["core.fit"],
        "compiled.compile_s": setup["compiled.compile"],
        "server.boot_s": boot_s,
        "trace.overhead_p50_ms": traced["p50_ms"] - plain["p50_ms"],
        "trace.overhead_qps": plain["qps"] - traced["qps"],
        "trace.overhead_cpu_us": traced["server_cpu_us"] - plain["server_cpu_us"],
        "compiled.mean_segment_rows": float(
            extra.get("segment_stats", {}).get("mean_segment_rows", 0.0)),
        **counters(phase["stats0"], phase["stats1"]),
        **ledger.predict_stats(measured),
        **wire,
    }
    summaries = []
    if ctx.workload.kind == "ingest":
        summaries = [res.payload[k]["ingest"] for k in range(n, res.n) if k in res.payload]
        values.update(ledger.stream_stats(measured))
        values["ingest_p50_s"] = traced["ingest_p50_s"]
    values["stream.dirty_leaves"] = (float(np.mean([len(s["dirty_leaves"]) for s in summaries]))
                                     if summaries else 0.0)
    values["stream.retrained_leaves"] = (
        float(np.mean([len(s["retrained_leaves"]) for s in summaries])) if summaries else 0.0)
    values["cache.evictions"] = float(sum(s.get("cache_evictions", 0) for s in summaries))
    led = {name: values.get(name) for name in (
        *PER_LAYER_UNITS, "compiled.predict_one_us", "compiled.predict_calls", *INGEST_ONLY,
        "round_trip_us", "requests")}
    not_measured = {}
    if led["compiled.predict_one_us"] is None:
        not_measured["compiled.predict_one_us"] = "no one-row predict calls on this workload"
    if ctx.workload.kind != "ingest":
        not_measured.update(dict.fromkeys(INGEST_ONLY, "no ingests on this workload"))
    led["not_measured"] = not_measured
    metrics = {name: {"value": float(values.get(name) or 0.0), "unit": unit}
               for name, unit in PER_LAYER_UNITS.items()}
    return {"metrics": metrics, "ledger": led}
