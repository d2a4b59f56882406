"""Process-sharded serving: a router in front of N worker processes.

The single-process :class:`~repro.serve.server.SketchServer` tops out
where Python does: protocol encode/decode and the asyncio loop share one
GIL with everything else. This module splits the work across processes.
A :class:`SketchRouter` accepts client connections speaking the exact v1
JSON-lines protocol and forwards each frame — as raw bytes, untouched —
to one of N worker processes (:mod:`repro.serve.worker`), each running
its own :class:`~repro.serve.service.SketchService` and engine replica
pool. The router never parses JSON on the hot path: it prefixes the
frame with an opaque decimal routing id (``rid\\tframe\\n``), the worker
answers ``rid\\tresponse\\n``, and the router maps the rid back to the
originating connection. Client request ``id``s pass through the worker
verbatim, so the wire contract is byte-compatible with the
single-process server.

Semantics:

- **Per-connection ordering** — responses are delivered to each
  connection in request order (a small reorder buffer holds responses
  that finish early). This is *stronger* than the single-process server,
  which answers pipelined frames as they complete; the router's ordering
  makes id-less legacy clients safe across shards. The cost is
  head-of-line delivery (not execution): a slow batch delays delivery of
  the faster frames queued behind it on the *same* connection only.
- **Worker crash** — a dead worker's unanswered frames are re-dispatched
  to surviving workers (queries are pure reads, so at-least-once is
  safe), and a replacement process is spawned after ``restart_delay_s``.
  The router keeps serving throughout; if *no* worker is alive, frames
  queue until one boots.
- **Oversized / draining** — handled at the router with the same
  structured error frames as the single-process server, delivered in
  order like any other response.
- **Ingest broadcast** — an ``op: ingest`` frame (each shard holds its
  own sketch copy) is fanned out to *every* alive worker and logged; the
  client gets one response once all copies answer. A respawned worker
  replays the log before taking traffic, so deterministic retraining
  brings it back to the exact weights of the surviving shards.

Workers are spawned via ``sys.executable -m repro.serve.worker`` with an
artifact path; :func:`prepare_worker_artifact` spills a loaded sketch to
the binary ``.npz`` form first so each worker boots in milliseconds
instead of re-parsing gzip JSON (POSIX pipes; the router is Unix-only).
For plain compiled engines the router goes one better: it publishes the
weight tensors once into POSIX shared memory (:mod:`repro.serve.shm`)
and boots workers against the ``shm://`` block, so N worker processes
map one resident copy of the model instead of holding N private ones
(``share_weights=False`` or any shm failure falls back to the ``.npz``
copy-on-boot path).

:func:`start_router_thread` returns the same
:class:`~repro.serve.server.ServerHandle` as
:func:`~repro.serve.server.start_server_thread`, with the router as its
``server``: the CLI (``repro serve --listen ... --processes N``), the
eval runner's scaling bench and the tests all embed it that way.
"""

from __future__ import annotations

import asyncio
import os
import subprocess
import sys
import tempfile

from repro.serve import protocol
from repro.serve.protocol import ErrorResponse
from repro.serve.server import ServerHandle, listen, read_frames, run_in_thread

#: Write-buffer bound per client connection; a consumer that falls this
#: far behind is aborted instead of buffering the router into the ground.
CONN_HIGH_WATER = 1 << 22


def prepare_worker_artifact(sketch_path: str, dir: str | None = None) -> str:
    """Spill a sketch artifact to the fast worker boot format.

    Loads ``sketch_path`` once (either artifact format) and writes a
    binary ``.npz`` next to the temp dir; returns the path workers load.
    A path that already ends in ``.npz`` is returned unchanged. The
    caller owns the returned file's lifetime.
    """
    if sketch_path.endswith(".npz"):
        return sketch_path
    from repro.serve.service import load_sketch

    sketch = load_sketch(sketch_path)
    if not callable(getattr(sketch, "save_npz", None)):
        return sketch_path  # foreign estimator: let workers load it their way
    fd, path = tempfile.mkstemp(suffix=".npz", dir=dir, prefix="repro-shard-")
    os.close(fd)
    sketch.save_npz(path)
    return path


class _Conn:
    """One client connection: writer plus the ordered-delivery window."""

    __slots__ = ("writer", "next_seq", "next_deliver", "buffer", "closed")

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.next_seq = 0
        self.next_deliver = 0
        self.buffer: dict[int, bytes] = {}
        self.closed = False

    def take_seq(self) -> int:
        seq = self.next_seq
        self.next_seq += 1
        return seq


class _Broadcast:
    """One ingest frame fanned out to every alive worker.

    Each worker's rid maps to the same ``_Broadcast``; the client gets
    exactly one response once every copy has been answered (preferring a
    success frame, so one crashed shard doesn't mask the applied
    mutation). Replayed log entries use ``conn=None`` — apply, answer,
    discard.
    """

    __slots__ = ("conn", "seq", "remaining", "payload", "done")

    def __init__(self, conn: "_Conn | None", seq: int, remaining: int) -> None:
        self.conn = conn
        self.seq = seq
        self.remaining = remaining
        self.payload: bytes | None = None
        self.done = False


class _Worker:
    """One shard process: pipes, pending routing table, lifecycle bits."""

    __slots__ = (
        "slot",
        "proc",
        "stdin",
        "stdout",
        "read_transport",
        "alive",
        "pending",
        "n_restarts",
        "n_forwarded",
        "reader_task",
    )

    def __init__(self, slot: int) -> None:
        self.slot = slot
        self.proc: subprocess.Popen | None = None
        self.stdin: asyncio.StreamWriter | None = None
        self.stdout: asyncio.StreamReader | None = None
        self.read_transport: asyncio.ReadTransport | None = None
        self.alive = False
        #: rid -> (conn, seq, frame), or a shared ``_Broadcast`` for
        #: fanned-out ingest frames, for every frame awaiting this worker.
        self.pending: dict[int, tuple[_Conn, int, bytes] | _Broadcast] = {}
        self.n_restarts = 0
        self.n_forwarded = 0
        self.reader_task: asyncio.Task | None = None


class SketchRouter:
    """Shard protocol frames across worker processes (see module doc).

    Parameters
    ----------
    sketch_path:
        Artifact every worker loads (``.npz`` spills boot fastest — see
        :func:`prepare_worker_artifact`).
    processes:
        Worker process count.
    worker_args:
        Extra ``repro.serve.worker`` CLI flags, e.g. ``("--no-cache",
        "--infer-dtype", "float32")``.
    host, port, max_line_bytes:
        As on :class:`~repro.serve.server.SketchServer`.
    restart_delay_s:
        Pause before respawning a crashed worker.
    share_weights:
        Publish the artifact's weight tensors once into POSIX shared
        memory and boot workers against the ``shm://`` block
        (:mod:`repro.serve.shm`) so N processes share ~1x resident
        weights. Best-effort: mutable stream bundles, foreign estimators
        and shm-less platforms silently keep the per-worker ``.npz``
        copy-on-boot path.
    """

    def __init__(
        self,
        sketch_path: str,
        processes: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        max_line_bytes: int = protocol.MAX_LINE_BYTES,
        worker_args: tuple[str, ...] = (),
        restart_delay_s: float = 0.5,
        worker_boot_timeout_s: float = 60.0,
        drain_timeout_s: float = 30.0,
        share_weights: bool = True,
    ) -> None:
        if processes < 1:
            raise ValueError("processes must be >= 1")
        if max_line_bytes < 64:
            raise ValueError("max_line_bytes must be >= 64")
        self.sketch_path = str(sketch_path)
        self.processes = int(processes)
        self.host = host
        self.port = int(port)
        self.max_line_bytes = int(max_line_bytes)
        self.worker_args = tuple(worker_args)
        self.restart_delay_s = float(restart_delay_s)
        self.worker_boot_timeout_s = float(worker_boot_timeout_s)
        self.drain_timeout_s = float(drain_timeout_s)
        self.share_weights = bool(share_weights)
        #: Set by :meth:`start` when the weights were published to shared
        #: memory; workers then boot from ``self._publisher.uri``.
        self._publisher = None
        self._worker_sketch = self.sketch_path
        self.address: tuple[str, int] | None = None
        self._server: asyncio.AbstractServer | None = None
        self._workers = [_Worker(slot) for slot in range(self.processes)]
        self._rr = 0
        self._rid = 0
        self._orphans: list[tuple[_Conn, int, bytes]] = []
        #: Every ingest frame ever broadcast, in order. A respawned worker
        #: reloads the original artifact, so the log replays into it before
        #: any traffic — deterministic retraining brings it back to the
        #: exact weights of the surviving shards.
        self._ingest_log: list[bytes] = []
        self._conns: set[_Conn] = set()
        self._conn_tasks: set[asyncio.Task] = set()
        self._restart_tasks: set[asyncio.Task] = set()
        self._draining = False
        self._stopped = False
        # Counters (loop thread only).
        self.n_connections = 0
        self.n_requests = 0
        self.n_local_errors = 0
        self.n_redispatched = 0
        self.n_ingests = 0

    # ------------------------------------------------------------- lifecycle

    def _worker_cmd(self) -> list[str]:
        return [
            sys.executable,
            "-m",
            "repro.serve.worker",
            "--sketch",
            self._worker_sketch,
            "--max-line-bytes",
            str(self.max_line_bytes),
            *self.worker_args,
        ]

    def _worker_dtype(self) -> str | None:
        """The ``--infer-dtype`` tier workers will serve, if pinned."""
        args = self.worker_args
        for i, flag in enumerate(args[:-1]):
            if flag == "--infer-dtype":
                return args[i + 1]
        return None

    def _publish_weights(self) -> None:
        """Best-effort shm publish; fall back to the per-worker copy path."""
        if not self.share_weights:
            return
        try:
            from repro.serve import shm
        except ImportError:  # pragma: no cover
            return
        publisher = shm.publish_artifact(self.sketch_path, dtype=self._worker_dtype())
        if publisher is not None:
            self._publisher = publisher
            self._worker_sketch = publisher.uri

    async def start(self) -> None:
        """Boot every worker, then bind and accept (call once, on the loop)."""
        if self._server is not None:
            raise RuntimeError("router already started")
        self._publish_weights()
        try:
            await asyncio.gather(*(self._spawn(w) for w in self._workers))
        except BaseException:
            await self._shutdown_workers()
            self._close_publisher()
            raise
        self._server, self.address = await listen(
            self._handle_conn, self.host, self.port, self.max_line_bytes
        )

    async def _spawn(self, w: _Worker) -> None:
        loop = asyncio.get_running_loop()
        proc = subprocess.Popen(
            self._worker_cmd(),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=None,  # worker diagnostics land on the router's stderr
        )
        read_transport = None
        writer = None
        try:
            reader = asyncio.StreamReader(limit=self.max_line_bytes + 8192, loop=loop)
            read_transport, _ = await loop.connect_read_pipe(
                lambda: asyncio.StreamReaderProtocol(reader, loop=loop), proc.stdout
            )
            w_transport, w_proto = await loop.connect_write_pipe(
                lambda: asyncio.streams.FlowControlMixin(loop=loop), proc.stdin
            )
            writer = asyncio.StreamWriter(w_transport, w_proto, None, loop)
            banner = await asyncio.wait_for(
                reader.readline(), timeout=self.worker_boot_timeout_s
            )
            if banner.strip() != b"READY":
                raise RuntimeError(
                    f"worker {w.slot} failed to boot "
                    f"(first line {banner!r}; see stderr above)"
                )
        except BaseException:
            if writer is not None:
                writer.close()
            if read_transport is not None:
                read_transport.close()
            proc.kill()
            proc.wait()
            raise
        w.proc = proc
        w.stdin = writer
        w.stdout = reader
        w.read_transport = read_transport
        w.alive = True
        w.reader_task = asyncio.ensure_future(self._read_worker(w))
        # Catch the (re)booted worker up on every mutation it missed: it
        # loaded the original artifact, and ingests apply deterministically,
        # so replaying the log in order reproduces the fleet's exact state.
        for frame in self._ingest_log:
            self._send(w, _Broadcast(None, 0, 1), frame)
        self._flush_orphans(w)

    async def stop(self, drain: bool = True) -> None:
        """Stop accepting, settle in-flight frames, shut every worker down."""
        if self._stopped:
            return
        self._stopped = True
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if drain:
            deadline = asyncio.get_running_loop().time() + self.drain_timeout_s
            while (
                any(w.pending for w in self._workers) or self._orphans
            ) and asyncio.get_running_loop().time() < deadline:
                await asyncio.sleep(0.01)
        for task in list(self._restart_tasks):
            task.cancel()
        await self._shutdown_workers()
        self._close_publisher()
        self._fail_pending(
            "router is shutting down", include_orphans=True, workers=self._workers
        )
        for conn in list(self._conns):
            conn.closed = True
            conn.buffer.clear()
            conn.writer.close()
        if self._conn_tasks:
            await asyncio.gather(*list(self._conn_tasks), return_exceptions=True)

    async def _shutdown_workers(self) -> None:
        loop = asyncio.get_running_loop()
        for w in self._workers:
            w.alive = False
            if w.stdin is not None:
                try:
                    w.stdin.close()  # EOF: the worker drains and exits 0
                except (ConnectionResetError, BrokenPipeError, OSError):
                    pass
        for w in self._workers:
            if w.proc is None:
                continue
            try:
                await loop.run_in_executor(None, w.proc.wait, 10.0)
            except subprocess.TimeoutExpired:
                w.proc.kill()
                await loop.run_in_executor(None, w.proc.wait)
            w.proc = None
        for w in self._workers:
            if w.reader_task is not None:
                w.reader_task.cancel()
                try:
                    await w.reader_task
                except (asyncio.CancelledError, Exception):
                    pass
                w.reader_task = None
            self._close_read_pipe(w)

    def _close_read_pipe(self, w: _Worker) -> None:
        """Close a worker's stdout transport (GC would only warn about it)."""
        if w.read_transport is not None:
            try:
                w.read_transport.close()
            except (OSError, RuntimeError):  # loop already closing
                pass
            w.read_transport = None
        w.stdout = None

    def _close_publisher(self) -> None:
        if self._publisher is not None:
            try:
                self._publisher.close()
            except Exception:  # pragma: no cover - cleanup best-effort
                pass
            self._publisher = None
            self._worker_sketch = self.sketch_path

    def router_stats(self) -> dict:
        publisher = self._publisher
        return {
            "processes": self.processes,
            "shared_weights": (
                None
                if publisher is None
                else {
                    "uri": publisher.uri,
                    "epoch": publisher.epoch,
                    "block_bytes": publisher.data_bytes,
                }
            ),
            "connections": self.n_connections,
            "open_connections": len(self._conns),
            "requests": self.n_requests,
            "local_errors": self.n_local_errors,
            "redispatched": self.n_redispatched,
            "ingests": self.n_ingests,
            "ingest_log": len(self._ingest_log),
            "orphaned": len(self._orphans),
            "workers": [
                {
                    "slot": w.slot,
                    "alive": w.alive,
                    "pid": w.proc.pid if w.proc is not None else None,
                    "pending": len(w.pending),
                    "forwarded": w.n_forwarded,
                    "restarts": w.n_restarts,
                }
                for w in self._workers
            ],
        }

    # ------------------------------------------------------- client side

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        conn = _Conn(writer)
        self._conns.add(conn)
        self.n_connections += 1
        try:
            async for group in read_frames(reader, self.max_line_bytes):
                for line in group:
                    if line is None:
                        self._local_error(
                            conn,
                            conn.take_seq(),
                            f"request line exceeds the {self.max_line_bytes}-byte bound",
                            code="oversized",
                        )
                        continue
                    self.n_requests += 1
                    seq = conn.take_seq()
                    if len(line) > self.max_line_bytes:
                        self._local_error(
                            conn,
                            seq,
                            f"request line of {len(line)} bytes exceeds the "
                            f"{self.max_line_bytes}-byte bound",
                            code="oversized",
                        )
                    elif self._draining:
                        self._local_error(
                            conn, seq, "server is draining", code="shutting-down"
                        )
                    else:
                        await self._forward(conn, seq, line)
        finally:
            conn.closed = True
            conn.buffer.clear()
            self._conns.discard(conn)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
            if task is not None:
                self._conn_tasks.discard(task)

    def _pick_worker(self) -> _Worker | None:
        for _ in range(self.processes):
            w = self._workers[self._rr % self.processes]
            self._rr += 1
            if w.alive:
                return w
        return None

    async def _forward(self, conn: _Conn, seq: int, frame: bytes) -> None:
        if protocol.is_ingest_frame(frame):
            await self._broadcast(conn, seq, frame)
            return
        w = self._pick_worker()
        if w is None:
            # Every worker is down (all restarting): park the frame; the
            # next worker to boot picks it up.
            self._orphans.append((conn, seq, frame))
            return
        self._send(w, (conn, seq, frame), frame)
        try:
            await w.stdin.drain()  # per-connection backpressure toward shards
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass  # the reader task handles the death; frame is re-dispatched

    async def _broadcast(self, conn: _Conn, seq: int, frame: bytes) -> None:
        """Fan one ingest frame out to every alive worker.

        Every shard holds its own sketch copy, so a mutation must reach
        all of them; deterministic retraining keeps the copies
        bit-identical. The client's response is delivered once every copy
        answers.
        """
        alive = [w for w in self._workers if w.alive]
        if not alive:
            self._orphans.append((conn, seq, frame))
            return
        self.n_ingests += 1
        self._ingest_log.append(frame)
        bc = _Broadcast(conn, seq, len(alive))
        for w in alive:
            self._send(w, bc, frame)
        for w in alive:
            if w.stdin is None:
                continue
            try:
                await w.stdin.drain()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    def _send(
        self, w: _Worker, entry: tuple[_Conn, int, bytes] | _Broadcast, frame: bytes
    ) -> None:
        """Write ``frame`` to ``w`` under a fresh rid that maps back to ``entry``."""
        self._rid += 1
        rid = self._rid
        w.pending[rid] = entry
        w.n_forwarded += 1
        w.stdin.write(b"%d\t%s\n" % (rid, frame))

    def _flush_orphans(self, w: _Worker) -> None:
        orphans, self._orphans = self._orphans, []
        for conn, seq, frame in orphans:
            if conn.closed:
                continue
            if protocol.is_ingest_frame(frame):
                # Orphans only accumulate while every worker is down, so
                # this one worker *is* the whole alive fleet; the log entry
                # catches the others up when they respawn.
                self._ingest_log.append(frame)
                self._send(w, _Broadcast(conn, seq, 1), frame)
            else:
                self._send(w, (conn, seq, frame), frame)

    # ------------------------------------------------------- worker side

    async def _read_worker(self, w: _Worker) -> None:
        reader = w.stdout
        while True:
            try:
                line = await reader.readuntil(b"\n")
            except (asyncio.IncompleteReadError, ConnectionResetError):
                break
            except asyncio.LimitOverrunError:
                # A response beyond every sane bound: this worker is
                # misbehaving; treat it as dead.
                break
            rid_bytes, sep, payload = line.partition(b"\t")
            if not sep:
                continue  # not a tagged response (stray print); ignore
            try:
                rid = int(rid_bytes)
            except ValueError:
                continue
            entry = w.pending.pop(rid, None)
            if entry is not None:
                line_out = payload if payload.endswith(b"\n") else payload + b"\n"
                if isinstance(entry, _Broadcast):
                    self._broadcast_reply(entry, line_out)
                else:
                    conn, seq, _ = entry
                    self._deliver(conn, seq, line_out)
        await self._on_worker_death(w)

    def _broadcast_reply(self, bc: _Broadcast, payload: bytes) -> None:
        bc.remaining -= 1
        # Prefer a success frame: one crashed/failed shard must not mask a
        # mutation the surviving shards applied (the crashed one re-applies
        # it from the log on respawn).
        if bc.payload is None or (
            b'"ok":true' in payload and b'"ok":true' not in bc.payload
        ):
            bc.payload = payload
        if bc.remaining <= 0 and not bc.done:
            bc.done = True
            if bc.conn is not None:
                self._deliver(bc.conn, bc.seq, bc.payload)

    def _broadcast_abort(self, bc: _Broadcast) -> None:
        """One dispatched copy of a broadcast died unanswered."""
        bc.remaining -= 1
        if bc.remaining <= 0 and not bc.done:
            bc.done = True
            if bc.conn is None:
                return
            if bc.payload is not None:
                self._deliver(bc.conn, bc.seq, bc.payload)
            else:
                self._local_error(
                    bc.conn,
                    bc.seq,
                    "every worker died mid-ingest; the mutation is logged and "
                    "replays when a worker restarts",
                    code="internal",
                )

    async def _on_worker_death(self, w: _Worker) -> None:
        w.alive = False
        if w.stdin is not None:
            try:
                w.stdin.close()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
            w.stdin = None
        self._close_read_pipe(w)
        pending, w.pending = w.pending, {}
        if self._stopped:
            for rid, entry in pending.items():
                if isinstance(entry, _Broadcast):
                    self._broadcast_abort(entry)
                else:
                    self._orphans.append(entry)
            return
        if pending:
            # Unanswered query frames move to surviving shards (pure reads,
            # so at-least-once is safe). A broadcast copy is NOT
            # re-dispatched — the other shards already hold their own
            # copies, and the respawned worker re-applies it from the log.
            for entry in pending.values():
                if isinstance(entry, _Broadcast):
                    self._broadcast_abort(entry)
                    continue
                conn, seq, frame = entry
                if conn.closed:
                    continue
                self.n_redispatched += 1
                alive = self._pick_worker()
                if alive is None:
                    self._orphans.append((conn, seq, frame))
                else:
                    self._send(alive, (conn, seq, frame), frame)
        if w.proc is not None:
            loop = asyncio.get_running_loop()
            try:
                await loop.run_in_executor(None, w.proc.wait, 5.0)
            except subprocess.TimeoutExpired:
                w.proc.kill()
                await loop.run_in_executor(None, w.proc.wait)
            w.proc = None
        task = asyncio.ensure_future(self._restart(w))
        self._restart_tasks.add(task)
        task.add_done_callback(self._restart_tasks.discard)

    async def _restart(self, w: _Worker) -> None:
        while not self._stopped:
            await asyncio.sleep(self.restart_delay_s)
            if self._stopped:
                return
            try:
                await self._spawn(w)
            except asyncio.CancelledError:
                raise
            except Exception as exc:
                print(
                    f"[router] worker {w.slot} restart failed: {exc}; retrying",
                    file=sys.stderr,
                )
                continue
            w.n_restarts += 1
            return

    # ----------------------------------------------------------- delivery

    def _deliver(self, conn: _Conn, seq: int, payload: bytes) -> None:
        """Queue one response line; flush whatever is now in order."""
        if conn.closed:
            return
        conn.buffer[seq] = payload
        writer = conn.writer
        while conn.next_deliver in conn.buffer:
            data = conn.buffer.pop(conn.next_deliver)
            conn.next_deliver += 1
            if not writer.is_closing():
                writer.write(data)
        if writer.transport.get_write_buffer_size() > CONN_HIGH_WATER:
            # Slow consumer: abort rather than buffer without bound.
            conn.closed = True
            conn.buffer.clear()
            writer.transport.abort()

    def _local_error(self, conn: _Conn, seq: int, message: str, code: str) -> None:
        self.n_local_errors += 1
        line = protocol.encode(ErrorResponse(error=message, code=code))
        self._deliver(conn, seq, line.encode("utf-8") + b"\n")

    def _fail_pending(self, message: str, include_orphans: bool, workers) -> None:
        entries: list[tuple[_Conn, int, bytes] | _Broadcast] = []
        for w in workers:
            entries.extend(w.pending.values())
            w.pending.clear()
        if include_orphans:
            entries.extend(self._orphans)
            self._orphans = []
        for entry in entries:
            if isinstance(entry, _Broadcast):
                self._broadcast_abort(entry)
                continue
            conn, seq, _frame = entry
            if not conn.closed:
                self._local_error(conn, seq, message, code="shutting-down")


def start_router_thread(
    sketch_path: str,
    processes: int = 2,
    host: str = "127.0.0.1",
    port: int = 0,
    max_line_bytes: int = protocol.MAX_LINE_BYTES,
    worker_args: tuple[str, ...] = (),
    restart_delay_s: float = 0.5,
    worker_boot_timeout_s: float = 60.0,
    share_weights: bool = True,
) -> ServerHandle:
    """Start a :class:`SketchRouter` on a daemon event-loop thread.

    Returns once every worker has booted and the socket is bound (or
    re-raises the boot/bind error in the caller); the handle's ``server``
    is the router.
    """
    router = SketchRouter(
        sketch_path,
        processes=processes,
        host=host,
        port=port,
        max_line_bytes=max_line_bytes,
        worker_args=worker_args,
        restart_delay_s=restart_delay_s,
        worker_boot_timeout_s=worker_boot_timeout_s,
        share_weights=share_weights,
    )
    return run_in_thread(router, boot_timeout_s=worker_boot_timeout_s + 30.0)
