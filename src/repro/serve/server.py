"""`SketchServer`: the asyncio socket front-end over `SketchService`.

Many concurrent clients, one process, one engine. Each connection speaks
the newline-delimited protocol of :mod:`repro.serve.protocol` and is served
a group at a time: every complete line one read of the socket delivers
becomes one group, handled by one asyncio task. A group's single queries
go to :meth:`SketchService.submit_many` as one block per sketch — one cache
probe, one micro-batch enqueue, one awaited Future — and the micro-batcher
merges whatever arrives within the flush window into one compiled
``predict``. Every other request runs the handler every front end shares
(:meth:`SketchService.handle` and
:func:`~repro.serve.service.error_response`) on a small thread pool. The
group's responses are written in input order with one write. Groups run
concurrently, so a connection can pipeline requests and a slow batch never
blocks the queries in the groups behind it. Under load the service's
flush workers check execution contexts out of the engine's replica pool
(:mod:`repro.core.compiled`), so concurrent flushes run genuinely in
parallel instead of queueing on a lock.

Robustness contract (exercised by ``tests/test_server.py``):

- a malformed or oversized line yields one :class:`ErrorResponse` and the
  connection stays alive;
- reads are bounded — a line beyond the hard stream limit is discarded
  without buffering it;
- every query and batch has a deadline (``request_timeout_s``) and times
  out into a ``timeout`` error instead of wedging the connection (a
  group's queries to one sketch share one deadline and miss it together);
- :meth:`stop` with ``drain=True`` answers everything in flight before
  closing — no Future is dropped.

:func:`read_frames` (bounded line reading) and :func:`run_in_thread`
(daemon-thread embedding) serve both socket front ends, this server and
:class:`~repro.serve.router.SketchRouter`. :func:`start_server_thread`
returns a :class:`ServerHandle` with ``.address`` / ``.stop()``, which is
how the CLI, the eval runner and the tests embed a live server.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import TYPE_CHECKING

import numpy as np

from repro.serve import protocol
from repro.serve.protocol import (
    BatchQueryRequest,
    ErrorResponse,
    ProtocolError,
    QueryRequest,
    Request,
    Response,
    StatsResponse,
)
from repro.serve.service import SketchService, error_response, query_response

if TYPE_CHECKING:
    from repro.serve.router import SketchRouter


class SketchServer:
    """Serve a :class:`SketchService` over a TCP socket.

    Parameters
    ----------
    service:
        The registry/batcher/cache façade to answer from. The server does
        not own it — callers that built the service close it themselves
        after :meth:`stop`.
    host, port:
        Listen address; ``port=0`` picks a free port (read it back from
        :attr:`address` after :meth:`start`).
    max_line_bytes:
        Per-frame byte bound. Lines over this are answered with an
        ``oversized`` error; lines over roughly twice this never reach
        memory at once (the stream discards to the next newline).
    request_timeout_s:
        Deadline per request, measured from decode to answer. Misses
        resolve to a ``timeout`` error and cancel the pending Future.
    """

    def __init__(
        self,
        service: SketchService,
        host: str = "127.0.0.1",
        port: int = 0,
        max_line_bytes: int = protocol.MAX_LINE_BYTES,
        request_timeout_s: float = 30.0,
    ) -> None:
        if max_line_bytes < 64:
            raise ValueError("max_line_bytes must be >= 64")
        if request_timeout_s <= 0:
            raise ValueError("request_timeout_s must be > 0")
        self.service = service
        self.host = host
        self.port = int(port)
        self.max_line_bytes = int(max_line_bytes)
        self.request_timeout_s = float(request_timeout_s)
        self.address: tuple[str, int] | None = None
        self._server: asyncio.AbstractServer | None = None
        self._executor = ThreadPoolExecutor(
            max_workers=max(2, getattr(service, "workers", 1) + 1),
            thread_name_prefix="repro-serve",
        )
        self._writers: set[asyncio.StreamWriter] = set()
        self._conn_tasks: set[asyncio.Task] = set()
        self._inflight: set[asyncio.Task] = set()
        self._draining = False
        self._stopped = False
        # Counters (loop thread only; surfaced under stats()["server"]).
        self.n_connections = 0
        self.n_requests = 0
        self.n_errors = 0

    # -------------------------------------------------------------- lifecycle

    async def start(self) -> None:
        """Bind and start accepting connections (call once, on the loop)."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._server, self.address = await listen(
            self._handle_conn, self.host, self.port, self.max_line_bytes
        )

    async def stop(self, drain: bool = True) -> None:
        """Stop accepting, settle in-flight work, close connections.

        ``drain=True`` (default) awaits every in-flight request task so
        each pending Future resolves and its response line is written —
        nothing submitted before the stop is dropped. ``drain=False``
        cancels them instead.
        """
        if self._stopped:
            return
        self._stopped = True
        self._draining = True  # frames decoded from here on answer shutting-down
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if not drain:
            for task in list(self._inflight):
                task.cancel()
        while self._inflight:
            await asyncio.gather(*list(self._inflight), return_exceptions=True)
        for writer in list(self._writers):
            writer.close()
        if self._conn_tasks:
            await asyncio.gather(*list(self._conn_tasks), return_exceptions=True)
        self._executor.shutdown(wait=True)

    def server_stats(self) -> dict:
        return {
            "connections": self.n_connections,
            "open_connections": len(self._writers),
            "requests": self.n_requests,
            "errors": self.n_errors,
            "inflight": len(self._inflight),
            "max_line_bytes": self.max_line_bytes,
            "request_timeout_s": self.request_timeout_s,
        }

    # ------------------------------------------------------------ connections

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        self._writers.add(writer)
        self.n_connections += 1
        write_lock = asyncio.Lock()
        group_tasks: set[asyncio.Task] = set()
        try:
            async for group in read_frames(reader, self.max_line_bytes):
                group_task = asyncio.ensure_future(self._serve_group(group, writer, write_lock))
                group_tasks.add(group_task)
                self._inflight.add(group_task)
                group_task.add_done_callback(group_tasks.discard)
                group_task.add_done_callback(self._inflight.discard)
        finally:
            if group_tasks:
                await asyncio.gather(*list(group_tasks), return_exceptions=True)
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
            if task is not None:
                self._conn_tasks.discard(task)

    # --------------------------------------------------------------- requests

    async def _serve_group(
        self,
        lines: list[bytes | None],
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        """Answer one group of frames with one write, in input order.

        Single queries are collected per sketch (and width) and each
        collection goes through one :meth:`SketchService.submit_many`;
        every other request runs ``handle`` on the executor. Queries and
        batches share one deadline; ingest, stats and epoch requests run to
        completion.
        """
        self.n_requests += len(lines)
        responses: list[Response | None] = [None] * len(lines)
        requests: list[Request | None] = [None] * len(lines)
        blocks: dict[tuple, list[int]] = {}  # (sketch, width) -> query positions
        others: list[int] = []
        for i, line in enumerate(lines):
            rid: object = None
            try:
                if line is None:
                    raise ProtocolError(
                        f"request line exceeds the {self.max_line_bytes}-byte bound",
                        code="oversized",
                    )
                protocol.check_line_size(line, self.max_line_bytes)
                request = protocol.decode_request(line)
                rid = request.id
                if self._draining:
                    raise ProtocolError("server is draining", code="shutting-down")
            except Exception as exc:
                responses[i] = error_response(exc, rid, self.request_timeout_s)
                continue
            requests[i] = request
            if isinstance(request, QueryRequest):
                blocks.setdefault((request.sketch, len(request.q)), []).append(i)
            else:
                others.append(i)

        # (future, positions it answers, per-row cache flags of a query block)
        work: list[tuple[Future | asyncio.Future, list[int], list | None]] = []
        deadlined: list[asyncio.Future] = []
        untimed: list[asyncio.Future] = []
        for (sketch, _), rows in blocks.items():
            Q = np.array([requests[i].q for i in rows], dtype=np.float64)
            try:
                block = self.service.submit_many(Q, sketch)
            except Exception as exc:  # e.g. an unknown sketch
                self._answer_error(responses, requests, rows, exc)
                continue
            cached = block.cached
            if not block.done():  # an all-cached block needs no loop trip
                block = asyncio.wrap_future(block)
                deadlined.append(block)
            work.append((block, rows, cached))
        for i in others:
            f = asyncio.get_running_loop().run_in_executor(
                self._executor, self.service.handle, requests[i]
            )
            work.append((f, [i], None))
            # Only queries and batches get a deadline: a retraining ingest may
            # legitimately outlive it, and abandoning one midway would leave
            # the client unsure whether the mutation landed.
            (deadlined if isinstance(requests[i], BatchQueryRequest) else untimed).append(f)
        try:
            if deadlined:
                await asyncio.wait(deadlined, timeout=self.request_timeout_s)
            if untimed:
                await asyncio.wait(untimed)
        finally:
            for f in deadlined + untimed:
                f.cancel()  # a missed deadline (or a cancelled group) abandons it
        for f, rows, cached in work:
            if f.cancelled():
                self._answer_error(responses, requests, rows, TimeoutError())
            elif f.exception() is not None:
                self._answer_error(responses, requests, rows, f.exception())
            elif cached is not None:
                answers = f.result()
                for j, i in enumerate(rows):
                    responses[i] = query_response(requests[i], answers[j], cached[j])
            else:
                response = responses[rows[0]] = f.result()
                if isinstance(response, StatsResponse):
                    response.stats["server"] = self.server_stats()
        self.n_errors += sum(isinstance(r, ErrorResponse) for r in responses)
        payload = "".join(protocol.encode_safe(r) + "\n" for r in responses)
        async with write_lock:  # groups must never interleave mid-line
            if writer.is_closing():
                return
            writer.write(payload.encode("utf-8"))
            try:
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                pass

    def _answer_error(self, responses, requests, rows, exc: BaseException) -> None:
        for i in rows:
            responses[i] = error_response(exc, requests[i].id, self.request_timeout_s)


# ------------------------------------------------------------- frame reading

#: Bytes a line may run over ``max_line_bytes`` and still arrive whole, to be
#: rejected by the frame size check; longer lines are discarded without ever
#: being buffered whole.
LINE_SLACK = 1024


async def listen(handler, host: str, port: int, max_line_bytes: int):
    """Start accepting connections; returns ``(asyncio server, (host, port))``."""
    server = await asyncio.start_server(
        handler, host, port, limit=max_line_bytes + LINE_SLACK
    )
    return server, server.sockets[0].getsockname()[:2]


async def read_frames(reader: asyncio.StreamReader, max_line_bytes: int):
    """Yield a client stream's non-blank lines, one ordered group per read.

    Each group holds every complete line that arrived in one read of the
    stream, without line ends, so a pipelining client's frames are served
    together. A line longer than ``max_line_bytes + LINE_SLACK`` is dropped
    without buffering it whole and appears as ``None``, so the caller can
    answer ``oversized`` and keep the connection. A final unterminated line
    before EOF still counts as a frame; EOF or a reset ends the iteration.
    """
    limit = max_line_bytes + LINE_SLACK
    buf = bytearray()
    skipping = False  # inside an over-limit line: drop bytes up to its newline
    while True:
        try:
            chunk = await reader.read(limit)
        except (ConnectionResetError, BrokenPipeError):
            return
        eof = not chunk
        group: list[bytes | None] = []
        if skipping:
            cut = chunk.find(b"\n")
            if cut < 0 and not eof:
                continue
            group.append(None)
            skipping = False
            chunk = chunk[cut + 1 :]
        buf += chunk
        end = len(buf) if eof else buf.rfind(b"\n") + 1
        if end:
            for line in bytes(buf[:end]).split(b"\n"):
                if len(line) > limit:
                    group.append(None)
                elif line.strip():
                    group.append(line.rstrip(b"\r"))
            del buf[:end]
        if len(buf) > limit:
            buf.clear()
            skipping = True
        if group:
            yield group
        if eof:
            return


# ----------------------------------------------------------- thread embedding


class ServerHandle:
    """A running front end on its own event-loop thread.

    ``server`` is the :class:`SketchServer` or
    :class:`~repro.serve.router.SketchRouter` being run; ``address`` is its
    bound ``(host, port)``; :meth:`stop` drains and joins. Context-manager
    use stops on exit.
    """

    def __init__(
        self,
        server: SketchServer | SketchRouter,
        loop: asyncio.AbstractEventLoop,
        thread: threading.Thread,
    ) -> None:
        self.server = server
        self._loop = loop
        self._thread = thread
        self._stopped = False

    @property
    def address(self) -> tuple[str, int]:
        assert self.server.address is not None
        return self.server.address

    def stop(self, drain: bool = True, timeout: float = 60.0) -> None:
        if self._stopped:
            return
        self._stopped = True
        done = asyncio.run_coroutine_threadsafe(self.server.stop(drain=drain), self._loop)
        done.result(timeout=timeout)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=timeout)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def run_in_thread(
    server: SketchServer | SketchRouter, boot_timeout_s: float = 30.0
) -> ServerHandle:
    """Run ``server`` on a daemon event-loop thread.

    Returns once ``server.start()`` has finished (or re-raises its error
    in the caller); the loop then runs until :meth:`ServerHandle.stop`.
    """
    loop = asyncio.new_event_loop()
    started = threading.Event()
    boot_error: list[BaseException] = []

    def run() -> None:
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(server.start())
        except BaseException as exc:
            boot_error.append(exc)
            started.set()
            loop.close()
            return
        started.set()
        try:
            loop.run_forever()  # until ServerHandle.stop() calls loop.stop()
            loop.run_until_complete(loop.shutdown_asyncgens())
        finally:
            loop.close()

    thread = threading.Thread(target=run, name="repro-sketch-server", daemon=True)
    thread.start()
    started.wait(timeout=boot_timeout_s)
    if boot_error:
        raise boot_error[0]
    return ServerHandle(server, loop, thread)


def start_server_thread(
    service: SketchService,
    host: str = "127.0.0.1",
    port: int = 0,
    max_line_bytes: int = protocol.MAX_LINE_BYTES,
    request_timeout_s: float = 30.0,
) -> ServerHandle:
    """Start a :class:`SketchServer` on a daemon event-loop thread.

    Returns once the socket is bound (or re-raises the bind error in the
    caller). The CLI, the eval runner's concurrency bench and the tests
    all embed servers through this.
    """
    return run_in_thread(
        SketchServer(service, host, port, max_line_bytes, request_timeout_s)
    )
