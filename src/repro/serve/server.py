"""`SketchServer`: the asyncio socket front-end over `SketchService`.

Many concurrent clients, one process, one engine. Each connection speaks
the newline-delimited protocol of :mod:`repro.serve.protocol`; every frame
becomes its own asyncio task, so a connection can pipeline requests and a
slow batch never blocks the single queries behind it. Requests are
answered by the handler every front end shares (:meth:`SketchService.handle`
and :func:`~repro.serve.service.error_response`): single queries call
:meth:`SketchService.submit` on the loop — the micro-batcher merges
whatever arrives within the flush window into one compiled ``predict`` —
and every other request runs ``handle`` on a small thread pool. Under load the
service's flush workers check execution contexts out of the engine's
replica pool (:mod:`repro.core.compiled`), so concurrent flushes run
genuinely in parallel instead of queueing on a lock.

Robustness contract (exercised by ``tests/test_server.py``):

- a malformed or oversized line yields one :class:`ErrorResponse` and the
  connection stays alive;
- reads are bounded — a line beyond the hard stream limit is discarded
  without buffering it;
- every query and batch has a deadline (``request_timeout_s``) and times
  out into a ``timeout`` error instead of wedging the connection;
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
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING

import numpy as np

from repro.serve import protocol
from repro.serve.protocol import (
    BatchQueryRequest,
    ErrorResponse,
    ProtocolError,
    QueryRequest,
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
        frame_tasks: set[asyncio.Task] = set()
        try:
            async for line in read_frames(reader):
                if line is None:
                    self.n_errors += 1
                    message = f"request line exceeds the {self.max_line_bytes}-byte bound"
                    oversized = ErrorResponse(error=message, code="oversized")
                    await self._write(writer, write_lock, oversized)
                    continue
                frame_task = asyncio.ensure_future(
                    self._serve_frame(line, writer, write_lock)
                )
                frame_tasks.add(frame_task)
                self._inflight.add(frame_task)
                frame_task.add_done_callback(frame_tasks.discard)
                frame_task.add_done_callback(self._inflight.discard)
        finally:
            if frame_tasks:
                await asyncio.gather(*list(frame_tasks), return_exceptions=True)
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
            if task is not None:
                self._conn_tasks.discard(task)

    # --------------------------------------------------------------- requests

    async def _serve_frame(
        self, line: bytes, writer: asyncio.StreamWriter, write_lock: asyncio.Lock
    ) -> None:
        self.n_requests += 1
        rid: object = None
        try:
            protocol.check_line_size(line, self.max_line_bytes)
            request = protocol.decode_request(line)
            rid = request.id
            if self._draining:
                raise ProtocolError("server is draining", code="shutting-down")
            if isinstance(request, QueryRequest):
                # submit() is cheap (cache probe + enqueue) — run it on the
                # loop so concurrent queries land in the same micro-batch
                # window.
                fut = self.service.submit(
                    np.asarray(request.q, dtype=np.float64), request.sketch
                )
                await asyncio.wait_for(asyncio.wrap_future(fut), self.request_timeout_s)
                response = query_response(request, fut)
            else:
                work = asyncio.get_running_loop().run_in_executor(
                    self._executor, self.service.handle, request
                )
                # Only batches get a deadline: a retraining ingest may
                # legitimately outlive it, and abandoning one midway would
                # leave the client unsure whether the mutation landed.
                if isinstance(request, BatchQueryRequest):
                    work = asyncio.wait_for(work, self.request_timeout_s)
                response = await work
                if isinstance(response, StatsResponse):
                    response.stats["server"] = self.server_stats()
        except Exception as exc:  # the sketch itself raised — report, don't die
            response = error_response(exc, rid, self.request_timeout_s)
        if isinstance(response, ErrorResponse):
            self.n_errors += 1
        await self._write(writer, write_lock, response)

    async def _write(
        self,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        response: Response,
    ) -> None:
        payload = protocol.encode_safe(response)
        async with write_lock:  # frames must never interleave mid-line
            if writer.is_closing():
                return
            writer.write(payload.encode("utf-8") + b"\n")
            try:
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                pass


# ------------------------------------------------------------- frame reading


async def listen(handler, host: str, port: int, max_line_bytes: int):
    """Start accepting connections; returns ``(asyncio server, (host, port))``.

    The stream limit sits above the frame bound so a line slightly over
    ``max_line_bytes`` still arrives whole and gets a proper per-frame
    ``oversized`` error; only grossly-over lines make :func:`read_frames`
    discard and yield ``None``.
    """
    server = await asyncio.start_server(handler, host, port, limit=max_line_bytes + 1024)
    return server, server.sockets[0].getsockname()[:2]


async def read_frames(reader: asyncio.StreamReader):
    """Yield each non-blank line of a client stream, without its line end.

    A line beyond the stream's limit is dropped without buffering it whole
    and yields ``None`` instead, so the caller can answer ``oversized``
    and keep the connection. A final unterminated line before EOF still
    counts as a frame; EOF or a reset ends the iteration.
    """
    while True:
        try:
            line = await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError as exc:
            line = exc.partial  # EOF
        except asyncio.LimitOverrunError:
            await _discard_to_newline(reader)
            yield None
            continue
        except (ConnectionResetError, BrokenPipeError):
            return
        frame = line.rstrip(b"\r\n")
        if frame.strip():
            yield frame
        if not line.endswith(b"\n"):
            return  # that was the EOF frame


async def _discard_to_newline(reader: asyncio.StreamReader) -> None:
    """Drop the rest of an over-limit line without buffering it whole."""
    while True:
        try:
            await reader.readuntil(b"\n")
            return
        except asyncio.LimitOverrunError as exc:
            # `consumed` bytes are buffered and all belong to the oversized
            # line (or end exactly at its newline) — eat them and keep
            # scanning.
            await reader.readexactly(exc.consumed)
        except (asyncio.IncompleteReadError, ConnectionResetError):
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
