"""Single-threaded load generator over JSON-lines socket connections.

One thread drives every connection through a selector, so the generator
never uses more threads than the host has cores. Two loop shapes:

- :func:`run_paced` -- an open loop. Every operation has a due time and is
  sent then, whether or not earlier ones were answered (a ``serial``
  stream instead waits for its previous answer, as an ingest client does).
  Latency is timed from the due time, so a stall also charges the requests
  queued behind it, and the lateness of every send is kept so a run whose
  generator fell behind is flagged rather than blamed on the server.
- :func:`run_window` -- a closed loop. Each connection keeps a fixed window
  of frames in flight and sends the next one as each answer arrives.

Frames are built with :func:`query_frame` / :func:`ingest_frame`; the
benchmark's tests check that :func:`repro.serve.protocol.decode_request`
reads them back unchanged.
"""

from __future__ import annotations

import json
import selectors
import socket
import time
from dataclasses import dataclass, field

import numpy as np

clock = time.perf_counter_ns


def query_frame(rid: int, q) -> bytes:
    return ('{"v":1,"op":"query","id":%d,"q":[%s]}\n'
            % (rid, ",".join(map(repr, q)))).encode()


def batch_frame(rid: int, Q) -> bytes:
    rows = ",".join("[%s]" % ",".join(map(repr, q)) for q in Q)
    return ('{"v":1,"op":"batch","id":%d,"q":[%s]}\n' % (rid, rows)).encode()


def stats_frame(rid: int) -> bytes:
    return ('{"v":1,"op":"stats","id":%d}\n' % rid).encode()


def ingest_frame(rid: int, rows=None, delete=None) -> bytes:
    body = {"v": 1, "op": "ingest", "id": rid}
    if rows is not None:
        body["rows"] = [list(map(float, r)) for r in rows]
    if delete is not None:
        body["delete"] = {"lo": list(map(float, delete[0])), "hi": list(map(float, delete[1]))}
    return (json.dumps(body) + "\n").encode()


@dataclass
class Results:
    """Per-operation outcome arrays for frame ids ``base..base+n-1``."""

    n: int
    base: int = 0
    due: np.ndarray = None
    sent: np.ndarray = None
    recv: np.ndarray = None
    answer: np.ndarray = None
    cached: np.ndarray = None
    errors: dict = field(default_factory=dict)  # id -> error code
    payload: dict = field(default_factory=dict)  # id -> non-query response body

    def __post_init__(self) -> None:
        self.due = np.full(self.n, -1, dtype=np.int64)
        self.sent = np.full(self.n, -1, dtype=np.int64)
        self.recv = np.full(self.n, -1, dtype=np.int64)
        self.answer = np.full(self.n, np.nan)
        self.cached = np.zeros(self.n, dtype=bool)

    def record(self, msg: dict, t: int) -> None:
        rid = msg.get("id")
        if not isinstance(rid, int) or not 0 <= rid - self.base < self.n:
            return  # not one of ours
        rid -= self.base
        if self.recv[rid] >= 0:
            return  # a duplicate answer: the first one counts
        self.recv[rid] = t
        if not msg.get("ok", False):
            self.errors[rid] = str(msg.get("code", "unknown"))
        elif "answer" in msg:
            self.answer[rid] = msg["answer"]
            self.cached[rid] = bool(msg.get("cached", False))
        else:
            self.payload[rid] = msg

    @property
    def answered(self) -> np.ndarray:
        return self.recv >= 0

    def lateness_ms(self, n: int | None = None) -> np.ndarray:
        """Send time minus due time of the first ``n`` (default: all) frames."""
        sent, due = self.sent[:n], self.due[:n]
        mask = (sent >= 0) & (due >= 0)
        return (sent[mask] - due[mask]) / 1e6


class Conn:
    """A blocking socket plus a line buffer; reads only when selected."""

    def __init__(self, address: tuple[str, int], timeout: float = 10.0) -> None:
        self.sock = socket.create_connection(address, timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = b""
        self.inflight = 0

    def send(self, data: bytes) -> None:
        self.sock.sendall(data)

    def read_lines(self) -> list[bytes]:
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.buf += chunk
        *lines, self.buf = self.buf.split(b"\n")
        return lines

    def close(self) -> None:
        self.sock.close()


def _drain(sel, results: Results, conns: list[Conn], timeout_s: float) -> None:
    """Read answers until each connection's window is empty or the timeout."""
    deadline = clock() + int(timeout_s * 1e9)
    while any(c.inflight for c in conns) and clock() < deadline:
        _read_ready(sel, results, (deadline - clock()) / 1e9)


def _read_ready(sel, results: Results, timeout: float) -> list[Conn]:
    ready = []
    for key, _ in sel.select(max(0.0, timeout)):
        conn = key.data
        lines = conn.read_lines()
        t = clock()
        for line in lines:
            if line:
                results.record(json.loads(line), t)
                conn.inflight -= 1
        ready.append(conn)
    return ready


def run_paced(conns: list[Conn], streams: list[list[tuple[int, int, bytes]]],
              results: Results, serial: tuple[bool, ...] | None = None,
              lead_s: float = 0.02, drain_s: float = 10.0) -> int:
    """Open loop: ``streams[c]`` lists ``(offset_ns, index, frame)`` for
    connection ``c`` in offset order; each frame is due ``offset_ns`` after
    the schedule origin, ``lead_s`` from now. Returns the origin once every
    frame was sent and answered (or ``drain_s`` passed after the last send)."""
    serial = serial or (False,) * len(conns)
    sel = selectors.SelectSelector()  # select(2): sub-millisecond timeouts
    for conn in conns:
        sel.register(conn.sock, selectors.EVENT_READ, conn)
    pos = [0] * len(conns)
    origin = clock() + int(lead_s * 1e9)
    try:
        while True:
            now = clock() - origin
            next_due = None
            for c, conn in enumerate(conns):
                stream = streams[c]
                while pos[c] < len(stream) and stream[pos[c]][0] <= now:
                    if serial[c] and conn.inflight:
                        break
                    due, i, frame = stream[pos[c]]
                    results.due[i] = origin + due
                    results.sent[i] = clock()
                    conn.send(frame)
                    conn.inflight += 1
                    pos[c] += 1
                if pos[c] < len(stream) and not (serial[c] and conn.inflight):
                    due = origin + stream[pos[c]][0]
                    next_due = due if next_due is None else min(next_due, due)
            if all(p == len(s) for p, s in zip(pos, streams)):
                break
            timeout = 0.05 if next_due is None else (next_due - clock()) / 1e9
            _read_ready(sel, results, timeout)
        _drain(sel, results, conns, drain_s)
    finally:
        sel.close()
    return origin


def run_window(conns: list[Conn], window: int, frames, results: Results,
               seconds: float, drain_s: float = 10.0) -> tuple[int, int]:
    """Closed loop: keep ``window`` frames in flight per connection for
    ``seconds`` or until ``frames`` (yielding ``(index, frame)``) runs out,
    then wait for the answers still in flight. Returns the ``(start, stop)``
    clock of the sending window."""
    sel = selectors.SelectSelector()  # select(2): sub-millisecond timeouts
    for conn in conns:
        sel.register(conn.sock, selectors.EVENT_READ, conn)
    frames = iter(frames)
    exhausted = False

    def refill(conn: Conn, k: int) -> None:
        nonlocal exhausted
        out = []
        for _ in range(k):
            item = next(frames, None)
            if item is None:
                exhausted = True
                break
            i, frame = item
            out.append(frame)
            results.sent[i] = clock()
        if out:
            conn.send(b"".join(out))
            conn.inflight += len(out)

    start = clock()
    stop = start + int(seconds * 1e9)
    try:
        for conn in conns:
            refill(conn, window)
        while clock() < stop and not exhausted:
            for conn in _read_ready(sel, results, (stop - clock()) / 1e9):
                if clock() < stop:
                    refill(conn, window - conn.inflight)
        stop = min(stop, clock())
        _drain(sel, results, conns, drain_s)
    finally:
        sel.close()
    return start, stop
