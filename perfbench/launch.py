"""The benchmark's server process.

``python3 perfbench/launch.py serve [--spans OUT] [--cpus N,M] -- <repro serve args>``
calls the ordinary ``repro.cli.main(["serve", ...])``. With ``--spans`` it
first wraps the serving entry points (:data:`perfbench.spans.SERVE_POINTS`)
and, once the server has drained, writes the spans plus the engine's
``segment_stats()`` to ``OUT``. Without it the server runs untouched.
``--cpus`` restricts the process to those CPUs before ``repro`` (and the
BLAS library under numpy, which sizes its thread pool at load) is imported.

The server stops itself (SIGINT, then exit) if the benchmark that started
it goes away, so an interrupted run leaves no server behind.
"""

from __future__ import annotations

import os
import signal
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def _watch_parent() -> None:
    parent = os.getppid()

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(0.2)
        os.kill(os.getpid(), signal.SIGINT)
        time.sleep(10.0)
        os._exit(3)

    threading.Thread(target=watch, name="perfbench-parent-watch", daemon=True).start()


def serve(spans_out: str | None, argv: list[str]) -> int:
    from repro import cli

    if spans_out is None:
        return cli.main(["serve", *argv])
    from perfbench.spans import SERVE_POINTS, SpanLog
    from repro.serve.service import SketchService

    log = SpanLog()
    log.install(SERVE_POINTS)
    served = []
    register = SketchService.register

    def capture(service, name, sketch, *args, **kwargs):
        served.append(sketch)
        return register(service, name, sketch, *args, **kwargs)

    SketchService.register = capture
    try:
        return cli.main(["serve", *argv])
    finally:
        extra = {}
        if served:
            sketch = served[0]
            engine = sketch.engine() if callable(getattr(sketch, "engine", None)) else sketch
            extra["segment_stats"] = engine.segment_stats()
        log.dump(spans_out, extra)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] != ["serve"]:
        print("usage: perfbench/launch.py serve [--spans OUT] [--cpus N,M] -- "
              "<repro serve args>", file=sys.stderr)
        return 2
    _watch_parent()
    rest = argv[1:]
    spans_out = None
    if rest[:1] == ["--spans"]:
        spans_out, rest = rest[1], rest[2:]
    if rest[:1] == ["--cpus"]:
        os.sched_setaffinity(0, {int(c) for c in rest[1].split(",")})
        rest = rest[2:]
    if rest[:1] == ["--"]:
        rest = rest[1:]
    return serve(spans_out, rest)


if __name__ == "__main__":
    raise SystemExit(main())
