"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload point_paced --seed 0 --seconds 10 --trace 0

Prints a JSON report line (provenance, sample counts, lateness, failure
breakdown and, with ``--trace 1``, the full per-stage ledger), then the
result line ``{"correct", "attempted", "failed", "metrics"}`` last. With
``--trace 0`` the metrics are the end-to-end metrics of ``BENCHMARK.json``;
with ``--trace 1`` they are its per-layer metrics. Exits 1 when an answer
was wrong or missing or the run left something behind, 2 when the
benchmark could not run at all (no result line then).
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.bench import WORKLOADS, BenchError, run

    if args.workload not in WORKLOADS:
        print(f"perfbench: error: unknown workload {args.workload!r}; "
              f"have {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: error: --seconds must be positive", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminate)
    try:
        result, report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report, default=float))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
