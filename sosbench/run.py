#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 sosbench/run.py --workload table2_bozo --seed 1 --seconds 30 --trace 0

Workloads: ``table2_bozo`` (Table II sweep on bozo), ``tables45_highs``
(Tables IV and V on HiGHS) and ``served_mix`` (seeded closed-loop traffic
to ``sos serve``).  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` reports its per-layer metrics from a run
with spans around each layer, and writes the spans to
``.sosbench/spans-<workload>-<seed>.json``.  Every answer is checked
against the paper's rows; the exit status is nonzero on any mismatch.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
IMPORT_REPEATS = 3
#: A run that is still going after this many seconds is stopped as failed.
RUN_LIMIT_S = 170


def _out_of_time(signum, frame):
    raise TimeoutError(f"run still going after {RUN_LIMIT_S} s")


def _import_seconds() -> float:
    """Median wall time of a fresh interpreter importing the package."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(IMPORT_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import repro, repro.service, repro.cli"],
            cwd=str(ROOT), env=env, check=True,
        )
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    signal.signal(signal.SIGALRM, _out_of_time)
    signal.alarm(RUN_LIMIT_S)
    # Solver libraries may write to file descriptor 1 from C; keep it for
    # the report only, and send everything else to standard error.
    out = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    sys.path.insert(0, str(SRC))

    import served

    trace = bool(args.trace)
    if args.workload == "served_mix":
        result = served.run(ROOT, args.seed, args.seconds, trace)
    else:
        import solve

        result = solve.run(args.workload, args.seconds, trace)
        result["failed"] = len(result["mismatches"])
        if trace:
            result["metrics"].update(served.service_metrics([], None))
    if trace:
        result["metrics"]["process.import_s"] = _import_seconds()
        trace_dir = ROOT / ".sosbench"
        trace_dir.mkdir(exist_ok=True)
        path = trace_dir / f"spans-{args.workload}-{args.seed}.json"
        path.write_text(json.dumps(result["spans"]))

    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if missing:
        print(f"benchmark did not measure {missing}", file=sys.stderr)
        return 2
    metrics = {
        m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
        for m in wanted
    }
    for reason in result["mismatches"]:
        print(f"MISMATCH: {reason}", file=sys.stderr)
    attempted, failed = result["attempted"], result["failed"]
    correct = not result["mismatches"]

    print(f"{args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}", file=out)
    print(f"  operations attempted {attempted}, failed {failed} "
          f"(fail_share {failed / attempted:g})", file=out)
    for name, metric in metrics.items():
        print(f"  {name:36s} {metric['value']:14.6g} {metric['unit']}", file=out)
    for name, value in result.get("report", {}).items():
        print(f"  ({name} {value:.6g})", file=out)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), file=out)
    out.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
