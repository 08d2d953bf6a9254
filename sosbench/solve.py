"""The two sweep workloads: the paper's Pareto fronts, solved in-process.

``table2_bozo`` sweeps Example 1 (point-to-point) on the from-scratch
``bozo`` backend, the path whose time is almost all LP engine.
``tables45_highs`` sweeps Example 2 point-to-point and bus on ``highs``,
the rows bozo cannot finish; there the formulation and the HiGHS call
carry the time, and the LP engine never runs.  Both are serial, with
default solver options, on fixed instances (they ignore the seed).
"""

from __future__ import annotations

import resource
import statistics
import sys
import time
from typing import Dict, List, Tuple

from reference import TABLE_II, TABLE_IV, TABLE_V, front_mismatch
from spans import (
    SELF_TIME_METRICS, Recorder, cpu_seconds, install, layer_metrics, percentile,
    resolve,
)
from speed import SpeedClock

# (problem, style, solver, reference rows) for each front of a pass.
FRONTS = {
    "table2_bozo": (("example1", "p2p", "bozo", TABLE_II),),
    "tables45_highs": (
        ("example2", "p2p", "highs", TABLE_IV),
        ("example2", "bus", "highs", TABLE_V),
    ),
}

#: Warm-up solve per set-up: Example 1 at a cost cap no sweep step uses.
WARMUP_CAP = 50.0

SETUP_REPEATS = 7


def _problem(name: str):
    from repro.system import example1_library, example2_library
    from repro.taskgraph import example1, example2

    if name == "example1":
        return example1(), example1_library()
    return example2(), example2_library()


def _style(name: str):
    from repro.system import InterconnectStyle

    return InterconnectStyle.BUS if name == "bus" else InterconnectStyle.POINT_TO_POINT


def _set_up(workload: str):
    """Build the inputs and synthesizers, then warm the backend up once."""
    from repro import Synthesizer

    synths = []
    for problem, style, solver, rows in FRONTS[workload]:
        graph, library = _problem(problem)
        synths.append(
            (Synthesizer(graph, library, style=_style(style), solver=solver), rows)
        )
    solver = FRONTS[workload][0][2]
    graph, library = _problem("example1")
    Synthesizer(graph, library, solver=solver).synthesize(cost_cap=WARMUP_CAP)
    return synths


def _timed_steps(synth, steps: List[Tuple[float, float]]) -> None:
    """Record the interval of each ``synthesize`` step the sweep makes.

    Every pass makes the same steps in the same order.
    """
    step = synth.synthesize

    def timed(**kwargs):
        start = time.perf_counter()
        try:
            return step(**kwargs)
        finally:
            steps.append((start, time.perf_counter()))

    synth.synthesize = timed


def _one_pass(synths, mismatches) -> Tuple[float, float, int]:
    """Sweep and check every front; returns (start, end, fronts)."""
    start = time.perf_counter()
    for synth, rows in synths:
        try:
            front = synth.pareto_sweep()
        except Exception as exc:  # a failed sweep is a failed operation
            mismatches.append(f"sweep raised {exc!r}")
            continue
        reason = front_mismatch([d.to_dict() for d in front], rows)
        if reason is not None:
            mismatches.append(reason)
    return start, time.perf_counter(), len(synths)


def run(workload: str, seconds: float, trace: bool) -> Dict:
    # Untraced runs time against the machine's speed, measured on the core
    # this process is pinned to (see speed.py).
    clock = None if trace else SpeedClock.pinned(1)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            synths = _set_up(workload)
            setups.append((start, time.perf_counter()))
        # The passes below reuse the last set-up's synthesizers.

        steps: List[List[Tuple[float, float]]] = []
        mismatches: List[str] = []
        passes: List[Tuple[float, float]] = []
        traced_s: List[float] = []
        cpu_s: List[float] = []
        attempted = 0
        recorder = Recorder()
        started = time.perf_counter()
        while True:
            # Traced runs alternate plain and traced passes: the plain ones
            # give the overhead's base and the CPU figure.
            if trace and len(passes) > len(traced_s):
                uninstall = install(recorder)
                try:
                    start, end, fronts = _one_pass(synths, mismatches)
                finally:
                    uninstall()
                traced_s.append(end - start)
            else:
                steps.append([])
                for synth, _ in synths:
                    _timed_steps(synth, steps[-1])
                cpu = cpu_seconds()
                start, end, fronts = _one_pass(synths, mismatches)
                cpu_s.append(cpu_seconds() - cpu)
                for synth, _ in synths:
                    del synth.synthesize
                passes.append((start, end))
            attempted += fronts
            print(f"{workload}: pass {len(passes) + len(traced_s)} took "
                  f"{end - start:.3f} s", file=sys.stderr)
            elapsed = time.perf_counter() - started
            typical = statistics.median(
                [b - a for a, b in passes] + traced_s
            )
            # Stop once another pass would end more than half a pass late.
            if elapsed + 0.5 * typical >= seconds and (not trace or traced_s):
                break
    finally:
        if clock is not None:
            clock.stop()

    result = {"attempted": attempted, "mismatches": mismatches}
    if not trace:
        # One latency per step, the median over passes, so the percentiles
        # weigh every step once however many passes the run made.
        latencies = [
            statistics.median(clock.seconds(*span) for span in spans)
            for spans in zip(*steps)
        ]
        result["metrics"] = {
            "setup_s": statistics.median(clock.seconds(*s) for s in setups),
            "sweep_s": statistics.median(clock.seconds(*p) for p in passes),
            "latency_p50_s": percentile(latencies, 50),
            "latency_p90_s": percentile(latencies, 90),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        result["report"] = {
            "sweep_wall_s": statistics.median(b - a for a, b in passes),
            "slowdown": statistics.median(clock.slowdown(*p) for p in passes),
        }
        return result
    pass_s = [b - a for a, b in passes]
    layers = layer_metrics(resolve(recorder.spans), len(traced_s))
    traced = sum(traced_s) / len(traced_s)
    layers["trace.sweep_s"] = traced
    layers["trace.overhead_s"] = traced - statistics.median(pass_s)
    layers["trace.unattributed_s"] = traced - sum(
        layers[name] for name in SELF_TIME_METRICS
    )
    layers["process.cpu_s"] = statistics.median(cpu_s)
    result["metrics"] = layers
    result["spans"] = recorder.spans
    return result

