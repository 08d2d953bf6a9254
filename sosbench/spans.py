"""Spans around the public functions of each ``repro`` layer.

Only traced runs install these wrappers.  A span records its name, start,
end, parent and, for solver calls, the counters the call returned.  Spans
stay in memory until the run writes them out.  A span's self time is its
duration minus its children's; a layer's self time is the sum over its
span names.  The layer is the part of a span name before the first dot.

Times come from ``time.perf_counter``, which on Linux reads the system-wide
monotonic clock, so spans recorded in server worker processes line up with
the client's timestamps.  The module also holds the two measurement
helpers the workloads share.
"""

from __future__ import annotations

import functools
import json
import resource
import statistics
import threading
import time
from importlib import import_module
from typing import Callable, Dict, List, Optional

# A span: [name, start, end, parent index or -1, counters or None].
Span = list


class Recorder:
    """In-memory span store with one parent stack per thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()

    def wrap(self, name: str, fn: Callable,
             counters: Optional[Callable] = None) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(recorder._local, "stack", None)
            if stack is None:
                stack = recorder._local.stack = []
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            index = len(recorder.spans)
            recorder.spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counters is not None:
                span[4] = counters(result)
            return result

        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.spans, handle)


def _solve_counters(solution) -> Dict[str, float]:
    stats = solution.stats
    if stats is None:
        return {}
    return {
        "nodes": stats.nodes,
        "lp_solves": stats.lp_solves,
        "pivots": stats.lp_pivots,
        "warm_starts": stats.warm_starts,
        "warm_start_hits": stats.warm_start_hits,
        "fallbacks": stats.fallbacks,
        "refactorizations": stats.refactorizations,
        "cuts_added": stats.cuts_added,
        "cut_rounds": stats.cut_rounds,
    }


def _matrix_counters(form) -> Dict[str, float]:
    import numpy as np

    return {
        "rows": form.a_ub.shape[0] + form.a_eq.shape[0],
        "cols": form.c.shape[0],
        "nonzeros": int(np.count_nonzero(form.a_ub) + np.count_nonzero(form.a_eq)),
    }


class _OptimizeProxy:
    """``scipy.optimize`` as the HiGHS adapter sees it, with ``milp`` wrapped."""

    def __init__(self, module, milp) -> None:
        self._module = module
        self.milp = milp

    def __getattr__(self, attr):
        return getattr(self._module, attr)


def install(recorder: Recorder) -> Callable[[], None]:
    """Wrap each layer's entry points where the program looks them up.

    Returns a function that puts the original entry points back.
    """
    # import_module, not ``import a.b as b``: a package may export a
    # function under its submodule's name (``repro.solvers.presolve``).
    extraction = import_module("repro.core.extraction")
    formulation = import_module("repro.core.formulation")
    polish = import_module("repro.core.polish")
    model = import_module("repro.milp.model")
    bozo = import_module("repro.solvers.bozo")
    highs = import_module("repro.solvers.highs")
    presolve = import_module("repro.solvers.presolve")
    revised = import_module("repro.solvers.revised")
    design = import_module("repro.synthesis.design")
    synthesizer = import_module("repro.synthesis.synthesizer")

    synth = synthesizer.Synthesizer
    targets = [
        (synth, "pareto_sweep", "synthesis.sweep", None),
        (synth, "pareto_sweep_prefixes", "synthesis.sweep", None),
        (synth, "synthesize", "synthesis.synthesize", None),
        (formulation.SosModelBuilder, "build", "formulation", None),
        (model.Model, "to_matrices", "milp", _matrix_counters),
        (bozo.BozoSolver, "solve", "bozo", _solve_counters),
        (bozo, "solve_with_fallback", "revised", None),
        (bozo, "solve_revised", "revised", None),
        (bozo, "separate_gomory", "cuts.gomory", None),
        (bozo, "separate_cover", "cuts.cover", None),
        (revised, "solve_revised", "revised", None),
        (presolve, "presolve", "presolve", None),
        (highs.HighsSolver, "solve", "highs", _solve_counters),
        (polish, "left_shift", "polish", None),
        (extraction, "extract_design", "extraction", None),
        (design, "validate_schedule", "validate", None),
    ]
    if revised._splu is not None:
        targets.append((revised, "_splu", "revised.factor", None))
    originals = []
    for owner, attr, name, counters in targets:
        original = getattr(owner, attr)
        originals.append((owner, attr, original))
        setattr(owner, attr, recorder.wrap(name, original, counters))
    originals.append((highs, "optimize", highs.optimize))
    highs.optimize = _OptimizeProxy(
        highs.optimize, recorder.wrap("highs.milp", highs.optimize.milp)
    )

    def uninstall() -> None:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)

    return uninstall


def cpu_seconds(who: int = resource.RUSAGE_SELF) -> float:
    """User plus system CPU seconds of this process (or its children)."""
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def percentile(values: List[float], q: int) -> float:
    """The ``q``-th percentile (0 when there are no samples)."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans: List[tuple], passes: int) -> Dict[str, float]:
    """Per-layer metrics of resolved spans, averaged over ``passes`` passes.

    ``spans`` holds :func:`resolve` tuples, possibly from several processes.
    """
    total: Dict[str, float] = {}
    self_time: Dict[str, float] = {}
    count: Dict[str, int] = {}
    counters: Dict[str, float] = {}  # "<span name>.<counter>" -> sum
    outer_lp = 0
    outer_lp_s = 0.0
    for name, duration, children, parent_name, extra in spans:
        total[name] = total.get(name, 0.0) + duration
        self_time[name] = self_time.get(name, 0.0) + duration - children
        count[name] = count.get(name, 0) + 1
        if name == "revised" and parent_name != "revised":
            outer_lp += 1
            outer_lp_s += duration
        for key, value in (extra or {}).items():
            counters[f"{name}.{key}"] = counters.get(f"{name}.{key}", 0) + value

    def per_pass(value: float) -> float:
        return value / passes

    def share(num: float, den: float) -> float:
        return num / den if den else 0.0

    def layer_self(layer: str) -> float:
        return per_pass(sum(
            t for n, t in self_time.items() if n.split(".")[0] == layer
        ))

    pivots = counters.get("bozo.pivots", 0)
    factorizations = count.get("revised.factor", 0)
    nodes = counters.get("bozo.nodes", 0)
    milp_calls = count.get("milp", 0)
    return {
        "revised.lp_solves": per_pass(outer_lp),
        "revised.lp_s": per_pass(outer_lp_s),
        "revised.self_s": layer_self("revised"),
        "revised.pivots": per_pass(pivots),
        "revised.factorizations": per_pass(factorizations),
        "revised.factor_s": per_pass(total.get("revised.factor", 0.0)),
        "revised.refactorizations_reported": per_pass(
            counters.get("bozo.refactorizations", 0)
        ),
        "revised.pivots_per_lp": share(pivots, outer_lp),
        "revised.factorizations_per_lp": share(factorizations, outer_lp),
        "revised.warm_start_hit_rate": share(
            counters.get("bozo.warm_start_hits", 0),
            counters.get("bozo.warm_starts", 0),
        ),
        "revised.fallbacks": per_pass(counters.get("bozo.fallbacks", 0)),
        "bozo.nodes": per_pass(nodes),
        "bozo.self_s": layer_self("bozo"),
        "bozo.nodes_per_s": share(nodes, total.get("bozo", 0.0)),
        "cuts.gomory_s": per_pass(self_time.get("cuts.gomory", 0.0)),
        "cuts.cover_s": per_pass(self_time.get("cuts.cover", 0.0)),
        "cuts.added": per_pass(counters.get("bozo.cuts_added", 0)),
        "cuts.rounds": per_pass(counters.get("bozo.cut_rounds", 0)),
        "presolve.s": layer_self("presolve"),
        "formulation.builds": per_pass(count.get("formulation", 0)),
        "formulation.build_s": layer_self("formulation"),
        "milp.to_matrices_s": layer_self("milp"),
        "milp.rows": share(counters.get("milp.rows", 0), milp_calls),
        "milp.cols": share(counters.get("milp.cols", 0), milp_calls),
        "milp.nonzeros": share(counters.get("milp.nonzeros", 0), milp_calls),
        "highs.solves": per_pass(count.get("highs", 0)),
        "highs.milp_s": per_pass(total.get("highs.milp", 0.0)),
        "highs.adapter_s": per_pass(self_time.get("highs", 0.0)),
        "highs.nodes": per_pass(counters.get("highs.nodes", 0)),
        "polish.s": layer_self("polish"),
        "extraction.s": layer_self("extraction"),
        "validate.s": layer_self("validate"),
        "synthesis.calls": per_pass(count.get("synthesis.synthesize", 0)),
        "synthesis.self_s": layer_self("synthesis"),
    }


#: The metrics that partition a traced pass's wall time between layers.
SELF_TIME_METRICS = (
    "synthesis.self_s", "formulation.build_s", "milp.to_matrices_s",
    "bozo.self_s", "presolve.s", "cuts.gomory_s", "cuts.cover_s",
    "revised.self_s", "highs.adapter_s", "highs.milp_s", "polish.s",
    "extraction.s", "validate.s",
)


def resolve(raw: List[Span], since: float = float("-inf")) -> List[tuple]:
    """``(name, duration, children's time, parent name, counters)`` tuples.

    Keeps the spans that started at or after ``since``.
    """
    children = [0.0] * len(raw)
    for name, start, end, parent, _ in raw:
        if parent >= 0:
            children[parent] += end - start
    out = []
    for index, (name, start, end, parent, extra) in enumerate(raw):
        if start < since:
            continue
        parent_name = raw[parent][0] if parent >= 0 else None
        out.append((name, end - start, children[index], parent_name, extra))
    return out
