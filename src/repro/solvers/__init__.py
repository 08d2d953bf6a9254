"""Solver backends: a from-scratch simplex + branch-and-bound ("Bozo") and
an independent HiGHS (scipy) cross-check, behind one interface.

There is one LP engine: :class:`StandardFormLP` is built once per MILP and
mutated in place, :func:`solve_revised` warm-starts from a previous basis,
and :func:`solve_with_fallback` recovers from numerical trouble with a cold
Bland restart of the same engine."""

from repro.milp.solution import SolveStats
from repro.solvers.base import Solver, SolverOptions
from repro.solvers.bozo import BozoSolver
from repro.solvers.presolve import PresolveResult, presolve
from repro.solvers.registry import available_solvers, get_solver, register_solver
from repro.solvers.revised import (
    Basis,
    LPResult,
    LPStatus,
    RevisedResult,
    RevisedStatus,
    StandardFormLP,
    solve_revised,
    solve_with_fallback,
)

__all__ = [
    "Solver",
    "SolverOptions",
    "SolveStats",
    "BozoSolver",
    "PresolveResult",
    "presolve",
    "available_solvers",
    "get_solver",
    "register_solver",
    "Basis",
    "RevisedResult",
    "RevisedStatus",
    "StandardFormLP",
    "solve_revised",
    "solve_with_fallback",
    "LPResult",
    "LPStatus",
]
