"""Property tests for the warm-started revised simplex.

The dense two-phase tableau in :mod:`tests.solvers.simplex` is the
correctness oracle: on every LP the revised engine answers, cold or warm,
the status and objective must match the oracle's to tight tolerance.  The
suites below fuzz the three regimes branch and bound exercises — cold
solves, chains of bound mutations (each warm-started from the previous
basis), and objective swaps — over randomized SOS-shaped LPs.
"""

from __future__ import annotations

import collections

import numpy as np
import pytest

from repro.core.formulation import SosModelBuilder
from repro.core.options import FormulationOptions
from repro.errors import SolverError
from repro.milp.model import Model
from repro.milp.solution import SolveStatus
from repro.obs import MemoryTraceSink, replay_stats
from repro.solvers import revised
from repro.solvers.base import SolverOptions
from repro.solvers.bozo import BozoSolver
from repro.solvers.presolve import presolve
from repro.solvers.revised import (
    AT_FREE,
    AT_LB,
    AT_UB,
    BASIC,
    Basis,
    LPStatus,
    RevisedStatus,
    StandardFormLP,
    solve_revised,
    solve_with_fallback,
)
from repro.system.examples import example1_library
from repro.taskgraph.examples import example1
from tests.solvers.simplex import solve_lp
from tests.solvers.test_parallel import market_split

OBJECTIVE_TOL = 1e-7


def random_sos_like_lp(rng):
    """An LP shaped like an SOS relaxation: boxed [0,1]-ish variables,
    nonnegative costs, a mix of <= rows and consistent = rows."""
    n = int(rng.integers(4, 14))
    m_ub = int(rng.integers(2, 12))
    m_eq = int(rng.integers(0, 3))
    c = np.abs(rng.normal(size=n))
    a_ub = rng.normal(size=(m_ub, n))
    b_ub = np.abs(rng.normal(size=m_ub)) * 3 + 1
    a_eq = rng.normal(size=(m_eq, n))
    lb = np.zeros(n)
    ub = np.where(rng.random(n) < 0.5, 1.0, rng.random(n) * 5 + 1)
    b_eq = a_eq @ (lb + 0.3 * (ub - lb)) if m_eq else np.zeros(0)
    return c, a_ub, b_ub, a_eq, b_eq, lb, ub


def assert_matches_oracle(revised, dense):
    """Status must agree; on OPTIMAL so must the objective."""
    assert revised.status.name == dense.status.name
    if revised.status is RevisedStatus.OPTIMAL:
        scale = 1.0 + abs(dense.objective)
        assert abs(revised.objective - dense.objective) <= OBJECTIVE_TOL * scale


class TestStandardFormLP:
    def test_shapes_and_logical_columns(self):
        """Slacks get [0, inf) boxes, equality artificials get [0, 0]."""
        sf = StandardFormLP(
            c=np.array([1.0, 2.0]),
            a_ub=np.array([[1.0, 1.0]]), b_ub=np.array([3.0]),
            a_eq=np.array([[1.0, -1.0]]), b_eq=np.array([0.5]),
            lb=np.zeros(2), ub=np.ones(2),
        )
        assert (sf.n, sf.m, sf.ncols) == (2, 2, 4)
        assert sf.up[2] == np.inf and sf.lo[2] == 0.0  # slack
        assert sf.up[3] == 0.0 and sf.lo[3] == 0.0     # artificial

    def test_set_bounds_mutates_in_place(self):
        sf = StandardFormLP(
            c=np.array([1.0]), a_ub=np.array([[1.0]]), b_ub=np.array([4.0]),
            a_eq=np.zeros((0, 1)), b_eq=np.zeros(0),
            lb=np.zeros(1), ub=np.ones(1),
        )
        sf.set_bounds(np.array([0.5]), np.array([0.75]))
        assert sf.lo[0] == 0.5 and sf.up[0] == 0.75
        assert sf.up[1] == np.inf  # logical untouched

    def test_logical_basis_always_exists(self):
        """Even costs pulling toward an infinite bound yield a start
        (phase 1 repairs it); the seed's dual-only start could not."""
        sf = StandardFormLP(
            c=np.array([-1.0]), a_ub=np.array([[-1.0]]), b_ub=np.array([4.0]),
            a_eq=np.zeros((0, 1)), b_eq=np.zeros(0),
            lb=np.zeros(1), ub=np.array([np.inf]),
        )
        basis = sf.logical_basis()
        assert basis.status[0] in (AT_LB, AT_UB, AT_FREE)
        assert basis.status[1] == BASIC
        result = solve_revised(sf)
        assert result.status is RevisedStatus.UNBOUNDED


class TestColdAgainstOracle:
    def test_fifty_random_sos_shaped_lps(self):
        """Cold revised solves agree with the dense tableau on ~50 LPs."""
        rng = np.random.default_rng(2024)
        optimal = 0
        for _ in range(50):
            c, a_ub, b_ub, a_eq, b_eq, lb, ub = random_sos_like_lp(rng)
            sf = StandardFormLP(c, a_ub, b_ub, a_eq, b_eq, lb, ub)
            revised = solve_revised(sf)
            dense = solve_lp(c, a_ub, b_ub, a_eq, b_eq, lb, ub)
            if revised.status is RevisedStatus.NEEDS_FALLBACK:
                continue  # solve_with_fallback's cold restart answers these
            assert_matches_oracle(revised, dense)
            if revised.status is RevisedStatus.OPTIMAL:
                optimal += 1
        assert optimal >= 40  # the recovery restart must stay exceptional

    def test_example1_root_relaxation(self):
        """The real Example 1 root LP: same optimum, competitive pivots."""
        built = SosModelBuilder(example1(), example1_library()).build()
        form = presolve(built.model.to_matrices()).form
        sf = StandardFormLP.from_matrix_form(form)
        revised = solve_revised(sf)
        dense = solve_lp(form.c, form.a_ub, form.b_ub, form.a_eq, form.b_eq,
                         form.lb, form.ub, c0=form.c0)
        assert revised.status is RevisedStatus.OPTIMAL
        assert revised.objective == pytest.approx(dense.objective, abs=1e-6)
        assert revised.basis is not None

    def test_fallback_wrapper_always_answers(self):
        """solve_with_fallback returns an oracle-grade result either way."""
        rng = np.random.default_rng(5)
        for _ in range(20):
            c, a_ub, b_ub, a_eq, b_eq, lb, ub = random_sos_like_lp(rng)
            sf = StandardFormLP(c, a_ub, b_ub, a_eq, b_eq, lb, ub)
            result, basis, fell_back = solve_with_fallback(sf)
            dense = solve_lp(c, a_ub, b_ub, a_eq, b_eq, lb, ub)
            assert result.status.name == dense.status.name
            if result.status is LPStatus.OPTIMAL:
                scale = 1.0 + abs(dense.objective)
                assert abs(result.objective - dense.objective) <= OBJECTIVE_TOL * scale
                if not fell_back:
                    assert basis is not None


class TestWarmStarts:
    def test_branch_and_bound_bound_mutation_chains(self):
        """Every bound-mutation pattern B&B produces: floor the upper bound
        or ceil the lower bound of one variable, re-solving warm from the
        previous optimal basis each time."""
        rng = np.random.default_rng(77)
        warm_total = dense_total = 0
        chains = 0
        for _ in range(25):
            c, a_ub, b_ub, a_eq, b_eq, lb, ub = random_sos_like_lp(rng)
            sf = StandardFormLP(c, a_ub, b_ub, a_eq, b_eq, lb, ub)
            root = solve_revised(sf)
            if root.status is not RevisedStatus.OPTIMAL:
                continue
            chains += 1
            basis = root.basis
            cur_lb, cur_ub = lb.copy(), ub.copy()
            for _ in range(8):
                j = int(rng.integers(0, sf.n))
                if rng.random() < 0.5:
                    cur_ub = cur_ub.copy()
                    cur_ub[j] = max(cur_lb[j], np.floor(cur_ub[j] * rng.random()))
                else:
                    cur_lb = cur_lb.copy()
                    cur_lb[j] = min(cur_ub[j], np.ceil(cur_lb[j] + rng.random()))
                sf.set_bounds(cur_lb, cur_ub)
                warm = solve_revised(sf, basis)
                dense = solve_lp(c, a_ub, b_ub, a_eq, b_eq, cur_lb, cur_ub)
                if warm.status is not RevisedStatus.NEEDS_FALLBACK:
                    assert_matches_oracle(warm, dense)
                if warm.status is RevisedStatus.OPTIMAL:
                    warm_total += warm.iterations
                    dense_total += dense.iterations
                    basis = warm.basis
        assert chains >= 15
        # The entire point of warm starting: far fewer pivots than the
        # dense rebuild needs on the same sequence of LPs.
        assert warm_total * 2 <= dense_total

    def test_objective_swap_keeps_primal_feasibility(self):
        """Pareto-style objective retargeting warm-starts via primal simplex."""
        rng = np.random.default_rng(99)
        for _ in range(15):
            c, a_ub, b_ub, a_eq, b_eq, lb, ub = random_sos_like_lp(rng)
            sf = StandardFormLP(c, a_ub, b_ub, a_eq, b_eq, lb, ub)
            result = solve_revised(sf)
            if result.status is not RevisedStatus.OPTIMAL:
                continue
            for _ in range(3):
                c2 = np.abs(rng.normal(size=sf.n))
                sf.set_objective(c2)
                warm = solve_revised(sf, result.basis)
                dense = solve_lp(c2, a_ub, b_ub, a_eq, b_eq, lb, ub)
                if warm.status is not RevisedStatus.NEEDS_FALLBACK:
                    assert_matches_oracle(warm, dense)
                if warm.status is RevisedStatus.OPTIMAL:
                    result = warm

    def test_warm_start_does_not_mutate_input_basis(self):
        """The caller's basis survives the solve (children share a parent's)."""
        c = np.array([1.0, 1.0])
        sf = StandardFormLP(
            c, np.array([[1.0, 1.0]]), np.array([1.5]),
            np.zeros((0, 2)), np.zeros(0), np.zeros(2), np.ones(2),
        )
        first = solve_revised(sf)
        assert first.status is RevisedStatus.OPTIMAL
        snapshot = Basis(first.basis.basic.copy(), first.basis.status.copy())
        sf.set_bounds(np.zeros(2), np.array([1.0, 0.0]))
        solve_revised(sf, first.basis)
        assert np.array_equal(first.basis.basic, snapshot.basic)
        assert np.array_equal(first.basis.status, snapshot.status)

    def test_infeasible_child_detected(self):
        """Tightening bounds past feasibility must report INFEASIBLE, as a
        B&B child whose branch empties the feasible region would."""
        c = np.array([1.0])
        a_eq = np.array([[1.0]])
        sf = StandardFormLP(
            c, np.zeros((0, 1)), np.zeros(0), a_eq, np.array([0.5]),
            np.zeros(1), np.ones(1),
        )
        root = solve_revised(sf)
        assert root.status is RevisedStatus.OPTIMAL
        sf.set_bounds(np.array([0.8]), np.array([1.0]))
        child = solve_revised(sf, root.basis)
        assert child.status is RevisedStatus.INFEASIBLE


def rowless_lp(c, lb, ub):
    """A standard form with no rows (and the same LP for the oracle)."""
    n = len(c)
    args = (np.asarray(c, dtype=float), np.zeros((0, n)), np.zeros(0),
            np.zeros((0, n)), np.zeros(0),
            np.asarray(lb, dtype=float), np.asarray(ub, dtype=float))
    return StandardFormLP(*args), args


def phase1_infeasible_lp():
    """Two rows no box point satisfies: ``x1 + 3 x2 + x3 + y <= 3`` with
    ``x1 + x2 + x3 >= 3`` over ``[0, 1]^3 x [0, 5]`` — the shape a random
    presolve round-trip MILP hands the root LP with presolve off."""
    c = np.array([3.0, 2.0, -1.0, -0.5])
    a_ub = np.array([[1.0, 3.0, 1.0, 1.0], [-1.0, -1.0, -1.0, 0.0]])
    b_ub = np.array([3.0, -3.0])
    return StandardFormLP(
        c, a_ub, b_ub, np.zeros((0, 4)), np.zeros(0),
        np.zeros(4), np.array([1.0, 1.0, 1.0, 5.0]),
    )


class TestRecovery:
    """The engine answers by itself: closed form without rows, a phase-1
    infeasibility verdict read from a fresh factor, one cold Bland restart
    for anything else, and an error — never an unverified answer — when
    the restart fails too."""

    def test_rowless_lps_match_the_oracle(self):
        """Bounded, unbounded, free and crossed-bound columns, 0 rows."""
        cases = [
            ([1.0, -2.0, 0.0], [0.0, -1.0, -np.inf], [3.0, 4.0, np.inf]),
            ([-1.0, 1.0], [0.0, 0.0], [np.inf, 1.0]),   # unbounded above
            ([1.0], [-np.inf], [2.0]),                  # unbounded below
            ([1.0, 1.0], [0.0, 3.0], [1.0, 2.0]),       # crossed bounds
        ]
        rng = np.random.default_rng(12)
        for _ in range(40):
            n = int(rng.integers(1, 6))
            c = rng.choice([-1.0, 0.0, 2.0], size=n)
            base = rng.integers(-2, 2, n).astype(float)
            lb = np.where(rng.random(n) < 0.2, -np.inf, base)
            ub = np.where(rng.random(n) < 0.2, np.inf, base + rng.integers(-1, 3, n))
            cases.append((c, lb, ub))
        statuses = collections.Counter()
        for c, lb, ub in cases:
            sf, args = rowless_lp(c, lb, ub)
            result, basis, recovered = solve_with_fallback(sf)
            dense = solve_lp(*args)
            assert result.status.name == dense.status.name
            assert not recovered
            statuses[result.status] += 1
            if result.status is LPStatus.OPTIMAL:
                assert result.objective == pytest.approx(dense.objective)
                assert np.all(result.x >= sf.lo) and np.all(result.x <= sf.up)
                assert basis is not None and basis.basic.size == 0
        assert set(statuses) == set(LPStatus)

    def test_rowless_warm_start_follows_a_bound_change(self):
        sf, _ = rowless_lp([1.0, -1.0], [0.0, 0.0], [2.0, 3.0])
        first = solve_revised(sf)
        assert first.objective == pytest.approx(-3.0)
        sf.set_bounds(np.array([1.0, 0.0]), np.array([2.0, 1.0]))
        again = solve_revised(sf, first.basis)
        assert again.status is RevisedStatus.OPTIMAL
        assert again.objective == pytest.approx(0.0)

    def test_phase1_infeasibility_is_certified_without_an_oracle(self):
        sf = phase1_infeasible_lp()
        attempt = solve_revised(sf)
        assert attempt.status is RevisedStatus.INFEASIBLE
        assert attempt.counters is not None
        result, basis, recovered = solve_with_fallback(sf)
        assert result.status is LPStatus.INFEASIBLE
        assert basis is None and not recovered

    def test_phase1_infeasible_milp_needs_no_restart(self):
        model = Model("phase1_infeasible")
        xs = [model.add_binary(f"x{i}") for i in range(3)]
        y = model.add_continuous("y", ub=5)
        model.add(xs[0] + 3 * xs[1] + xs[2] + y <= 3)
        model.add(sum(xs) >= 3)
        model.minimize(3 * xs[0] + 2 * xs[1] - xs[2] - 0.5 * y)
        solution = BozoSolver(SolverOptions(presolve=False)).solve(model)
        assert solution.status is SolveStatus.INFEASIBLE
        assert solution.stats.fallbacks == 0

    def test_blown_budget_recovers_and_counts_a_fallback(self, monkeypatch):
        """Every first attempt gets a zero pivot budget; the cold Bland
        restart must still reach the unforced optimum, and the restarts
        must show up in ``fallbacks`` and its replay."""
        model = market_split(3, 10, 0)
        options = dict(branching="most_fractional", cuts="off")
        expected = BozoSolver(SolverOptions(**options)).solve(model)
        attempt = revised.solve_revised

        def starved(sf, basis=None, max_iterations=20_000, **kwargs):
            return attempt(sf, basis, max_iterations=0, **kwargs)

        monkeypatch.setattr(revised, "solve_revised", starved)
        sink = MemoryTraceSink()
        forced = BozoSolver(SolverOptions(trace=sink, **options)).solve(model)
        assert forced.objective == pytest.approx(expected.objective)
        assert forced.stats.fallbacks > 0
        assert replay_stats(sink.events).fallbacks == forced.stats.fallbacks

    def test_restart_answer_matches_the_oracle(self, monkeypatch):
        rng = np.random.default_rng(3)
        attempt = revised.solve_revised
        monkeypatch.setattr(
            revised, "solve_revised",
            lambda sf, basis=None, max_iterations=20_000, **kw: attempt(
                sf, basis, max_iterations=0, **kw),
        )
        recovered_count = 0
        for _ in range(20):
            c, a_ub, b_ub, a_eq, b_eq, lb, ub = random_sos_like_lp(rng)
            sf = StandardFormLP(c, a_ub, b_ub, a_eq, b_eq, lb, ub)
            result, basis, recovered = solve_with_fallback(sf)
            recovered_count += recovered
            assert_matches_oracle(result, solve_lp(c, a_ub, b_ub, a_eq, b_eq, lb, ub))
            if result.status is LPStatus.OPTIMAL:
                assert basis is not None
        assert recovered_count > 0

    def test_double_failure_raises_instead_of_answering(self, monkeypatch):
        monkeypatch.setattr(revised._DenseFactor, "refactor", lambda self, basic: False)
        rng = np.random.default_rng(8)
        c, a_ub, b_ub, a_eq, b_eq, lb, ub = random_sos_like_lp(rng)
        sf = StandardFormLP(c, a_ub, b_ub, a_eq, b_eq, lb, ub)
        assert solve_revised(sf).status is RevisedStatus.NEEDS_FALLBACK
        with pytest.raises(SolverError):
            solve_with_fallback(sf)
        with pytest.raises(SolverError):
            BozoSolver().solve(market_split(3, 8, 0))


class TestCountersAreTrue:
    """``refactorizations`` counts every factorization the solve made —
    INFEASIBLE verdicts, micro-kernel inverses and cut-round tableaus
    included — and ``replay_stats`` rebuilds it from the trace."""

    @pytest.mark.parametrize("name", ["example1_cap7", "market_split_3x12"])
    def test_every_factorization_is_reported_and_replayed(self, name, monkeypatch):
        if name == "example1_cap7":
            model = SosModelBuilder(
                example1(), example1_library(), FormulationOptions(cost_cap=7)
            ).build().model
        else:
            model = market_split(3, 12, 0)
        made = collections.Counter()
        inverse, lu = np.linalg.inv, revised._splu

        def counted_inverse(a):
            made["inverse"] += 1
            return inverse(a)

        def counted_lu(*args, **kwargs):
            made["lu"] += 1
            return lu(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "inv", counted_inverse)
        monkeypatch.setattr(revised, "_splu", counted_lu)
        sink = MemoryTraceSink()
        solution = BozoSolver(SolverOptions(trace=sink)).solve(model)
        stats = solution.stats
        assert stats.cut_rounds > 0
        assert stats.refactorizations == sum(made.values())
        assert replay_stats(sink.events).refactorizations == stats.refactorizations
        lp_events = [e for e in sink.events if e.type == "lp_solved"]
        assert all("refactorizations" in e.data for e in lp_events)
        rounds = [e for e in sink.events if e.type == "cut_round"]
        assert sum(e.data["refactorizations"] for e in rounds) == len(rounds)
        if name == "example1_cap7":
            assert any(e.data["status"] == "infeasible" for e in lp_events)
