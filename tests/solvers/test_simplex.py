"""Tests for the from-scratch two-phase simplex, including property tests
against scipy's independent HiGHS LP solver."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from tests.solvers.simplex import LPStatus, solve_lp


def lp(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, lb=None, ub=None, **kw):
    n = len(c)
    c = np.asarray(c, dtype=float)
    a_ub = np.zeros((0, n)) if a_ub is None else np.asarray(a_ub, dtype=float)
    b_ub = np.zeros(0) if b_ub is None else np.asarray(b_ub, dtype=float)
    a_eq = np.zeros((0, n)) if a_eq is None else np.asarray(a_eq, dtype=float)
    b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float)
    lb = np.zeros(n) if lb is None else np.asarray(lb, dtype=float)
    ub = np.full(n, np.inf) if ub is None else np.asarray(ub, dtype=float)
    return solve_lp(c, a_ub, b_ub, a_eq, b_eq, lb, ub, **kw)


class TestBasicSolves:
    def test_trivial_minimum_at_lower_bounds(self):
        result = lp([1.0, 1.0])
        assert result.status is LPStatus.OPTIMAL
        assert result.objective == pytest.approx(0.0)

    def test_bounded_maximization(self):
        # max x + y s.t. x + y <= 3, x <= 2  (as min of negation)
        result = lp([-1, -1], a_ub=[[1, 1]], b_ub=[3], ub=[2, math.inf])
        assert result.status is LPStatus.OPTIMAL
        assert result.objective == pytest.approx(-3.0)

    def test_equality_constraint(self):
        result = lp([1, 2], a_eq=[[1, 1]], b_eq=[4])
        assert result.status is LPStatus.OPTIMAL
        np.testing.assert_allclose(result.x, [4, 0], atol=1e-8)

    def test_objective_constant(self):
        result = lp([1.0], c0=5.0)
        assert result.objective == pytest.approx(5.0)

    def test_unbounded_detected(self):
        result = lp([-1.0])
        assert result.status is LPStatus.UNBOUNDED

    def test_infeasible_by_constraints(self):
        result = lp([1, 1], a_ub=[[1, 1]], b_ub=[-1])
        assert result.status is LPStatus.INFEASIBLE

    def test_infeasible_by_bounds(self):
        result = lp([1.0], lb=[3.0], ub=[1.0])
        assert result.status is LPStatus.INFEASIBLE

    def test_negative_rhs_handled(self):
        # x >= 2 written as -x <= -2.
        result = lp([1.0], a_ub=[[-1.0]], b_ub=[-2.0])
        assert result.status is LPStatus.OPTIMAL
        assert result.objective == pytest.approx(2.0)

    def test_solution_within_bounds(self):
        result = lp([-1, -1], a_ub=[[2, 1]], b_ub=[4], ub=[1.5, 1.5])
        assert result.status is LPStatus.OPTIMAL
        assert np.all(result.x <= 1.5 + 1e-9)


class TestVariableTransforms:
    def test_negative_lower_bound(self):
        result = lp([1.0], lb=[-5.0], ub=[5.0])
        assert result.objective == pytest.approx(-5.0)

    def test_free_variable_split(self):
        # min x s.t. x >= -7 via constraint (variable itself free).
        result = lp([1.0], a_ub=[[-1.0]], b_ub=[7.0],
                    lb=[-math.inf], ub=[math.inf])
        assert result.status is LPStatus.OPTIMAL
        assert result.objective == pytest.approx(-7.0)

    def test_reflected_variable(self):
        # lb=-inf, finite ub: min -x should hit the upper bound.
        result = lp([-1.0], lb=[-math.inf], ub=[4.0])
        assert result.status is LPStatus.OPTIMAL
        assert result.objective == pytest.approx(-4.0)

    def test_fixed_variable(self):
        result = lp([1, 1], a_ub=[[1, 1]], b_ub=[10], lb=[2, 0], ub=[2, 5])
        assert result.status is LPStatus.OPTIMAL
        assert result.x[0] == pytest.approx(2.0)

    def test_fixed_variable_infeasible_row(self):
        # x fixed at 2 but equality demands x == 3.
        result = lp([0.0], a_eq=[[1.0]], b_eq=[3.0], lb=[2.0], ub=[2.0])
        assert result.status is LPStatus.INFEASIBLE


class TestDegenerate:
    def test_redundant_equalities(self):
        result = lp([1, 1], a_eq=[[1, 1], [2, 2]], b_eq=[2, 4])
        assert result.status is LPStatus.OPTIMAL
        assert result.objective == pytest.approx(2.0)

    def test_inconsistent_equalities(self):
        result = lp([1, 1], a_eq=[[1, 1], [1, 1]], b_eq=[2, 3])
        assert result.status is LPStatus.INFEASIBLE

    def test_zero_rows(self):
        result = lp([1.0], a_ub=[[0.0]], b_ub=[1.0])
        assert result.status is LPStatus.OPTIMAL

    def test_zero_row_infeasible(self):
        result = lp([1.0], a_ub=[[0.0]], b_ub=[-1.0])
        assert result.status is LPStatus.INFEASIBLE

    def test_iteration_limit(self):
        result = lp([-1, -1], a_ub=[[1, 1]], b_ub=[3], ub=[2, 2], max_iterations=0)
        assert result.status is LPStatus.ITERATION_LIMIT


@st.composite
def random_lp(draw):
    # Coefficients are rounded to 1/8 steps so no generated instance sits at
    # the 1e-7 feasibility-tolerance boundary where exact simplex and
    # tolerance-based HiGHS may legitimately disagree on feasibility.
    n = draw(st.integers(2, 7))
    m_ub = draw(st.integers(1, 6))
    m_eq = draw(st.integers(0, 2))
    fl = st.floats(-4, 4, allow_nan=False).map(lambda v: round(v * 8) / 8)
    c = draw(st.lists(fl, min_size=n, max_size=n))
    a_ub = [draw(st.lists(fl, min_size=n, max_size=n)) for _ in range(m_ub)]
    b_ub = draw(st.lists(st.floats(-2, 6).map(lambda v: round(v * 8) / 8),
                         min_size=m_ub, max_size=m_ub))
    a_eq = [draw(st.lists(fl, min_size=n, max_size=n)) for _ in range(m_eq)]
    b_eq = draw(st.lists(st.floats(-2, 2).map(lambda v: round(v * 8) / 8),
                         min_size=m_eq, max_size=m_eq))
    ub_value = draw(st.floats(0.5, 10).map(lambda v: round(v * 8) / 8))
    return c, a_ub, b_ub, a_eq, b_eq, ub_value


@settings(max_examples=60, deadline=None)
@given(random_lp())
def test_agrees_with_scipy_on_random_lps(problem):
    """Status and optimal objective must match scipy's HiGHS exactly."""
    c, a_ub, b_ub, a_eq, b_eq, ub_value = problem
    n = len(c)
    ours = lp(c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq or None, b_eq=b_eq or None,
              ub=[ub_value] * n)
    reference = linprog(
        c, A_ub=np.asarray(a_ub), b_ub=np.asarray(b_ub),
        A_eq=np.asarray(a_eq) if a_eq else None,
        b_eq=np.asarray(b_eq) if b_eq else None,
        bounds=[(0, ub_value)] * n, method="highs",
    )
    expected = {0: LPStatus.OPTIMAL, 2: LPStatus.INFEASIBLE, 3: LPStatus.UNBOUNDED}
    assert ours.status is expected.get(reference.status), (
        f"ours={ours.status}, scipy status={reference.status}"
    )
    if ours.status is LPStatus.OPTIMAL:
        assert ours.objective == pytest.approx(reference.fun, abs=1e-6, rel=1e-6)
        # Our x must itself be feasible.
        x = ours.x
        assert np.all(np.asarray(a_ub) @ x <= np.asarray(b_ub) + 1e-7)
        if a_eq:
            assert np.allclose(np.asarray(a_eq) @ x, b_eq, atol=1e-7)
        assert np.all(x >= -1e-9) and np.all(x <= ub_value + 1e-9)
