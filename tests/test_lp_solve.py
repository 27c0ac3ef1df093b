"""Solver backend behavior: statuses, methods, degenerate models."""

import numpy as np
import pytest

from repro.exceptions import InfeasibleError, SolverError, UnboundedError
from repro.lp import Model, solve_model


def test_infeasible_raises_specific_error():
    m = Model(name="impossible")
    x = m.variable("x", lb=0)
    m.add_constraint(x <= -1)
    m.minimize(x + 0)
    with pytest.raises(InfeasibleError, match="impossible"):
        m.solve()


def test_unbounded_raises_specific_error():
    m = Model(name="freefall")
    x = m.variable("x", lb=0)
    m.minimize(-x + 0)
    with pytest.raises(UnboundedError):
        m.solve()


def test_missing_objective_raises():
    m = Model(name="aimless")
    m.variable("x")
    with pytest.raises(SolverError, match="objective"):
        m.solve()


def test_unknown_method_rejected():
    m = Model()
    x = m.variable("x", ub=1)
    m.minimize(x + 0)
    with pytest.raises(SolverError, match="unsupported"):
        solve_model(m, method="simplex-from-1947")


@pytest.mark.parametrize("method", ["highs", "highs-ds", "highs-ipm"])
def test_all_methods_agree_on_optimum(method):
    m = Model()
    x = m.variable("x", lb=0)
    y = m.variable("y", lb=0)
    m.add_constraint(x + y >= 2)
    m.add_constraint(x - y <= 0)
    m.minimize(2 * x + y)
    # x <= y and x + y >= 2 with objective 2x + y: optimum at x=0, y=2.
    assert m.solve(method=method).objective == pytest.approx(2.0)


def test_dual_simplex_returns_vertex_solution():
    """highs-ds should return a basic solution: for this degenerate
    transportation LP an interior point would split the flow."""
    m = Model()
    a = m.variable("a", lb=0)
    b = m.variable("b", lb=0)
    m.add_constraint(a + b == 1)
    m.minimize(a + b)  # every feasible point is optimal
    solution = m.solve(method="highs-ds")
    values = sorted([solution.value(a), solution.value(b)])
    assert values == pytest.approx([0.0, 1.0])


def test_solution_values_vector_matches_accessor():
    m = Model()
    xs = m.variables(3)
    m.add_constraint(xs[0] + xs[1] + xs[2] == 6)
    m.minimize(xs[0] + 2 * xs[1] + 3 * xs[2])
    solution = m.solve()
    assert isinstance(solution.values, np.ndarray)
    for variable in xs:
        assert solution.value(variable) == pytest.approx(solution.values[variable.index])


def test_large_sparse_model_solves():
    """A few thousand variables/constraints compile through the sparse path."""
    m = Model()
    n = 400
    xs = m.variables(n)
    total = xs[0].to_expr()
    for x in xs[1:]:
        total = total + x
    m.add_constraint(total == 1)
    for i in range(n - 1):
        m.add_constraint(xs[i] - xs[i + 1] <= 1.0)
    m.minimize(sum((i + 1) * xs[i] for i in range(n)) + 0)
    solution = m.solve()
    assert solution.objective == pytest.approx(1.0)
    assert solution.value(xs[0]) == pytest.approx(1.0)


def test_compile_span_reports_rows_and_nonzeros():
    """Assembly shows up in traces as its own span, ahead of the solve."""
    from repro.obs.trace import collect

    m = Model(name="traced")
    x, y = m.variables(2)
    m.add_constraint(x + y >= 1)
    cols = m.add_variables(2, ub=1.0, name="z")
    m.add_rows([0, 0, 1], [cols[0], x.index, cols[1]], [1.0, -1.0, 1.0], [0.0, 1.0], "==")
    m.minimize(x + y)
    with collect() as collector:
        m.solve()
    names = [s.name for root in collector.roots for s in root.iter_spans()]
    assert names.index("lp.compile") < names.index("lp.solve")
    (compile_span,) = [
        s for root in collector.roots for s in root.iter_spans() if s.name == "lp.compile"
    ]
    assert compile_span.attributes == {"model": "traced", "rows": 3, "nonzeros": 5}
