"""Unit tests for the LP modeling layer (expressions, constraints, model)."""

import math

import pytest

from repro.exceptions import ValidationError
from repro.lp import Constraint, LinExpr, Model, Variable


class TestLinExpr:
    def test_variable_arithmetic_builds_expressions(self):
        m = Model()
        x, y = m.variable("x"), m.variable("y")
        expr = 2 * x + 3 * y - 1
        assert expr.coefficients == {x.index: 2.0, y.index: 3.0}
        assert expr.constant == -1.0

    def test_addition_merges_coefficients(self):
        m = Model()
        x = m.variable("x")
        expr = x + x + x
        assert expr.coefficients == {x.index: 3.0}

    def test_subtraction_and_negation(self):
        m = Model()
        x, y = m.variable("x"), m.variable("y")
        expr = -(x - y)
        assert expr.coefficients == {x.index: -1.0, y.index: 1.0}

    def test_rsub_scalar(self):
        m = Model()
        x = m.variable("x")
        expr = 5 - x
        assert expr.coefficients == {x.index: -1.0}
        assert expr.constant == 5.0

    def test_scalar_division(self):
        m = Model()
        x = m.variable("x")
        expr = (4 * x) / 2
        assert expr.coefficients == {x.index: 2.0}

    def test_division_by_zero_raises(self):
        m = Model()
        x = m.variable("x")
        with pytest.raises(ZeroDivisionError):
            (x + 1) / 0

    def test_from_terms_accumulates_duplicates(self):
        m = Model()
        x = m.variable("x")
        expr = LinExpr.from_terms([(x, 1.0), (x, 2.0)], constant=7.0)
        assert expr.coefficients == {x.index: 3.0}
        assert expr.constant == 7.0


class TestConstraints:
    def test_comparison_operators_build_constraints(self):
        m = Model()
        x = m.variable("x")
        le = x <= 3
        ge = x >= 1
        eq = x + 0 == 2
        assert isinstance(le, Constraint) and le.sense == "<="
        assert isinstance(ge, Constraint) and ge.sense == ">="
        assert isinstance(eq, Constraint) and eq.sense == "=="

    def test_invalid_sense_rejected(self):
        with pytest.raises(ValidationError):
            Constraint(LinExpr({0: 1.0}), "<")

    def test_add_constraint_rejects_non_constraint(self):
        m = Model()
        x = m.variable("x")
        with pytest.raises(ValidationError, match="comparison"):
            m.add_constraint(x + 1)  # an expression, not a constraint

    def test_cross_model_variables_detected(self):
        m1, m2 = Model(name="a"), Model(name="b")
        m1.variable("x")
        # m2 has no variables, so an expression over m1's x is out of range.
        x1 = Variable(0, "x")
        with pytest.raises(ValidationError, match="different model"):
            m2.add_constraint(x1 <= 1)


class TestModel:
    def test_variable_bounds_validated(self):
        m = Model()
        with pytest.raises(ValidationError, match="bound"):
            m.variable("x", lb=2.0, ub=1.0)

    def test_variables_bulk_creation(self):
        m = Model()
        xs = m.variables(5, prefix="p")
        assert [x.name for x in xs] == ["p0", "p1", "p2", "p3", "p4"]
        assert m.num_variables == 5

    def test_counts_and_names(self):
        m = Model()
        x = m.variable("cost")
        m.add_constraint(x <= 10, name="limit")
        assert m.num_constraints == 1
        assert m.variable_name(x.index) == "cost"

    def test_objective_requires_linear_expression(self):
        m = Model()
        m.variable("x")
        with pytest.raises(ValidationError):
            m.minimize("not an expression")


class TestSolving:
    def test_simple_minimization(self):
        m = Model()
        x = m.variable("x", lb=0)
        y = m.variable("y", lb=0)
        m.add_constraint(x + 2 * y >= 4)
        m.minimize(3 * x + y)
        solution = m.solve()
        assert solution.objective == pytest.approx(2.0)
        assert solution.value(y) == pytest.approx(2.0)
        assert solution.value(x) == pytest.approx(0.0)

    def test_maximization_reports_true_objective(self):
        m = Model()
        x = m.variable("x", lb=0, ub=5)
        m.maximize(2 * x + 1)
        solution = m.solve()
        assert solution.objective == pytest.approx(11.0)

    def test_equality_constraints(self):
        m = Model()
        x = m.variable("x", lb=0)
        y = m.variable("y", lb=0)
        m.add_constraint(x + y == 10)
        m.minimize(x - y)
        solution = m.solve()
        assert solution.value(y) == pytest.approx(10.0)
        assert solution.objective == pytest.approx(-10.0)

    def test_expression_value_at_optimum(self):
        m = Model()
        x = m.variable("x", lb=1, ub=1)
        m.minimize(x + 0)
        solution = m.solve()
        assert solution.expression_value(5 * x + 2) == pytest.approx(7.0)

    def test_objective_constant_carried_through(self):
        m = Model()
        x = m.variable("x", lb=3, ub=3)
        m.minimize(x + 100)
        assert m.solve().objective == pytest.approx(103.0)

    def test_bounds_respected(self):
        m = Model()
        x = m.variable("x", lb=-2, ub=7)
        m.maximize(x + 0)
        assert m.solve().value(x) == pytest.approx(7.0)
        m2 = Model()
        y = m2.variable("y", lb=-2, ub=7)
        m2.minimize(y + 0)
        assert m2.solve().value(y) == pytest.approx(-2.0)

    def test_unbounded_variable_upper_is_infinite(self):
        m = Model()
        x = m.variable("x")
        assert m.bounds() == [(0.0, math.inf)]
