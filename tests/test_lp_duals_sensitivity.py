"""Tests for LP dual values and the capacity sensitivity analysis."""

import pytest

from repro.core import capacity_sensitivity, solve_ssqpp
from repro.exceptions import SolverError, ValidationError
from repro.lp import LinExpr, Model
from repro.network import Network, path_network, star_network
from repro.quorums import AccessStrategy, majority


class TestLPDuals:
    def test_ge_constraint_shadow_price(self):
        """min x s.t. x >= 4: raising the rhs by 1 raises the optimum by
        1, so the dual is +1."""
        m = Model()
        x = m.variable("x")
        c = m.add_constraint(x >= 4)
        m.minimize(x + 0)
        solution = m.solve()
        assert solution.dual_of(c) == pytest.approx(1.0)

    def test_le_constraint_shadow_price(self):
        """max 3x s.t. x <= 2 (reported in max sense): +3 per unit rhs."""
        m = Model()
        x = m.variable("x")
        c = m.add_constraint(x <= 2)
        m.maximize(3 * x)
        solution = m.solve()
        assert solution.dual_of(c) == pytest.approx(3.0)

    def test_slack_constraint_has_zero_dual(self):
        m = Model()
        x = m.variable("x", ub=1.0)
        tight = m.add_constraint(x >= 1)
        slack = m.add_constraint(x >= -5)
        m.minimize(x + 0)
        solution = m.solve()
        assert solution.dual_of(slack) == pytest.approx(0.0)
        assert solution.dual_of(tight) == pytest.approx(1.0)

    def test_equality_dual(self):
        """min 2a + b s.t. a + b == 10: marginal unit goes to b (+1)."""
        m = Model()
        a, b = m.variable("a"), m.variable("b")
        c = m.add_constraint(a + b == 10)
        m.minimize(2 * a + b)
        solution = m.solve()
        assert solution.dual_of(c) == pytest.approx(1.0)

    def test_foreign_constraint_rejected(self):
        from repro.lp.model import Constraint, LinExpr

        m = Model()
        x = m.variable("x", ub=1)
        m.minimize(x + 0)
        solution = m.solve()
        orphan = Constraint(LinExpr({0: 1.0}), "<=")
        with pytest.raises(SolverError, match="dual index"):
            solution.dual_of(orphan)


class TestRowBlocks:
    """Bulk COO rows (Model.add_rows) and their duals."""

    def _model(self):
        m = Model()
        cols = m.add_variables(3, lb=0.0, ub=10.0, name="y")
        return m, cols

    @pytest.mark.parametrize("sense", ["<=", ">=", "=="])
    def test_block_rows_match_single_constraints(self, sense):
        """The same LP once as a block and once row by row: identical
        optimum and identical per-row shadow prices."""
        bulk, cols = self._model()
        block = bulk.add_rows(
            [0, 0, 1, 1], cols[[0, 1, 1, 2]], [1.0, 1.0, 1.0, 2.0],
            [4.0, 6.0], sense, name="pairs",
        )
        single = Model()
        ys = single.variables(3, prefix="y", ub=10.0)
        constraints = []
        for row, rhs in ((ys[0] + ys[1], 4.0), (ys[1] + 2 * ys[2], 6.0)):
            built = {"<=": row <= rhs, ">=": row >= rhs, "==": row == rhs}[sense]
            constraints.append(single.add_constraint(built))
        # Push against the rows so that both bind.
        weights = [1.0, 2.0, 3.0] if sense != "<=" else [-1.0, -2.0, -3.0]
        bulk.minimize(LinExpr(dict(zip(cols.tolist(), weights))))
        single.minimize(sum(w * y for w, y in zip(weights, ys)))
        got, want = bulk.solve(), single.solve()
        assert got.objective == pytest.approx(want.objective, abs=1e-9)
        assert got.block_duals(block).tolist() == pytest.approx(
            [want.dual_of(c) for c in constraints], abs=1e-9
        )
        assert bulk.num_constraints == 2

    def test_block_duals_rejects_foreign_blocks(self):
        m, cols = self._model()
        m.minimize(LinExpr({int(cols[0]): 1.0}))
        other, other_cols = self._model()
        other.add_rows([0], other_cols[:1], [1.0], [1.0], "<=")
        foreign = other.add_rows([0], other_cols[:1], [1.0], [1.0], "<=")
        m.add_rows([0], cols[:1], [1.0], [1.0], ">=")
        with pytest.raises(SolverError, match="does not belong"):
            m.solve().block_duals(foreign)

    def test_add_rows_validates_its_arrays(self):
        m, cols = self._model()
        with pytest.raises(ValidationError, match="sense"):
            m.add_rows([0], cols[:1], [1.0], [1.0], "<")
        with pytest.raises(ValidationError, match="one row, column"):
            m.add_rows([0, 0], cols[:1], [1.0], [1.0], "<=")
        with pytest.raises(ValidationError, match="row indices"):
            m.add_rows([1], cols[:1], [1.0], [1.0], "<=")
        with pytest.raises(ValidationError, match="column outside"):
            m.add_rows([0], [3], [1.0], [1.0], "<=")
        assert m.variable_name(2) == "y[2]"
        with pytest.raises(ValidationError):
            m.variable_name(3)


class TestCapacitySensitivity:
    def test_prices_are_non_positive(self):
        """More capacity can only reduce the minimum delay."""
        system = majority(3)
        strategy = AccessStrategy.uniform(system)
        network = path_network(4).with_capacities(2 / 3)
        sensitivity = capacity_sensitivity(system, strategy, network, 0)
        assert all(price <= 1e-9 for price in sensitivity.shadow_prices.values())

    def test_lp_value_matches_solver(self):
        system = majority(3)
        strategy = AccessStrategy.uniform(system)
        network = path_network(4).with_capacities(2 / 3)
        sensitivity = capacity_sensitivity(system, strategy, network, 0)
        result = solve_ssqpp(system, strategy, network, 0)
        assert sensitivity.lp_value == pytest.approx(result.lp_value, abs=1e-7)

    def test_near_nodes_are_the_bottleneck(self):
        """On a star with the source at the hub and tight capacities, the
        hub's capacity is the binding one."""
        system = majority(3)
        strategy = AccessStrategy.uniform(system)
        network = star_network(5).with_capacities(2 / 3)
        sensitivity = capacity_sensitivity(system, strategy, network, 0)
        bottlenecks = sensitivity.bottlenecks(1)
        assert bottlenecks, "some capacity should be binding"
        assert bottlenecks[0][0] == 0  # the hub

    def test_price_predicts_improvement(self):
        """First-order check: increasing the bottleneck capacity by eps
        moves the LP value by roughly price * eps."""
        system = majority(3)
        strategy = AccessStrategy.uniform(system)
        base_cap = 2 / 3
        network = star_network(5).with_capacities(base_cap)
        sensitivity = capacity_sensitivity(system, strategy, network, 0)
        (node, price), *_ = sensitivity.bottlenecks(1)
        eps = 1e-3
        capacities = {v: base_cap for v in network.nodes}
        capacities[node] += eps
        bumped = capacity_sensitivity(
            system, strategy, network.with_capacities(capacities), 0
        )
        predicted = sensitivity.lp_value + price * eps
        assert bumped.lp_value == pytest.approx(predicted, abs=1e-5)

    def test_prices_belong_to_their_nodes_away_from_node_zero(self):
        """Source 4 on a path: the binding capacities are at the source
        and its neighbour, not at nodes 0 and 1 (distance rank != label)."""
        system = majority(3)
        strategy = AccessStrategy.uniform(system)
        network = path_network(5).with_capacities(2 / 3)
        sensitivity = capacity_sensitivity(system, strategy, network, 4)
        prices = sensitivity.shadow_prices
        assert prices[4] == pytest.approx(-1.0, abs=1e-7)
        assert prices[3] == pytest.approx(-0.5, abs=1e-7)
        for node in (0, 1, 2):
            assert prices[node] == pytest.approx(0.0, abs=1e-9)
        assert [node for node, _ in sensitivity.bottlenecks(2)] == [4, 3]

    def test_string_node_labels(self):
        """Labels need not be integers; each price matches the LP value's
        response to that node's own capacity."""
        system = majority(3)
        strategy = AccessStrategy.uniform(system)
        names = ["west", "mid", "east", "far"]
        capacities = {"west": 2 / 3, "mid": 2 / 3, "east": 2 / 3, "far": 2.0}
        network = Network(
            names,
            [("west", "mid", 1.0), ("mid", "east", 1.0), ("east", "far", 3.0)],
            capacities=capacities,
        )
        sensitivity = capacity_sensitivity(system, strategy, network, "east")
        assert set(sensitivity.shadow_prices) == set(names)
        assert sensitivity.bottlenecks(1)[0][0] == "east"
        eps = 1e-3
        for node, price in sensitivity.shadow_prices.items():
            bumped = dict(capacities)
            bumped[node] += eps
            moved = capacity_sensitivity(
                system, strategy, network.with_capacities(bumped), "east"
            )
            assert moved.lp_value == pytest.approx(
                sensitivity.lp_value + price * eps, abs=1e-6
            )

    def test_loose_capacities_have_zero_prices(self):
        system = majority(3)
        strategy = AccessStrategy.uniform(system)
        network = path_network(4).with_capacities(10.0)
        sensitivity = capacity_sensitivity(system, strategy, network, 0)
        assert all(
            price == pytest.approx(0.0, abs=1e-9)
            for price in sensitivity.shadow_prices.values()
        )


class TestPareto:
    def test_front_filters_dominated(self):
        from repro.analysis import ParetoPoint, pareto_front

        points = [
            ParetoPoint(1.0, 3.0, "a"),
            ParetoPoint(2.0, 2.0, "b"),
            ParetoPoint(3.0, 1.0, "c"),
            ParetoPoint(2.5, 2.5, "dominated"),
            ParetoPoint(1.0, 3.0, "duplicate"),
        ]
        front = pareto_front(points)
        tags = [p.tag for p in front]
        assert tags == ["a", "b", "c"]

    def test_front_is_antichain(self):
        from repro.analysis import ParetoPoint, pareto_front

        import numpy as np

        rng = np.random.default_rng(0)
        points = [
            ParetoPoint(float(d), float(l))
            for d, l in rng.uniform(0, 10, (50, 2))
        ]
        front = pareto_front(points)
        for i, a in enumerate(front):
            for b in front[i + 1 :]:
                assert not a.dominates(b) and not b.dominates(a)
