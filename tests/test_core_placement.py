"""Tests for Placement and the delay/load evaluators.

Several tests hand-compute equations (1) and (2) on tiny instances to pin
down the exact semantics.
"""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.core import (
    Placement,
    average_max_delay,
    average_total_delay,
    capacity_violation_factor,
    expected_max_delay,
    expected_max_delay_reference,
    expected_total_delay,
    is_capacity_respecting,
    make_placement,
    max_delay,
    node_loads,
    total_delay_cost,
)
from repro.network import Network, path_network
from repro.quorums import AccessStrategy, QuorumSystem, majority


@pytest.fixture
def tiny():
    """Majority(3) on a 3-node path, elements on distinct nodes."""
    system = majority(3)  # quorums: {0,1}, {0,2}, {1,2}
    strategy = AccessStrategy.uniform(system)
    network = path_network(3).with_capacities(1.0)
    placement = Placement(system, network, {0: 0, 1: 1, 2: 2})
    return system, strategy, network, placement


class TestPlacementType:
    def test_accessors(self, tiny):
        system, _, network, placement = tiny
        assert placement[0] == 0
        assert placement.as_dict() == {0: 0, 1: 1, 2: 2}
        assert placement.system is system
        assert placement.network is network

    def test_missing_element_rejected(self, tiny):
        system, _, network, _ = tiny
        with pytest.raises(ValidationError, match="missing"):
            Placement(system, network, {0: 0, 1: 1})

    def test_unknown_target_node_rejected(self, tiny):
        system, _, network, _ = tiny
        with pytest.raises(ValidationError, match="unknown node"):
            Placement(system, network, {0: 0, 1: 1, 2: 99})

    def test_unknown_element_lookup(self, tiny):
        _, _, _, placement = tiny
        with pytest.raises(ValidationError):
            placement["nope"]

    def test_non_injective_allowed(self, tiny):
        system, _, network, _ = tiny
        placement = Placement(system, network, {0: 1, 1: 1, 2: 1})
        assert set(placement.as_dict().values()) == {1}

    def test_make_placement_in_universe_order(self, tiny):
        system, _, network, _ = tiny
        placement = make_placement(system, network, [2, 1, 0])
        assert placement[0] == 2 and placement[2] == 0
        with pytest.raises(ValidationError):
            make_placement(system, network, [0, 1])

    def test_quorum_node_indices_deduplicated(self, tiny):
        system, _, network, _ = tiny
        placement = Placement(system, network, {0: 1, 1: 1, 2: 2})
        # Quorum {0, 1} sits entirely on node 1.
        index = list(system.quorums).index(frozenset({0, 1}))
        assert list(placement.quorum_node_indices(index)) == [1]


class TestMaxDelay:
    def test_equation_1_by_hand(self, tiny):
        system, strategy, _, placement = tiny
        index = list(system.quorums).index(frozenset({0, 2}))
        # Client 0 to quorum {0,2} placed at nodes {0,2}: farthest is 2.
        assert max_delay(placement, 0, index) == pytest.approx(2.0)
        assert max_delay(placement, 1, index) == pytest.approx(1.0)

    def test_equation_2_by_hand(self, tiny):
        system, strategy, _, placement = tiny
        # For client 1 (center): delays to quorums {0,1}:1, {0,2}:1, {1,2}:1.
        assert expected_max_delay(placement, strategy, 1) == pytest.approx(1.0)
        # For client 0: {0,1}:1, {0,2}:2, {1,2}:2 => mean 5/3.
        assert expected_max_delay(placement, strategy, 0) == pytest.approx(5 / 3)

    def test_average_max_delay_uniform_clients(self, tiny):
        _, strategy, _, placement = tiny
        # Clients 0 and 2 are symmetric (5/3), client 1 has 1 => avg 13/9.
        assert average_max_delay(placement, strategy) == pytest.approx(13 / 9)

    def test_average_max_delay_with_rates(self, tiny):
        _, strategy, _, placement = tiny
        # All rate on the center client.
        value = average_max_delay(placement, strategy, rates={1: 5.0})
        assert value == pytest.approx(1.0)

    def test_rates_validation(self, tiny):
        _, strategy, _, placement = tiny
        with pytest.raises(ValidationError):
            average_max_delay(placement, strategy, rates={0: -1.0})
        with pytest.raises(ValidationError):
            average_max_delay(placement, strategy, rates={0: 0.0})

    def test_strategy_system_mismatch_rejected(self, tiny):
        _, _, network, placement = tiny
        other = AccessStrategy.uniform(QuorumSystem([{0, 1}]))
        with pytest.raises(ValidationError, match="different"):
            expected_max_delay(placement, other, 0)

    def test_equal_system_in_another_quorum_order_is_rejected(self):
        """An equal system that lists its quorums in another order would
        be indexed by the strategy's positions: on the reordered system
        the 0.8 quorum becomes {2, 3} and the delay reads 2.48, not 3.04."""
        listed = QuorumSystem([{1, 2}, {2, 3}, {1, 3}])
        reordered = QuorumSystem([{2, 3}, {1, 2}, {1, 3}])
        assert listed == reordered
        strategy = AccessStrategy(listed, [0.8, 0.1, 0.1])
        network = path_network(5)
        hosts = [0, 4, 2]
        own = Placement(listed, network, dict(zip(listed.universe, hosts)))
        assert average_max_delay(own, strategy) == pytest.approx(3.04)
        other = Placement(reordered, network, dict(zip(reordered.universe, hosts)))
        with pytest.raises(ValidationError, match="order"):
            average_max_delay(other, strategy)
        with pytest.raises(ValidationError, match="order"):
            expected_max_delay_reference(other, strategy, 0)


class TestTotalDelay:
    def test_gamma_by_hand(self, tiny):
        system, strategy, _, placement = tiny
        index = list(system.quorums).index(frozenset({0, 2}))
        # gamma(client 1, {0,2}) = d(1,0) + d(1,2) = 2.
        assert total_delay_cost(placement, 1, index) == pytest.approx(2.0)

    def test_expected_total_delay_identity(self, tiny):
        """Gamma_f(v) must equal sum_u load(u) d(v, f(u))."""
        system, strategy, network, placement = tiny
        for client in network.nodes:
            direct = sum(
                strategy.probability(i) * total_delay_cost(placement, client, i)
                for i in range(len(system))
            )
            assert expected_total_delay(placement, strategy, client) == pytest.approx(direct)

    def test_co_located_elements_count_multiply(self, tiny):
        system, strategy, network, _ = tiny
        placement = Placement(system, network, {0: 2, 1: 2, 2: 2})
        index = list(system.quorums).index(frozenset({0, 1}))
        # Both elements at node 2: gamma(0, Q) = 2 + 2 = 4.
        assert total_delay_cost(placement, 0, index) == pytest.approx(4.0)

    def test_average_total_delay_with_rates(self, tiny):
        _, strategy, _, placement = tiny
        weighted = average_total_delay(placement, strategy, rates={0: 1.0, 1: 1.0})
        uniform = average_total_delay(placement, strategy)
        assert weighted != pytest.approx(uniform)


class TestLoads:
    def test_node_loads_by_hand(self, tiny):
        system, strategy, _, placement = tiny
        loads = node_loads(placement, strategy)
        # Each element has load 2/3 (in 2 of 3 quorums).
        for node in (0, 1, 2):
            assert loads[node] == pytest.approx(2 / 3)

    def test_co_location_adds_loads(self, tiny):
        system, strategy, network, _ = tiny
        placement = Placement(system, network, {0: 0, 1: 0, 2: 1})
        loads = node_loads(placement, strategy)
        assert loads[0] == pytest.approx(4 / 3)
        assert loads[2] == 0.0

    def test_capacity_violation_factor(self, tiny):
        system, strategy, network, placement = tiny
        assert capacity_violation_factor(placement, strategy) == pytest.approx(2 / 3)
        assert is_capacity_respecting(placement, strategy)
        crowded = Placement(system, network, {0: 0, 1: 0, 2: 0})
        assert capacity_violation_factor(crowded, strategy) == pytest.approx(2.0)
        assert not is_capacity_respecting(crowded, strategy)

    def test_zero_capacity_node_with_load_is_infinite(self, tiny):
        system, strategy, _, _ = tiny
        network = path_network(3).with_capacities({0: 0.0, 1: 1.0, 2: 1.0})
        placement = Placement(system, network, {0: 0, 1: 1, 2: 2})
        assert capacity_violation_factor(placement, strategy) == float("inf")
