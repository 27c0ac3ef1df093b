"""Tests for the full Quorum Placement Problem solver (Theorem 1.2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    average_max_delay,
    average_strategy,
    solve_qpp,
    solve_qpp_exact,
)
from repro.exceptions import ValidationError
from repro.experiments import small_suite
from repro.network import (
    Network,
    path_network,
    random_geometric_network,
    uniform_capacities,
)
from repro.quorums import AccessStrategy, majority


# paper: Thm 1.2, Thm 3.3
class TestTheorem12:
    def test_bounds_against_exact_optimum(self):
        """On exhaustively solvable instances: the algorithm's delay is
        within 5 alpha/(alpha-1) of OPT and the certified lower bound is
        valid."""
        for instance in small_suite(11)[:5]:
            result = solve_qpp(
                instance.system, instance.strategy, instance.network, alpha=2.0
            )
            exact = solve_qpp_exact(
                instance.system, instance.strategy, instance.network
            )
            assert result.average_delay <= (
                result.approximation_factor * exact.objective + 1e-6
            )
            assert result.optimum_lower_bound <= exact.objective + 1e-6

    def test_load_bound_holds(self, rng):
        from repro.core import capacity_violation_factor

        network = uniform_capacities(random_geometric_network(8, 0.55, rng=rng), 0.8)
        system = majority(5)
        strategy = AccessStrategy.uniform(system)
        result = solve_qpp(system, strategy, network, alpha=2.0)
        violation = capacity_violation_factor(result.placement, strategy)
        assert violation <= result.load_factor_bound + 1e-6

    def test_reported_delay_matches_placement(self, rng):
        network = uniform_capacities(random_geometric_network(7, 0.6, rng=rng), 1.0)
        system = majority(3)
        strategy = AccessStrategy.uniform(system)
        result = solve_qpp(system, strategy, network)
        recomputed = average_max_delay(result.placement, strategy)
        assert result.average_delay == pytest.approx(recomputed)

    def test_per_source_results_cover_candidates(self, rng):
        network = uniform_capacities(random_geometric_network(6, 0.6, rng=rng), 1.0)
        system = majority(3)
        strategy = AccessStrategy.uniform(system)
        result = solve_qpp(system, strategy, network)
        assert set(result.per_source) == set(network.nodes)
        assert result.source in result.per_source

    def test_candidate_restriction(self, rng):
        network = uniform_capacities(random_geometric_network(6, 0.6, rng=rng), 1.0)
        system = majority(3)
        strategy = AccessStrategy.uniform(system)
        result = solve_qpp(
            system, strategy, network, candidate_sources=[network.nodes[0]]
        )
        assert set(result.per_source) == {network.nodes[0]}

    def test_empty_candidates_rejected(self, rng):
        network = uniform_capacities(random_geometric_network(5, 0.6, rng=rng), 1.0)
        system = majority(3)
        strategy = AccessStrategy.uniform(system)
        with pytest.raises(ValidationError):
            solve_qpp(system, strategy, network, candidate_sources=[])

    def test_certified_ratio_consistency(self, rng):
        network = uniform_capacities(random_geometric_network(6, 0.6, rng=rng), 1.0)
        system = majority(3)
        strategy = AccessStrategy.uniform(system)
        result = solve_qpp(system, strategy, network)
        if result.optimum_lower_bound > 0:
            assert result.certified_ratio == pytest.approx(
                result.average_delay / result.optimum_lower_bound
            )


def _star_with_outlier():
    """Hub 0, unit leaves 1-9, and node 10 hanging off the hub at 100."""
    edges = [(0, leaf, 1.0) for leaf in range(1, 10)] + [(0, 10, 100.0)]
    return Network(range(11), edges, capacities=10.0)


def _outlier_network(seed, size, outlier_length, outlier_capacity):
    """*size* seeded points in the unit square, fully connected by their
    Euclidean distances, plus one pendant node (node *size*) far from the
    rest."""
    rng = np.random.default_rng(seed)
    points = rng.random((size, 2))
    edges = [
        (u, v, max(float(np.linalg.norm(points[u] - points[v])), 1e-3))
        for u in range(size)
        for v in range(u + 1, size)
    ]
    edges.append((int(rng.integers(size)), size, outlier_length))
    capacities = {node: float(rng.uniform(0.7, 2.5)) for node in range(size)}
    capacities[size] = outlier_capacity
    return Network(range(size + 1), edges, capacities=capacities)


# paper: Thm 3.3
class TestLowerBoundSoundness:
    """``optimum_lower_bound <= OPT`` for every candidate set, not only
    for the all-node sweep that the Thm 3.3 argument needs."""

    @pytest.mark.parametrize("scale", [None, "large"])
    def test_far_outlier_candidate_does_not_overstate_the_bound(self, scale):
        # Z*(10) = 0 (everything on node 10), so the Thm 3.3 term of the
        # single candidate is just its distance average, ~18.3 > OPT.
        network = _star_with_outlier()
        system = majority(3)
        strategy = AccessStrategy.uniform(system)
        result = solve_qpp(
            system, strategy, network=network, candidate_sources=[10], scale=scale
        )
        exact = solve_qpp_exact(system, strategy, network=network)
        assert exact.objective == pytest.approx(9.909090909090908)
        assert result.optimum_lower_bound == 0.0

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        size=st.integers(3, 6),
        outlier_length=st.floats(5.0, 100.0),
        outlier_capacity=st.floats(0.7, 3.0),
        subset=st.sets(st.integers(0, 5), max_size=6),
        with_outlier=st.booleans(),
        rated=st.booleans(),
        scale=st.sampled_from([None, "large"]),
    )
    def test_bound_never_exceeds_the_optimum(
        self,
        seed,
        size,
        outlier_length,
        outlier_capacity,
        subset,
        with_outlier,
        rated,
        scale,
    ):
        network = _outlier_network(seed, size, outlier_length, outlier_capacity)
        system = majority(3)
        strategy = AccessStrategy.uniform(system)
        candidates = sorted({node % size for node in subset})
        if with_outlier or not candidates:
            candidates.append(size)
        rates = None
        if rated:
            rng = np.random.default_rng(seed + 1)
            rates = {node: float(rng.uniform(0.1, 5.0)) for node in network.nodes}
        result = solve_qpp(
            system,
            strategy,
            network=network,
            candidate_sources=candidates,
            rates=rates,
            scale=scale,
        )
        exact = solve_qpp_exact(system, strategy, network=network, rates=rates)
        assert result.optimum_lower_bound <= exact.objective * (1 + 1e-9)


class TestRates:
    def test_rate_weighted_objective_selected(self, rng):
        """With all the rate on one client, the solver should find a
        placement at least as good for that client as the uniform-rate
        solution."""
        network = uniform_capacities(random_geometric_network(7, 0.55, rng=rng), 1.0)
        system = majority(3)
        strategy = AccessStrategy.uniform(system)
        hot_client = network.nodes[3]
        rates = {hot_client: 100.0, **{v: 0.01 for v in network.nodes if v != hot_client}}
        weighted = solve_qpp(system, strategy, network, rates=rates)
        uniform = solve_qpp(system, strategy, network)
        weighted_objective = average_max_delay(weighted.placement, strategy, rates=rates)
        uniform_objective = average_max_delay(uniform.placement, strategy, rates=rates)
        assert weighted_objective <= uniform_objective + 1e-6


class TestAverageStrategy:
    def test_average_strategy_uniform_rates(self):
        system = majority(3)
        network = path_network(3)
        a = AccessStrategy.point_mass(system, 0)
        b = AccessStrategy.point_mass(system, 1)
        c = AccessStrategy.point_mass(system, 2)
        averaged = average_strategy({0: a, 1: b, 2: c}, network)
        assert averaged.probabilities == pytest.approx(np.full(3, 1 / 3))

    def test_average_strategy_rate_weighted(self):
        system = majority(3)
        network = path_network(2)
        a = AccessStrategy.point_mass(system, 0)
        b = AccessStrategy.point_mass(system, 1)
        averaged = average_strategy({0: a, 1: b}, network, rates={0: 3.0, 1: 1.0})
        assert averaged.probability(0) == pytest.approx(0.75)

    def test_missing_client_rejected(self):
        system = majority(3)
        network = path_network(3)
        with pytest.raises(ValidationError, match="missing"):
            average_strategy({0: AccessStrategy.uniform(system)}, network)


class TestCandidateDedupe:
    """Duplicate candidate sources must be solved once and reported once."""

    def test_duplicates_are_deduped(self, rng):
        network = uniform_capacities(random_geometric_network(6, 0.6, rng=rng), 1.0)
        system = majority(3)
        strategy = AccessStrategy.uniform(system)
        nodes = list(network.nodes)
        duplicated = [nodes[0], nodes[1], nodes[0], nodes[2], nodes[1], nodes[0]]
        result = solve_qpp(
            system, strategy, network, candidate_sources=duplicated
        )
        assert set(result.per_source) == {nodes[0], nodes[1], nodes[2]}
        assert len(result.per_source) == 3

    def test_duplicates_match_unique_sweep(self, rng):
        network = uniform_capacities(random_geometric_network(6, 0.6, rng=rng), 1.0)
        system = majority(3)
        strategy = AccessStrategy.uniform(system)
        nodes = list(network.nodes)
        unique = solve_qpp(
            system, strategy, network, candidate_sources=nodes[:3]
        )
        duplicated = solve_qpp(
            system, strategy, network, candidate_sources=nodes[:3] * 2
        )
        assert duplicated.average_delay == pytest.approx(unique.average_delay)
        assert duplicated.optimum_lower_bound == pytest.approx(
            unique.optimum_lower_bound
        )
        assert duplicated.source == unique.source

    def test_per_source_keys_equal_candidate_set(self, rng):
        """Diagnostics must cover exactly the (deduped) candidate set."""
        network = uniform_capacities(random_geometric_network(7, 0.6, rng=rng), 1.0)
        system = majority(3)
        strategy = AccessStrategy.uniform(system)
        full = solve_qpp(system, strategy, network)
        assert set(full.per_source) == set(network.nodes)
        restricted = solve_qpp(
            system,
            strategy,
            network,
            candidate_sources=list(network.nodes)[:4],
        )
        assert set(restricted.per_source) == set(list(network.nodes)[:4])
