"""Unit tests for AccessStrategy (distributions, loads, mixtures)."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.quorums import AccessStrategy, QuorumSystem, grid, majority


@pytest.fixture
def pair_system():
    return QuorumSystem([{1, 2}, {2, 3}], name="pair")


class TestConstruction:
    def test_uniform(self, pair_system):
        p = AccessStrategy.uniform(pair_system)
        assert p.probability(0) == pytest.approx(0.5)
        assert p.probability(1) == pytest.approx(0.5)

    def test_explicit_probabilities_validated(self, pair_system):
        with pytest.raises(ValidationError, match="sum to 1"):
            AccessStrategy(pair_system, [0.5, 0.4])
        with pytest.raises(ValidationError, match="non-negative"):
            AccessStrategy(pair_system, [1.5, -0.5])
        with pytest.raises(ValidationError, match="probabilities"):
            AccessStrategy(pair_system, [1.0])

    def test_from_weights_dense(self, pair_system):
        p = AccessStrategy.from_weights(pair_system, [1, 3])
        assert p.probability(1) == pytest.approx(0.75)

    def test_from_weights_sparse_mapping(self, pair_system):
        p = AccessStrategy.from_weights(pair_system, {1: 2.0})
        assert p.probability(0) == 0.0
        assert p.probability(1) == pytest.approx(1.0)

    def test_from_weights_rejects_all_zero(self, pair_system):
        with pytest.raises(ValidationError, match="positive"):
            AccessStrategy.from_weights(pair_system, [0, 0])

    def test_from_weights_rejects_bad_index(self, pair_system):
        with pytest.raises(ValidationError, match="out of range"):
            AccessStrategy.from_weights(pair_system, {7: 1.0})

    def test_point_mass(self, pair_system):
        p = AccessStrategy.point_mass(pair_system, 0)
        assert p.support() == (0,)
        with pytest.raises(ValidationError):
            AccessStrategy.point_mass(pair_system, 5)


class TestLoads:
    def test_loads_match_definition(self, pair_system):
        p = AccessStrategy.uniform(pair_system)
        assert p.load(1) == pytest.approx(0.5)
        assert p.load(2) == pytest.approx(1.0)  # element in both quorums
        assert p.load(3) == pytest.approx(0.5)

    def test_max_and_total_load(self, pair_system):
        p = AccessStrategy.uniform(pair_system)
        assert p.max_load() == pytest.approx(1.0)
        assert p.total_load() == pytest.approx(2.0)

    def test_total_load_equals_expected_quorum_size(self):
        system = grid(3)
        p = AccessStrategy.uniform(system)
        assert p.total_load() == pytest.approx(p.expected_quorum_size())
        # Grid quorums all have 2k - 1 = 5 elements.
        assert p.expected_quorum_size() == pytest.approx(5.0)

    def test_grid_uniform_load_closed_form(self):
        k = 4
        p = AccessStrategy.uniform(grid(k))
        expected = (2 * k - 1) / k**2
        for element in p.system.universe:
            assert p.load(element) == pytest.approx(expected)

    def test_majority_uniform_load_closed_form(self):
        n = 7
        p = AccessStrategy.uniform(majority(n))
        t = n // 2 + 1
        for element in p.system.universe:
            assert p.load(element) == pytest.approx(t / n)

    def test_loads_dict_aligned_with_universe(self, pair_system):
        p = AccessStrategy.uniform(pair_system)
        loads = p.loads()
        assert set(loads) == set(pair_system.universe)
        array = p.load_array()
        for i, u in enumerate(pair_system.universe):
            assert loads[u] == pytest.approx(array[i])

    def test_unknown_element_load_raises(self, pair_system):
        p = AccessStrategy.uniform(pair_system)
        with pytest.raises(ValidationError):
            p.load(99)


class TestMixture:
    def test_mixture_averages_probabilities(self, pair_system):
        a = AccessStrategy.point_mass(pair_system, 0)
        b = AccessStrategy.point_mass(pair_system, 1)
        mixed = AccessStrategy.mixture([a, b], [1.0, 3.0])
        assert mixed.probability(0) == pytest.approx(0.25)
        assert mixed.probability(1) == pytest.approx(0.75)

    def test_mixture_requires_same_system(self, pair_system):
        other = QuorumSystem([{1, 2}], name="other")
        a = AccessStrategy.uniform(pair_system)
        b = AccessStrategy.uniform(other)
        with pytest.raises(ValidationError, match="share one system"):
            AccessStrategy.mixture([a, b], [1, 1])

    def test_mixture_rejects_an_equal_system_in_another_quorum_order(self, pair_system):
        # Probabilities add by position, so {1,2} and {2,3} would be mixed up.
        reordered = QuorumSystem([{2, 3}, {1, 2}])
        assert reordered == pair_system
        a = AccessStrategy.point_mass(pair_system, 0)
        b = AccessStrategy.point_mass(reordered, 0)
        with pytest.raises(ValidationError, match="same order"):
            AccessStrategy.mixture([a, b], [1, 1])
        assert not a.allclose(b)

    def test_mixture_weight_validation(self, pair_system):
        a = AccessStrategy.uniform(pair_system)
        with pytest.raises(ValidationError):
            AccessStrategy.mixture([a], [0.0])
        with pytest.raises(ValidationError):
            AccessStrategy.mixture([a, a], [1.0])
        with pytest.raises(ValidationError):
            AccessStrategy.mixture([], [])


class TestSampling:
    def test_sampling_matches_distribution(self, pair_system):
        p = AccessStrategy.from_weights(pair_system, [1, 4])
        rng = np.random.default_rng(0)
        samples = p.sample(rng, size=20_000)
        frequency = np.mean(samples == 1)
        assert frequency == pytest.approx(0.8, abs=0.02)

    def test_single_sample_is_int(self, pair_system):
        p = AccessStrategy.uniform(pair_system)
        value = p.sample(np.random.default_rng(1))
        assert isinstance(value, int)
        assert value in (0, 1)


class TestComparison:
    def test_allclose(self, pair_system):
        a = AccessStrategy.uniform(pair_system)
        b = AccessStrategy.from_weights(pair_system, [1.0, 1.0])
        assert a.allclose(b)
        c = AccessStrategy.from_weights(pair_system, [1.0, 2.0])
        assert not a.allclose(c)

    def test_probabilities_read_only(self, pair_system):
        p = AccessStrategy.uniform(pair_system)
        with pytest.raises(ValueError):
            p.probabilities[0] = 0.9
