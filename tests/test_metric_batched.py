"""The batched all-pairs Dijkstra and the Metric dense-matrix cache.

Cross-checks :func:`repro.network.dijkstra_batched` against the scalar
per-source :func:`repro.network.dijkstra` and against networkx, pins the
``inf``-for-unreachable convention of both paths to each other, and
asserts the dense matrix is materialized at most once per network (the
``metric_cache_info`` counters).
"""

import math

import numpy as np
import pytest

from repro.core import average_max_delay, make_placement
from repro.exceptions import ValidationError
from repro.network import (
    Network,
    dijkstra,
    dijkstra_batched,
    metric_cache_clear,
    metric_cache_info,
    random_geometric_network,
    grid_network,
)
from repro.quorums import AccessStrategy, majority


def _adjacency(network: Network) -> dict:
    return {
        u: {v: network.edge_length(u, v) for v in network.neighbors(u)}
        for u in network.nodes
    }


@pytest.fixture
def geometric(rng):
    return random_geometric_network(20, 0.4, rng=rng)


class TestBatchedAgainstScalar:
    def test_all_pairs_match_per_source_dijkstra(self, geometric):
        adjacency = _adjacency(geometric)
        matrix = dijkstra_batched(adjacency)
        nodes = list(geometric.nodes)
        assert matrix.shape == (len(nodes), len(nodes))
        for i, source in enumerate(nodes):
            scalar = dijkstra(adjacency, source)
            for j, target in enumerate(nodes):
                assert matrix[i, j] == pytest.approx(scalar[target], abs=1e-9)

    def test_subset_of_sources(self, geometric):
        adjacency = _adjacency(geometric)
        full = dijkstra_batched(adjacency)
        nodes = list(geometric.nodes)
        sources = [nodes[3], nodes[7]]
        partial = dijkstra_batched(adjacency, sources)
        assert partial.shape == (2, len(nodes))
        assert np.allclose(partial[0], full[3])
        assert np.allclose(partial[1], full[7])

    def test_single_source_stays_2d(self, geometric):
        adjacency = _adjacency(geometric)
        row = dijkstra_batched(adjacency, [geometric.nodes[0]])
        assert row.ndim == 2 and row.shape[0] == 1

    def test_matches_networkx(self, geometric):
        networkx = pytest.importorskip("networkx")
        graph = networkx.Graph()
        for u, v, length in geometric.edges():
            graph.add_edge(u, v, weight=length)
        matrix = dijkstra_batched(_adjacency(geometric))
        nodes = list(geometric.nodes)
        for i, source in enumerate(nodes):
            lengths = networkx.single_source_dijkstra_path_length(
                graph, source, weight="weight"
            )
            for j, target in enumerate(nodes):
                assert matrix[i, j] == pytest.approx(lengths[target], abs=1e-9)


class TestUnreachable:
    """Two components: batched says ``inf`` exactly where the scalar
    path omits the node — the same pairs, consistently."""

    ADJACENCY = {
        0: {1: 1.0},
        1: {0: 1.0},
        2: {3: 2.0},
        3: {2: 2.0},
    }

    def test_inf_matches_scalar_omission(self):
        matrix = dijkstra_batched(self.ADJACENCY)
        nodes = list(self.ADJACENCY)
        for i, source in enumerate(nodes):
            scalar = dijkstra(self.ADJACENCY, source)
            for j, target in enumerate(nodes):
                if target in scalar:
                    assert matrix[i, j] == pytest.approx(scalar[target])
                else:
                    assert math.isinf(matrix[i, j])

    def test_cross_component_pairs_are_inf(self):
        matrix = dijkstra_batched(self.ADJACENCY)
        assert math.isinf(matrix[0, 2]) and math.isinf(matrix[2, 0])
        assert matrix[0, 1] == pytest.approx(1.0)
        assert matrix[2, 3] == pytest.approx(2.0)

    def test_metric_from_network_still_rejects_disconnected(self):
        network = Network([0, 1, 2, 3], [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(ValidationError, match="disconnected"):
            network.metric()


class TestValidation:
    def test_unknown_source_rejected(self):
        with pytest.raises(ValidationError, match="^source 'nope' is not in the graph$"):
            dijkstra_batched({0: {1: 1.0}, 1: {0: 1.0}}, ["nope"])

    def test_unknown_neighbor_rejected(self):
        with pytest.raises(
            ValidationError, match="^adjacency of 0 references unknown node 99$"
        ):
            dijkstra_batched({0: {99: 1.0}})


class TestDenseMatrixCache:
    def test_matrix_computed_at_most_once(self):
        network = grid_network(4, 4)
        info = network.metric_cache_info()
        assert info.builds == 0 and info.hits == 0
        first = network.metric()
        assert network.metric_cache_info().builds == 1
        second = network.metric()
        assert second is first
        info = network.metric_cache_info()
        assert info.builds == 1
        assert info.hits >= 1

    def test_evaluators_share_one_build(self, rng):
        network = random_geometric_network(10, 0.6, rng=rng)
        system = majority(3)
        strategy = AccessStrategy.uniform(system)
        placement = make_placement(system, network, list(network.nodes)[:3])
        average_max_delay(placement, strategy)
        average_max_delay(placement, strategy)
        info = network.metric_cache_info()
        assert info.builds == 1
        assert info.hits >= 1

    def test_aggregate_counters_start_at_zero_and_track_builds(self):
        # The autouse conftest fixture cleared the process-wide totals.
        info = metric_cache_info()
        assert info.builds == 0 and info.hits == 0
        network = grid_network(3, 3)
        network.metric()
        network.metric()
        info = metric_cache_info()
        assert info.builds == 1
        assert info.hits == 1
        metric_cache_clear()
        cleared = metric_cache_info()
        assert cleared.builds == 0 and cleared.hits == 0
        # Instance counters are independent of the aggregate reset.
        assert network.metric_cache_info().builds == 1

    def test_instance_cache_clear_forces_a_rebuild(self):
        network = grid_network(3, 3)
        first = network.metric()
        network.metric_cache_clear()
        cleared = network.metric_cache_info()
        assert cleared.builds == 0 and cleared.hits == 0
        second = network.metric()
        assert second is not first
        assert network.metric_cache_info().builds == 1
        np.testing.assert_allclose(second.matrix, first.matrix)

    def test_metric_matrix_matches_batched(self, geometric):
        metric = geometric.metric()
        matrix = dijkstra_batched(_adjacency(geometric))
        assert np.allclose(metric.matrix, matrix)
