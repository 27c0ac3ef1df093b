"""The compiled CSR graph behind every batched Dijkstra.

:func:`repro.network.metric.compile_graph` builds scipy's CSR arrays
straight from a ``{u: {v: length}}`` adjacency in one pass.  The
reference below is the list/COO construction it replaced: one
``(row, col, length)`` triple per entry, handed to ``csr_matrix``.  The
two must agree byte for byte, dtypes included, or lazy rows, dense
matrices and every placement built on them could drift.
"""

from __future__ import annotations

import re

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as scipy_dijkstra

from repro.exceptions import ValidationError
from repro.network import LazyMetric, Network, dijkstra_batched, random_geometric_network
from repro.network.metric import CompiledGraph, compile_graph
from repro.obs.trace import collect


def _reference_csr(adjacency):
    """The list/COO construction: one triple per adjacency entry."""
    nodes = list(adjacency)
    index = {v: i for i, v in enumerate(nodes)}
    rows, cols, data = [], [], []
    for u, neighbors in adjacency.items():
        for v, length in neighbors.items():
            rows.append(index[u])
            cols.append(index[v])
            data.append(float(length))
    return csr_matrix((data, (rows, cols)), shape=(len(nodes), len(nodes)))


def _dict_adjacency(network: Network) -> dict:
    return {
        u: {v: network.edge_length(u, v) for v in network.neighbors(u)}
        for u in network.nodes
    }


def _assert_same_arrays(actual, expected):
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def _assert_matches_reference(adjacency):
    compiled = compile_graph(adjacency)
    reference = _reference_csr(adjacency)
    assert compiled.nodes == tuple(adjacency)
    assert dict(compiled.index) == {v: i for i, v in enumerate(adjacency)}
    _assert_same_arrays(compiled.indptr, reference.indptr)
    _assert_same_arrays(compiled.indices, reference.indices)
    _assert_same_arrays(compiled.data, reference.data)
    return compiled


class TestCompiledArraysMatchCoo:
    @pytest.mark.parametrize(
        ("n", "radius", "seed"),
        [(2, 0.9, 0), (25, 0.4, 1), (60, 0.3, 2), (300, 0.12, 3), (1200, 0.06, 4)],
    )
    def test_seeded_geometric_networks(self, n, radius, seed):
        network = random_geometric_network(n, radius, rng=np.random.default_rng(seed))
        _assert_matches_reference(network.adjacency)
        _assert_matches_reference(_dict_adjacency(network))

    def test_disconnected_network_with_an_isolated_node(self):
        network = Network(
            range(7), [(0, 1, 1.5), (1, 2, 0.5), (4, 5, 2.0), (5, 6, 1.0), (4, 6, 2.5)]
        )
        compiled = _assert_matches_reference(network.adjacency)
        isolated = compiled.index[3]
        assert compiled.indptr[isolated] == compiled.indptr[isolated + 1]

    def test_string_node_labels(self):
        # Insertion order differs from sorted order, so columns must be
        # sorted by index, not by label.
        network = Network(
            ["delta", "alpha", "charlie", "bravo"],
            [("delta", "bravo", 3.0), ("alpha", "delta", 1.0), ("charlie", "alpha", 2.0),
             ("bravo", "charlie", 0.25)],
        )
        _assert_matches_reference(network.adjacency)

    def test_integer_edge_lengths(self):
        adjacency = {0: {2: 3, 1: 1}, 1: {0: 1, 2: 1}, 2: {1: 1, 0: 3}}
        compiled = _assert_matches_reference(adjacency)
        assert compiled.data.dtype == np.float64

    def test_network_adjacency_is_read_only(self):
        network = Network([0, 1], [(0, 1, 2.0)])
        with pytest.raises(TypeError):
            network.adjacency[0] = {}
        with pytest.raises(TypeError):
            network.adjacency[0][1] = 5.0
        assert network.edge_length(0, 1) == 2.0


class TestRowsOverTheCompiledGraph:
    def test_lazy_rows_match_batched_dijkstra_over_the_dict(self):
        network = random_geometric_network(2000, 0.05, rng=np.random.default_rng(7))
        adjacency = _dict_adjacency(network)
        sources = [network.nodes[i] for i in np.linspace(0, 1999, num=20).round().astype(int)]
        lazy = LazyMetric(network)
        expected = dijkstra_batched(adjacency, sources)
        reference = scipy_dijkstra(
            _reference_csr(adjacency),
            directed=True,
            indices=[network.node_index(v) for v in sources],
        )
        _assert_same_arrays(expected, reference)
        for offset, source in enumerate(sources):
            _assert_same_arrays(lazy.distances_from(source), expected[offset])

    def test_compiled_and_mapping_inputs_agree(self):
        network = random_geometric_network(40, 0.35, rng=np.random.default_rng(11))
        compiled = compile_graph(network.adjacency)
        assert isinstance(compiled, CompiledGraph)
        sources = list(network.nodes[::7])
        _assert_same_arrays(
            dijkstra_batched(compiled, sources), dijkstra_batched(network.adjacency, sources)
        )
        _assert_same_arrays(dijkstra_batched(compiled), network.metric().matrix)


class TestValidationMessages:
    def test_unknown_source_on_a_compiled_graph(self):
        compiled = compile_graph({0: {1: 1.0}, 1: {0: 1.0}})
        with pytest.raises(ValidationError, match="^source 7 is not in the graph$"):
            dijkstra_batched(compiled, [7])

    def test_no_sources(self):
        with pytest.raises(ValidationError, match="^at least one source is required$"):
            dijkstra_batched({0: {1: 1.0}, 1: {0: 1.0}}, [])

    def test_unknown_neighbour_names_the_first_offending_entry(self):
        adjacency = {0: {1: 1.0}, 1: {0: 1.0, "x": 2.0}, 2: {99: 1.0}}
        message = "adjacency of 1 references unknown node 'x'"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            compile_graph(adjacency)
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            dijkstra_batched(adjacency)

    def test_empty_adjacency(self):
        message = "adjacency must contain at least one node"
        with pytest.raises(ValidationError, match=f"^{message}$"):
            compile_graph({})
        with pytest.raises(ValidationError, match=f"^{message}$"):
            dijkstra_batched({})


def _spans(collector, name):
    return [
        node for root in collector.roots for node in root.iter_spans() if node.name == name
    ]


class TestCompileSpans:
    def test_one_compile_per_view_and_one_dijkstra_per_miss_batch(self):
        network = random_geometric_network(30, 0.4, rng=np.random.default_rng(5))
        nodes = network.nodes
        with collect() as collector:
            lazy = network.lazy_metric()
            lazy.distances_from(nodes[0])
            lazy.distance(nodes[3], nodes[0])
            lazy.submatrix([nodes[0], nodes[5], nodes[6]])
            lazy.row_block(10, 12)
            lazy.distances_from(nodes[5])  # a hit: no Dijkstra
        assert lazy.cache_info().misses == 6
        (compile_span,) = _spans(collector, "metric.compile")
        assert compile_span.attributes == {"nodes": 30, "edges": 2 * network.edge_count}
        (init,) = _spans(collector, "metric.lazy_init")
        assert compile_span in init.children
        assert [span.attributes["sources"] for span in _spans(collector, "metric.dijkstra")] == [
            1, 1, 2, 2,
        ]

        network.metric_cache_clear()
        with collect() as collector:
            network.lazy_metric().distances_from(nodes[0])
        assert len(_spans(collector, "metric.compile")) == 1
        assert len(_spans(collector, "metric.dijkstra")) == 1

    def test_dense_build_compiles_once(self):
        network = random_geometric_network(12, 0.6, rng=np.random.default_rng(6))
        with collect() as collector:
            network.metric()
            network.metric()
        assert len(_spans(collector, "metric.compile")) == 1
        assert len(_spans(collector, "metric.dijkstra")) == 1
