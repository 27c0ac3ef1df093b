"""Equivalence layer: vectorized kernels vs the scalar paper oracles.

Every public evaluator in :mod:`repro.core.placement` dispatches to the
array kernels in :mod:`repro.core._kernels`; the scalar paper-literal
loops survive as ``*_reference``.  These property tests pin the two
implementations together to 1e-12 across random networks, quorum
systems, strategies and client rates, including zero-rate clients and
(for the raw kernels, which accept arbitrary matrices) ``inf``
disconnected-pair distances.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    average_max_delay,
    average_max_delay_reference,
    average_total_delay,
    average_total_delay_reference,
    capacity_violation_factor,
    capacity_violation_factor_reference,
    expected_max_delay,
    expected_max_delay_reference,
    expected_total_delay,
    expected_total_delay_reference,
    node_loads,
    node_loads_reference,
)
from repro.core._kernels import (
    capacity_factors,
    expected_max_delays,
    expected_total_delays,
    node_load_vector,
)
from repro.network import Network
from repro.quorums import AccessStrategy, QuorumSystem
from repro.quorums.strategy import quorum_member_matrix

from repro.core import Placement

RTOL = 1e-12


def _close(a: float, b: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= RTOL * max(1.0, abs(b))


# -- generators -----------------------------------------------------------------------


@st.composite
def networks(draw):
    """Connected random networks: a random tree plus extra random edges."""
    n = draw(st.integers(min_value=2, max_value=8))
    edges = []
    for node in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=node - 1))
        length = draw(st.floats(min_value=0.1, max_value=10.0, allow_nan=False))
        edges.append((parent, node, length))
    extra = draw(st.integers(min_value=0, max_value=n))
    for _ in range(extra):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u != v:
            length = draw(st.floats(min_value=0.1, max_value=10.0, allow_nan=False))
            edges.append((u, v, length))
    capacities = draw(
        st.one_of(
            st.none(),
            st.floats(min_value=0.5, max_value=5.0, allow_nan=False),
        )
    )
    network = Network(range(n), edges)
    return network if capacities is None else network.with_capacities(capacities)


@st.composite
def instances(draw):
    """(network, system, strategy, placement, rates) tuples.

    Quorums share an anchor element so the system is intersecting;
    strategy weights may zero out some quorums (support subset); rates
    may zero out some clients.
    """
    network = draw(networks())
    n_elements = draw(st.integers(min_value=2, max_value=5))
    anchor = 0
    quorums = []
    seen = set()
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        extra = draw(
            st.sets(
                st.integers(min_value=1, max_value=n_elements - 1),
                max_size=n_elements - 1,
            )
        )
        quorum = frozenset({anchor} | extra)
        if quorum not in seen:
            seen.add(quorum)
            quorums.append(quorum)
    system = QuorumSystem(quorums, universe=range(n_elements), check=False)
    weights = [
        draw(st.floats(min_value=0.0, max_value=10.0, allow_nan=False))
        for _ in quorums
    ]
    if sum(weights) <= 0:
        weights[draw(st.integers(min_value=0, max_value=len(quorums) - 1))] = 1.0
    strategy = AccessStrategy.from_weights(system, weights)
    mapping = {
        u: network.nodes[
            draw(st.integers(min_value=0, max_value=network.size - 1))
        ]
        for u in system.universe
    }
    placement = Placement(system, network, mapping)
    rates = None
    if draw(st.booleans()):
        rates = {
            v: draw(st.floats(min_value=0.0, max_value=5.0, allow_nan=False))
            for v in network.nodes
        }
        if sum(rates.values()) <= 0:
            rates[network.nodes[0]] = 1.0
    return network, system, strategy, placement, rates


# -- evaluator equivalence ------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(instances())
def test_expected_max_delay_matches_reference(case):
    network, _, strategy, placement, _ = case
    for client in network.nodes:
        vec = expected_max_delay(placement, strategy, client)
        ref = expected_max_delay_reference(placement, strategy, client)
        assert _close(vec, ref), (client, vec, ref)


@settings(max_examples=200, deadline=None)
@given(instances())
def test_average_max_delay_matches_reference(case):
    _, _, strategy, placement, rates = case
    vec = average_max_delay(placement, strategy, rates=rates)
    ref = average_max_delay_reference(placement, strategy, rates=rates)
    assert _close(vec, ref), (vec, ref)


@settings(max_examples=200, deadline=None)
@given(instances())
def test_expected_total_delay_matches_reference(case):
    network, _, strategy, placement, _ = case
    for client in network.nodes:
        vec = expected_total_delay(placement, strategy, client)
        ref = expected_total_delay_reference(placement, strategy, client)
        assert _close(vec, ref), (client, vec, ref)


@settings(max_examples=200, deadline=None)
@given(instances())
def test_average_total_delay_matches_reference(case):
    _, _, strategy, placement, rates = case
    vec = average_total_delay(placement, strategy, rates=rates)
    ref = average_total_delay_reference(placement, strategy, rates=rates)
    assert _close(vec, ref), (vec, ref)


@settings(max_examples=200, deadline=None)
@given(instances())
def test_node_loads_match_reference(case):
    network, _, strategy, placement, _ = case
    vec = node_loads(placement, strategy)
    ref = node_loads_reference(placement, strategy)
    assert set(vec) == set(network.nodes)
    for node in network.nodes:
        assert _close(vec[node], ref.get(node, 0.0)), node


@settings(max_examples=200, deadline=None)
@given(instances())
def test_capacity_violation_factor_matches_reference(case):
    _, _, strategy, placement, _ = case
    vec = capacity_violation_factor(placement, strategy)
    ref = capacity_violation_factor_reference(placement, strategy)
    assert _close(vec, ref), (vec, ref)


# -- raw-kernel edge cases: inf distances, zero loads ---------------------------------


@st.composite
def raw_max_delay_cases(draw):
    """Raw (matrix, image, members, probabilities) with optional inf."""
    clients = draw(st.integers(min_value=1, max_value=5))
    n = draw(st.integers(min_value=2, max_value=6))
    matrix = np.array(
        [
            [
                draw(
                    st.one_of(
                        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
                        st.just(float("inf")),
                    )
                )
                for _ in range(n)
            ]
            for _ in range(clients)
        ]
    )
    universe = draw(st.integers(min_value=1, max_value=4))
    image = np.array(
        [draw(st.integers(min_value=0, max_value=n - 1)) for _ in range(universe)],
        dtype=np.intp,
    )
    s = draw(st.integers(min_value=1, max_value=3))
    width = draw(st.integers(min_value=1, max_value=universe))
    members = np.array(
        [
            [
                draw(st.integers(min_value=0, max_value=universe - 1))
                for _ in range(width)
            ]
            for _ in range(s)
        ],
        dtype=np.intp,
    )
    probabilities = np.array(
        [draw(st.floats(min_value=0.01, max_value=1.0, allow_nan=False)) for _ in range(s)]
    )
    return matrix, image, members, probabilities


@settings(max_examples=200, deadline=None)
@given(raw_max_delay_cases())
def test_expected_max_delays_kernel_vs_loop_with_inf(case):
    matrix, image, members, probabilities = case
    result = expected_max_delays(matrix, image, members, probabilities)
    for v in range(matrix.shape[0]):
        expected = 0.0
        for row, p in zip(members, probabilities):
            expected += p * max(matrix[v, image[u]] for u in row)
        assert _close(float(result[v]), float(expected)), v


@settings(max_examples=200, deadline=None)
@given(raw_max_delay_cases())
def test_expected_total_delays_kernel_vs_loop_with_inf(case):
    matrix, image, _, _ = case
    universe = image.shape[0]
    # Strictly positive loads: inf * 0 is nan in both implementations, so
    # the zero-load story is covered separately on finite matrices.
    loads = np.linspace(0.5, 1.5, universe)
    result = expected_total_delays(matrix, image, loads)
    for v in range(matrix.shape[0]):
        expected = sum(loads[j] * matrix[v, image[j]] for j in range(universe))
        assert _close(float(result[v]), float(expected)), v


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=7),
            st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
        ),
        min_size=0,
        max_size=10,
    )
)
def test_node_load_vector_kernel_vs_loop_with_zero_loads(pairs):
    size = 8
    image = np.array([i for i, _ in pairs], dtype=np.intp)
    loads = np.array([w for _, w in pairs])
    result = node_load_vector(image, loads, size)
    expected = [0.0] * size
    for i, w in pairs:
        expected[i] += w
    assert result.shape == (size,)
    for v in range(size):
        assert _close(float(result[v]), expected[v]), v


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
            st.one_of(
                st.just(0.0),
                st.just(float("inf")),
                st.floats(min_value=0.1, max_value=5.0, allow_nan=False),
            ),
        ),
        min_size=1,
        max_size=10,
    )
)
def test_capacity_factors_kernel_vs_loop(pairs):
    loads = np.array([l for l, _ in pairs])
    caps = np.array([c for _, c in pairs])
    result = capacity_factors(loads, caps)
    for v, (load, cap) in enumerate(pairs):
        if load <= 0:
            expected = 0.0
        elif cap == 0:
            expected = float("inf")
        elif math.isinf(cap):
            expected = 0.0
        else:
            expected = load / cap
        assert _close(float(result[v]), expected), v


# -- structural checks ----------------------------------------------------------------


def test_quorum_member_matrix_padding_repeats_real_member():
    system = QuorumSystem([frozenset({0, 1, 2}), frozenset({0, 3})], universe=range(4))
    members = quorum_member_matrix(system, [0, 1])
    assert members.shape == (2, 3)
    assert sorted(set(members[0])) == [0, 1, 2]
    # The short row is padded with its own first member, never a stranger.
    assert set(members[1]) == {0, 3}


def test_quorum_member_matrix_rejects_bad_index():
    system = QuorumSystem([frozenset({0, 1}), frozenset({0, 2})], universe=range(3))
    with pytest.raises(Exception):
        quorum_member_matrix(system, [5])
