"""Placements and the paper's delay/load evaluators.

A *placement* is a map ``f : U -> V`` from the logical universe of a
quorum system onto the physical nodes of a network.  This module defines
the :class:`Placement` value type and the quantities of Section 1.2:

* max-delay access cost        ``delta_f(v, Q) = max_{u in Q} d(v, f(u))``   (1)
* expected max-delay           ``Delta_f(v) = sum_Q p(Q) delta_f(v, Q)``      (2)
* average max-delay            ``Avg_v Delta_f(v)`` (optionally rate-weighted)
* total-delay access cost      ``gamma_f(v, Q) = sum_{u in Q} d(v, f(u))``
* expected total delay         ``Gamma_f(v) = sum_Q p(Q) gamma_f(v, Q)``
* node load                    ``load_f(v) = sum_{u: f(u)=v} load(u)``

All evaluators are exact (no sampling).  The public functions are thin
wrappers over the array kernels in :mod:`repro.core._kernels`, which
evaluate every client at once against the network's cached distance
matrix.  The scalar, paper-faithful implementations are retained as the
``*_reference`` oracles; ``tests/test_kernels_equivalence.py`` proves
the two paths agree to 1e-12.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import TYPE_CHECKING

import numpy as np

from .._validation import check_integer_in_range, require
from ..exceptions import ValidationError
from ..network.graph import Network, Node
from ..quorums.base import Element, QuorumSystem
from ..quorums.strategy import AccessStrategy
from ._kernels import (
    expected_max_delays,
    expected_total_delays,
    max_capacity_factor,
    node_load_vector,
)

if TYPE_CHECKING:
    from ..network.lazymetric import LandmarkOracle, MetricView

#: Rows per streamed kernel call when a placement is evaluated against a
#: metric without a ``matrix`` attribute (e.g. ``LazyMetric``).  Chosen
#: so a block of a 10^5-node metric stays around 400 MB of transient
#: float64 — never the full ``n x n`` matrix.
_EVAL_BLOCK_ROWS = 512

__all__ = [
    "Placement",
    "max_delay",
    "expected_max_delay",
    "expected_max_delay_reference",
    "average_max_delay",
    "average_max_delay_bounds",
    "per_client_expected_max_delay",
    "average_max_delay_reference",
    "average_max_delay_via_sources",
    "total_delay_cost",
    "expected_total_delay",
    "expected_total_delay_reference",
    "average_total_delay",
    "average_total_delay_reference",
    "node_loads",
    "node_loads_reference",
    "capacity_violation_factor",
    "capacity_violation_factor_reference",
    "is_capacity_respecting",
]


class Placement:
    """An immutable map from universe elements to network nodes.

    Parameters
    ----------
    system:
        The quorum system whose universe is being placed.
    network:
        The target network; every image node must belong to it.
    mapping:
        ``{element: node}`` covering the entire universe.  The map need
        not be injective — co-locating elements is exactly how placements
        trade delay for load.

    Examples
    --------
    >>> from repro.quorums import majority
    >>> from repro.network import path_network
    >>> qs = majority(3)
    >>> net = path_network(4)
    >>> f = Placement(qs, net, {0: 0, 1: 0, 2: 1})
    >>> f[2]
    1
    """

    __slots__ = ("_system", "_network", "_mapping", "_node_indices")

    def __init__(
        self,
        system: QuorumSystem,
        network: Network,
        mapping: Mapping[Element, Node],
    ) -> None:
        require(isinstance(system, QuorumSystem), "system must be a QuorumSystem")
        require(isinstance(network, Network), "network must be a Network")
        missing = [u for u in system.universe if u not in mapping]
        if missing:
            raise ValidationError(
                f"placement is missing universe elements {missing[:5]!r}"
            )
        cleaned: dict[Element, Node] = {}
        for element in system.universe:
            node = mapping[element]
            if not network.has_node(node):
                raise ValidationError(
                    f"placement sends {element!r} to unknown node {node!r}"
                )
            cleaned[element] = node
        self._system = system
        self._network = network
        self._mapping = cleaned
        # Node index of f(u) for each u, aligned with system.universe order.
        self._node_indices = np.array(
            [network.node_index(cleaned[u]) for u in system.universe], dtype=int
        )

    # -- accessors -----------------------------------------------------------------

    @property
    def system(self) -> QuorumSystem:
        return self._system

    @property
    def network(self) -> Network:
        return self._network

    def __getitem__(self, element: Element) -> Node:
        try:
            return self._mapping[element]
        except KeyError:
            raise ValidationError(f"{element!r} is not in the universe") from None

    def as_dict(self) -> dict[Element, Node]:
        return dict(self._mapping)

    def image_node_indices(self) -> np.ndarray:
        """Node index of ``f(u)`` per universe element, in universe order."""
        return self._node_indices

    def quorum_node_indices(self, quorum_index: int) -> np.ndarray:
        """Indices of the (distinct) nodes hosting quorum *quorum_index*."""
        quorum = self._system.quorums[quorum_index]
        indices = {self._network.node_index(self._mapping[u]) for u in quorum}
        return np.fromiter(indices, dtype=int, count=len(indices))

    def __repr__(self) -> str:
        distinct = len(set(self._mapping.values()))
        return (
            f"Placement({self._system.name!r} -> {self._network.name!r}, "
            f"{self._system.universe_size} elements on {distinct} nodes)"
        )


def _client_weights(network: Network, rates: Mapping[Node, float] | None) -> np.ndarray:
    """Normalized client weights: uniform, or proportional to access rates.

    The paper's §6 remarks that all results survive non-uniform client
    access rates; operationally that means averaging client delays with
    weights proportional to the rates.
    """
    n = network.size
    if rates is None:
        return np.full(n, 1.0 / n)
    weights = np.zeros(n)
    for node, rate in rates.items():
        value = float(rate)
        if value < 0:
            raise ValidationError(f"access rate of {node!r} must be non-negative")
        weights[network.node_index(node)] = value
    total = weights.sum()
    if total <= 0:
        raise ValidationError("at least one client access rate must be positive")
    return weights / total


# -- max-delay quantities ------------------------------------------------------------


def _support_arrays(strategy: AccessStrategy) -> tuple[np.ndarray, np.ndarray]:
    """The strategy's cached support rows
    (:meth:`~repro.quorums.strategy.AccessStrategy.support_rows`), the
    inputs :func:`repro.core._kernels.expected_max_delays` consumes.
    Callers check the placement's system first (:func:`_check_strategy`),
    so the rows index it too.

    contract: return[0]: shape (s, L), dtype int
    contract: return[1]: shape (s,), dtype float, simplex
    """
    return strategy.support_rows()


def max_delay(placement: Placement, client: Node, quorum_index: int) -> float:
    """``delta_f(v, Q)``: distance from *client* to the farthest member of
    the placed quorum (equation (1))."""
    check_integer_in_range(
        quorum_index, "quorum_index", low=0, high=len(placement.system) - 1
    )
    metric = placement.network.metric()
    row = metric.distances_from(client)
    return float(row[placement.quorum_node_indices(quorum_index)].max())


def expected_max_delay(
    placement: Placement,
    strategy: AccessStrategy,
    client: Node,
    *,
    metric: "MetricView | None" = None,
) -> float:
    """``Delta_f(v)``: expected max-delay for *client* under *strategy*
    (equation (2)).  Dispatches to the array kernel on the client's
    distance row.

    Any :class:`~repro.network.lazymetric.MetricView` may be supplied as
    *metric* (defaulting to the network's cached dense metric); a
    :class:`~repro.network.lazymetric.LazyMetric` pulls exactly one
    distance row instead of forcing the ``n x n`` build.
    """
    _check_strategy(placement, strategy)
    if metric is None:
        metric = placement.network.metric()
    row = metric.distances_from(client)[np.newaxis, :]
    members, probabilities = _support_arrays(strategy)
    return float(
        expected_max_delays(
            row, placement.image_node_indices(), members, probabilities
        )[0]
    )


def expected_max_delay_reference(
    placement: Placement,
    strategy: AccessStrategy,
    client: Node,
    *,
    metric: "MetricView | None" = None,
) -> float:
    """Scalar oracle for :func:`expected_max_delay`: the paper-literal
    loop over supported quorums and their members, one ``d(v, f(u))``
    lookup at a time.  Kept as the equivalence/bench baseline."""
    _check_strategy(placement, strategy)
    distance = (
        placement.network.distance if metric is None else metric.distance
    )
    total = 0.0
    for index in strategy.support():
        worst = 0.0
        for u in placement.system.quorums[index]:
            worst = max(worst, distance(client, placement[u]))
        total += strategy.probability(index) * worst
    return total


def _per_client_expected_max_delay(
    placement: Placement,
    strategy: AccessStrategy,
    *,
    metric: "MetricView | None" = None,
) -> np.ndarray:
    """``Delta_f(v)`` for every client ``v``.

    A metric exposing ``matrix`` (the dense :class:`Metric`) is handed
    to the kernel whole, exactly as before.  Any other
    :class:`~repro.network.lazymetric.MetricView` is streamed through
    the kernel in row blocks of ``_EVAL_BLOCK_ROWS`` clients, so peak
    memory stays proportional to the block — the per-client values are
    identical because the kernel treats clients independently.
    """
    _check_strategy(placement, strategy)
    if metric is None:
        metric = placement.network.metric()
    members, probabilities = _support_arrays(strategy)
    image = placement.image_node_indices()
    matrix = getattr(metric, "matrix", None)
    if matrix is not None:
        return expected_max_delays(matrix, image, members, probabilities)
    n = metric.size
    per_client = np.empty(n, dtype=float)
    for start in range(0, n, _EVAL_BLOCK_ROWS):
        stop = min(start + _EVAL_BLOCK_ROWS, n)
        per_client[start:stop] = expected_max_delays(
            metric.row_block(start, stop), image, members, probabilities
        )
    return per_client


def per_client_expected_max_delay(
    placement: Placement,
    strategy: AccessStrategy,
    *,
    metric: "MetricView | None" = None,
) -> np.ndarray:
    """The full ``Delta_f(v)`` vector, one entry per client index.

    This is the vectorized evaluator behind :func:`average_max_delay`,
    exposed because the vector itself is reusable: it depends only on
    the placement and strategy, *not* on the client access rates, so a
    consumer holding it can re-weigh the objective under any demand
    distribution with a single dot product.  The serving layer
    (:mod:`repro.serve`) caches exactly this vector per published
    snapshot — a delay query becomes one array lookup and the drift
    bound one dot product.  Callers must treat the returned array as
    read-only.
    """
    return _per_client_expected_max_delay(placement, strategy, metric=metric)


def average_max_delay(
    placement: Placement,
    strategy: AccessStrategy,
    *,
    rates: Mapping[Node, float] | None = None,
    metric: "MetricView | None" = None,
) -> float:
    """``Avg_v Delta_f(v)`` — the objective of the Quorum Placement
    Problem (Problem 1.1), optionally weighted by client access rates."""
    per_client = _per_client_expected_max_delay(placement, strategy, metric=metric)
    weights = _client_weights(placement.network, rates)
    return float(per_client @ weights)


def average_max_delay_via_sources(
    placement: Placement,
    strategy: AccessStrategy,
    metric: "MetricView",
    *,
    rates: Mapping[Node, float] | None = None,
) -> float:
    """:func:`average_max_delay` using ``O(|image|)`` metric rows.

    Exploits metric symmetry: ``d(v, f(u)) = d(f(u), v)``, so the
    distance *columns* of the image nodes are the image nodes' *rows* —
    for a lazy metric that means a handful of row pulls instead of all
    ``n``.  The price is bitwise identity: computed shortest-path
    matrices are symmetric only to ~1e-9 (summation order differs along
    reversed paths), so the result can differ from
    :func:`average_max_delay` in the last ulp.  The large-scale QPP
    sweep uses this consistently for every candidate, so its *relative*
    comparisons are unaffected.
    """
    _check_strategy(placement, strategy)
    members, probabilities = _support_arrays(strategy)
    image = placement.image_node_indices()
    unique, inverse = np.unique(image, return_inverse=True)
    nodes = placement.network.nodes
    columns = np.stack(
        [metric.distances_from(nodes[int(i)]) for i in unique], axis=1
    )
    per_client = expected_max_delays(
        columns, inverse.astype(np.intp), members, probabilities
    )
    weights = _client_weights(placement.network, rates)
    return float(per_client @ weights)


def average_max_delay_bounds(
    placement: Placement,
    strategy: AccessStrategy,
    oracle: "LandmarkOracle",
    *,
    rates: Mapping[Node, float] | None = None,
) -> tuple[float, float]:
    """Certified ``[lower, upper]`` bracket of :func:`average_max_delay`.

    Substitutes the oracle's landmark bounds for the exact distance
    columns of the placement's image nodes: every per-client expected
    max-delay is sandwiched because the kernel is monotone in each
    distance entry.  Costs ``O(k n |image|)`` oracle work and **zero**
    exact distance rows — this is what lets the large-scale candidate
    sweep discard hopeless relay sources before pulling real rows.
    """
    _check_strategy(placement, strategy)
    members, probabilities = _support_arrays(strategy)
    image = placement.image_node_indices()
    unique, inverse = np.unique(image, return_inverse=True)
    lower_columns, upper_columns = oracle.bounds_columns(unique)
    remapped = inverse.astype(np.intp)
    per_lower = expected_max_delays(lower_columns, remapped, members, probabilities)
    per_upper = expected_max_delays(upper_columns, remapped, members, probabilities)
    weights = _client_weights(placement.network, rates)
    return float(per_lower @ weights), float(per_upper @ weights)


def average_max_delay_reference(
    placement: Placement,
    strategy: AccessStrategy,
    *,
    rates: Mapping[Node, float] | None = None,
    metric: "MetricView | None" = None,
) -> float:
    """Scalar oracle for :func:`average_max_delay`: per-client loop over
    :func:`expected_max_delay_reference`."""
    _check_strategy(placement, strategy)
    weights = _client_weights(placement.network, rates)
    total = 0.0
    for i, client in enumerate(placement.network.nodes):
        weight = float(weights[i])
        if weight <= 0.0:
            continue
        total += weight * expected_max_delay_reference(
            placement, strategy, client, metric=metric
        )
    return total


# -- total-delay quantities -------------------------------------------------------------


def total_delay_cost(placement: Placement, client: Node, quorum_index: int) -> float:
    """``gamma_f(v, Q)``: sum of distances from *client* to every placed
    member of the quorum (Section 5)."""
    check_integer_in_range(
        quorum_index, "quorum_index", low=0, high=len(placement.system) - 1
    )
    metric = placement.network.metric()
    row = metric.distances_from(client)
    quorum = placement.system.quorums[quorum_index]
    indices = placement.image_node_indices()
    return float(
        sum(row[indices[placement.system.element_index(u)]] for u in quorum)
    )


def expected_total_delay(
    placement: Placement,
    strategy: AccessStrategy,
    client: Node,
    *,
    metric: "MetricView | None" = None,
) -> float:
    """``Gamma_f(v) = sum_Q p(Q) gamma_f(v, Q)``.

    Computed through the identity ``Gamma_f(v) = sum_u load(u) d(v, f(u))``
    — each element contributes its distance weighted by its load.
    """
    _check_strategy(placement, strategy)
    if metric is None:
        metric = placement.network.metric()
    row = metric.distances_from(client)[np.newaxis, :]
    return float(
        expected_total_delays(
            row, placement.image_node_indices(), strategy.load_array()
        )[0]
    )


def expected_total_delay_reference(
    placement: Placement,
    strategy: AccessStrategy,
    client: Node,
    *,
    metric: "MetricView | None" = None,
) -> float:
    """Scalar oracle for :func:`expected_total_delay`: the paper-literal
    double loop ``sum_Q p(Q) sum_{u in Q} d(v, f(u))``."""
    _check_strategy(placement, strategy)
    distance = (
        placement.network.distance if metric is None else metric.distance
    )
    total = 0.0
    for index in strategy.support():
        cost = 0.0
        for u in placement.system.quorums[index]:
            cost += distance(client, placement[u])
        total += strategy.probability(index) * cost
    return total


def average_total_delay(
    placement: Placement,
    strategy: AccessStrategy,
    *,
    rates: Mapping[Node, float] | None = None,
    metric: "MetricView | None" = None,
) -> float:
    """``Avg_v Gamma_f(v)`` — the objective of Section 5 (Theorem 1.4).

    Streams row blocks when *metric* has no dense ``matrix`` (see
    :func:`_per_client_expected_max_delay` for the dispatch contract).
    """
    _check_strategy(placement, strategy)
    if metric is None:
        metric = placement.network.metric()
    weights = _client_weights(placement.network, rates)
    image = placement.image_node_indices()
    loads = strategy.load_array()
    matrix = getattr(metric, "matrix", None)
    if matrix is not None:
        per_client = expected_total_delays(matrix, image, loads)
        return float(per_client @ weights)
    n = metric.size
    total = 0.0
    for start in range(0, n, _EVAL_BLOCK_ROWS):
        stop = min(start + _EVAL_BLOCK_ROWS, n)
        block_values = expected_total_delays(
            metric.row_block(start, stop), image, loads
        )
        total += float(block_values @ weights[start:stop])
    return total


def average_total_delay_reference(
    placement: Placement,
    strategy: AccessStrategy,
    *,
    rates: Mapping[Node, float] | None = None,
    metric: "MetricView | None" = None,
) -> float:
    """Scalar oracle for :func:`average_total_delay`: per-client loop over
    :func:`expected_total_delay_reference`."""
    _check_strategy(placement, strategy)
    weights = _client_weights(placement.network, rates)
    total = 0.0
    for i, client in enumerate(placement.network.nodes):
        weight = float(weights[i])
        if weight <= 0.0:
            continue
        total += weight * expected_total_delay_reference(
            placement, strategy, client, metric=metric
        )
    return total


# -- loads and capacities ----------------------------------------------------------------


def _capacity_array(network: Network) -> np.ndarray:
    """Capacities in node-index order."""
    return np.array([network.capacity(node) for node in network.nodes], dtype=float)


def node_loads(placement: Placement, strategy: AccessStrategy) -> dict[Node, float]:
    """``load_f(v)`` for every node ``v`` (zero where nothing is placed)."""
    _check_strategy(placement, strategy)
    vector = node_load_vector(
        placement.image_node_indices(),
        strategy.load_array(),
        placement.network.size,
    )
    return {node: float(vector[i]) for i, node in enumerate(placement.network.nodes)}


def node_loads_reference(
    placement: Placement, strategy: AccessStrategy
) -> dict[Node, float]:
    """Scalar oracle for :func:`node_loads`: one dictionary update per
    placed element."""
    _check_strategy(placement, strategy)
    loads = {node: 0.0 for node in placement.network.nodes}
    for element, node in placement.as_dict().items():
        loads[node] += strategy.load(element)
    return loads


def capacity_violation_factor(placement: Placement, strategy: AccessStrategy) -> float:
    """The largest ``load_f(v) / cap(v)`` over nodes with positive load.

    Returns 0.0 for an empty placement; ``inf`` if a zero-capacity node
    received load.  A value of at most 1 means the placement is feasible;
    Theorem 1.2 guarantees at most ``alpha + 1``.
    """
    _check_strategy(placement, strategy)
    vector = node_load_vector(
        placement.image_node_indices(),
        strategy.load_array(),
        placement.network.size,
    )
    return max_capacity_factor(vector, _capacity_array(placement.network))


def capacity_violation_factor_reference(
    placement: Placement, strategy: AccessStrategy
) -> float:
    """Scalar oracle for :func:`capacity_violation_factor`."""
    factor = 0.0
    for node, load in node_loads_reference(placement, strategy).items():
        if load <= 0:
            continue
        capacity = placement.network.capacity(node)
        if capacity == 0:
            return float("inf")
        factor = max(factor, load / capacity)
    return factor


def is_capacity_respecting(
    placement: Placement, strategy: AccessStrategy, *, tolerance: float = 1e-9
) -> bool:
    """Whether ``load_f(v) <= cap(v)`` holds everywhere (within tolerance)."""
    return capacity_violation_factor(placement, strategy) <= 1.0 + tolerance


def _check_strategy(placement: Placement, strategy: AccessStrategy) -> None:
    # The evaluators index the placement's system by the strategy's
    # positions (support_rows), so equal quorum sets are not enough.
    if not strategy.system.same_layout(placement.system):
        raise ValidationError(
            "strategy and placement refer to different quorum systems "
            "(or list the quorums in a different order)"
        )


def make_placement(
    system: QuorumSystem, network: Network, nodes: Sequence[Node]
) -> Placement:
    """Place ``system.universe[i]`` on ``nodes[i]`` — a convenience for
    tests and layout algorithms that think in universe order."""
    universe = system.universe
    if len(nodes) != len(universe):
        raise ValidationError(
            f"need exactly {len(universe)} nodes, got {len(nodes)}"
        )
    return Placement(system, network, dict(zip(universe, nodes)))
