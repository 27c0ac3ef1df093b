"""The physical network model.

The paper's setting is an undirected network ``G = (V, E)`` with positive
edge lengths (inducing the shortest-path metric ``d``) and a capacity
``cap(v)`` bounding the quorum load each physical node can host.  The set
of clients issuing quorum accesses is ``V`` itself.

:class:`Network` is an immutable value type wrapping that data.  Distance
computation lives in :mod:`repro.network.metric`; random and structured
topologies in :mod:`repro.network.generators`.
"""

from __future__ import annotations

import math
from collections.abc import Hashable, Iterable, Mapping
from types import MappingProxyType
from typing import Callable, NamedTuple, Union

from .._validation import check_positive, require
from ..exceptions import ValidationError
from ..obs.metrics import counter
from ..obs.trace import span

__all__ = [
    "Network",
    "Node",
    "MetricCacheInfo",
    "metric_cache_info",
    "metric_cache_clear",
]

Node = Hashable

#: Process-wide build/hit totals across every :class:`Network` instance,
#: kept in the :mod:`repro.obs.metrics` default registry (the single
#: source of truth; ``repro profile`` and the bench telemetry read the
#: same counters).  Instance counters answer "did *this* network
#: rebuild?"; the aggregates answer "did *anything* rebuild?" — which is
#: what cross-cutting tests and benchmarks assert.  They bleed between
#: tests unless reset, so the suite's autouse fixture calls
#: :func:`metric_cache_clear` before each test (mirroring the
#: ``functools.lru_cache`` ``cache_clear`` idiom).
_BUILDS = counter("metric.cache.builds")
_HITS = counter("metric.cache.hits")
#: The lazy-metric LRU row cache reports into the same family; the
#: counters are owned by :mod:`repro.network.lazymetric` (which creates
#: the identical registry entries) — referencing them here keeps
#: :func:`metric_cache_info` / :func:`metric_cache_clear` the one-stop
#: telemetry surface for *both* metric caches.
_ROW_HITS = counter("metric.cache.row_hits")
_ROW_MISSES = counter("metric.cache.row_misses")
_ROW_EVICTIONS = counter("metric.cache.row_evictions")


def metric_cache_info() -> "MetricCacheInfo":
    """Aggregate metric-cache counters over all networks in this process.

    Reads the ``metric.cache.*`` counters of the default metrics
    registry: dense ``builds``/``hits`` plus the lazy-metric LRU row
    counters ``row_hits``/``row_misses``/``row_evictions``.
    """
    return MetricCacheInfo(
        int(_BUILDS.value),
        int(_HITS.value),
        int(_ROW_HITS.value),
        int(_ROW_MISSES.value),
        int(_ROW_EVICTIONS.value),
    )


def metric_cache_clear() -> None:
    """Reset the aggregate counters (e.g. between tests)."""
    _BUILDS.reset()
    _HITS.reset()
    _ROW_HITS.reset()
    _ROW_MISSES.reset()
    _ROW_EVICTIONS.reset()


class MetricCacheInfo(NamedTuple):
    """Counters for the per-network metric caches (see
    :meth:`Network.metric` and :meth:`Network.lazy_metric`).

    ``builds`` is how many times the dense all-pairs matrix was actually
    computed (at most 1 per network); ``hits`` counts the calls served
    from the cache.  ``row_hits``/``row_misses``/``row_evictions`` are
    the lazy-metric LRU row-cache totals (zero when only the dense path
    ran).  The trailing fields default to zero so pre-lazy call sites
    constructing ``MetricCacheInfo(builds, hits)`` keep working.
    """

    builds: int
    hits: int
    row_hits: int = 0
    row_misses: int = 0
    row_evictions: int = 0
EdgeSpec = Union[tuple, "tuple[Node, Node]", "tuple[Node, Node, float]"]


class Network:
    """An undirected, connected, capacitated network with edge lengths.

    Parameters
    ----------
    nodes:
        The node set; order is preserved and used as the canonical index
        order everywhere (distance matrices, LP variables).
    edges:
        Iterables ``(u, v)`` or ``(u, v, length)``; lengths default to 1
        and must be positive.  Parallel edges keep the shortest length;
        self-loops are rejected.
    capacities:
        Mapping from node to a non-negative capacity ``cap(v)``, or a
        single float applied to every node.  Defaults to infinity (the
        uncapacitated problem).
    name:
        Label used in reports.

    Examples
    --------
    >>> net = Network(["a", "b", "c"], [("a", "b", 2.0), ("b", "c")], capacities=1.0)
    >>> net.size
    3
    >>> net.edge_length("a", "b")
    2.0
    >>> net.capacity("c")
    1.0
    """

    __slots__ = (
        "_nodes",
        "_index",
        "_adjacency",
        "_capacities",
        "name",
        "_metric",
        "_metric_builds",
        "_metric_hits",
        "_lazy_metric",
    )

    def __init__(
        self,
        nodes: Iterable[Node],
        edges: Iterable[EdgeSpec],
        *,
        capacities: Mapping[Node, float] | float | None = None,
        name: str = "network",
    ) -> None:
        node_list = list(nodes)
        require(len(node_list) > 0, "a network must have at least one node")
        if len(set(node_list)) != len(node_list):
            raise ValidationError("duplicate nodes are not allowed")
        self._nodes: tuple[Node, ...] = tuple(node_list)
        self._index: dict[Node, int] = {v: i for i, v in enumerate(self._nodes)}

        adjacency: dict[Node, dict[Node, float]] = {v: {} for v in self._nodes}
        for edge in edges:
            if len(edge) == 2:
                u, v = edge
                length = 1.0
            elif len(edge) == 3:
                u, v, length = edge
                length = check_positive(length, f"length of edge ({u!r}, {v!r})")
            else:
                raise ValidationError(f"edge must be (u, v) or (u, v, length), got {edge!r}")
            if u not in self._index or v not in self._index:
                raise ValidationError(f"edge ({u!r}, {v!r}) references unknown node")
            if u == v:
                raise ValidationError(f"self-loop at node {u!r} is not allowed")
            current = adjacency[u].get(v, math.inf)
            if length < current:
                adjacency[u][v] = length
                adjacency[v][u] = length
        self._adjacency = adjacency

        if capacities is None:
            self._capacities = {v: math.inf for v in self._nodes}
        elif isinstance(capacities, (int, float)):
            value = float(capacities)
            require(value >= 0, "capacity must be non-negative")
            self._capacities = {v: value for v in self._nodes}
        else:
            caps: dict[Node, float] = {}
            for node in self._nodes:
                if node not in capacities:
                    raise ValidationError(f"no capacity given for node {node!r}")
                value = float(capacities[node])
                if value < 0 or math.isnan(value):
                    raise ValidationError(
                        f"capacity of node {node!r} must be non-negative, got {value!r}"
                    )
                caps[node] = value
            self._capacities = caps

        self.name = name
        self._metric = None  # lazily built dense Metric
        self._metric_builds = 0
        self._metric_hits = 0
        self._lazy_metric = None  # lazily built LazyMetric view

    # -- basic accessors --------------------------------------------------------------

    @property
    def nodes(self) -> tuple[Node, ...]:
        return self._nodes

    @property
    def size(self) -> int:
        return len(self._nodes)

    def node_index(self, node: Node) -> int:
        try:
            return self._index[node]
        except KeyError:
            raise ValidationError(f"{node!r} is not a node of {self.name!r}") from None

    def has_node(self, node: Node) -> bool:
        return node in self._index

    def neighbors(self, node: Node) -> tuple[Node, ...]:
        self.node_index(node)
        return tuple(self._adjacency[node])

    def edges(self) -> list[tuple[Node, Node, float]]:
        """All edges as ``(u, v, length)`` with each edge listed once."""
        result = []
        for u in self._nodes:
            for v, length in self._adjacency[u].items():
                if self._index[u] < self._index[v]:
                    result.append((u, v, length))
        return result

    @property
    def adjacency(self) -> Mapping[Node, Mapping[Node, float]]:
        """Read-only ``{u: {v: length}}`` view of the edges, keyed in node
        order; each undirected edge appears in both directions.

        The metrics compile this view into CSR arrays
        (:func:`repro.network.metric.compile_graph`).  Only the mapping
        proxies are new; no edge is copied.
        """
        return MappingProxyType(
            {u: MappingProxyType(neighbours) for u, neighbours in self._adjacency.items()}
        )

    @property
    def edge_count(self) -> int:
        return sum(len(adj) for adj in self._adjacency.values()) // 2

    def edge_length(self, u: Node, v: Node) -> float:
        self.node_index(u)
        self.node_index(v)
        try:
            return self._adjacency[u][v]
        except KeyError:
            raise ValidationError(f"no edge between {u!r} and {v!r}") from None

    def capacity(self, node: Node) -> float:
        self.node_index(node)
        return self._capacities[node]

    def capacities(self) -> dict[Node, float]:
        return dict(self._capacities)

    def total_capacity(self) -> float:
        return sum(self._capacities.values())

    # -- metric ------------------------------------------------------------------------

    def metric(self):
        """The shortest-path metric, computed once and cached.

        Returns a :class:`repro.network.metric.Metric`; raises
        :class:`ValidationError` if the network is disconnected (the
        paper assumes finite distances between all client/node pairs).
        """
        if self._metric is None:
            from .metric import Metric

            with span("metric.build", network=self.name, nodes=self.size):
                self._metric = Metric.from_network(self)
            self._metric_builds += 1
            _BUILDS.inc()
        else:
            self._metric_hits += 1
            _HITS.inc()
        return self._metric

    def lazy_metric(self, *, max_cached_rows: int | None = None):
        """A shared lazy row-on-demand metric view of this network.

        Returns a :class:`repro.network.lazymetric.LazyMetric`, built on
        first use and cached on the network (like :meth:`metric`, but
        holding ``O(max_cached_rows * n)`` memory instead of the dense
        ``n x n`` matrix).  Disconnected networks are allowed — unreachable
        pairs read ``inf``.  Pass *max_cached_rows* on the first call to
        size the LRU; later calls reuse the existing view and reject a
        conflicting size.
        """
        from .lazymetric import DEFAULT_MAX_CACHED_ROWS, LazyMetric

        if self._lazy_metric is None:
            rows = DEFAULT_MAX_CACHED_ROWS if max_cached_rows is None else max_cached_rows
            with span("metric.lazy_init", network=self.name, nodes=self.size):
                self._lazy_metric = LazyMetric(self, max_cached_rows=rows)
        elif (
            max_cached_rows is not None
            and self._lazy_metric.max_cached_rows != max_cached_rows
        ):
            raise ValidationError(
                f"lazy metric already built with max_cached_rows="
                f"{self._lazy_metric.max_cached_rows}; call "
                "metric_cache_clear() before resizing"
            )
        return self._lazy_metric

    def metric_cache_info(self) -> MetricCacheInfo:
        """Counters of this network's metric caches: dense build/hit plus
        the lazy view's LRU row statistics (zero if never built)."""
        lazy = self._lazy_metric
        if lazy is None:
            return MetricCacheInfo(self._metric_builds, self._metric_hits)
        info = lazy.cache_info()
        return MetricCacheInfo(
            self._metric_builds,
            self._metric_hits,
            info.hits,
            info.misses,
            info.evictions,
        )

    def metric_cache_clear(self) -> None:
        """Drop the cached metrics and zero this network's counters.

        Mirrors ``functools.lru_cache``'s ``cache_clear``: the next
        :meth:`metric` call recomputes the dense matrix and counts as a
        fresh build, and the next :meth:`lazy_metric` call builds a fresh
        (resizable) view. The process-wide aggregates are left untouched —
        reset those with the module-level :func:`metric_cache_clear`.
        """
        self._metric = None
        self._metric_builds = 0
        self._metric_hits = 0
        self._lazy_metric = None

    def distance(self, u: Node, v: Node) -> float:
        """Shortest-path distance ``d(u, v)``."""
        return self.metric().distance(u, v)

    def is_connected(self) -> bool:
        visited = {self._nodes[0]}
        stack = [self._nodes[0]]
        while stack:
            node = stack.pop()
            for neighbor in self._adjacency[node]:
                if neighbor not in visited:
                    visited.add(neighbor)
                    stack.append(neighbor)
        return len(visited) == self.size

    # -- derivation ---------------------------------------------------------------------

    def with_capacities(
        self, capacities: Mapping[Node, float] | float | Callable[[Node], float]
    ) -> "Network":
        """A copy of this network with new capacities.

        *capacities* may be a mapping, a uniform float, or a callable
        evaluated per node.
        """
        if callable(capacities) and not isinstance(capacities, (int, float)):
            mapping = {v: float(capacities(v)) for v in self._nodes}
        else:
            mapping = capacities  # type: ignore[assignment]
        return Network(self._nodes, self.edges(), capacities=mapping, name=self.name)

    def with_name(self, name: str) -> "Network":
        return Network(self._nodes, self.edges(), capacities=self._capacities, name=name)

    # -- interop --------------------------------------------------------------------------

    def to_networkx(self):
        """Convert to a :class:`networkx.Graph` with ``length`` edge data
        and ``capacity`` node data (used only in tests for cross-checks)."""
        import networkx as nx

        graph = nx.Graph(name=self.name)
        for node in self._nodes:
            graph.add_node(node, capacity=self._capacities[node])
        for u, v, length in self.edges():
            graph.add_edge(u, v, length=length)
        return graph

    @classmethod
    def from_networkx(
        cls, graph, *, length_key: str = "length", capacity_key: str = "capacity"
    ) -> "Network":
        """Build a Network from a networkx graph.

        Edge lengths default to 1 when the edge attribute is missing;
        node capacities default to infinity.
        """
        nodes = list(graph.nodes())
        edges = [
            (u, v, float(data.get(length_key, 1.0))) for u, v, data in graph.edges(data=True)
        ]
        capacities = {
            node: float(graph.nodes[node].get(capacity_key, math.inf)) for node in nodes
        }
        return cls(nodes, edges, capacities=capacities, name=graph.name or "network")

    def __repr__(self) -> str:
        return (
            f"Network(name={self.name!r}, nodes={self.size}, edges={self.edge_count})"
        )
