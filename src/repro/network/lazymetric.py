"""Sparse/lazy shortest-path metrics for large networks.

The dense :class:`repro.network.metric.Metric` materializes the full
``n x n`` distance matrix up front, which is the right call for the few
hundred nodes the paper's experiments use — and a hard wall at the
10^3-10^5 nodes the ROADMAP targets.  This module provides the scaling
counterpart:

* :class:`MetricView` — the structural protocol every evaluator accepts:
  node indexing, pairwise lookups, full rows, contiguous row blocks, and
  arbitrary submatrices.  The dense ``Metric`` satisfies it natively.
* :class:`LazyMetric` — distance rows materialized on demand: the
  network's graph is compiled to CSR arrays once per view, and each
  batch of missing rows is one call of scipy's C Dijkstra over it,
  behind an LRU row cache whose
  hit/miss/evict counters live in the :mod:`repro.obs.metrics` default
  registry under the same ``metric.cache.*`` family as the dense cache.
  Rows are bitwise identical to the dense matrix rows (scipy's Dijkstra
  is per-source independent), which the property-based equivalence tests
  assert.  Unlike the dense path, disconnected networks are *allowed*:
  unreachable pairs read ``inf`` exactly as ``dijkstra_batched`` reports
  them, and callers decide whether that is an error.
* :class:`LandmarkOracle` — classical pivot bounds from ``k`` landmark
  rows: for any pair ``(u, v)`` and landmark ``l`` the triangle
  inequality gives ``|d(l,u) - d(l,v)| <= d(u,v) <= d(l,u) + d(l,v)``.
  The oracle certifies its own bounds (:meth:`LandmarkOracle.certify`)
  and lets :func:`repro.core.qpp.solve_qpp` prune candidate evaluation
  before any exact rows are pulled.

Memory: a :class:`LazyMetric` holds at most ``max_cached_rows`` rows
(``O(max_cached_rows * n)``) plus the compiled graph (``O(n + m)``) —
never ``O(n^2)``.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import NamedTuple, Protocol, runtime_checkable

import numpy as np
from numpy.typing import NDArray

from .._validation import check_integer_in_range, cost, require
from ..exceptions import ValidationError
from ..obs.metrics import counter, gauge
from .graph import Network, Node
from .metric import CompiledGraph, compile_graph

__all__ = [
    "MetricView",
    "LazyMetric",
    "LandmarkOracle",
    "OracleCertificate",
    "RowCacheInfo",
    "farthest_point_landmarks",
]

#: Process-wide LRU row-cache telemetry, in the same registry (and the
#: same ``metric.cache.*`` family) as the dense cache's builds/hits so
#: ``repro profile``, the bench telemetry block, and
#: :func:`repro.network.graph.metric_cache_info` read one source of
#: truth.  ``row_peak`` is a gauge: the largest number of rows any
#: single cache held at once — the bench asserts it stays far below
#: ``n`` to prove no dense materialization happened.
_ROW_HITS = counter("metric.cache.row_hits")
_ROW_MISSES = counter("metric.cache.row_misses")
_ROW_EVICTIONS = counter("metric.cache.row_evictions")
_ROW_PEAK = gauge("metric.cache.row_peak")

#: Default LRU capacity: bounds resident memory at
#: ``1024 * n * 8`` bytes (~80 MB at n = 10^4) while keeping full-sweep
#: evaluations (which stream every row once) cheap to re-run locally.
DEFAULT_MAX_CACHED_ROWS = 1024


@runtime_checkable
class MetricView(Protocol):
    """What the evaluators need from a metric — dense or lazy.

    ``Metric`` satisfies this natively with zero-copy views;
    :class:`LazyMetric` satisfies it by materializing rows on demand.
    The deliberate *omission* is a ``matrix`` property: code that needs
    the full array must ask the dense type for it explicitly, so lazy
    call sites cannot accidentally densify.
    """

    @property
    def nodes(self) -> tuple[Node, ...]: ...

    @property
    def size(self) -> int: ...

    def node_index(self, node: Node) -> int: ...

    def distance(self, u: Node, v: Node) -> float: ...

    def distances_from(self, source: Node) -> NDArray[np.float64]: ...

    def row_block(self, start: int, stop: int) -> NDArray[np.float64]: ...

    def submatrix(
        self, sources: Sequence[Node], targets: Sequence[Node] | None = None
    ) -> NDArray[np.float64]: ...

    def nodes_by_distance(self, source: Node) -> list[Node]: ...


class RowCacheInfo(NamedTuple):
    """Instance-level LRU row-cache statistics of one :class:`LazyMetric`."""

    hits: int
    misses: int
    evictions: int
    cached_rows: int
    peak_rows: int
    max_cached_rows: int


class LazyMetric:
    """Shortest-path metric with rows materialized on demand.

    Parameters
    ----------
    network:
        The network whose shortest-path metric this views.  Its graph is
        compiled once at construction
        (:func:`repro.network.metric.compile_graph`, inside a
        ``metric.compile`` span); each batch of row misses is then one
        :func:`repro.network.metric.dijkstra_batched` call over the
        compiled graph, restricted to the missing sources, so each row is
        bitwise identical to the corresponding dense-matrix row.
    max_cached_rows:
        LRU capacity in rows (``None`` disables eviction).  Peak resident
        memory is ``max_cached_rows * n * 8`` bytes.

    Unlike :meth:`Metric.from_network`, construction does **not** reject
    disconnected networks: unreachable pairs are ``inf``, matching the
    batched Dijkstra's convention, and sorting/usage sites decide how to
    treat them.
    """

    __slots__ = (
        "_nodes",
        "_index",
        "_graph",
        "_cache",
        "_max_rows",
        "_hits",
        "_misses",
        "_evictions",
        "_peak",
    )

    def __init__(
        self, network: Network, *, max_cached_rows: int | None = DEFAULT_MAX_CACHED_ROWS
    ) -> None:
        require(isinstance(network, Network), "network must be a Network")
        if max_cached_rows is not None:
            check_integer_in_range(max_cached_rows, "max_cached_rows", low=1)
        self._graph: CompiledGraph = compile_graph(network.adjacency)
        self._nodes: tuple[Node, ...] = self._graph.nodes
        self._index: Mapping[Node, int] = self._graph.index
        self._cache: OrderedDict[int, NDArray[np.float64]] = OrderedDict()
        self._max_rows = max_cached_rows
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._peak = 0

    # -- accessors ---------------------------------------------------------------

    @property
    def nodes(self) -> tuple[Node, ...]:
        return self._nodes

    @property
    def size(self) -> int:
        return len(self._nodes)

    @property
    def max_cached_rows(self) -> int | None:
        return self._max_rows

    def node_index(self, node: Node) -> int:
        try:
            return self._index[node]
        except KeyError:
            raise ValidationError(f"{node!r} is not in the metric space") from None

    def cache_info(self) -> RowCacheInfo:
        """This instance's LRU statistics (process-wide aggregates live in
        :func:`repro.network.graph.metric_cache_info`)."""
        return RowCacheInfo(
            hits=self._hits,
            misses=self._misses,
            evictions=self._evictions,
            cached_rows=len(self._cache),
            peak_rows=self._peak,
            max_cached_rows=self._max_rows if self._max_rows is not None else -1,
        )

    def cache_clear(self) -> None:
        """Drop every cached row and zero this instance's statistics."""
        self._cache.clear()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._peak = 0

    # -- row materialization -------------------------------------------------------

    def _compute_rows(self, indices: Sequence[int]) -> NDArray[np.float64]:
        """Batched Dijkstra over the compiled graph, restricted to the
        given source indices."""
        # Looked up at call time, so a wrapper installed on the module
        # attribute (a tracer) sees every row pull.
        from .metric import dijkstra_batched

        sources = [self._nodes[i] for i in indices]
        block = dijkstra_batched(self._graph, sources)
        if bool(np.any(block < 0)):
            raise ValidationError("computed distances must be non-negative")
        for offset, i in enumerate(indices):
            if abs(float(block[offset, i])) > 1e-12:
                raise ValidationError(
                    f"self-distance of node {self._nodes[i]!r} is not zero"
                )
        return block

    def _store(self, index: int, row: NDArray[np.float64]) -> None:
        row.setflags(write=False)
        self._cache[index] = row
        self._cache.move_to_end(index)
        if self._max_rows is not None:
            while len(self._cache) > self._max_rows:
                self._cache.popitem(last=False)
                self._evictions += 1
                _ROW_EVICTIONS.inc()
        if len(self._cache) > self._peak:
            self._peak = len(self._cache)
            if self._peak > _ROW_PEAK.value:
                _ROW_PEAK.set(float(self._peak))

    def _rows_at(self, indices: Sequence[int]) -> NDArray[np.float64]:
        """Rows for arbitrary node indices, pulling misses in one batch.

        Resolved rows are held by direct reference until the output is
        assembled: storing the misses can evict other rows of this very
        request (the whole batch may exceed ``max_cached_rows``), so the
        cache cannot be re-read after the stores.
        """
        rows: dict[int, NDArray[np.float64]] = {}
        missing: list[int] = []
        for i in dict.fromkeys(indices):
            cached = self._cache.get(i)
            if cached is not None:
                self._cache.move_to_end(i)
                rows[i] = cached
            else:
                missing.append(i)
        hits = len(indices) - len(missing)
        if hits > 0:
            self._hits += hits
            _ROW_HITS.inc(float(hits))
        if missing:
            self._misses += len(missing)
            _ROW_MISSES.inc(float(len(missing)))
            block = self._compute_rows(missing)
            for offset, i in enumerate(missing):
                rows[i] = block[offset]
                self._store(i, block[offset])
        out = np.empty((len(indices), self.size), dtype=float)
        for offset, i in enumerate(indices):
            out[offset] = rows[i]
        return out

    def _row_at(self, index: int) -> NDArray[np.float64]:
        row = self._cache.get(index)
        if row is not None:
            self._hits += 1
            _ROW_HITS.inc()
            self._cache.move_to_end(index)
            return row
        self._misses += 1
        _ROW_MISSES.inc()
        computed: NDArray[np.float64] = self._compute_rows([index])[0]
        self._store(index, computed)
        return computed

    # -- MetricView surface ----------------------------------------------------------

    def distance(self, u: Node, v: Node) -> float:
        return float(self._row_at(self.node_index(u))[self.node_index(v)])

    def distances_from(self, source: Node) -> NDArray[np.float64]:
        """Row of distances from *source*, in node order (read-only;
        ``inf`` for unreachable targets)."""
        return self._row_at(self.node_index(source))

    def row_block(self, start: int, stop: int) -> NDArray[np.float64]:
        """Rows ``start:stop`` of the (virtual) distance matrix.

        The evaluators stream the whole metric through this in bounded
        blocks; each block is a fresh ``(stop - start, n)`` array, and the
        LRU keeps at most ``max_cached_rows`` of its rows afterwards.
        """
        check_integer_in_range(start, "start", low=0, high=self.size)
        check_integer_in_range(stop, "stop", low=start, high=self.size)
        return self._rows_at(list(range(start, stop)))

    def submatrix(
        self, sources: Sequence[Node], targets: Sequence[Node] | None = None
    ) -> NDArray[np.float64]:
        """Distances from *sources* to *targets* (default: all nodes)."""
        source_indices = [self.node_index(v) for v in sources]
        rows = self._rows_at(source_indices)
        if targets is None:
            return rows
        target_indices = np.asarray(
            [self.node_index(v) for v in targets], dtype=np.intp
        )
        return rows[:, target_indices]

    def nodes_by_distance(self, source: Node) -> list[Node]:
        """All nodes sorted by increasing distance from *source*, ties by
        node index — the same deterministic §3.3 ordering the dense
        :meth:`Metric.nodes_by_distance` produces (unreachable nodes sort
        last, after every finite distance)."""
        row = self.distances_from(source)
        order = np.lexsort((np.arange(self.size), row))
        return [self._nodes[int(i)] for i in order]

    def __repr__(self) -> str:
        return (
            f"LazyMetric(nodes={self.size}, cached_rows={len(self._cache)}, "
            f"max_cached_rows={self._max_rows})"
        )


# -- landmark oracle ------------------------------------------------------------------


@cost("c * n", scale="large")
def farthest_point_landmarks(
    metric: MetricView, k: int, *, start: Node | None = None
) -> list[Node]:
    """Greedy farthest-point landmark selection over any metric view.

    The lazy counterpart of :meth:`Metric.k_centers`: it pulls exactly
    ``k`` rows (one per selected landmark) instead of needing the full
    matrix, starting from *start* (default: the first node) rather than
    the 1-median, whose computation is itself an all-pairs sum.  Ties are
    broken by node index, so selection is deterministic.
    """
    check_integer_in_range(k, "k", low=1)
    k = min(k, metric.size)
    first = start if start is not None else metric.nodes[0]
    landmarks = [first]
    distance_to_landmarks = np.array(metric.distances_from(first), dtype=float)
    while len(landmarks) < k:
        finite = np.where(np.isfinite(distance_to_landmarks), distance_to_landmarks, -1.0)
        farthest = int(np.argmax(finite))
        if finite[farthest] <= 0:
            break  # every remaining node coincides with (or cannot extend) a landmark
        node = metric.nodes[farthest]
        landmarks.append(node)
        np.minimum(
            distance_to_landmarks, metric.distances_from(node), out=distance_to_landmarks
        )
    return landmarks


@dataclass(frozen=True)
class OracleCertificate:
    """Outcome of :meth:`LandmarkOracle.certify`.

    ``violations`` counts sampled pairs where the sandwich
    ``lower <= d(u, v) <= upper`` failed beyond ``tolerance`` — the
    triangle inequality makes zero the only acceptable value, and
    :attr:`ok` says exactly that.  ``max_gap``/``mean_gap`` report the
    bound slack ``upper - lower`` over the sample: the pruning power
    (not the soundness) of the oracle.
    """

    landmarks: int
    sampled_sources: int
    pairs_checked: int
    violations: int
    max_violation: float
    max_gap: float
    mean_gap: float
    tolerance: float

    @property
    def ok(self) -> bool:
        return self.violations == 0


class LandmarkOracle:
    """Pivot-based distance bounds from ``k`` landmark rows.

    For landmarks ``l_1..l_k`` the triangle inequality sandwiches every
    pair: ``max_i |d(l_i,u) - d(l_i,v)| <= d(u,v) <= min_i d(l_i,u) +
    d(l_i,v)``.  Bounds are exact whenever ``u`` or ``v`` *is* a
    landmark, which is why :func:`repro.core.qpp.solve_qpp` seeds its
    large-scale candidate sweep with the landmark set itself.

    Storage is ``k * n`` — the ``k`` rows pulled through the underlying
    view at construction.  Landmark rows must be finite: an oracle over a
    disconnected network would produce ``inf - inf`` artifacts, so
    construction rejects landmarks that cannot reach every node.
    """

    __slots__ = ("_metric", "_landmarks", "_rows")

    def __init__(self, metric: MetricView, landmarks: Sequence[Node]) -> None:
        landmark_list = list(dict.fromkeys(landmarks))
        require(len(landmark_list) > 0, "at least one landmark is required")
        rows = np.empty((len(landmark_list), metric.size), dtype=float)
        for i, node in enumerate(landmark_list):
            rows[i] = metric.distances_from(node)
        if not bool(np.all(np.isfinite(rows))):
            raise ValidationError(
                "landmark rows contain non-finite distances; the landmark "
                "oracle requires a connected network"
            )
        rows.setflags(write=False)
        self._metric = metric
        self._landmarks = tuple(landmark_list)
        self._rows = rows

    @classmethod
    def build(
        cls, metric: MetricView, k: int, *, start: Node | None = None
    ) -> "LandmarkOracle":
        """Oracle over ``k`` greedy farthest-point landmarks."""
        return cls(metric, farthest_point_landmarks(metric, k, start=start))

    # -- accessors ---------------------------------------------------------------

    @property
    def landmarks(self) -> tuple[Node, ...]:
        return self._landmarks

    @property
    def metric(self) -> MetricView:
        return self._metric

    # -- bounds ------------------------------------------------------------------

    def bounds(self, u: Node, v: Node) -> tuple[float, float]:
        """``(lower, upper)`` with ``lower <= d(u, v) <= upper``."""
        i = self._metric.node_index(u)
        j = self._metric.node_index(v)
        if i == j:
            return 0.0, 0.0
        to_u = self._rows[:, i]
        to_v = self._rows[:, j]
        lower = float(np.max(np.abs(to_u - to_v)))
        upper = float(np.min(to_u + to_v))
        return lower, upper

    def bounds_from(self, node: Node) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
        """``(lower, upper)`` arrays over all targets, in node order."""
        lower, upper = self.bounds_columns(np.array([self._metric.node_index(node)]))
        return lower[:, 0], upper[:, 0]

    def bounds_columns(
        self, target_indices: NDArray[np.intp]
    ) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
        """Bound matrices of shape ``(n, len(target_indices))``.

        Column ``j`` bounds ``d(v, targets[j])`` for every node ``v`` —
        the shape :func:`repro.core._kernels.expected_max_delays` accepts
        as a (reduced-column) distance matrix, which is how the candidate
        sweep bounds a placement's realized objective without exact rows.
        Memory is ``O(n * len(target_indices))``; the landmark reduction
        runs one ``(n, W)`` temporary at a time.
        """
        targets = np.asarray(target_indices, dtype=np.intp)
        n = self._metric.size
        width = targets.shape[0]
        lower = np.zeros((n, width), dtype=float)
        upper = np.full((n, width), np.inf, dtype=float)
        for row in self._rows:
            to_targets = row[targets]
            np.maximum(lower, np.abs(row[:, None] - to_targets[None, :]), out=lower)
            np.minimum(upper, row[:, None] + to_targets[None, :], out=upper)
        # Self-distances are known exactly; tighten the diagonal entries.
        upper[targets, np.arange(width)] = 0.0
        return lower, upper

    # -- certification -----------------------------------------------------------

    def certify(
        self, *, sample: int = 32, tolerance: float = 1e-9
    ) -> OracleCertificate:
        """Check the sandwich against exact rows on a deterministic sample.

        Pulls ``min(sample, n)`` evenly spaced exact source rows through
        the underlying view and verifies ``lower - tol <= d <= upper +
        tol`` on every ``(sampled source, target)`` pair.  Landmark rows
        make ``k`` of the sources exact for free, so the sample is spread
        over the whole index range instead of drawn randomly — the
        report is reproducible with no RNG involved.
        """
        check_integer_in_range(sample, "sample", low=1)
        n = self._metric.size
        count = min(sample, n)
        source_indices = sorted(
            {int(i) for i in np.linspace(0, n - 1, num=count).round()}
        )
        violations = 0
        max_violation = 0.0
        max_gap = 0.0
        gap_total = 0.0
        pairs = 0
        for i in source_indices:
            exact = np.asarray(
                self._metric.distances_from(self._metric.nodes[i]), dtype=float
            )
            lower, upper = self.bounds_columns(np.array([i], dtype=np.intp))
            low = lower[:, 0]
            high = upper[:, 0]
            below = np.maximum(low - exact, 0.0)
            above = np.maximum(exact - high, 0.0)
            worst = float(np.max(np.maximum(below, above)))
            bad = int(np.count_nonzero(np.maximum(below, above) > tolerance))
            violations += bad
            max_violation = max(max_violation, worst)
            finite_gap = high - low
            max_gap = max(max_gap, float(np.max(finite_gap)))
            gap_total += float(np.sum(finite_gap))
            pairs += exact.shape[0]
        return OracleCertificate(
            landmarks=len(self._landmarks),
            sampled_sources=len(source_indices),
            pairs_checked=pairs,
            violations=violations,
            max_violation=max_violation,
            max_gap=max_gap,
            mean_gap=gap_total / pairs if pairs else 0.0,
            tolerance=tolerance,
        )

    def __repr__(self) -> str:
        return (
            f"LandmarkOracle(landmarks={len(self._landmarks)}, "
            f"nodes={self._metric.size})"
        )
