"""Telemetry for the lazy metric's LRU row cache.

The row counters live in the same ``metric.cache.*`` family as the
dense build/hit counters, so they must flow through both
``metric_cache_info()`` surfaces (module-level and per-network), reset
under the autouse observability fixture, and — because the registry is
fork-aware — start from zero in pooled children (the mirror of the
dense-cache fork test in tests/test_parallel.py).
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.exceptions import ValidationError
from repro.network import (
    LazyMetric,
    metric_cache_clear,
    metric_cache_info,
)
from repro.obs.metrics import counter, gauge

FORK_AVAILABLE = "fork" in multiprocessing.get_all_start_methods()


def read_row_miss_counter(_):
    """Pool probe: the child's view of the lazy-metric miss counter."""
    return counter("metric.cache.row_misses").value


# -- counter flow through both info surfaces ------------------------------------------


class TestCounterFlow:
    def test_misses_hits_and_evictions_reach_module_info(self, small_network):
        lazy = LazyMetric(small_network, max_cached_rows=2)
        nodes = small_network.nodes
        lazy.distances_from(nodes[0])  # miss
        lazy.distances_from(nodes[0])  # hit
        lazy.distances_from(nodes[1])  # miss
        lazy.distances_from(nodes[2])  # miss + evict nodes[0]
        info = metric_cache_info()
        assert info.row_misses == 3
        assert info.row_hits == 1
        assert info.row_evictions == 1
        # Dense counters untouched: no Metric was ever built.
        assert info.builds == 0
        assert info.hits == 0
        assert gauge("metric.cache.row_peak").value == 2.0

    def test_local_cache_info_matches_global_counters(self, small_network):
        lazy = LazyMetric(small_network, max_cached_rows=2)
        for node in small_network.nodes:
            lazy.distances_from(node)
        local = lazy.cache_info()
        module = metric_cache_info()
        assert local.misses == module.row_misses == small_network.size
        assert local.evictions == module.row_evictions == small_network.size - 2
        assert local.cached_rows == 2
        assert local.peak_rows == 2
        assert local.max_cached_rows == 2

    def test_unbounded_cache_reports_sentinel_capacity(self, small_network):
        lazy = LazyMetric(small_network, max_cached_rows=None)
        for node in small_network.nodes:
            lazy.distances_from(node)
        info = lazy.cache_info()
        assert info.max_cached_rows == -1
        assert info.evictions == 0
        assert info.cached_rows == small_network.size

    def test_network_info_merges_its_lazy_view(self, small_network):
        view = small_network.lazy_metric()
        view.distances_from(small_network.nodes[0])
        view.distances_from(small_network.nodes[0])
        info = small_network.metric_cache_info()
        assert info.row_misses == 1
        assert info.row_hits == 1
        # The dense per-network cache stays independent of the lazy view.
        assert info.builds == 0


# -- reset semantics ------------------------------------------------------------------


class TestResetSemantics:
    """Each test leaks counter state on purpose; the autouse
    ``_fresh_observability_state`` fixture must isolate them.  The pair
    runs in file order, so either would see the other's residue if the
    reset were broken."""

    def test_reset_part_one_leaks_row_traffic(self, small_network):
        lazy = LazyMetric(small_network, max_cached_rows=1)
        for node in small_network.nodes:
            lazy.distances_from(node)
        assert metric_cache_info().row_misses == small_network.size

    def test_reset_part_two_starts_clean(self, small_network):
        before = metric_cache_info()
        assert before.row_misses == 0
        assert before.row_hits == 0
        assert before.row_evictions == 0
        assert gauge("metric.cache.row_peak").value == 0.0

    def test_explicit_clear_resets_counters_and_lazy_view(self, small_network):
        view = small_network.lazy_metric()
        view.distances_from(small_network.nodes[0])
        assert metric_cache_info().row_misses == 1
        metric_cache_clear()
        info = metric_cache_info()
        assert info.row_misses == 0 and info.row_hits == 0
        # The per-network clear also drops the cached lazy view...
        small_network.metric_cache_clear()
        assert small_network.lazy_metric() is not view
        # ...while the module-level clear left the instance intact above.

    def test_lazy_view_is_cached_and_capacity_conflicts_are_rejected(
        self, small_network
    ):
        view = small_network.lazy_metric()
        assert small_network.lazy_metric() is view
        assert small_network.lazy_metric(max_cached_rows=view.max_cached_rows) is view
        with pytest.raises(ValidationError, match="max_cached_rows"):
            small_network.lazy_metric(max_cached_rows=view.max_cached_rows + 1)


# -- fork awareness (mirror of tests/test_parallel.py) --------------------------------


@pytest.mark.skipif(not FORK_AVAILABLE, reason="needs fork start method")
def test_forked_children_start_with_zero_row_counters(small_network):
    lazy = LazyMetric(small_network)
    for node in small_network.nodes:
        lazy.distances_from(node)
    parent_misses = counter("metric.cache.row_misses").value
    assert parent_misses == small_network.size
    with ProcessPoolExecutor(
        max_workers=2, mp_context=multiprocessing.get_context("fork")
    ) as pool:
        child_views = list(pool.map(read_row_miss_counter, [0, 1]))
    # os.register_at_fork zeroes the default registry in each child, so
    # the lazy-metric traffic accumulated here must not leak through...
    assert child_views == [0.0, 0.0]
    # ...and the fan-out must not disturb the parent's accounting.
    assert counter("metric.cache.row_misses").value == parent_misses
    assert metric_cache_info().row_misses == small_network.size
