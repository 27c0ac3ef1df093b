"""The pooled candidate sweep in :func:`solve_qpp` (``parallel="process"``).

The acceptance bar for the pooled path is *byte identity*: mapping the
relay-candidate sweep over a process pool must reproduce the serial
sweep exactly — objective, winning source, lower bound, per-source LP
values and placements — on a seeded 100-node benchmark instance.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro.core import solve_qpp
from repro.exceptions import ValidationError
from repro.network import random_geometric_network, uniform_capacities
from repro.quorums import AccessStrategy, majority

FORK_AVAILABLE = "fork" in multiprocessing.get_all_start_methods()


@pytest.fixture(scope="module")
def bench_instance():
    rng = np.random.default_rng(7)
    network = uniform_capacities(
        random_geometric_network(100, 0.25, rng=rng), 1.0
    )
    system = majority(5)
    strategy = AccessStrategy.uniform(system)
    candidates = list(network.nodes)[:3]
    return system, strategy, network, candidates


def placement_mapping(system, placement):
    """Placement has no __eq__; compare the induced element->node map."""
    return {u: placement[u] for u in system.universe}


@pytest.mark.skipif(not FORK_AVAILABLE, reason="needs fork start method")
def test_parallel_sweep_is_byte_identical_to_serial(bench_instance):
    system, strategy, network, candidates = bench_instance
    serial = solve_qpp(
        system,
        strategy,
        network=network,
        alpha=2.0,
        candidate_sources=candidates,
    )
    parallel = solve_qpp(
        system,
        strategy,
        network=network,
        alpha=2.0,
        candidate_sources=candidates,
        parallel="process",
        max_workers=2,
    )
    assert parallel.objective == serial.objective
    assert parallel.source == serial.source
    assert parallel.optimum_lower_bound == serial.optimum_lower_bound
    assert placement_mapping(system, parallel.placement) == placement_mapping(
        system, serial.placement
    )
    assert set(parallel.per_source) == set(serial.per_source) == set(candidates)
    for source in candidates:
        got, want = parallel.per_source[source], serial.per_source[source]
        assert got.lp_value == want.lp_value
        assert got.max_load_factor == want.max_load_factor
        assert placement_mapping(system, got.placement) == placement_mapping(
            system, want.placement
        )


def test_unknown_parallel_mode_is_rejected(bench_instance):
    system, strategy, network, candidates = bench_instance
    with pytest.raises(ValidationError, match="parallel"):
        solve_qpp(
            system,
            strategy,
            network=network,
            candidate_sources=candidates[:1],
            parallel="thread",
        )


def test_max_workers_must_be_positive(bench_instance):
    system, strategy, network, candidates = bench_instance
    with pytest.raises(ValidationError, match="max_workers"):
        solve_qpp(
            system,
            strategy,
            network=network,
            candidate_sources=candidates[:1],
            parallel="process",
            max_workers=0,
        )


def test_worker_matches_inline_single_source_solve(bench_instance):
    """The per-candidate call the pool runs is one plain single-source solve."""
    from repro.core.qpp import _solve_candidate
    from repro.core.ssqpp import solve_ssqpp

    system, strategy, network, candidates = bench_instance
    source = candidates[0]
    via_worker = _solve_candidate(
        source,
        system=system,
        strategy=strategy,
        network=network,
        alpha=2.0,
        lp_method="highs",
        formulation="prefix",
        metric=None,
    )
    direct = solve_ssqpp(
        system,
        strategy,
        network=network,
        source=source,
        alpha=2.0,
        formulation="prefix",
    )
    assert via_worker.lp_value == direct.lp_value
    assert placement_mapping(system, via_worker.placement) == placement_mapping(
        system, direct.placement
    )


# -- lazy-metric state across the fork fan-out ----------------------------------------


@pytest.mark.skipif(not FORK_AVAILABLE, reason="needs fork start method")
def test_pooled_sweep_leaves_warmed_lazy_rows_intact(bench_instance):
    """Byte-identical pooled sweep with a warmed LazyMetric in the parent.

    The row counters are fork-aware (``os.register_at_fork`` zeroes the
    child registries), so a ``parallel="process"`` sweep must neither
    leak child-side ``metric.cache.row_*`` traffic back into the parent
    nor evict the rows warmed before the fan-out.
    """
    from repro.network import metric_cache_info
    from repro.obs.metrics import counter

    system, strategy, network, candidates = bench_instance
    view = network.lazy_metric()
    for node in candidates:
        view.distances_from(node)
    warmed = metric_cache_info()
    assert warmed.row_misses == len(candidates)

    serial = solve_qpp(
        system,
        strategy,
        network=network,
        alpha=2.0,
        candidate_sources=candidates,
    )
    pooled = solve_qpp(
        system,
        strategy,
        network=network,
        alpha=2.0,
        candidate_sources=candidates,
        parallel="process",
        max_workers=2,
    )
    assert pooled.objective == serial.objective
    assert pooled.source == serial.source
    assert pooled.optimum_lower_bound == serial.optimum_lower_bound
    assert placement_mapping(system, pooled.placement) == placement_mapping(
        system, serial.placement
    )

    # The fan-out forked workers mid-session; the parent's row counters
    # must read exactly as before the pooled sweep...
    after = metric_cache_info()
    assert after.row_misses == warmed.row_misses
    assert after.row_hits == warmed.row_hits
    assert after.row_evictions == warmed.row_evictions
    # ...and the warmed rows are still cached: re-reading one is a hit,
    # not a recomputation.
    view.distances_from(candidates[0])
    assert counter("metric.cache.row_hits").value == warmed.row_hits + 1
    assert network.lazy_metric() is view
