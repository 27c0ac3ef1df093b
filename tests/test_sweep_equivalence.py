"""Differential harness for the Thm 1.2 relay sweep in :func:`solve_qpp`.

Every case below pins, bit for bit, what the sweep returns on a seeded
instance: the winning source, the objective, the certified lower bound
and the realized load factor (as ``float.hex``), the provenance record,
the winning placement, and a SHA-256 digest over every candidate's
``(lp_value, delay, max_load_factor)`` and placement.  It also pins the
telemetry the sweep reports (LP solves and iterations, and the pruning
counters of ``scale="large"``).  The matrix covers both scales, both LP
formulations, the serial and the pooled sweep, the landmark and the
all-node candidates of the large sweep, a rate-weighted solve and a warm
re-solve, so a
change to how the sweep is organised either reproduces every pinned value
or shows which case moved.  Re-selection (``per_source=``, wholly or
partly reused) must reproduce the same records without their LPs.

The paper's guarantees are asserted on every result as well: Theorem 3.7
for each candidate (delay within ``alpha/(alpha-1) * Z*``, load within
``(alpha+1) * cap``) and Theorem 1.2 for the sweep (load within
``(alpha+1) * cap``, and the objective within ``alpha/(alpha-1)`` of
``min over swept c of (Avg_v d(v, c) + Z*(c))``, which is ``5 alpha/(alpha-1)``
times the Theorem 3.3 bound when every node is a candidate and holds for
any candidate set).
"""

from __future__ import annotations

import hashlib
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from repro.core import Placement, solve_qpp
from repro.core import qpp as qpp_module
from repro.core.qpp import warm_candidates
from repro.exceptions import ValidationError
from repro.network import random_geometric_network
from repro.quorums import AccessStrategy, QuorumSystem, grid, majority

FORK_AVAILABLE = "fork" in multiprocessing.get_all_start_methods()

#: The counters a case pins, read from ``result.telemetry.metrics``.
COUNTERS = (
    "lp.solve.count",
    "lp.iterations.total",
    "qpp.prune.skipped",
    "qpp.prune.evaluated",
)


def _instance(system, n, radius, seed):
    network = random_geometric_network(
        n, radius, rng=np.random.default_rng(seed)
    ).with_capacities(2.0)
    return system, AccessStrategy.uniform(system), network


#: ``name -> (system factory, nodes, radius, network seed)``.
INSTANCES = {
    "grid3-geo24": (lambda: grid(3), 24, 0.45, 42),
    "majority5-geo48": (lambda: majority(5), 48, 0.3, 8),
}


@pytest.fixture(scope="module")
def instances():
    return {
        name: _instance(system(), n, radius, seed)
        for name, (system, n, radius, seed) in INSTANCES.items()
    }


@pytest.fixture(scope="module")
def dense_sweep(instances):
    """The recorded ``dense-prefix-serial`` sweep, whose ``per_source``
    the re-selection tests reuse."""
    return _solve(instances, "dense-prefix-serial")


def _rates(network):
    return {node: 1.0 + (index % 3) for index, node in enumerate(network.nodes)}


#: ``case -> (instance, solve_qpp options)``.  ``"all"`` as the candidate
#: list stands for every node of the instance's network.
CASES = {
    "dense-prefix-serial": ("grid3-geo24", {"formulation": "prefix"}),
    "dense-prefix-process": (
        "grid3-geo24",
        {"formulation": "prefix", "parallel": "process", "max_workers": 2},
    ),
    "dense-cumulative-serial": ("grid3-geo24", {"formulation": "cumulative"}),
    "dense-cumulative-process": (
        "grid3-geo24",
        {"formulation": "cumulative", "parallel": "process", "max_workers": 2},
    ),
    "dense-rates": ("grid3-geo24", {"rates": "seeded"}),
    "large-auto-prefix": (
        "majority5-geo48",
        {"scale": "large", "formulation": "prefix"},
    ),
    "large-auto-cumulative": (
        "majority5-geo48",
        {"scale": "large", "formulation": "cumulative"},
    ),
    "large-full-prefix": (
        "majority5-geo48",
        {
            "scale": "large",
            "formulation": "prefix",
            "prune": False,
            "candidate_sources": "all",
        },
    ),
    "large-full-cumulative": (
        "majority5-geo48",
        {
            "scale": "large",
            "formulation": "cumulative",
            "prune": False,
            "candidate_sources": "all",
        },
    ),
}


def _options(instances, case):
    name, options = CASES[case]
    network = instances[name][2]
    options = dict(options)
    if options.get("candidate_sources") == "all":
        options["candidate_sources"] = list(network.nodes)
    if options.get("rates") == "seeded":
        options["rates"] = _rates(network)
    return options


def _solve(instances, case):
    system, strategy, network = instances[CASES[case][0]]
    options = _options(instances, case)
    return solve_qpp(system, strategy, network=network, alpha=2.0, **options)


def _placement(system, placement):
    """The host of every element, in universe order."""
    return " ".join(repr(placement[u]) for u in system.universe)


def _per_source_digest(system, result):
    lines = []
    for source, single in result.per_source.items():
        numbers = (single.lp_value, single.delay, single.max_load_factor)
        lines.append(
            f"{source!r} {' '.join(x.hex() for x in numbers)} "
            f"{_placement(system, single.placement)}"
        )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _record(system, result):
    metrics = result.telemetry.metrics
    return {
        "source": repr(result.source),
        "objective": result.objective.hex(),
        "optimum_lower_bound": result.optimum_lower_bound.hex(),
        "load_violation_factor": result.load_violation_factor.hex(),
        "provenance": (
            result.provenance.algorithm,
            result.provenance.theorem,
            result.provenance.parameters,
        ),
        "placement": _placement(system, result.placement),
        "per_source": _per_source_digest(system, result),
        "telemetry": tuple(int(metrics.get(name, 0.0)) for name in COUNTERS),
    }


def _check_guarantees(result, network, rates=None):
    alpha = result.alpha
    assert result.load_factor_bound == alpha + 1.0
    # Thm 1.2, load: every node within (alpha + 1) * cap.
    assert result.load_violation_factor <= result.load_factor_bound + 1e-9
    for single in result.per_source.values():
        # Thm 3.7: delay within alpha/(alpha-1) * Z*, load within (alpha+1) * cap.
        assert single.within_guarantees
        assert single.max_load_factor <= alpha + 1.0 + 1e-9
    # Thm 1.2, delay: the winner is no worse than relaying every client
    # through the best swept candidate c, which costs at most
    # Avg_v d(v, c) + Delta_f(c) <= alpha/(alpha-1) * (Avg_v d(v, c) + Z*(c)).
    # Over every node, the minimum is 5 times the Thm 3.3 lower bound.
    if rates is None:
        weights = np.full(network.size, 1.0 / network.size)
    else:
        weights = np.array([rates[node] for node in network.nodes], dtype=float)
        weights /= weights.sum()
    metric = network.metric()
    relay = min(
        float(weights @ metric.distances_from(source)) + single.lp_value
        for source, single in result.per_source.items()
    )
    assert result.objective <= alpha / (alpha - 1.0) * relay * (1 + 1e-9)


EXPECTED: dict[str, dict] = {
    "dense-prefix-serial": {
        "source": "21",
        "objective": "0x1.ebf5ee4f751e4p-2",
        "optimum_lower_bound": "0x1.a3339c26d7748p-4",
        "load_violation_factor": "0x1.1c71c71c71c71p+1",
        "provenance": (
            "qpp.relay-sweep",
            "Thm 1.2",
            (("alpha", 2.0), ("formulation", "prefix")),
        ),
        "placement": "21 21 21 21 10 21 21 21 21",
        "per_source": "4693d46d3399e063c45b12d772ae1ca6dd6304411aba2d4090d4d20805247e2c",
        "telemetry": (24, 1287, 0, 0),
    },
    "dense-prefix-process": {
        "source": "21",
        "objective": "0x1.ebf5ee4f751e4p-2",
        "optimum_lower_bound": "0x1.a3339c26d7748p-4",
        "load_violation_factor": "0x1.1c71c71c71c71p+1",
        "provenance": (
            "qpp.relay-sweep",
            "Thm 1.2",
            (("alpha", 2.0), ("formulation", "prefix")),
        ),
        "placement": "21 21 21 21 10 21 21 21 21",
        "per_source": "4693d46d3399e063c45b12d772ae1ca6dd6304411aba2d4090d4d20805247e2c",
        "telemetry": (0, 0, 0, 0),
    },
    "dense-cumulative-serial": {
        "source": "21",
        "objective": "0x1.ebf5ee4f751e4p-2",
        "optimum_lower_bound": "0x1.a3339c26d7748p-4",
        "load_violation_factor": "0x1.1c71c71c71c71p+1",
        "provenance": (
            "qpp.relay-sweep",
            "Thm 1.2",
            (("alpha", 2.0), ("formulation", "cumulative")),
        ),
        "placement": "21 21 21 21 10 21 21 21 21",
        "per_source": "b32741c37a5d351521c47f319f6ba6fc6be2f2f0e473b3f3e9f7d9e610d80f91",
        "telemetry": (24, 1237, 0, 0),
    },
    "dense-cumulative-process": {
        "source": "21",
        "objective": "0x1.ebf5ee4f751e4p-2",
        "optimum_lower_bound": "0x1.a3339c26d7748p-4",
        "load_violation_factor": "0x1.1c71c71c71c71p+1",
        "provenance": (
            "qpp.relay-sweep",
            "Thm 1.2",
            (("alpha", 2.0), ("formulation", "cumulative")),
        ),
        "placement": "21 21 21 21 10 21 21 21 21",
        "per_source": "b32741c37a5d351521c47f319f6ba6fc6be2f2f0e473b3f3e9f7d9e610d80f91",
        "telemetry": (0, 0, 0, 0),
    },
    "dense-rates": {
        "source": "23",
        "objective": "0x1.f27e71efb47c9p-2",
        "optimum_lower_bound": "0x1.a3c7b60a4874ep-4",
        "load_violation_factor": "0x1.1c71c71c71c71p+1",
        "provenance": (
            "qpp.relay-sweep",
            "Thm 1.2",
            (("alpha", 2.0), ("formulation", "prefix")),
        ),
        "placement": "23 23 23 23 7 23 23 23 23",
        "per_source": "4693d46d3399e063c45b12d772ae1ca6dd6304411aba2d4090d4d20805247e2c",
        "telemetry": (24, 1287, 0, 0),
    },
    "large-auto-prefix": {
        "source": "25",
        "objective": "0x1.6a8d0b508769cp-2",
        "optimum_lower_bound": "0x1.4cf7ba5bcedfcp-7",
        "load_violation_factor": "0x1.8000000000000p+0",
        "provenance": (
            "qpp.relay-sweep-large",
            "Thm 1.2",
            (("alpha", 2.0), ("formulation", "prefix"), ("landmarks", 16)),
        ),
        "placement": "25 25 25 25 25",
        "per_source": "34c06c9e41c735461ba0d05a18e3916c7bca60b66394f2e23d357f45cab8bfe7",
        "telemetry": (16, 240, 13, 3),
    },
    "large-auto-cumulative": {
        "source": "25",
        "objective": "0x1.6a8d0b508769cp-2",
        "optimum_lower_bound": "0x1.4cf7ba5bcedfcp-7",
        "load_violation_factor": "0x1.8000000000000p+0",
        "provenance": (
            "qpp.relay-sweep-large",
            "Thm 1.2",
            (("alpha", 2.0), ("formulation", "cumulative"), ("landmarks", 16)),
        ),
        "placement": "25 25 25 25 25",
        "per_source": "34c06c9e41c735461ba0d05a18e3916c7bca60b66394f2e23d357f45cab8bfe7",
        "telemetry": (16, 240, 13, 3),
    },
    "large-full-prefix": {
        "source": "13",
        "objective": "0x1.60a0b42e73af0p-2",
        "optimum_lower_bound": "0x1.20d73bcf9cdbap-4",
        "load_violation_factor": "0x1.8000000000000p+0",
        "provenance": (
            "qpp.relay-sweep-large",
            "Thm 1.2",
            (("alpha", 2.0), ("formulation", "prefix"), ("landmarks", 16)),
        ),
        "placement": "13 13 13 13 13",
        "per_source": "dbd3cf37af13a6ad7d0ae8402cb724e099fd0ae316384fd8c67d242589d08bef",
        "telemetry": (48, 720, 0, 48),
    },
    "large-full-cumulative": {
        "source": "13",
        "objective": "0x1.60a0b42e73af0p-2",
        "optimum_lower_bound": "0x1.20d73bcf9cdbap-4",
        "load_violation_factor": "0x1.8000000000000p+0",
        "provenance": (
            "qpp.relay-sweep-large",
            "Thm 1.2",
            (("alpha", 2.0), ("formulation", "cumulative"), ("landmarks", 16)),
        ),
        "placement": "13 13 13 13 13",
        "per_source": "dbd3cf37af13a6ad7d0ae8402cb724e099fd0ae316384fd8c67d242589d08bef",
        "telemetry": (48, 720, 0, 48),
    },
    "dense-warm": {
        "candidates": ["21", "4", "18", "7"],
        "result": {
            "source": "21",
            "objective": "0x1.ebf5ee4f751e4p-2",
            "optimum_lower_bound": "0x1.0c5522f8b3e72p-7",
            "load_violation_factor": "0x1.1c71c71c71c71p+1",
            "provenance": (
                "qpp.relay-sweep",
                "Thm 1.2",
                (("alpha", 2.0), ("formulation", "prefix")),
            ),
            "placement": "21 21 21 21 10 21 21 21 21",
            "per_source": "2ba50543d73f0a1484f4eefa59af8e53ec6213c775aeed3da09028614a61f9e5",
            "telemetry": (4, 208, 0, 0),
        },
    },
}




def _needs_fork(case):
    process = CASES.get(case, (None, {}))[1].get("parallel") == "process"
    return pytest.mark.skipif(
        process and not FORK_AVAILABLE, reason="needs fork start method"
    )


@pytest.mark.parametrize(
    "case", [pytest.param(case, marks=_needs_fork(case)) for case in CASES]
)
def test_sweep_reproduces_recorded_result(instances, case):
    system, _, network = instances[CASES[case][0]]
    result = _solve(instances, case)
    _check_guarantees(result, network, _options(instances, case).get("rates"))
    assert _record(system, result) == EXPECTED[case]


def test_warm_resolve_reproduces_recorded_result(instances):
    system, strategy, network = instances["grid3-geo24"]
    full = _solve(instances, "dense-prefix-serial")
    warm = warm_candidates(full, limit=4)
    result = solve_qpp(
        system, strategy, network=network, alpha=2.0, candidate_sources=warm
    )
    _check_guarantees(result, network)
    assert [repr(node) for node in warm] == EXPECTED["dense-warm"]["candidates"]
    assert _record(system, result) == EXPECTED["dense-warm"]["result"]


# -- re-selection: per_source reuse -------------------------------------------------


def test_reselection_reproduces_the_rate_weighted_record(instances, dense_sweep):
    """Rates never reach the single-source solves, so re-selecting the
    uniform sweep's candidates under rates is the pinned rate-weighted
    solve, with no LP (the telemetry is all zero)."""
    system, strategy, network = instances["grid3-geo24"]
    rates = _rates(network)
    result = solve_qpp(
        system, strategy, network=network, alpha=2.0, rates=rates,
        per_source=dense_sweep.per_source,
    )
    _check_guarantees(result, network, rates)
    assert _record(system, result) == dict(EXPECTED["dense-rates"], telemetry=(0, 0, 0, 0))
    assert result.telemetry.metrics["qpp.reused"] == network.size
    assert all(result.per_source[node] is dense_sweep.per_source[node] for node in network.nodes)


def test_large_reselection_equals_a_fresh_rate_weighted_sweep(instances):
    system, strategy, network = instances["majority5-geo48"]
    full = _solve(instances, "large-auto-prefix")
    rates = _rates(network)
    fresh = solve_qpp(
        system, strategy, network=network, alpha=2.0, rates=rates, scale="large"
    )
    reselected = solve_qpp(
        system, strategy, network=network, alpha=2.0, rates=rates, scale="large",
        per_source=full.per_source,
    )
    _check_guarantees(reselected, network, rates)
    expected, record = _record(system, fresh), _record(system, reselected)
    # The same candidates are pruned and evaluated; only the LPs are gone.
    assert record["telemetry"] == (0, 0) + expected["telemetry"][2:]
    assert {**record, "telemetry": None} == {**expected, "telemetry": None}
    assert reselected.objective != full.objective  # the rates do move it


class _RecordingPool(ProcessPoolExecutor):
    """A process pool that records what each sweep hands it."""

    started = 0
    mapped: list[list] = []

    def __init__(self, *args, **kwargs):
        type(self).started += 1
        super().__init__(*args, **kwargs)

    def map(self, fn, *iterables, **kwargs):
        items = list(iterables[0])
        type(self).mapped.append(items)
        return super().map(fn, items, **kwargs)


@pytest.mark.parametrize(
    "parallel",
    [None, pytest.param("process", marks=pytest.mark.skipif(
        not FORK_AVAILABLE, reason="needs fork start method"
    ))],
)
def test_partial_reuse_solves_only_the_missing_candidates(
    instances, dense_sweep, monkeypatch, parallel
):
    system, strategy, network = instances["grid3-geo24"]
    kept = {node: dense_sweep.per_source[node] for node in network.nodes[::2]}
    missing = [node for node in network.nodes if node not in kept]
    monkeypatch.setattr(_RecordingPool, "started", 0)
    monkeypatch.setattr(_RecordingPool, "mapped", [])
    monkeypatch.setattr(qpp_module, "ProcessPoolExecutor", _RecordingPool)
    options = {} if parallel is None else {"parallel": "process", "max_workers": 2}
    result = solve_qpp(
        system, strategy, network=network, alpha=2.0, per_source=kept, **options
    )
    _check_guarantees(result, network)
    record = _record(system, result)
    assert {**record, "telemetry": None} == {**EXPECTED["dense-prefix-serial"], "telemetry": None}
    # A pool's LP counters stay in its workers.
    assert record["telemetry"][0] == (0 if parallel else len(missing))
    assert result.telemetry.metrics["qpp.reused"] == len(kept)
    assert list(result.per_source) == list(network.nodes)
    if parallel:
        assert _RecordingPool.mapped == [missing]
    else:
        assert _RecordingPool.started == 0

    # Nothing missing: the pool is not even started.
    again = solve_qpp(
        system, strategy, network=network, alpha=2.0, per_source=result.per_source, **options
    )
    assert _record(system, again) == dict(EXPECTED["dense-prefix-serial"], telemetry=(0, 0, 0, 0))
    assert _RecordingPool.started == (1 if parallel else 0)


@pytest.mark.parametrize(
    "wrong, message",
    [
        ("key", "is not a node"),
        ("source", "is the result of source"),
        ("alpha", "alpha=3.0"),
        ("network", "another network"),
        ("system", "another quorum system"),
    ],
)
def test_per_source_from_another_sweep_is_rejected(instances, dense_sweep, wrong, message):
    system, strategy, network = instances["grid3-geo24"]
    source = network.nodes[3]
    entry = dense_sweep.per_source[source]
    hosts = entry.placement.as_dict()
    if wrong == "key":
        per_source = {"no-such-node": entry}
    elif wrong == "source":
        per_source = {network.nodes[4]: entry}
    elif wrong == "alpha":
        per_source = {source: replace(entry, alpha=3.0)}
    elif wrong == "network":
        other = Placement(system, network.with_capacities(1.0), hosts)
        per_source = {source: replace(entry, placement=other)}
    else:
        reordered = QuorumSystem(list(reversed(system.quorums)))
        per_source = {source: replace(entry, placement=Placement(reordered, network, hosts))}
    with pytest.raises(ValidationError, match=message):
        solve_qpp(system, strategy, network=network, alpha=2.0, per_source=per_source)
