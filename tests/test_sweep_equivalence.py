"""Differential harness for the Thm 1.2 relay sweep in :func:`solve_qpp`.

Every case below pins, bit for bit, what the sweep returns on a seeded
instance: the winning source, the objective, the certified lower bound
and the realized load factor (as ``float.hex``), the provenance record,
the winning placement, and a SHA-256 digest over every candidate's
``(lp_value, delay, max_load_factor)`` and placement.  It also pins the
telemetry the sweep reports (LP solves and iterations, and the pruning
counters of ``scale="large"``).  The matrix covers both scales, both LP
formulations, the serial and the pooled sweep, the three placement-domain
rules of the large sweep, a rate-weighted solve and a warm re-solve, so a
change to how the sweep is organised either reproduces every pinned value
or shows which case moved.

The paper's guarantees are asserted on every result as well: Theorem 3.7
for each candidate (delay within ``alpha/(alpha-1) * Z*``, load within
``(alpha+1) * cap``) and Theorem 1.2 for the sweep (load within
``(alpha+1) * cap``, and the objective within ``5 alpha/(alpha-1)`` of
the certified lower bound whenever the bound is not void).
"""

from __future__ import annotations

import hashlib
import multiprocessing

import numpy as np
import pytest

from repro.core import solve_qpp
from repro.core.qpp import warm_candidates
from repro.network import random_geometric_network
from repro.quorums import AccessStrategy, grid, majority

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
            "horizon": None,
            "prune": False,
            "candidate_sources": "all",
        },
    ),
    "large-full-cumulative": (
        "majority5-geo48",
        {
            "scale": "large",
            "formulation": "cumulative",
            "horizon": None,
            "prune": False,
            "candidate_sources": "all",
        },
    ),
    "large-h12-prefix": (
        "majority5-geo48",
        {"scale": "large", "formulation": "prefix", "horizon": 12},
    ),
    "large-h12-cumulative": (
        "majority5-geo48",
        {"scale": "large", "formulation": "cumulative", "horizon": 12},
    ),
}


def _solve(instances, case):
    name, options = CASES[case]
    system, strategy, network = instances[name]
    options = dict(options)
    if options.get("candidate_sources") == "all":
        options["candidate_sources"] = list(network.nodes)
    if options.get("rates") == "seeded":
        options["rates"] = _rates(network)
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


def _check_guarantees(result):
    alpha = result.alpha
    assert result.load_factor_bound == alpha + 1.0
    # Thm 1.2, load: every node within (alpha + 1) * cap.
    assert result.load_violation_factor <= result.load_factor_bound + 1e-9
    for single in result.per_source.values():
        # Thm 3.7: delay within alpha/(alpha-1) * Z*, load within (alpha+1) * cap.
        assert single.within_guarantees
        assert single.max_load_factor <= alpha + 1.0 + 1e-9
    if result.optimum_lower_bound > 0:
        # Thm 1.2, delay: within 5 alpha/(alpha-1) of the certified bound.
        bound = result.approximation_factor * result.optimum_lower_bound
        assert result.objective <= bound * (1 + 1e-9)


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
        "per_source": "c5caaea3795ffc3a8b37593f52359a07b4274147e3ee1779b399a97ff9610725",
        "telemetry": (24, 1765, 0, 0),
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
        "per_source": "c5caaea3795ffc3a8b37593f52359a07b4274147e3ee1779b399a97ff9610725",
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
        "per_source": "928ac322fe00da69c8291f607a528174deb72c934762f2cff3452c97edf4f0ec",
        "telemetry": (24, 6089, 0, 0),
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
        "per_source": "928ac322fe00da69c8291f607a528174deb72c934762f2cff3452c97edf4f0ec",
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
        "per_source": "c5caaea3795ffc3a8b37593f52359a07b4274147e3ee1779b399a97ff9610725",
        "telemetry": (24, 1765, 0, 0),
    },
    "large-auto-prefix": {
        "source": "25",
        "objective": "0x1.6a8d0b508769cp-2",
        "optimum_lower_bound": "0x0.0p+0",
        "load_violation_factor": "0x1.8000000000000p+0",
        "provenance": (
            "qpp.relay-sweep-large",
            "Thm 1.2",
            (("alpha", 2.0), ("formulation", "prefix"), ("horizon", "auto"), ("landmarks", 16)),
        ),
        "placement": "25 25 25 25 25",
        "per_source": "608e5efd9a4d7d5ed8e56524820deb78de2224831e28e6b1d912d6f40b5521ae",
        "telemetry": (16, 688, 13, 3),
    },
    "large-auto-cumulative": {
        "source": "25",
        "objective": "0x1.6a8d0b508769cp-2",
        "optimum_lower_bound": "0x0.0p+0",
        "load_violation_factor": "0x1.8000000000000p+0",
        "provenance": (
            "qpp.relay-sweep-large",
            "Thm 1.2",
            (("alpha", 2.0), ("formulation", "cumulative"), ("horizon", "auto"), ("landmarks", 16)),
        ),
        "placement": "25 25 25 25 25",
        "per_source": "652ff2aea33b1e387474afdb544a9900399f177b2ffc80df60560ad4c9233759",
        "telemetry": (16, 3033, 13, 3),
    },
    "large-full-prefix": {
        "source": "13",
        "objective": "0x1.60a0b42e73af0p-2",
        "optimum_lower_bound": "0x1.20d73bcf9cdbap-4",
        "load_violation_factor": "0x1.8000000000000p+0",
        "provenance": (
            "qpp.relay-sweep-large",
            "Thm 1.2",
            (("alpha", 2.0), ("formulation", "prefix"), ("horizon", None), ("landmarks", 16)),
        ),
        "placement": "13 13 13 13 13",
        "per_source": "b0b62b2aa330ca68fc1a9421b6e0eb1ab35287f3a5bf2393d83a166443ef217a",
        "telemetry": (48, 2237, 0, 48),
    },
    "large-full-cumulative": {
        "source": "13",
        "objective": "0x1.60a0b42e73af0p-2",
        "optimum_lower_bound": "0x1.20d73bcf9cdbap-4",
        "load_violation_factor": "0x1.8000000000000p+0",
        "provenance": (
            "qpp.relay-sweep-large",
            "Thm 1.2",
            (("alpha", 2.0), ("formulation", "cumulative"), ("horizon", None), ("landmarks", 16)),
        ),
        "placement": "13 13 13 13 13",
        "per_source": "f45f943a4b4e4fda6f55e99666a2c11de0a5e7af89c8cf290dfe5238b4921c8c",
        "telemetry": (48, 11772, 0, 48),
    },
    "large-h12-prefix": {
        "source": "25",
        "objective": "0x1.6a8d0b508769cp-2",
        "optimum_lower_bound": "0x0.0p+0",
        "load_violation_factor": "0x1.8000000000000p+0",
        "provenance": (
            "qpp.relay-sweep-large",
            "Thm 1.2",
            (("alpha", 2.0), ("formulation", "prefix"), ("horizon", 12), ("landmarks", 16)),
        ),
        "placement": "25 25 25 25 25",
        "per_source": "7f0e2f476139ac1ed7bf2cc10e3a8b9ec43f0d96683c05b723455969e7bb0e90",
        "telemetry": (16, 724, 13, 3),
    },
    "large-h12-cumulative": {
        "source": "25",
        "objective": "0x1.6a8d0b508769cp-2",
        "optimum_lower_bound": "0x0.0p+0",
        "load_violation_factor": "0x1.8000000000000p+0",
        "provenance": (
            "qpp.relay-sweep-large",
            "Thm 1.2",
            (("alpha", 2.0), ("formulation", "cumulative"), ("horizon", 12), ("landmarks", 16)),
        ),
        "placement": "25 25 25 25 25",
        "per_source": "4243b82ffed3562e72dbdf7e624eb2ff822501683cd79695207f938ad453a049",
        "telemetry": (16, 1503, 13, 3),
    },
    "dense-warm": {
        "candidates": ["21", "4", "18", "7"],
        "result": {
            "source": "21",
            "objective": "0x1.ebf5ee4f751e4p-2",
            "optimum_lower_bound": "0x1.a910f97ce6836p-4",
            "load_violation_factor": "0x1.1c71c71c71c71p+1",
            "provenance": (
                "qpp.relay-sweep",
                "Thm 1.2",
                (("alpha", 2.0), ("formulation", "prefix")),
            ),
            "placement": "21 21 21 21 10 21 21 21 21",
            "per_source": "ac35870ab5f8a15085a5875aa1e57b5e1575e5807958a990b5856b89fab1b629",
            "telemetry": (4, 287, 0, 0),
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
    system = instances[CASES[case][0]][0]
    result = _solve(instances, case)
    _check_guarantees(result)
    assert _record(system, result) == EXPECTED[case]


def test_warm_resolve_reproduces_recorded_result(instances):
    system, strategy, network = instances["grid3-geo24"]
    full = _solve(instances, "dense-prefix-serial")
    warm = warm_candidates(full, limit=4)
    result = solve_qpp(
        system, strategy, network=network, alpha=2.0, candidate_sources=warm
    )
    _check_guarantees(result)
    assert [repr(node) for node in warm] == EXPECTED["dense-warm"]["candidates"]
    assert _record(system, result) == EXPECTED["dense-warm"]["result"]
