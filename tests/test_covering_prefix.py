"""The capacity-covering prefix ``P(v0)`` that every single-source LP spans.

:func:`repro.core.ssqpp.solve_ssqpp` runs the LP (9)-(14), the filtering
and the rounding on the shortest prefix of the source's (distance, node
index) order whose nodes able to host the heaviest element cover the
total load.  The claim is exactness: the LP optimum on ``P`` equals the
optimum of the LP over every node (:func:`build_ssqpp_lp`).  These tests
check that claim on the equivalence harness's instances, on
heterogeneous and sparsely eligible capacities where ``P`` grows, and at
the edges: no covering prefix, no capacities at all, and distance ties.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import SSQPPLPFactory, build_ssqpp_lp, solve_qpp, solve_ssqpp
from repro.core.ssqpp import _covering_prefix
from repro.exceptions import InfeasibleError
from repro.network import Network, random_geometric_network
from repro.obs import trace
from repro.quorums import AccessStrategy, grid, majority


def _full_lp_value(system, strategy, network, source, formulation="prefix"):
    model = build_ssqpp_lp(system, strategy, network, source, formulation=formulation)[0]
    return float(model.solve(method="highs").objective)


def _prefix(strategy, network, source):
    row = network.metric().distances_from(source)
    return _covering_prefix(network, row, strategy.load_array())


def _reference_prefix(strategy, network, source):
    """The rule as a scalar loop over ``nodes_by_distance``."""
    heaviest = float(strategy.load_array().max())
    needed = float(strategy.load_array().sum()) * (1 + 1e-12)
    ordered = network.metric().nodes_by_distance(source)
    covered = 0.0
    for cut, node in enumerate(ordered, start=1):
        if network.capacity(node) + 1e-12 >= heaviest:
            covered += network.capacity(node)
        if covered >= needed:
            return None if cut == len(ordered) else ordered[:cut]
    return None


def _assert_exact(system, strategy, network, sources, formulation="prefix"):
    """Z* on P equals the full-domain optimum for every source; returns
    the domain sizes."""
    sizes = []
    for source in sources:
        domain = _prefix(strategy, network, source)
        assert domain == _reference_prefix(strategy, network, source)
        sizes.append(network.size if domain is None else len(domain))
        restricted = solve_ssqpp(
            system, strategy, network=network, source=source, formulation=formulation
        )
        full = _full_lp_value(system, strategy, network, source, formulation)
        assert restricted.lp_value == pytest.approx(full, rel=1e-12, abs=1e-15), source
        assert restricted.within_guarantees
    return sizes


#: The instances of ``tests/test_sweep_equivalence.py``:
#: ``name -> (system factory, nodes, radius, network seed)``.
HARNESS = {
    "grid3-geo24": (lambda: grid(3), 24, 0.45, 42),
    "majority5-geo48": (lambda: majority(5), 48, 0.3, 8),
}


@pytest.mark.parametrize("name", sorted(HARNESS))
def test_prefix_optimum_matches_the_full_lp_on_the_harness_instances(name):
    make_system, n, radius, seed = HARNESS[name]
    system = make_system()
    strategy = AccessStrategy.uniform(system)
    network = random_geometric_network(
        n, radius, rng=np.random.default_rng(seed)
    ).with_capacities(2.0)
    sizes = _assert_exact(system, strategy, network, network.nodes)
    # Uniform capacity 2.0 covers the load within a few nodes.
    assert max(sizes) < n


def _varied_network(seed, n, capacity):
    rng = np.random.default_rng(seed)
    network = random_geometric_network(n, 0.35, rng=rng)
    return network.with_capacities({v: capacity(rng) for v in network.nodes})


#: ``regime -> per-node capacity draw``.  "sparse" leaves most nodes
#: below the heaviest load (0.6 for majority(5), 5/9 for grid(3)), so P
#: must reach past them to the few nodes that can host it.
CAPACITIES = {
    "heterogeneous": lambda rng: float(rng.uniform(0.3, 1.6)),
    "sparse": lambda rng: 1.6 if rng.random() < 0.2 else 0.5,
}


@pytest.mark.parametrize("regime", sorted(CAPACITIES))
@pytest.mark.parametrize("system_name", ["grid3", "majority5"])
def test_prefix_optimum_matches_the_full_lp_on_varied_capacities(system_name, regime):
    system = grid(3) if system_name == "grid3" else majority(5)
    strategy = AccessStrategy.uniform(system)
    network = _varied_network(17, 40, CAPACITIES[regime])
    sources = network.nodes[::5]
    sizes = _assert_exact(system, strategy, network, sources)
    if regime == "sparse":
        # Sparse eligibility stretches P well past the first few nodes.
        assert max(sizes) > 3


def test_cumulative_formulation_is_exact_on_the_prefix_too():
    system = majority(5)
    strategy = AccessStrategy.uniform(system)
    network = _varied_network(5, 30, CAPACITIES["sparse"])
    _assert_exact(system, strategy, network, network.nodes[::6], "cumulative")


def _heavy_element_strategy():
    """majority(3) accessed mostly through the quorums holding element 0,
    so element 0 carries far more load than the others."""
    system = majority(3)
    weights = [0.45 if 0 in system.quorums[k] else 0.1 for k in range(len(system.quorums))]
    total = sum(weights)
    return system, AccessStrategy(system, [w / total for w in weights])


class TestNoCoveringPrefix:
    def test_short_eligible_capacity_keeps_the_full_domain(self):
        system, strategy = _heavy_element_strategy()
        heaviest = float(strategy.load_array().max())
        # One node can host the heavy element but cannot hold the whole
        # load; the others take the light elements only.
        capacities = {0: heaviest + 0.05, **{v: 0.6 for v in range(1, 6)}}
        network = Network(
            range(6), [(v, v + 1, 1.0 + v / 10) for v in range(5)], capacities=capacities
        )
        for source in network.nodes:
            assert _prefix(strategy, network, source) is None
            result = solve_ssqpp(system, strategy, network=network, source=source)
            assert result.lp_value == _full_lp_value(system, strategy, network, source)

    def test_infeasible_input_raises_as_on_the_full_domain(self):
        system = majority(3)
        strategy = AccessStrategy.uniform(system)
        network = Network(range(4), [(0, 1), (1, 2), (2, 3)], capacities=0.4)
        assert _prefix(strategy, network, 0) is None
        with pytest.raises(InfeasibleError) as full:
            build_ssqpp_lp(system, strategy, network, 0)
        with pytest.raises(InfeasibleError) as restricted:
            solve_ssqpp(system, strategy, network=network, source=0)
        assert str(restricted.value) == str(full.value)


def test_uncapacitated_network_places_everything_on_the_source():
    system = grid(3)
    strategy = AccessStrategy.uniform(system)
    network = random_geometric_network(12, 0.5, rng=np.random.default_rng(3))
    source = network.nodes[4]
    assert math.isinf(network.capacity(source))
    assert _prefix(strategy, network, source) == [source]
    result = solve_ssqpp(system, strategy, network=network, source=source)
    assert result.lp_value == 0.0
    assert result.delay == 0.0
    assert set(result.placement.as_dict().values()) == {source}


def test_prefix_follows_the_tie_breaking_order_of_attach():
    # A star whose leaves all sit at distance 1 from the hub: the hub's
    # row is one long tie, broken by node index.
    system = majority(5)
    strategy = AccessStrategy.uniform(system)
    leaves = [9, 3, 7, 1, 5, 2, 8, 4, 6]
    network = Network([0, *leaves], [(0, leaf) for leaf in leaves], capacities=0.7)
    for source in (0, 7):
        domain = _prefix(strategy, network, source)
        assert domain is not None and 1 < len(domain) < network.size
        ordered = SSQPPLPFactory(system, strategy, network).attach(source)[3]
        assert domain == ordered[: len(domain)]
        # Restricted to P, attach ranks P in the same order.
        restricted = SSQPPLPFactory(system, strategy, network, placement_nodes=domain)
        assert restricted.attach(source)[3] == domain


def test_solve_span_reports_the_domain_size():
    system = grid(3)
    strategy = AccessStrategy.uniform(system)
    network = random_geometric_network(
        24, 0.45, rng=np.random.default_rng(42)
    ).with_capacities(2.0)
    source = network.nodes[0]
    with trace.collect() as collector:
        solve_ssqpp(system, strategy, network=network, source=source)
    spans = [s for root in collector.roots for s in root.iter_spans()]
    (solve,) = [s for s in spans if s.name == "ssqpp.solve"]
    assert solve.attributes["domain"] == len(_prefix(strategy, network, source))


@pytest.mark.scale
def test_all_candidate_dense_sweep_certifies_thm12_at_a_thousand_nodes():
    """The full Thm 1.2 certificate (every node a candidate, so the
    Thm 3.3 lower bound applies) at 10^3 nodes, which P-sized LPs make a
    matter of seconds."""
    n = 1_000
    radius = 2.0 * math.sqrt(math.log(n) / (math.pi * n))
    network = random_geometric_network(
        n, radius, rng=np.random.default_rng(1000)
    ).with_capacities(2.0)
    system = majority(5)
    result = solve_qpp(
        system, AccessStrategy.uniform(system), network=network, alpha=2.0
    )
    assert len(result.per_source) == n
    assert result.optimum_lower_bound > 0.0
    assert result.certified_ratio <= result.approximation_factor
    assert result.load_violation_factor <= result.load_factor_bound + 1e-9
