"""Differential tests pinning the array assembly of the SSQPP LP (9)-(14).

:class:`repro.core.SSQPPLPFactory` emits every row of the relaxation as
numpy coordinate arrays.  The reference below builds the same LP the
paper-literal way — one :class:`repro.lp.LinExpr` per row, prefix sums
grown term by term — and the compiled ``linprog`` inputs of the two must
agree byte for byte: the same variable order, the same row order, the
same values (including the ``-0.0`` right-hand sides that the expression
normalization produces).  Identical inputs make HiGHS pivot identically,
which is what keeps placements, LP values and serial/parallel identity
unchanged.

Pinned SHA-256 digests of a few compiled LPs guard ``_compile`` itself,
which both sides of the differential share.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from repro.core import SSQPPLPFactory
from repro.lp import Model
from repro.lp.solve import _compile
from repro.network import Network, random_geometric_network
from repro.quorums import AccessStrategy, QuorumSystem, grid, majority

_ZERO = 1e-12


def reference_ssqpp_lp(
    system, strategy, network, source, *, formulation="prefix", placement_nodes=None
):
    """The relaxation (9)-(14) built row by row from linear expressions.

    Returns ``(model, x_element, x_quorum, ordered_nodes, distances)``
    with ``x_element``/``x_quorum`` plain dicts of variables.
    """
    metric = network.metric()
    domain_nodes = network.nodes if placement_nodes is None else tuple(placement_nodes)
    support = list(strategy.support())
    universe = system.universe
    loads = {u: strategy.load(u) for u in universe}
    capacities = {node: network.capacity(node) for node in domain_nodes}

    model = Model(name="ssqpp-lp")
    x_by_node = {}
    element_vars = {u: [] for u in universe}
    for node in domain_nodes:
        for u in universe:
            if loads[u] <= capacities[node] + _ZERO:
                variable = model.variable(f"x[{node!r},{u!r}]", lb=0.0, ub=1.0)
                x_by_node[(node, u)] = variable
                element_vars[u].append(variable)

    # (10)
    for u in universe:
        terms = element_vars[u]
        expr = terms[0].to_expr()
        for variable in terms[1:]:
            expr = expr + variable
        model.add_constraint(expr == 1, name=f"place[{u!r}]")

    # (12)
    for node in domain_nodes:
        if not math.isfinite(capacities[node]):
            continue
        terms = [
            (x_by_node[(node, u)], loads[u])
            for u in universe
            if (node, u) in x_by_node and loads[u] > 0
        ]
        if not terms:
            continue
        expr = terms[0][0] * terms[0][1]
        for variable, coefficient in terms[1:]:
            expr = expr + variable * coefficient
        model.add_constraint(expr <= capacities[node], name=f"cap[{node!r}]")

    # Distance ranks, ties broken by node index.
    if placement_nodes is None:
        ordered_nodes = metric.nodes_by_distance(source)
        distances = [metric.distance(source, node) for node in ordered_nodes]
    else:
        row = metric.distances_from(source)
        indices = np.array([network.node_index(node) for node in domain_nodes])
        order = indices[np.lexsort((indices, row[indices]))]
        ordered_nodes = [network.nodes[int(i)] for i in order]
        distances = [float(row[int(i)]) for i in order]
    n = len(ordered_nodes)
    x_element = {
        (t, u): x_by_node[(node, u)]
        for t, node in enumerate(ordered_nodes)
        for u in universe
        if (node, u) in x_by_node
    }
    x_quorum = {}
    for t in range(n):
        for q in support:
            x_quorum[(t, q)] = model.variable(f"xQ[{t},{q}]", lb=0.0, ub=1.0)

    # (11)
    for q in support:
        expr = x_quorum[(0, q)].to_expr()
        for t in range(1, n):
            expr = expr + x_quorum[(t, q)]
        model.add_constraint(expr == 1, name=f"complete[{q}]")

    # (14)
    if formulation == "prefix":
        for q in support:
            for u in sorted(system.quorums[q], key=system.element_index):
                quorum_prefix = None
                element_prefix = None
                for t in range(n):
                    quorum_prefix = (
                        x_quorum[(t, q)].to_expr()
                        if quorum_prefix is None
                        else quorum_prefix + x_quorum[(t, q)]
                    )
                    if (t, u) in x_element:
                        element_prefix = (
                            x_element[(t, u)].to_expr()
                            if element_prefix is None
                            else element_prefix + x_element[(t, u)]
                        )
                    if element_prefix is None:
                        model.add_constraint(quorum_prefix <= 0)
                    else:
                        model.add_constraint(quorum_prefix - element_prefix <= 0)
    else:
        element_cumulative = {}
        for u in universe:
            chain = []
            previous = None
            for t in range(n):
                cum = model.variable(f"cum[{t},{u!r}]", lb=0.0, ub=1.0)
                terms = cum.to_expr()
                if previous is not None:
                    terms = terms - previous
                if (t, u) in x_element:
                    terms = terms - x_element[(t, u)]
                model.add_constraint(terms == 0)
                chain.append(cum)
                previous = cum
            element_cumulative[u] = chain
        for q in support:
            previous = None
            chain_q = []
            for t in range(n):
                cum = model.variable(f"cumQ[{t},{q}]", lb=0.0, ub=1.0)
                terms = cum.to_expr() - x_quorum[(t, q)]
                if previous is not None:
                    terms = terms - previous
                model.add_constraint(terms == 0)
                chain_q.append(cum)
                previous = cum
            for u in sorted(system.quorums[q], key=system.element_index):
                for t in range(n):
                    model.add_constraint(chain_q[t] - element_cumulative[u][t] <= 0)

    # (9)
    objective = None
    for q in support:
        probability = strategy.probability(q)
        for t in range(n):
            if distances[t] == 0:
                continue
            term = x_quorum[(t, q)] * (probability * distances[t])
            objective = term if objective is None else objective + term
    if objective is None:
        objective = next(iter(x_element.values())) * 0.0
    model.minimize(objective)
    return model, x_element, x_quorum, ordered_nodes, distances


def _arrays(compiled):
    """The linprog inputs as (label, ndarray) pairs, sparse ones unpacked."""
    c, a_ub, b_ub, a_eq, b_eq, bounds = compiled[:6]
    yield "c", c
    for label, matrix, rhs in (("ub", a_ub, b_ub), ("eq", a_eq, b_eq)):
        yield f"A_{label}.shape", np.asarray(matrix.shape, dtype=np.int64)
        yield f"A_{label}.indptr", matrix.indptr
        yield f"A_{label}.indices", matrix.indices
        yield f"A_{label}.data", matrix.data
        yield f"b_{label}", rhs
    yield "bounds", np.asarray(bounds, dtype=np.float64)


def assert_byte_identical(got, want):
    for (label, actual), (_, expected) in zip(_arrays(got), _arrays(want)):
        assert actual.dtype == expected.dtype, label
        assert actual.shape == expected.shape, label
        assert actual.tobytes() == expected.tobytes(), label


def digest(compiled):
    """SHA-256 of the compiled arrays: indices as int64, values as float64."""
    h = hashlib.sha256()
    for label, array in _arrays(compiled):
        is_index = label.endswith(("shape", "indptr", "indices"))
        h.update(np.asarray(array, dtype=np.int64 if is_index else np.float64).tobytes())
    return h.hexdigest()


def _capped_network(seed, n):
    """A geometric network whose capacities 0.5/1.0/inf/2.0 make (13)
    drop pairs (0.5 fits no majority(3) element) and (12) skip rows."""
    network = random_geometric_network(n, 0.6, rng=np.random.default_rng(seed))
    caps = (0.5, 1.0, math.inf, 2.0)
    return network.with_capacities(
        {node: caps[i % 4] for i, node in enumerate(network.nodes)}
    )


def _grid2_weighted():
    system = grid(2)
    weights = np.linspace(1.0, 2.0, len(system))
    return system, AccessStrategy(system, weights / weights.sum())


def _grid2_with_unused_quorum():
    system = grid(2)
    weights = np.arange(len(system), dtype=float)  # quorum 0 is off-support
    return system, AccessStrategy(system, weights / weights.sum())


def _string_labels():
    system = QuorumSystem([{"a", "b"}, {"b", "c"}, {"a", "c"}])
    network = Network(
        ["n1", "n2", "n3", "n4", "n5"],
        [("n1", "n2", 1.0), ("n2", "n3", 2.0), ("n3", "n4", 1.0), ("n4", "n5", 0.5)],
        capacities={"n1": 0.5, "n2": 1.0, "n3": 2.0, "n4": math.inf, "n5": 1.0},
    )
    return system, AccessStrategy.uniform(system), network


def _instances():
    for seed in (3, 17):
        system = majority(3)
        strategy = AccessStrategy.uniform(system)
        yield f"majority3-s{seed}", system, strategy, _capped_network(seed, 8)
        system, strategy = _grid2_weighted()
        yield f"grid2-s{seed}", system, strategy, _capped_network(seed + 1, 9)
    system, strategy = _grid2_with_unused_quorum()
    yield "grid2-off-support", system, strategy, _capped_network(5, 7)
    yield "string-labels", *_string_labels()


INSTANCES = {name: rest for name, *rest in _instances()}


@pytest.mark.parametrize("formulation", ["prefix", "cumulative"])
@pytest.mark.parametrize("restricted", [False, True], ids=["full", "restricted"])
@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_array_assembly_matches_the_linexpr_reference(name, restricted, formulation):
    system, strategy, network = INSTANCES[name]
    domain = network.nodes[1::2] if restricted else None
    for source in (network.nodes[0], network.nodes[2], network.nodes[-1]):
        factory = SSQPPLPFactory(
            system, strategy, network, formulation=formulation, placement_nodes=domain
        )
        model, x_element, x_quorum, ordered, distances = factory.attach(source)
        reference = reference_ssqpp_lp(
            system,
            strategy,
            network,
            source,
            formulation=formulation,
            placement_nodes=domain,
        )
        ref_model, ref_x_element, ref_x_quorum, ref_ordered, ref_distances = reference
        assert_byte_identical(_compile(model), _compile(ref_model))
        assert ordered == ref_ordered
        assert distances == ref_distances
        assert {k: v.index for k, v in x_element.items()} == {
            k: v.index for k, v in ref_x_element.items()
        }
        assert list(x_quorum) == list(ref_x_quorum)
        assert [v.index for v in x_quorum.values()] == [
            v.index for v in ref_x_quorum.values()
        ]


def test_variable_grid_behaves_like_the_dict_it_replaces():
    system, strategy, network = INSTANCES["majority3-s3"]
    factory = SSQPPLPFactory(system, strategy, network)
    _, x_element, x_quorum, ordered, _ = factory.attach(network.nodes[0])
    assert len(x_element) == len(dict(x_element.items()))
    assert x_element.get((len(ordered), system.universe[0])) is None
    assert x_element.get((0, "no-such-element")) is None
    assert (0, 0) in x_quorum and (len(ordered), 0) not in x_quorum
    dropped = np.argwhere(x_element.columns < 0)
    assert len(dropped), "the capped network must drop some (13) pairs"
    t, j = dropped[0]
    assert (int(t), system.universe[j]) not in x_element


# Digests of the compiled LPs, recorded from the LinExpr assembly that
# the array assembly replaced.
PINNED = {
    ("majority3", "prefix"): "5b9db4f7cdb60e1a60d45accc4ec55b582eafb0534cd8f63fc45c4555f292c7b",
    ("majority3", "cumulative"): "069be63bdcc38678254783ffb10a399d49c95a69c2a80a321e011c464f43e423",
    ("grid2", "prefix"): "1d8f06e03fa1fe330e1579dee491dc4703e86b8cf2b3d84bc0d9f47c32d2c381",
    ("grid2", "cumulative"): "8fc7bf864b75b7bb8f397abf548bd4c0f40a6f8d87db203db8ef64765ff86199",
}


@pytest.mark.parametrize("system_name, formulation", sorted(PINNED))
def test_compiled_lp_digest_is_pinned(system_name, formulation):
    if system_name == "majority3":
        system = majority(3)
        strategy = AccessStrategy.uniform(system)
        network = _capped_network(5, 8)
        domain, source = None, network.nodes[2 if formulation == "prefix" else 5]
    else:
        system, strategy = _grid2_weighted()
        network = _capped_network(11, 9)
        domain, source = network.nodes[::2], network.nodes[1]
    factory = SSQPPLPFactory(
        system, strategy, network, formulation=formulation, placement_nodes=domain
    )
    compiled = _compile(factory.attach(source)[0])
    assert digest(compiled) == PINNED[(system_name, formulation)]
