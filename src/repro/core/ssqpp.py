"""The Single-Source Quorum Placement Problem (Problem 3.2) and the
LP-rounding algorithm of Section 3.3 (Theorems 3.7 and 3.12).

Given a quorum system ``Q`` with access strategy ``p0``, a network with a
distinguished source ``v0``, and per-node capacities, find a placement
minimizing ``Delta_f(v0)`` subject to ``load_f(v) <= cap(v)``.  The
problem is NP-hard (Theorem 3.6, see :mod:`repro.core.hardness`); the
algorithm here is the paper's bicriteria approximation:

1. **LP.**  Solve the relaxation (9)-(14): variables ``x_tu`` ("element
   ``u`` sits on the ``t``-th closest node to ``v0``") and ``x_tQ``
   ("quorum ``Q`` is fully contained in the ``t`` closest nodes"), with
   assignment, capacity and prefix-consistency constraints.  The LP
   spans only the shortest distance-order prefix whose nodes able to
   host the heaviest element cover the total load, which has the same
   optimum ``Z*`` as the LP over every node (see :func:`_covering_prefix`).
2. **Filtering** (Claim 3.8 / Lemma 3.9, generalized to ``alpha``).
   Scale each element's fractional assignment by ``alpha`` and truncate
   the cumulative mass at 1 — "moving mass toward the source" — so that
   any node still fractionally carrying ``u`` satisfies
   ``d_t <= alpha/(alpha-1) * D_Q`` for every quorum ``Q`` containing
   ``u``.
3. **GAP rounding** (Theorem 3.11).  Interpret the filtered solution as
   a fractional Generalized Assignment: jobs = elements, machines =
   nodes, load = ``load(u)``, cost = ``d_t``, machine budget
   ``alpha * cap(v_t)``.  Shmoys-Tardos rounding yields an integral
   placement with cost (delay) at most the fractional cost and load at
   most ``alpha*cap + max-allowed-load <= (alpha+1) * cap``.

The result object reports both the realized quantities and the proven
bounds, so callers (and benchmarks) can check Theorem 3.7 mechanically:
``Delta_f(v0) <= alpha/(alpha-1) * Z*`` and
``load_f(v) <= (alpha+1) * cap(v)``.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .._compat import solver_api
from .._validation import check_positive, check_scale, cost, raises, require
from ..exceptions import InfeasibleError, ValidationError
from ..obs.trace import span
from ..gap.instance import GAPInstance
from ..gap.lp import FractionalAssignment
from ..gap.rounding import round_fractional_assignment
from ..lp import LinExpr, Model, Solution, Variable
from ..network.graph import Network, Node
from ..quorums.base import QuorumSystem
from ..quorums.strategy import AccessStrategy
from .placement import Placement, expected_max_delay, node_loads

__all__ = ["SSQPPResult", "SSQPPLPFactory", "solve_ssqpp", "build_ssqpp_lp"]

_ZERO = 1e-12


@dataclass(frozen=True)
class SSQPPResult:
    """Output of :func:`solve_ssqpp`.

    Attributes
    ----------
    placement:
        The integral placement ``f``.
    delay:
        The realized objective ``Delta_f(v0)``.
    lp_value:
        ``Z*``, the LP optimum — a lower bound on the delay of every
        capacity-respecting placement.
    alpha:
        The trade-off parameter used.
    delay_bound:
        The proven guarantee ``alpha/(alpha-1) * Z*``; always
        ``delay <= delay_bound`` (up to numerical tolerance).
    load_factor_bound:
        ``alpha + 1``: the proven per-node capacity violation cap.
    max_load_factor:
        The realized worst ``load_f(v)/cap(v)``.
    source:
        The source node ``v0``.
    """

    placement: Placement
    delay: float
    lp_value: float
    alpha: float
    delay_bound: float
    load_factor_bound: float
    max_load_factor: float
    source: Node

    @property
    def within_guarantees(self) -> bool:
        """Whether both Theorem 3.7 bounds hold for the realized solution."""
        return (
            self.delay <= self.delay_bound + 1e-6
            and self.max_load_factor <= self.load_factor_bound + 1e-6
        )


class _VariableGrid(Mapping):
    """Read-only ``{(rank, key): Variable}`` view of a column table.

    ``columns[t, j]`` is the model column of the variable for distance
    rank ``t`` and the ``j``-th key, or ``-1`` where the LP has none.
    The variables themselves are only built when first read: the solver
    reads its solution through ``columns`` and never needs them.
    """

    def __init__(self, columns: np.ndarray, keys: tuple, name: str) -> None:
        self.columns = columns
        self._keys = keys
        self._name = name
        self._variables: dict | None = None

    def _table(self) -> dict:
        if self._variables is None:
            ranks, slots = np.nonzero(self.columns >= 0)
            self._variables = {
                (t, self._keys[j]): Variable(
                    int(self.columns[t, j]), f"{self._name}[{t},{self._keys[j]!r}]"
                )
                for t, j in zip(ranks.tolist(), slots.tolist())
            }
        return self._variables

    def __getitem__(self, key: tuple) -> Variable:
        return self._table()[key]

    def __iter__(self):
        return iter(self._table())

    def __len__(self) -> int:
        return len(self._table())


def _chain_entries(running: np.ndarray, steps: np.ndarray):
    """COO entries of the rows ``running[k, t] - running[k, t-1] - steps[k, t] == 0``.

    Row ``k * n + t`` for each chain ``k`` and rank ``t``; the
    ``running[k, -1]`` term is absent at ``t = 0``, and so is the step
    where ``steps[k, t]`` is ``-1``.
    """
    chains, n = running.shape
    row_ids = np.arange(chains * n).reshape(chains, n)
    stepped = steps >= 0
    rows = np.concatenate([row_ids.ravel(), row_ids[:, 1:].ravel(), row_ids[stepped]])
    cols = np.concatenate([running.ravel(), running[:, :-1].ravel(), steps[stepped]])
    data = np.concatenate(
        [np.ones(chains * n), -np.ones(chains * (n - 1)), -np.ones(int(stepped.sum()))]
    )
    return rows, cols, data


class SSQPPLPFactory:
    """The LP relaxation (9)-(14) for one source, built in two steps.

    The LP splits into a part that does not depend on the source ``v0``
    — the assignment variables ("element ``u`` sits on node ``v``"), the
    placement rows (10), and the capacity rows (12)/(13) — built by the
    constructor, and a part that does: the quorum-completion variables
    over the distance ordering, the prefix-consistency rows (14), and
    the objective (9), added by :meth:`attach`.  Building the base costs
    a fraction of a millisecond against tens of milliseconds for the
    solve, so every relay candidate of :func:`repro.core.qpp.solve_qpp`
    gets its own factory.

    Every row is emitted as numpy coordinate arrays
    (:meth:`repro.lp.Model.add_rows`) from one node-by-element table of
    assignment columns built here; :meth:`attach` permutes that table
    into distance order and the solution is read back through it.

    One factory serves one ``(system, strategy, network, formulation)``
    combination and one source: a second :meth:`attach` is refused.

    Two large-scale knobs widen the constructor without changing any
    default behaviour:

    * ``metric`` — any :class:`~repro.network.lazymetric.MetricView`
      (e.g. a :class:`~repro.network.lazymetric.LazyMetric`) to use for
      the distance ordering instead of forcing the dense cached build.
    * ``placement_nodes`` — restrict the placement domain (and the LP's
      variables, capacity rows and distance ranks) to a subset of the
      network.  The LP then solves the *restricted* problem, whose
      optimum upper-bounds the unrestricted ``Z*`` in general;
      :func:`solve_ssqpp` passes the capacity-covering prefix
      (:func:`_covering_prefix`), on which the two optima are equal.
    """

    def __init__(
        self,
        system: QuorumSystem,
        strategy: AccessStrategy,
        network: Network,
        *,
        formulation: str = "prefix",
        metric: "object | None" = None,
        placement_nodes: "list[Node] | tuple[Node, ...] | None" = None,
    ) -> None:
        if formulation not in ("prefix", "cumulative"):
            raise ValidationError(
                f"unknown formulation {formulation!r}; use 'prefix' or 'cumulative'"
            )
        require(
            strategy.system.same_layout(system),
            "strategy does not match the quorum system (or its quorum order)",
        )
        self._system = system
        self._strategy = strategy
        self._network = network
        self._formulation = formulation
        self._metric = metric if metric is not None else network.metric()
        if placement_nodes is None:
            self._domain: tuple[Node, ...] | None = None
            domain_nodes: tuple[Node, ...] = network.nodes
        else:
            self._domain = tuple(placement_nodes)
            if not self._domain:
                raise ValidationError("placement_nodes must not be empty")
            if len(set(self._domain)) != len(self._domain):
                raise ValidationError("placement_nodes contains duplicates")
            domain_nodes = self._domain
        self._domain_indices = np.array(
            [network.node_index(node) for node in domain_nodes], dtype=np.intp
        )
        universe = system.universe
        support = tuple(strategy.support())
        self._support = support
        self._probabilities = np.array([strategy.probability(q) for q in support])
        # One (support slot, element slot) pair per row group of (14), in
        # universe order within each quorum: frozenset iteration order
        # varies with insertion history (and across pickle round-trips),
        # and the LP row order it would induce perturbs solver pivoting
        # at the last ulp — breaking serial/parallel result identity.
        pairs = [
            (k, system.element_index(u))
            for k, q in enumerate(support)
            for u in sorted(system.quorums[q], key=system.element_index)
        ]
        self._pair_quorums = np.array([k for k, _ in pairs], dtype=np.intp)
        self._pair_elements = np.array([j for _, j in pairs], dtype=np.intp)

        loads = strategy.load_array()
        capacities = np.array([network.capacity(node) for node in domain_nodes])
        # (13): element u may sit on node v only if load(u) <= cap(v).
        fits = loads[None, :] <= capacities[:, None] + _ZERO
        overloaded = (loads > _ZERO) & ~fits.any(axis=0)
        if overloaded.any():
            j = int(np.argmax(overloaded))
            raise InfeasibleError(
                f"element {universe[j]!r} has load {loads[j]:.4f} exceeding "
                "every node capacity"
            )

        model = Model(name="ssqpp-lp")
        # Assignment variables keyed by *node* (not by distance rank), so
        # they are shared by every candidate source: the node-by-element
        # column table, -1 for the pairs (13) drops.
        self._columns = np.full(fits.shape, -1, dtype=np.intp)
        self._columns[fits] = model.add_variables(
            int(fits.sum()), lb=0.0, ub=1.0, name="x"
        )

        # (10): every element placed exactly once.
        by_element = self._columns.T
        placed = by_element >= 0
        model.add_rows(
            np.nonzero(placed)[0],
            by_element[placed],
            np.ones(int(placed.sum())),
            np.ones(len(universe)),
            "==",
            name="place",
        )

        # (12): fractional load within capacity (vacuous for uncapacitated
        # nodes and for nodes that can host no loaded element, so those
        # rows are omitted).
        carries = fits & (loads > 0)[None, :] & np.isfinite(capacities)[:, None]
        capped = carries.any(axis=1)
        node_rows, elements = np.nonzero(carries[capped])
        self._capacity_nodes = tuple(
            node for node, kept in zip(domain_nodes, capped.tolist()) if kept
        )
        self._capacity_rows = model.add_rows(
            node_rows,
            self._columns[capped][carries[capped]],
            loads[elements],
            capacities[capped],
            "<=",
            name="cap",
        )

        self._model = model
        self._attached = False

    # -- accessors -----------------------------------------------------------------

    @property
    def system(self) -> QuorumSystem:
        return self._system

    @property
    def strategy(self) -> AccessStrategy:
        return self._strategy

    @property
    def network(self) -> Network:
        return self._network

    @property
    def formulation(self) -> str:
        return self._formulation

    @property
    def model(self) -> Model:
        """The underlying model; solve it once a source is attached."""
        return self._model

    @property
    def placement_nodes(self) -> tuple[Node, ...] | None:
        """The restricted placement domain, or ``None`` for the whole network."""
        return self._domain

    def capacity_duals(self, solution: Solution) -> dict[Node, float]:
        """Shadow price ``d Z* / d cap(v)`` of every capacity row (12).

        Keyed by node, in placement-domain order; nodes without a
        capacity row (uncapacitated, or hosting no loaded element) are
        absent.  *solution* must come from this factory's model.
        """
        prices = solution.block_duals(self._capacity_rows).tolist()
        return dict(zip(self._capacity_nodes, prices))

    # -- per-candidate structure -----------------------------------------------------

    def attach(self, source: Node):
        """Add the delay-dependent structure for *source* to the base.

        Returns ``(model, x_element, x_quorum, ordered_nodes, distances)``
        in :func:`build_ssqpp_lp`'s format: ``x_element[(t, u)]`` maps the
        §3.3 rank ``t`` (``ordered_nodes[t]`` is the ``t``-th closest node
        to the source) back to the shared node-keyed variable.  Both maps
        are read-only views whose ``columns`` attribute is the
        rank-by-element (rank-by-support-quorum) table of model columns,
        ``-1`` where a variable is absent.
        """
        require(
            not self._attached,
            "factory already has an attached source; build one factory per source",
        )
        self._network.node_index(source)
        model = self._model
        # Rank the placement domain by distance from the source, ties
        # broken by node index (the order of Metric.nodes_by_distance).
        row = self._metric.distances_from(source)
        indices = self._domain_indices
        ranking = np.lexsort((indices, row[indices]))
        order = indices[ranking]
        all_nodes = self._network.nodes
        ordered_nodes = [all_nodes[i] for i in order.tolist()]
        ranked = row[order]
        distances = ranked.tolist()
        n = len(order)
        # The shared node-keyed assignment columns, in distance order.
        x_columns = self._columns[ranking]
        self._attached = True

        support = self._support
        xq = model.add_variables(n * len(support), lb=0.0, ub=1.0, name="xQ")
        xq = xq.reshape(n, len(support))

        # (11): every supported quorum completed at exactly one prefix length.
        model.add_rows(
            np.repeat(np.arange(len(support)), n),
            xq.T.ravel(),
            np.ones(xq.size),
            np.ones(len(support)),
            "==",
            name="complete",
        )

        # (14): prefix consistency — a quorum cannot finish before its
        # members.  Row (p, t) for the p-th (quorum q, member u) pair.
        pair_quorums, pair_elements = self._pair_quorums, self._pair_elements
        pairs = len(pair_quorums)
        if self._formulation == "prefix":
            # sum_{s<=t} xQ[s, q] - sum_{s<=t} x[s, u] <= 0: a
            # lower-triangular pattern over ranks s <= t per pair; a rank
            # where u cannot sit contributes no element term.
            t_rows, s_cols = np.tril_indices(n)
            pair_rows = np.arange(pairs)[:, None] * n + t_rows
            quorum_cols = xq[s_cols[None, :], pair_quorums[:, None]]
            element_cols = x_columns[s_cols[None, :], pair_elements[:, None]]
            present = element_cols >= 0
            model.add_rows(
                np.concatenate([pair_rows.ravel(), pair_rows[present]]),
                np.concatenate([quorum_cols.ravel(), element_cols[present]]),
                np.concatenate(
                    [np.ones(quorum_cols.size), -np.ones(int(present.sum()))]
                ),
                np.zeros(pairs * n),
                "<=",
                name="prefix",
            )
        else:
            # Cumulative variables: cum_t = cum_{t-1} + x_t, one chain per
            # element and per supported quorum; (14) becomes 2-term rows.
            # The chains follow the distance ranks, so they are rebuilt per
            # candidate (only the node-keyed base is rank-free).
            universe_size = x_columns.shape[1]
            cumulative = model.add_variables(
                universe_size * n, lb=0.0, ub=1.0, name="cum"
            ).reshape(universe_size, n)
            model.add_rows(
                *_chain_entries(cumulative, x_columns.T),
                np.zeros(cumulative.size),
                "==",
                name="chain",
            )
            cumulative_q = model.add_variables(
                len(support) * n, lb=0.0, ub=1.0, name="cumQ"
            ).reshape(len(support), n)
            model.add_rows(
                *_chain_entries(cumulative_q, xq.T),
                np.zeros(cumulative_q.size),
                "==",
                name="chainQ",
            )
            pair_rows = np.arange(pairs * n)
            model.add_rows(
                np.concatenate([pair_rows, pair_rows]),
                np.concatenate(
                    [
                        cumulative_q[pair_quorums].ravel(),
                        cumulative[pair_elements].ravel(),
                    ]
                ),
                np.concatenate([np.ones(pairs * n), -np.ones(pairs * n)]),
                np.zeros(pairs * n),
                "<=",
                name="prefix",
            )

        # (9): expected max-delay objective; ranks at distance 0 cost nothing.
        charged = ranked != 0
        weights = ranked[charged][:, None] * self._probabilities[None, :]
        model.minimize(
            LinExpr(dict(zip(xq[charged].ravel().tolist(), weights.ravel().tolist())))
        )
        x_element = _VariableGrid(x_columns, self._system.universe, "x")
        x_quorum = _VariableGrid(xq, support, "xQ")
        return model, x_element, x_quorum, ordered_nodes, distances


def build_ssqpp_lp(
    system: QuorumSystem,
    strategy: AccessStrategy,
    network: Network,
    source: Node,
    *,
    formulation: str = "prefix",
):
    """Build the LP relaxation (9)-(14) for one source.

    Returns ``(model, x_element, x_quorum, ordered_nodes, distances)``
    where ``x_element[(t, u)]`` and ``x_quorum[(t, q)]`` map to model
    variables, ``ordered_nodes`` is ``v_0, v_1, ...`` sorted by distance
    from the source (the renaming at the start of §3.3), and
    ``distances[t] = d(v0, v_t)``.

    Variables fixed to zero by constraint (13) — pairs with
    ``load(u) > cap(v_t)`` — are simply omitted.  Quorum variables are
    created only for quorums in the strategy's support: zero-probability
    quorums contribute nothing to the objective and need no containment
    bookkeeping.

    ``formulation`` selects how the prefix constraints (14) are encoded:

    * ``"prefix"`` — the paper's literal form: one inequality per
      ``(quorum, member, t)`` whose left/right sides are explicit prefix
      sums.  ``O(n)`` terms per constraint, ``O(n^2)`` nonzeros per
      (quorum, member) pair.
    * ``"cumulative"`` — auxiliary running-sum variables
      ``C_t = C_{t-1} + x_t`` per element and per quorum, making every
      (14) inequality a 2-term comparison.  Same optimum, far fewer
      nonzeros on large instances; equivalence is covered by tests.

    This is the one-shot convenience over :class:`SSQPPLPFactory`: the
    returned model is attached to *source* and may be freely extended
    by the caller.
    """
    require(isinstance(network, Network), "network must be a Network")
    factory = SSQPPLPFactory(system, strategy, network, formulation=formulation)
    return factory.attach(source)


#: Relative slack on the total load the covering prefix must reach, so
#: that float rounding in the capacity sum can only lengthen the prefix.
_COVER_SLACK = 1.0 + 1e-12


def _covering_prefix(
    network: Network, row: np.ndarray, loads: np.ndarray
) -> list[Node] | None:
    """``P(v0)``: the placement domain of the source whose distance row is *row*.

    ``P`` is the shortest prefix of the (distance, node index) order — the
    order :meth:`SSQPPLPFactory.attach` ranks by — in which the nodes
    able to host the heaviest element (``cap(v) >= max_u load(u)``, with
    the tolerance of (13)) have total capacity at least ``sum_u load(u)``.
    Returns ``None``, the whole network, when no proper prefix covers the
    load, so infeasible inputs fail exactly as on the full domain.

    The LP (9)-(14) restricted to ``P`` has the same optimum ``Z*`` as
    the full LP.  Take a full optimum with the least mass outside ``P``
    and suppose element ``u`` has some.  Then the eligible nodes of ``P``
    carry less than ``sum_u load(u)``, at most their capacity, so one of
    them has slack and (13) lets it host ``u``.  Moving a little of u's
    mass there, to an earlier rank, only raises u's prefix sums: (14)
    still holds with the same quorum variables and (9) is unchanged — a
    contradiction.  With every element inside ``P``, each quorum is
    complete by the last rank of ``P``, so quorum mass at later ranks
    moves there without raising (9).  So Theorem 3.7's bounds, which hold
    for any optimal LP solution, and the Theorem 3.3 lower bound carry
    over unchanged.
    """
    n = network.size
    capacities = np.fromiter(network.capacities().values(), dtype=float, count=n)
    order = np.lexsort((np.arange(n), row))
    eligible = capacities[order] + _ZERO >= loads.max()
    covered = np.cumsum(np.where(eligible, capacities[order], 0.0))
    cut = int(np.searchsorted(covered, loads.sum() * _COVER_SLACK)) + 1
    if cut >= n:
        return None
    nodes = network.nodes
    return [nodes[i] for i in order[:cut].tolist()]


def _filter_fractions(
    raw: np.ndarray, alpha: float
) -> np.ndarray:
    """The filtering step, generalized from the paper's alpha = 2.

    ``raw`` has shape (n_positions, n_items), columns summing to 1.
    Column by column, set ``x~_t = min(alpha * x_t, remaining mass to 1)``
    scanning positions in increasing-``t`` order, zeroing everything after
    the cumulative total reaches 1.
    """
    n, items = raw.shape
    filtered = np.zeros_like(raw)
    for j in range(items):
        cumulative = 0.0
        for t in range(n):
            if cumulative >= 1.0 - _ZERO:
                break
            scaled = alpha * raw[t, j]
            take = min(scaled, 1.0 - cumulative)
            if take > _ZERO:
                filtered[t, j] = take
                cumulative += take
        # Guard against columns that fail to reach 1 due to solver noise.
        total = filtered[:, j].sum()
        if total < 1.0 - 1e-6:
            raise ValidationError(
                "filtering failed to accumulate unit mass; LP solution is "
                f"malformed (column {j}, total {total:.8f})"
            )
        filtered[:, j] /= total
    return filtered


# paper: Thm 3.7, Thm 3.12, §3.3
@solver_api(legacy_positional=("network", "source"))
@cost("n**2 * q")
@raises("ValidationError", transient=("SolverError",))
def solve_ssqpp(
    system: QuorumSystem,
    strategy: AccessStrategy,
    *,
    network: Network,
    source: Node,
    alpha: float = 2.0,
    lp_method: str = "highs",
    formulation: str = "prefix",
    metric: "object | None" = None,
    scale: str | None = None,
) -> SSQPPResult:
    """Solve the Single-Source Quorum Placement Problem approximately.

    Implements Theorem 3.7: the returned placement has

    * ``Delta_f(v0) <= alpha/(alpha-1) * Z* <= alpha/(alpha-1) * OPT``,
    * ``load_f(v) <= (alpha + 1) * cap(v)`` for every node.

    ``alpha = 2`` recovers Theorem 3.12 (delay within twice the LP bound,
    load within three times capacity).

    The LP, the filtering and the rounding run on the capacity-covering
    prefix ``P(v0)`` of the source's distance order
    (:func:`_covering_prefix`): the shortest prefix whose nodes able to
    host the heaviest element cover the total load.  Its LP optimum
    equals that of the LP over every node, so ``lp_value`` is the exact
    ``Z*`` while the LP has ``|P|`` instead of ``n`` distance ranks.

    ``metric`` threads straight to :class:`SSQPPLPFactory`: a lazy
    metric avoids the dense all-pairs build.

    ``scale="large"`` is shorthand for ``metric=network.lazy_metric()``
    (the shared ``scale=`` gate, ``docs/api.md``): distances stream
    through the lazy row cache instead of a dense all-pairs build.  An
    explicit ``metric=`` takes precedence.

    Raises
    ------
    InfeasibleError
        When no capacity-respecting placement exists even fractionally.
    """
    check_positive(alpha - 1.0, "alpha - 1")
    check_scale(scale)
    network.node_index(source)
    if scale == "large" and metric is None:
        metric = network.lazy_metric()
    view = metric if metric is not None else network.metric()
    loads = strategy.load_array()
    domain = _covering_prefix(network, view.distances_from(source), loads)

    factory = SSQPPLPFactory(
        system,
        strategy,
        network,
        formulation=formulation,
        metric=view,
        placement_nodes=domain,
    )
    with span(
        "ssqpp.solve",
        source=source,
        alpha=alpha,
        formulation=formulation,
        domain=network.size if domain is None else len(domain),
    ):
        model, x_element, x_quorum, ordered_nodes, distances = factory.attach(source)
        with span("ssqpp.lp"):
            solution = model.solve(method=lp_method)
        lp_value = float(solution.objective)

        universe = list(system.universe)
        n = len(ordered_nodes)
        columns = x_element.columns
        raw = np.where(columns >= 0, np.maximum(solution.values[columns], 0.0), 0.0)
        with span("ssqpp.filter"):
            filtered = _filter_fractions(raw, alpha)

        capacities = np.array([network.capacity(node) for node in ordered_nodes])
        # GAP view: machines are nodes in distance order, jobs are elements.
        costs = np.full((n, len(universe)), math.inf)
        gap_loads = np.full((n, len(universe)), math.inf)
        for j in range(len(universe)):
            for t in range(n):
                if filtered[t, j] > _ZERO:
                    costs[t, j] = distances[t]
                    gap_loads[t, j] = loads[j]
        instance = GAPInstance(
            jobs=tuple(universe),
            machines=tuple(ordered_nodes),
            costs=costs,
            loads=gap_loads,
            capacities=alpha * capacities,
        )
        fractional_cost = float(
            sum(
                filtered[t, j] * distances[t]
                for j in range(len(universe))
                for t in range(n)
                if filtered[t, j] > _ZERO
            )
        )
        fractional = FractionalAssignment(
            instance=instance, fractions=filtered, cost=fractional_cost
        )
        with span("ssqpp.round"):
            rounded = round_fractional_assignment(fractional)

        placement = Placement(system, network, rounded.assignment)
        delay = expected_max_delay(placement, strategy, source, metric=metric)

        max_factor = 0.0
        for node, load in node_loads(placement, strategy).items():
            if load <= 0:
                continue
            capacity = network.capacity(node)
            max_factor = max(
                max_factor, load / capacity if capacity > 0 else float("inf")
            )

    return SSQPPResult(
        placement=placement,
        delay=delay,
        lp_value=lp_value,
        alpha=alpha,
        delay_bound=(alpha / (alpha - 1.0)) * lp_value,
        load_factor_bound=alpha + 1.0,
        max_load_factor=max_factor,
        source=source,
    )
