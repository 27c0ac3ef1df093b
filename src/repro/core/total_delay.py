"""The total-delay placement problem (Section 5, Theorems 1.4 / 5.1).

Under the total-delay access cost ``gamma_f(v, Q) = sum_{u in Q}
d(v, f(u))``, the average objective decomposes per element:

    Avg_v Gamma_f(v) = sum_u load(u) * Avg_v d(v, f(u)),

so placing element ``u`` on node ``w`` contributes the *fixed* cost
``load(u) * Avg_v d(v, w)`` regardless of the other elements.  That is
exactly a Generalized Assignment Problem: jobs = elements with load
``load(u)``, machines = nodes with budget ``cap(v)``, assignment cost as
above.  Solving the GAP LP and rounding (Theorem 3.11) yields Theorem
5.1: average total delay **no worse than the true optimum** among
capacity-respecting placements, with loads at most ``2 cap(v)``.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .._compat import solver_api
from .._results import Provenance, SolveResult
from .._validation import check_scale, cost, raises, require
from ..gap.instance import GAPInstance
from ..gap.solver import GAPSolution, solve_gap
from ..network.graph import Network, Node
from ..obs.metrics import telemetry_scope
from ..obs.trace import span
from ..quorums.base import QuorumSystem
from ..quorums.strategy import AccessStrategy
from .placement import (
    _EVAL_BLOCK_ROWS,
    Placement,
    _client_weights,
    average_total_delay,
    node_loads,
)

__all__ = ["TotalDelayResult", "solve_total_delay"]

_ZERO = 1e-12


# paper: §5 at 10^3-10^5 nodes
@cost("n**2", scale="large")
def _average_distance_streamed(view: object, weights: np.ndarray) -> np.ndarray:
    """``weights @ D`` accumulated over lazy row blocks.

    Matches ``weights @ metric.matrix`` up to floating-point summation
    order (the dense dot reduces all ``n`` terms at once; this
    accumulates per block), which is why the large path's optimum can
    differ from the dense path's in the last ulp — never more.
    """
    n = view.size  # type: ignore[attr-defined]
    average = np.zeros(n, dtype=float)
    for start in range(0, n, _EVAL_BLOCK_ROWS):
        stop = min(start + _EVAL_BLOCK_ROWS, n)
        block = view.row_block(start, stop)  # type: ignore[attr-defined]
        average += weights[start:stop] @ block
    return average


@dataclass(frozen=True)
class TotalDelayResult(SolveResult):
    """Output of :func:`solve_total_delay` (a
    :class:`~repro._results.SolveResult`).

    ``objective`` is the realized average total delay and
    ``load_violation_factor`` the realized worst ``load_f(v)/cap(v)``;
    the pre-unification names ``delay``/``max_load_factor`` still
    resolve but emit a :class:`FutureWarning` (removal scheduled for the
    next major release).

    Theorem 5.1 guarantees ``objective <= optimum`` (the LP bound
    ``lp_value`` certifies it: ``objective <= lp_value <= OPT``) and
    ``load_f(v) <= 2 cap(v)`` on every node.
    """

    lp_value: float
    load_factor_bound: float

    _legacy_aliases: ClassVar[Mapping[str, str]] = {
        "delay": "objective",
        "max_load_factor": "load_violation_factor",
    }

    @property
    def within_guarantees(self) -> bool:
        return (
            self.objective <= self.lp_value + 1e-6
            and self.load_violation_factor <= self.load_factor_bound + 1e-6
        )


# paper: Thm 1.4, §5
@solver_api(legacy_positional=("network",))
@cost("n**2 * q**2")
@raises("InfeasibleError", "ValidationError", transient=("SolverError",))
def solve_total_delay(
    system: QuorumSystem,
    strategy: AccessStrategy,
    *,
    network: Network,
    rates: Mapping[Node, float] | None = None,
    lp_method: str = "highs-ds",
    scale: str | None = None,
) -> TotalDelayResult:
    """Place *system* minimizing the average total delay (Theorem 5.1).

    Supports the §6 extension of rate-weighted client averages through
    *rates*.  Raises :class:`repro.exceptions.InfeasibleError` when no
    capacity-respecting placement exists even fractionally.

    ``scale="large"`` computes the per-node average client distance by
    streaming the network's lazy metric in row blocks instead of
    materializing the dense matrix; the objective matches the dense path
    up to floating-point summation order.
    """
    require(
        strategy.system.same_layout(system),
        "strategy does not match the quorum system (or its quorum order)",
    )
    check_scale(scale)
    with telemetry_scope() as telemetry, span(
        "total_delay.solve", nodes=network.size
    ):
        weights = _client_weights(network, rates)
        # Avg (weighted) distance from all clients to each node w.
        view: object | None
        if scale == "large":
            view = network.lazy_metric()
            average_distance = _average_distance_streamed(view, weights)
        else:
            view = None
            average_distance = weights @ network.metric().matrix

        universe = list(system.universe)
        loads = np.array([strategy.load(u) for u in universe])
        nodes = list(network.nodes)
        capacities = np.array([network.capacity(v) for v in nodes])

        costs = np.full((len(nodes), len(universe)), math.inf)
        gap_loads = np.full((len(nodes), len(universe)), math.inf)
        for i in range(len(nodes)):
            for j in range(len(universe)):
                # Pairs with load above capacity are forbidden, mirroring the
                # paper's constraint (13); the optimum never uses them either,
                # so the LP bound still certifies optimality.
                if loads[j] <= capacities[i] + _ZERO:
                    costs[i, j] = loads[j] * average_distance[i]
                    gap_loads[i, j] = loads[j]
        instance = GAPInstance(
            jobs=tuple(universe),
            machines=tuple(nodes),
            costs=costs,
            loads=gap_loads,
            capacities=capacities,
        )
        gap_solution: GAPSolution = solve_gap(instance, lp_method=lp_method)

        placement = Placement(system, network, gap_solution.placement)
        delay = average_total_delay(placement, strategy, rates=rates, metric=view)

        max_factor = 0.0
        for node, load in node_loads(placement, strategy).items():
            if load <= 0:
                continue
            capacity = network.capacity(node)
            max_factor = max(
                max_factor, load / capacity if capacity > 0 else float("inf")
            )

    return TotalDelayResult(
        placement=placement,
        objective=delay,
        load_violation_factor=max_factor,
        provenance=Provenance.of("total-delay.gap", "Thm 1.4", lp_method=lp_method),
        lp_value=gap_solution.lp_value,
        load_factor_bound=2.0,
        telemetry=telemetry.snapshot,
    )
