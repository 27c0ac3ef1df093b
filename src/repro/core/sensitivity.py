"""Capacity sensitivity analysis via LP duality.

The single-source LP (9)-(14) prices its constraints: the dual value of
node ``v``'s capacity row (12) is ``d Z* / d cap(v)`` — how much the
delay lower bound would drop per unit of extra capacity at ``v``.
Operators read this as a *provisioning signal*: the most negative shadow
prices mark the nodes where adding capacity buys the most delay.

This is standard LP post-analysis, not a paper algorithm; it is exposed
because the LP is already being solved and the duals are free.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import SolverError
from ..network.graph import Network, Node
from ..quorums.base import QuorumSystem
from ..quorums.strategy import AccessStrategy
from .ssqpp import SSQPPLPFactory

__all__ = ["CapacitySensitivity", "capacity_sensitivity"]


@dataclass(frozen=True)
class CapacitySensitivity:
    """Shadow prices of node capacities in the single-source LP.

    Attributes
    ----------
    lp_value:
        The LP optimum ``Z*`` at the current capacities.
    shadow_prices:
        ``{node: d Z* / d cap(node)}``; non-positive for a minimization
        (more capacity can only reduce the bound).  Nodes whose capacity
        constraint was omitted (uncapacitated) are absent.
    """

    lp_value: float
    shadow_prices: dict[Node, float]

    def bottlenecks(self, count: int = 3) -> list[tuple[Node, float]]:
        """The *count* nodes whose extra capacity would help most
        (most negative shadow price first; zero-priced nodes omitted)."""
        priced = [
            (node, price)
            for node, price in self.shadow_prices.items()
            if price < -1e-12
        ]
        priced.sort(key=lambda item: item[1])
        return priced[:count]


def capacity_sensitivity(
    system: QuorumSystem,
    strategy: AccessStrategy,
    network: Network,
    source: Node,
    *,
    lp_method: str = "highs",
) -> CapacitySensitivity:
    """Solve the single-source LP and price every capacity constraint."""
    factory = SSQPPLPFactory(system, strategy, network)
    model = factory.attach(source)[0]
    solution = model.solve(method=lp_method)
    if solution.constraint_duals is None:
        raise SolverError("the LP backend reported no dual values")
    return CapacitySensitivity(
        lp_value=float(solution.objective),
        shadow_prices=factory.capacity_duals(solution),
    )
