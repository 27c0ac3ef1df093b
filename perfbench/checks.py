"""Output checks: every violation counts as a failed operation.

On the sweep workloads an operation is one relay-candidate solve; on
``serve_drift`` it is one request.  Each check recomputes what it
compares against with an evaluator that the code under test did not
call.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any

import numpy as np

from repro.core.placement import expected_max_delay_reference
from repro.network.metric import dijkstra

#: Objectives and delays must match the independent evaluator this closely
#: (relative to ``max(1, |reference|)``).
TOLERANCE = 1e-9


def close(value: float, reference: float) -> bool:
    return abs(value - reference) <= TOLERANCE * max(1.0, abs(reference))


# -- sweeps -------------------------------------------------------------------------


def adjacency_of(network: Any) -> dict:
    return {
        u: {v: network.edge_length(u, v) for v in network.neighbors(u)}
        for u in network.nodes
    }


def large_reference(result: Any, strategy: Any, adjacency: Mapping) -> float:
    """``Avg_v Delta_f(v)`` under uniform demand, from scalar Dijkstra rows
    out of the placement's image nodes (``d(v, f(u)) = d(f(u), v)``)."""
    placement = result.placement
    nodes = placement.network.nodes
    rows = {u: dijkstra(adjacency, u) for u in set(placement.as_dict().values())}
    support = [
        (strategy.probability(index), [placement[e] for e in placement.system.quorums[index]])
        for index in strategy.support()
    ]
    total = 0.0
    for v in nodes:
        total += sum(probability * max(rows[u][v] for u in hosts) for probability, hosts in support)
    return total / len(nodes)


def check_sweep(result: Any, reference: float) -> list[str]:
    """Failed candidates of one ``solve_qpp`` result, one message each.

    Every ``per_source`` result must meet Thm 3.7; the winner must also
    meet the Thm 1.2 load bound and report the reference objective.
    """
    problems = {
        source: f"candidate {source!r} breaks Thm 3.7: delay {r.delay:.6g} vs bound "
        f"{r.delay_bound:.6g}, load factor {r.max_load_factor:.6g} vs {r.load_factor_bound:.6g}"
        for source, r in result.per_source.items()
        if not r.within_guarantees
    }
    if not result.load_violation_factor <= result.alpha + 1.0 + 1e-9:
        problems[result.source] = (
            f"winner {result.source!r} load factor {result.load_violation_factor:.6g} "
            f"exceeds alpha+1 = {result.alpha + 1.0:.6g}"
        )
    if not close(result.objective, reference):
        problems[result.source] = (
            f"objective {result.objective!r} != independent evaluation {reference!r}"
        )
    return list(problems.values())


# -- serve --------------------------------------------------------------------------


def _expected_weights(network: Any, deltas: Mapping[Any, float]) -> np.ndarray:
    rates = np.array([max(0.0, 1.0 + deltas.get(v, 0.0)) for v in network.nodes])
    return rates / rates.sum()


class ServeChecker:
    """Checks a served session window by window while the load generator
    drives it, so no reply outlives the window that received it.

    Each published snapshot is checked once, when the generator first
    sees it: its per-client delays by ``expected_max_delay_reference``,
    its objective under the demand the stream implies at that tick, and
    its solve by the sweep checks.  Only those delays are kept.
    """

    def __init__(self, network: Any, strategy: Any, snapshot: Any) -> None:
        self.network = network
        self.strategy = strategy
        #: Per published version: ``Delta_f(v)`` by client, and the objective.
        self.delays: dict[int, dict[Any, float]] = {}
        self.objectives: dict[int, float] = {}
        self.problems: list[str] = []
        #: Requests checked so far.
        self.requests = 0
        self._deltas: dict[Any, float] = {}
        self._version = 0
        self._last_reported = 0
        self._pending = 0
        self._queries = 0
        self._stale = 0
        self._publish(snapshot)

    @property
    def version(self) -> int:
        """The latest snapshot version checked."""
        return self._version

    def _publish(self, snapshot: Any) -> None:
        version = snapshot.version
        nodes = self.network.nodes
        delays = {
            v: expected_max_delay_reference(snapshot.placement, self.strategy, v) for v in nodes
        }
        weights = _expected_weights(self.network, self._deltas)
        reference = float(sum(w * delays[v] for w, v in zip(weights, nodes)))
        if not close(snapshot.objective, reference):
            self.problems.append(
                f"snapshot {version} objective {snapshot.objective!r} != {reference!r}"
            )
        self.problems += [
            f"snapshot {version}: {problem}" for problem in check_sweep(snapshot.result, reference)
        ]
        self.delays[version] = delays
        self.objectives[version] = snapshot.objective
        self._version = version
        self._pending = 0

    def window(
        self,
        requests: list[dict[str, Any]],
        responses: list[dict[str, Any]],
        error: str | None,
        snapshot: Any,
    ) -> None:
        """Check one window's replies; *snapshot* is current after its tick."""
        self.requests += len(requests)
        for request in requests:
            if request["op"] == "update":
                client = request["client"]
                self._deltas[client] = self._deltas.get(client, 0.0) + request["rate"]
        if error is not None:
            self.problems += [f"request {request['id']}: {error}" for request in requests]
        else:
            self._replies(requests, responses)
        if snapshot.version > self._version:
            self._publish(snapshot)

    def _replies(self, requests: list[dict[str, Any]], responses: list[dict[str, Any]]) -> None:
        positions: dict[Any, list[int]] = {}
        for position, response in enumerate(responses):
            positions.setdefault(response.get("id"), []).append(position)
        for position, request in enumerate(requests):
            label = f"request {request['id']}"
            matched = positions.get(request["id"], [])
            if matched != [position]:
                self.problems.append(f"{label}: {len(matched)} responses, not one in order")
                continue
            response = responses[position]
            if not response.get("ok") or response.get("op") != request["op"]:
                self.problems.append(f"{label}: response {response!r} is not ok")
                continue
            version = response.get("version")
            if version < self._last_reported:
                self.problems.append(f"{label}: version went back to {version}")
                continue
            self._last_reported = version
            if request["op"] == "update":
                self._pending += 1
                continue
            self._queries += 1
            self._stale += bool(response.get("stale"))
            by_client = self.delays.get(version)
            delay = response.get("delay")
            if by_client is None:
                self.problems.append(f"{label}: unknown snapshot version {version}")
            elif delay is None or not close(delay, by_client[request["client"]]):
                self.problems.append(
                    f"{label}: delay {delay!r} != Delta_f = "
                    f"{by_client[request['client']]!r} under version {version}"
                )
            elif bool(response.get("stale")) != (self._pending > 0):
                self.problems.append(
                    f"{label}: stale={response.get('stale')} with {self._pending} pending"
                )

    def finish(self, stats: dict[str, Any] | None) -> list[str]:
        """Check the final ``stats`` response; return every problem found."""
        queries, stale = self._queries, self._stale
        if stats is None or not stats.get("ok"):
            self.problems.append(f"stats request failed: {stats!r}")
        elif (
            stats["queries"] != queries
            or stats["stale_reads"] + stats["exact_reads"] != queries
            or stats["stale_reads"] != stale
        ):
            self.problems.append(
                f"stats {stats['stale_reads']} stale + {stats['exact_reads']} exact reads "
                f"for {stats['queries']} queries; responses show {stale} stale of {queries}"
            )
        return self.problems
