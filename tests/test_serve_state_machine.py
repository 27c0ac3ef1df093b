"""A Hypothesis state machine over ``repro serve`` request streams.

Rules queue request lines: queries, demand updates (including ones that
would leave no client with demand), stats, resolves and malformed lines.
A flush runs the queued lines through :func:`serve_session`, sometimes
with injected re-solve failures.  After every flush the machine checks
the session against a model of the demand:

* exactly one response per request, in input order;
* no exception escapes ``serve_session``;
* every publish raises the version by exactly one;
* stale plus exact reads equal the queries answered;
* a failed re-solve keeps the current snapshot;
* every published snapshot equals a fresh full ``solve_qpp`` under the
  demand it was published for, in source, objective and lower bound.
"""

from __future__ import annotations

import io
import json

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core import solve_qpp
from repro.exceptions import SolverError
from repro.network.generators import grid_network
from repro.obs.metrics import default_registry
from repro.quorums import AccessStrategy, majority
from repro.resilience import inject_faults
from repro.serve import engine, serve_request, serve_session, validate_serve_response

NETWORK = grid_network(3, 3).with_capacities(2.0)
SYSTEM = majority(5)
STRATEGY = AccessStrategy.uniform(SYSTEM)
CLIENTS = [str(node) for node in NETWORK.nodes]
#: Two clients carry the initial demand, and half the updates go to
#: them, so a few updates can try to take all of it away.
HOT = ["(0, 0)", "(2, 2)"]
BASE = {node: 0.0 for node in NETWORK.nodes}
BASE[(0, 0)] = BASE[(2, 2)] = 1.0

#: ``(line, id of its error response)`` for lines the service must refuse.
MALFORMED = [
    ("not valid json {", None),
    ("[1, 2]", None),
    (json.dumps({"kind": "wrong-kind", "id": "bad-kind", "op": "stats"}), "bad-kind"),
    (
        json.dumps(
            {"kind": "repro-serve-request", "schema_version": 1, "id": "bad-op", "op": "explode"}
        ),
        "bad-op",
    ),
    (
        json.dumps(
            {
                "kind": "repro-serve-request",
                "schema_version": 1,
                "id": "no-rate",
                "op": "update",
                "client": CLIENTS[0],
            }
        ),
        "no-rate",
    ),
    (json.dumps(serve_request("query", id="no-client", client="(7, 7)")), "no-client"),
]

_FRESH: dict[tuple[float, ...], object] = {}


def fresh_solve(rates):
    """A full ``solve_qpp`` under *rates*, memoized across examples."""
    key = tuple(rates[node] for node in NETWORK.nodes)
    if key not in _FRESH:
        _FRESH[key] = solve_qpp(SYSTEM, STRATEGY, network=NETWORK, rates=rates)
    return _FRESH[key]


def counters():
    registry = default_registry()
    return {
        name: registry.counter(name).value
        for name in (
            "serve.stale.reads",
            "serve.exact.reads",
            "serve.resolve.failed",
            "resilience.fault.injected",
        )
    }


class ServeSession(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.lines: list[tuple[str, object, str]] = []
        self.publishes: list[tuple[dict, object]] = []
        self.next_id = 0
        self.delta: dict = {}
        self.queries = 0
        self.last_version = 1
        self.original = engine.solve_qpp

    @initialize(
        max_batch=st.sampled_from([1, 2, 4]),
        drift_threshold=st.sampled_from([0.0, 0.05, float("inf")]),
    )
    def start(self, max_batch, drift_threshold):
        def recording(*args, **kwargs):
            result = self.original(*args, **kwargs)
            self.publishes.append((dict(kwargs["rates"]), result))
            return result

        engine.solve_qpp = recording
        self.before = counters()
        self.service = engine.PlacementService(
            SYSTEM,
            STRATEGY,
            NETWORK,
            rates=BASE,
            max_batch=max_batch,
            drift_threshold=drift_threshold,
        )
        self.check_publishes([BASE])

    def teardown(self) -> None:
        engine.solve_qpp = self.original

    # -- the demand model -----------------------------------------------------------

    def rates(self, delta=None):
        """Effective rates, with the engine's arithmetic."""
        rates = dict(BASE)
        for node, value in (self.delta if delta is None else delta).items():
            rates[node] = max(0.0, rates[node] + value)
        return rates

    def queue(self, op, **fields):
        self.next_id += 1
        document = serve_request(op, id=self.next_id, **fields)
        self.lines.append((json.dumps(document), self.next_id, op))

    # -- rules ----------------------------------------------------------------------

    @rule(client=st.sampled_from(CLIENTS))
    def query(self, client):
        self.queue("query", client=client)

    @rule(
        client=st.sampled_from(HOT) | st.sampled_from(CLIENTS),
        rate=st.sampled_from([-5.0, -0.5, 0.5, 3.0]),
    )
    def update(self, client, rate):
        self.queue("update", client=client, rate=rate)

    @rule()
    def stats(self):
        self.queue("stats")

    @rule()
    def resolve(self):
        self.queue("resolve")

    @rule(line=st.sampled_from(MALFORMED))
    def malformed(self, line):
        self.lines.append((line[0], line[1], "malformed"))

    @precondition(lambda self: self.lines)
    @rule(faults=st.integers(0, 2))
    def flush(self, faults):
        lines, self.lines = self.lines, []
        snapshot = self.service.snapshot
        published = len(self.publishes)
        out = io.StringIO()
        with inject_faults({"serve.resolve": [SolverError("injected")] * faults}):
            serve_session(self.service, [line for line, _, _ in lines], out)
        responses = [json.loads(line) for line in out.getvalue().splitlines()]

        # One response per request, in input order.
        assert [response["id"] for response in responses] == [ident for _, ident, _ in lines]
        states = [self.rates()]
        for (line, _, op), response in zip(lines, responses):
            validate_serve_response(response)
            assert response["version"] >= self.last_version
            if op == "malformed":
                assert response["ok"] is False
            elif op == "query":
                assert response["ok"] is True and response["op"] == "query"
                self.queries += 1
            elif op == "update":
                self.check_update(json.loads(line), response)
                states.append(self.rates())
            elif op == "stats":
                assert response["stale_reads"] + response["exact_reads"] == response["queries"]
                assert response["queries"] == self.queries
            elif op == "resolve":
                assert response["ok"] or "injected" in response["error"]
            self.last_version = response["version"]

        # Versions rise by exactly one per publish; a failed re-solve
        # publishes nothing and keeps the snapshot that was serving.
        new = len(self.publishes) - published
        self.check_publishes(states, start=published)
        assert self.service.version == snapshot.version + new
        if new == 0:
            assert self.service.snapshot is snapshot
        self.last_version = self.service.version

    def check_update(self, document, response):
        node = NETWORK.nodes[CLIENTS.index(document["client"])]
        delta = dict(self.delta)
        delta[node] = delta.get(node, 0.0) + document["rate"]
        accepted = any(rate > 0.0 for rate in self.rates(delta).values())
        assert response["ok"] is accepted
        if accepted:
            self.delta = delta
        else:
            assert "positive demand" in response["error"]

    def check_publishes(self, states, start=0):
        """Each publish since *start* solved for a demand the stream
        reached, in order, and equals a fresh full solve under it."""
        position = 0
        for rates, result in self.publishes[start:]:
            while position < len(states) and states[position] != rates:
                position += 1
            assert position < len(states), "published for a demand never reached"
            fresh = fresh_solve(rates)
            assert result.source == fresh.source
            assert result.objective == fresh.objective
            assert result.optimum_lower_bound == fresh.optimum_lower_bound

    # -- invariants -----------------------------------------------------------------

    @invariant()
    def reads_account_for_every_query(self):
        now = counters()
        stale = now["serve.stale.reads"] - self.before["serve.stale.reads"]
        exact = now["serve.exact.reads"] - self.before["serve.exact.reads"]
        assert stale + exact == self.queries

    @invariant()
    def every_failure_is_counted(self):
        now = counters()
        failed = now["serve.resolve.failed"] - self.before["serve.resolve.failed"]
        injected = now["resilience.fault.injected"] - self.before["resilience.fault.injected"]
        assert failed == injected
        assert self.service.resolves == self.service.version - 1


ServeSession.TestCase.settings = settings(
    max_examples=50,
    stateful_step_count=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestServeSession = ServeSession.TestCase
