"""The JSONL serving loop and ``repro serve`` end to end.

Locks in the session-level contracts: deterministic byte-identical
replay of a seeded session, error handling that keeps the loop alive,
and the acceptance scenario — a 500-node geometric network serving
1000+ queries with drift-triggered re-solves, with the obs registry
accounting for every read.
"""

import io
import json

import numpy as np
import pytest

from repro.cli import main
from repro.network.generators import grid_network
from repro.obs.metrics import default_registry
from repro.quorums import AccessStrategy, majority
from repro.serve import (
    PlacementService,
    SessionSummary,
    serve_request,
    serve_session,
    validate_serve_response,
)


def _fresh_service(**kwargs):
    network = grid_network(3, 3).with_capacities(2.0)
    system = majority(5)
    return PlacementService(
        system, AccessStrategy.uniform(system), network, **kwargs
    )


def _session_lines():
    lines = []
    for index in range(10):
        lines.append(
            json.dumps(serve_request("query", id=index, client="(1, 1)"))
        )
    lines.append(
        json.dumps(serve_request("update", id="u0", client="(2, 2)", rate=30.0))
    )
    lines.append(json.dumps(serve_request("query", id="q-stale", client="(2, 2)")))
    lines.append(json.dumps(serve_request("resolve", id="force")))
    lines.append(json.dumps(serve_request("stats", id="s0")))
    lines.append("not valid json {")
    lines.append(json.dumps({"kind": "wrong-kind", "id": 1, "op": "stats"}))
    lines.append("")  # blank lines are skipped, not answered
    lines.append(json.dumps(serve_request("query", id="last", client="(0, 2)")))
    return lines


class TestServeSession:
    def test_session_answers_every_request_in_order(self):
        service = _fresh_service(max_batch=4, drift_threshold=float("inf"))
        out = io.StringIO()
        summary = serve_session(service, _session_lines(), out)
        assert isinstance(summary, SessionSummary)
        payload = out.getvalue().splitlines()
        # One response per non-blank line, in input order.
        assert summary.requests == 17
        assert summary.responses == 17
        assert len(payload) == 17
        assert summary.errors == 2
        assert summary.final_version == 2
        responses = [json.loads(line) for line in payload]
        for response in responses:
            validate_serve_response(response)
        ids = [response["id"] for response in responses]
        assert ids[:10] == list(range(10))
        assert ids[-1] == "last"

    def test_versions_are_monotonic_through_a_session(self):
        service = _fresh_service(max_batch=4, drift_threshold=float("inf"))
        out = io.StringIO()
        serve_session(service, _session_lines(), out)
        versions = [
            json.loads(line)["version"] for line in out.getvalue().splitlines()
        ]
        assert all(a <= b for a, b in zip(versions, versions[1:]))

    def test_invalid_json_line_does_not_kill_the_session(self):
        service = _fresh_service()
        out = io.StringIO()
        summary = serve_session(
            service,
            ["{broken", json.dumps(serve_request("stats", id=1))],
            out,
        )
        assert summary.errors == 1
        first, second = (json.loads(line) for line in out.getvalue().splitlines())
        assert first["ok"] is False
        assert "invalid JSON" in first["error"]
        assert second["ok"] is True

    def test_replay_is_byte_identical(self):
        lines = _session_lines()
        outputs = []
        for _ in range(2):
            default_registry().reset()
            service = _fresh_service(max_batch=4, drift_threshold=float("inf"))
            out = io.StringIO()
            serve_session(service, lines, out)
            outputs.append(out.getvalue())
        assert outputs[0] == outputs[1]
        assert outputs[0]  # non-empty: the property is not vacuous

    def test_update_that_would_zero_total_demand_is_refused(
        self, tmp_path, capsys
    ):
        """`repro serve majority:3 cycle:3`: driving every client's rate
        to zero must cost one error response, not the whole session."""
        lines = [json.dumps(serve_request("query", id=1, client=0))]
        lines += [
            json.dumps(serve_request("update", id=2 + c, client=c, rate=-1.0))
            for c in range(3)
        ]
        lines.append(json.dumps(serve_request("stats", id=5)))
        requests = tmp_path / "requests.jsonl"
        requests.write_text("\n".join(lines) + "\n")
        out = tmp_path / "responses.jsonl"
        code = main(
            ["serve", "majority:3", "cycle:3", "--capacity", "2.0",
             "--input", str(requests), "--out", str(out)]
        )
        assert code == 1  # exactly one error response
        responses = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["id"] for r in responses] == [1, 2, 3, 4, 5]
        assert [r["ok"] for r in responses] == [True, True, True, False, True]
        assert "positive demand" in responses[3]["error"]
        # Client 2 kept its rate, so the end-of-tick drift re-solve had
        # demand to place against.
        assert "served 5 response(s) to 5 request(s) in 1 tick(s): 1 re-solve(s)" in (
            capsys.readouterr().err
        )

    def test_refused_update_leaves_demand_unchanged(self):
        network = grid_network(1, 2).with_capacities(2.0)
        system = majority(3)
        service = PlacementService(
            system, AccessStrategy.uniform(system), network,
            rates={(0, 0): 1.0, (0, 1): 0.0}, drift_threshold=float("inf"),
        )
        for request_id, client, rate in (
            (1, "(0, 0)", -5.0),  # would zero the only positive client
            (2, "(0, 1)", 2.0),
            (3, "(0, 0)", -5.0),  # now allowed: (0, 1) carries demand
            (4, "(0, 1)", -2.5),  # would zero the last positive client
            (5, "(0, 0)", 4.5),  # 1 - 5 + 4.5 > 0 again
        ):
            service.submit(serve_request("update", id=request_id, client=client, rate=rate))
        responses = service.tick()
        assert [r["ok"] for r in responses] == [False, True, True, False, True]
        assert [r.get("pending") for r in responses] == [None, 1, 2, None, 3]
        assert service.drift() >= 0.0


def _acceptance_lines(rng):
    """1000+ queries with four waves of concentrated demand shift.

    Each wave pushes a large rate delta onto a fresh hot node, driving
    the relative drift of the serving snapshot past the 5% threshold so
    the engine re-solves at least once per wave — no forced ``resolve``
    ops anywhere.
    """
    lines = []
    request_id = 0
    queries = 0
    for wave, hot in enumerate((13, 211, 404, 77)):
        for _ in range(260):
            client = int(rng.integers(0, 500))
            lines.append(
                json.dumps(serve_request("query", id=request_id, client=client))
            )
            request_id += 1
            queries += 1
        lines.append(
            json.dumps(
                serve_request(
                    "update", id=f"wave-{wave}", client=hot, rate=2000.0
                )
            )
        )
        request_id += 1
    for _ in range(260):
        client = int(rng.integers(0, 500))
        lines.append(
            json.dumps(serve_request("query", id=request_id, client=client))
        )
        request_id += 1
        queries += 1
    lines.append(json.dumps(serve_request("stats", id="final")))
    return lines, queries


class TestServeAcceptance:
    def test_500_node_session_through_repro_serve(self, tmp_path, capsys):
        """ISSUE 10 acceptance: >=1000 queries, >=3 drift re-solves on a
        500-node geometric network through ``repro serve``; monotonic
        versions; stale + exact reads account for every query in the
        obs registry."""
        rng = np.random.default_rng(2026)
        lines, queries = _acceptance_lines(rng)
        assert queries >= 1000
        input_path = tmp_path / "session.jsonl"
        input_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out_path = tmp_path / "responses.jsonl"

        code = main(
            [
                "serve",
                "majority:5",
                "geometric:500:0.12",
                "--seed",
                "42",
                "--capacity",
                "2.0",
                "--scale",
                "large",
                "--landmarks",
                "6",
                "--drift-threshold",
                "0.05",
                "--max-batch",
                "128",
                "--input",
                str(input_path),
                "--out",
                str(out_path),
            ]
        )
        assert code == 0

        responses = [
            json.loads(line)
            for line in out_path.read_text(encoding="utf-8").splitlines()
        ]
        assert len(responses) == len(lines)
        for response in responses:
            validate_serve_response(response)
            assert response["ok"] is True

        versions = [response["version"] for response in responses]
        assert all(a <= b for a, b in zip(versions, versions[1:]))
        assert versions[0] == 1

        stats = responses[-1]
        assert stats["op"] == "stats"
        assert stats["queries"] == queries
        assert stats["resolves"] >= 3
        assert versions[-1] == 1 + stats["resolves"]
        assert stats["stale_reads"] + stats["exact_reads"] == queries
        assert stats["stale_reads"] > 0
        assert stats["exact_reads"] > 0

        registry = default_registry()
        stale = registry.counter("serve.stale.reads").value
        exact = registry.counter("serve.exact.reads").value
        assert stale + exact == pytest.approx(float(queries))
        assert registry.counter("serve.resolve.count").value >= 3.0
        assert registry.counter("serve.request.count").value == len(lines)
        assert registry.gauge("serve.snapshot.version").value == versions[-1]
        batch = registry.histogram("serve.batch.size")
        assert batch.count > 0
        assert batch.maximum <= 128.0
        assert registry.histogram("serve.tick.seconds").quantile(0.99) >= 0.0

        summary_stderr = capsys.readouterr().err
        assert "re-solve(s)" in summary_stderr
