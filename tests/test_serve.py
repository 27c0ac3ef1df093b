"""The serving layer: schema v1, snapshot cache, and the engine.

Session-level behavior (JSONL loop, byte-identical replay, the 500-node
end-to-end run through ``repro serve``) lives in
``tests/test_serve_session.py``.
"""

import io
import json

import numpy as np
import pytest

from repro.core import solve_partial_deployment, solve_total_delay
from repro.core.qpp import solve_qpp, warm_candidates
from repro.core.rw_placement import solve_rw_placement, solve_rw_ssqpp
from repro.core.ssqpp import solve_ssqpp
from repro.exceptions import InfeasibleError, SolverError, ValidationError
from repro.network.generators import (
    cycle_network,
    grid_network,
    random_geometric_network,
)
from repro.obs.metrics import default_registry
from repro.quorums import AccessStrategy, QuorumSystem, grid, grid_rw, majority
from repro.resilience import inject_faults
from repro.serve import (
    REQUEST_KIND,
    REQUEST_OPS,
    RESPONSE_KIND,
    SERVE_SCHEMA_VERSION,
    PlacementService,
    PlacementSnapshot,
    SnapshotCache,
    serve_request,
    serve_session,
    validate_serve_request,
    validate_serve_response,
)


@pytest.fixture
def grid_instance():
    network = grid_network(3, 3).with_capacities(2.0)
    system = majority(5)
    return system, AccessStrategy.uniform(system), network


def _service(instance, **kwargs):
    system, strategy, network = instance
    return PlacementService(system, strategy, network, **kwargs)


class TestRequestSchema:
    def test_builder_produces_valid_documents_for_every_op(self):
        fields = {"query": {"client": 0}, "update": {"client": 0, "rate": 1.5}}
        for op in REQUEST_OPS:
            document = serve_request(op, id=7, **fields.get(op, {}))
            assert document["kind"] == REQUEST_KIND
            assert document["schema_version"] == SERVE_SCHEMA_VERSION
            validate_serve_request(document)

    def test_rejects_non_mapping(self):
        with pytest.raises(ValidationError, match="JSON object"):
            validate_serve_request([1, 2, 3])

    def test_rejects_wrong_kind_and_version(self):
        with pytest.raises(ValidationError, match="kind"):
            validate_serve_request(
                {"kind": "nope", "schema_version": 1, "id": 1, "op": "stats"}
            )
        with pytest.raises(ValidationError, match="schema_version"):
            validate_serve_request(
                {"kind": REQUEST_KIND, "schema_version": 99, "id": 1, "op": "stats"}
            )

    def test_rejects_unknown_op_and_missing_keys(self):
        with pytest.raises(ValidationError, match="op must be one of"):
            serve_request("shutdown", id=1)
        with pytest.raises(ValidationError, match="missing required key 'client'"):
            serve_request("query", id=1)
        with pytest.raises(ValidationError, match="missing required key 'rate'"):
            serve_request("update", id=1, client=0)

    def test_rejects_boolean_id_and_non_numeric_rate(self):
        with pytest.raises(ValidationError, match="id must be"):
            serve_request("stats", id=True)
        with pytest.raises(ValidationError, match="rate must be a number"):
            serve_request("update", id=1, client=0, rate="fast")


class TestResponseSchema:
    def test_engine_responses_validate_for_every_op(self, grid_instance):
        service = _service(grid_instance, max_batch=8)
        client = grid_instance[2].nodes[0]
        for op, fields in [
            ("query", {"client": client}),
            ("update", {"client": client, "rate": 2.0}),
            ("stats", {}),
            ("resolve", {}),
        ]:
            service.submit(serve_request(op, id=op, **fields))
        for response in service.tick():
            assert response["kind"] == RESPONSE_KIND
            validate_serve_response(response)

    def test_error_response_validates_and_carries_message(self, grid_instance):
        service = _service(grid_instance)
        response = service.error_response("boom")
        assert response["ok"] is False
        assert response["error"] == "boom"
        validate_serve_response(response)

    def test_missing_extra_key_rejected(self):
        with pytest.raises(ValidationError, match="missing required key 'delay'"):
            validate_serve_response(
                {
                    "kind": RESPONSE_KIND,
                    "schema_version": SERVE_SCHEMA_VERSION,
                    "id": 1,
                    "op": "query",
                    "ok": True,
                    "tick": 1,
                    "version": 1,
                    "stale": False,
                }
            )


class TestSnapshotCache:
    def _snapshot(self, version: int) -> PlacementSnapshot:
        per_client = np.array([1.0, 2.0])
        weights = np.array([0.5, 0.5])
        return PlacementSnapshot(
            version=version,
            placement=None,
            result=None,
            telemetry=None,
            per_client=per_client,
            weights=weights,
            objective=float(per_client @ weights),
        )

    def test_empty_cache_reads_fail_loudly(self):
        cache = SnapshotCache()
        assert cache.version == 0
        assert cache.published == 0
        with pytest.raises(ValidationError, match="nothing published"):
            cache.current

    def test_versions_increase_by_exactly_one(self):
        cache = SnapshotCache()
        cache.publish(self._snapshot(1))
        cache.publish(self._snapshot(2))
        assert cache.version == 2
        assert cache.published == 2

    def test_failed_publish_leaves_old_snapshot_serving(self):
        cache = SnapshotCache()
        first = cache.publish(self._snapshot(1))
        for bad_version in (1, 3, 0):
            with pytest.raises(ValidationError, match="exactly one"):
                cache.publish(self._snapshot(bad_version))
        assert cache.current is first
        assert cache.version == 1
        assert cache.published == 1

    def test_only_snapshots_can_be_published(self):
        with pytest.raises(ValidationError, match="PlacementSnapshot"):
            SnapshotCache().publish({"version": 1})

    def test_delay_lookup_and_projection_guard_shapes(self):
        snapshot = self._snapshot(1)
        assert snapshot.delay_for(1) == 2.0
        with pytest.raises(ValidationError, match="out of range"):
            snapshot.delay_for(2)
        with pytest.raises(ValidationError, match="does not match"):
            snapshot.projected_objective(np.array([1.0, 0.0, 0.0]))
        assert snapshot.projected_objective(np.array([1.0, 0.0])) == 1.0


class TestScaleUnification:
    """One shared ``check_scale`` gate across every solver that takes
    ``scale=`` (docs/api.md's matrix)."""

    @pytest.fixture
    def network(self):
        return cycle_network(6).with_capacities(2.0)

    def test_all_solvers_reject_bad_scale_identically(self, network):
        system = majority(3)
        strategy = AccessStrategy.uniform(system)
        rw = grid_rw(2)
        match = r"scale must be one of \(None, 'dense', 'large'\)"
        with pytest.raises(ValidationError, match=match):
            solve_qpp(system, strategy, network=network, scale="huge")
        with pytest.raises(ValidationError, match=match):
            solve_total_delay(system, strategy, network=network, scale="huge")
        with pytest.raises(ValidationError, match=match):
            solve_ssqpp(
                system,
                strategy,
                network=network,
                source=network.nodes[0],
                scale="huge",
            )
        with pytest.raises(ValidationError, match=match):
            solve_rw_placement(rw, network, read_fraction=0.5, scale="huge")
        with pytest.raises(ValidationError, match=match):
            solve_rw_ssqpp(
                rw,
                network,
                source=network.nodes[0],
                read_fraction=0.5,
                scale="huge",
            )
        square = QuorumSystem(
            [{0, 1}, {0, 2}, {0, 3}, {0, 1, 2}], universe=range(4), check=False
        )
        with pytest.raises(ValidationError, match=match):
            solve_partial_deployment(
                square, cycle_network(4).with_capacities(2.0), scale="huge"
            )

    def test_ssqpp_large_matches_dense(self, network):
        system = majority(3)
        strategy = AccessStrategy.uniform(system)
        source = network.nodes[0]
        dense = solve_ssqpp(system, strategy, network=network, source=source)
        large = solve_ssqpp(
            system, strategy, network=network, source=source, scale="large"
        )
        assert large.delay == pytest.approx(dense.delay, rel=1e-9)

    def test_rw_large_path_runs_on_landmark_candidates(self):
        rng = np.random.default_rng(3)
        network = random_geometric_network(24, 0.45, rng=rng).with_capacities(2.0)
        rw = grid_rw(2)
        result = solve_rw_placement(
            rw, network, read_fraction=0.5, scale="large", landmarks=4
        )
        assert result.average_delay >= 0.0

    def test_partial_deployment_large_matches_dense(self):
        square = QuorumSystem(
            [{0, 1}, {0, 2}, {0, 3}, {0, 1, 2}], universe=range(4), check=False
        )
        network = cycle_network(4).with_capacities(2.0)
        dense = solve_partial_deployment(square, network)
        large = solve_partial_deployment(square, network, scale="large")
        assert large.average_delay == pytest.approx(dense.average_delay)


class TestWarmCandidates:
    def test_ranks_previous_winner_first(self, grid_instance):
        system, strategy, network = grid_instance
        result = solve_qpp(system, strategy, network=network)
        ranked = warm_candidates(result, limit=3)
        assert ranked[0] == result.source
        assert len(ranked) == 3
        assert len(set(ranked)) == 3
        assert ranked == warm_candidates(result, limit=3)

    def test_limit_validated(self, grid_instance):
        system, strategy, network = grid_instance
        result = solve_qpp(system, strategy, network=network)
        with pytest.raises(ValidationError):
            warm_candidates(result, limit=0)


class TestPlacementServiceEngine:
    def test_initial_publish_is_version_one(self, grid_instance):
        service = _service(grid_instance)
        assert service.version == 1
        assert service.resolves == 0
        assert default_registry().gauge("serve.snapshot.version").value == 1.0

    def test_query_is_exact_until_an_update_arrives(self, grid_instance):
        service = _service(grid_instance, drift_threshold=float("inf"))
        client = grid_instance[2].nodes[0]
        service.submit(serve_request("query", id=1, client=client))
        (response,) = service.tick()
        assert response["stale"] is False
        service.submit(serve_request("update", id=2, client=client, rate=5.0))
        service.submit(serve_request("query", id=3, client=client))
        responses = service.tick()
        assert responses[1]["op"] == "query"
        assert responses[1]["stale"] is True
        registry = default_registry()
        assert registry.counter("serve.exact.reads").value == 1.0
        assert registry.counter("serve.stale.reads").value == 1.0
        assert registry.counter("serve.request.count").value == 3.0

    def test_string_client_labels_resolve_on_tuple_nodes(self, grid_instance):
        service = _service(grid_instance)
        service.submit(serve_request("query", id=1, client="(0, 0)"))
        (response,) = service.tick()
        assert response["ok"] is True
        assert response["delay"] >= 0.0

    def test_unknown_client_becomes_error_response(self, grid_instance):
        service = _service(grid_instance)
        service.submit(serve_request("query", id=1, client="nowhere"))
        (response,) = service.tick()
        assert response["ok"] is False
        assert "unknown client" in response["error"]
        validate_serve_response(response)

    def test_queue_limit_rejects_overflow(self, grid_instance):
        service = _service(grid_instance, queue_limit=2)
        service.submit(serve_request("stats", id=1))
        service.submit(serve_request("stats", id=2))
        with pytest.raises(ValidationError, match="queue is full"):
            service.submit(serve_request("stats", id=3))

    def test_drift_at_threshold_does_not_resolve(self, grid_instance):
        """The re-solve trigger is strictly ``drift > threshold``."""
        probe = _service(grid_instance, drift_threshold=float("inf"))
        client = grid_instance[2].nodes[0]
        probe.submit(serve_request("update", id=1, client=client, rate=9.0))
        probe.tick()
        drift = probe.drift()
        assert drift > 0.0

        at_threshold = _service(grid_instance, drift_threshold=drift)
        at_threshold.submit(serve_request("update", id=1, client=client, rate=9.0))
        at_threshold.tick()
        assert at_threshold.resolves == 0
        assert at_threshold.version == 1

        below_threshold = _service(
            grid_instance, drift_threshold=drift * (1.0 - 1e-9)
        )
        below_threshold.submit(
            serve_request("update", id=1, client=client, rate=9.0)
        )
        below_threshold.tick()
        assert below_threshold.resolves == 1
        assert below_threshold.version == 2

    def test_forced_resolve_is_visible_within_the_batch(self, grid_instance):
        service = _service(grid_instance, drift_threshold=float("inf"))
        client = grid_instance[2].nodes[0]
        service.submit(serve_request("query", id=1, client=client))
        service.submit(serve_request("resolve", id=2))
        service.submit(serve_request("query", id=3, client=client))
        before, resolved, after = service.tick()
        assert before["version"] == 1
        assert resolved["version"] == 2
        assert after["version"] == 2

    def test_drift_resolve_happens_after_the_batch(self, grid_instance):
        """Queries in the triggering tick still see the old version —
        they are the epsilon-stale reads the cache trades for latency."""
        service = _service(grid_instance, drift_threshold=1e-6)
        client = grid_instance[2].nodes[0]
        service.submit(serve_request("update", id=1, client=client, rate=9.0))
        service.submit(serve_request("query", id=2, client=client))
        responses = service.tick()
        assert service.version == 2
        assert service.resolves == 1
        assert responses[1]["version"] == 1
        assert responses[1]["stale"] is True
        service.submit(serve_request("query", id=3, client=client))
        (fresh,) = service.tick()
        assert fresh["version"] == 2
        assert fresh["stale"] is False

    def test_versions_are_monotonic_across_resolves(self, grid_instance):
        service = _service(grid_instance, drift_threshold=float("inf"))
        versions = [service.version]
        for index in range(3):
            service.submit(serve_request("resolve", id=index))
            service.tick()
            versions.append(service.version)
        assert versions == [1, 2, 3, 4]
        assert default_registry().counter("serve.resolve.count").value == 3.0

    def test_stats_reports_counters_and_drift(self, grid_instance):
        service = _service(grid_instance, drift_threshold=float("inf"))
        client = grid_instance[2].nodes[0]
        service.submit(serve_request("query", id=1, client=client))
        service.submit(serve_request("update", id=2, client=client, rate=3.0))
        service.submit(serve_request("stats", id=3))
        responses = service.tick()
        stats = responses[-1]
        assert stats["queries"] == 1
        assert stats["exact_reads"] == 1
        assert stats["stale_reads"] == 0
        assert stats["resolves"] == 0
        assert stats["drift"] > 0.0


class TestResolveFailures:
    """A re-solve that raises loses no response and keeps the snapshot."""

    def test_failed_drift_resolve_keeps_the_batch(self):
        # The served network of the benchmark's serve workload.
        network = random_geometric_network(
            30, 0.4, rng=np.random.default_rng(0)
        ).with_capacities(2.0)
        system = grid(3)
        service = PlacementService(
            system,
            AccessStrategy.uniform(system),
            network,
            drift_threshold=0.0,
            warm_limit=4,
        )
        client = network.nodes[3]
        service.submit(serve_request("query", id=1, client=client))
        service.submit(serve_request("update", id=2, client=client, rate=0.5))
        service.submit(serve_request("query", id=3, client=client))
        with inject_faults({"serve.resolve": [SolverError("injected")]}):
            responses = service.tick()
        assert [r["id"] for r in responses] == [1, 2, 3]
        assert all(r["ok"] for r in responses)
        assert [r.get("stale") for r in responses] == [False, None, True]
        assert service.version == 1 and service.resolves == 0
        assert default_registry().counter("serve.resolve.failed").value == 1.0

        # The update is still pending: the next query is stale, and the
        # fault-free tick re-solves and publishes version 2.
        service.submit(serve_request("query", id=4, client=client))
        service.submit(serve_request("stats", id=5))
        responses = service.tick()
        assert responses[0]["stale"] is True
        assert responses[1]["resolve_failures"] == 1
        assert service.version == 2 and service.resolves == 1

    def test_failed_resolve_request_gets_an_error_in_its_slot(self, grid_instance):
        service = _service(grid_instance, drift_threshold=float("inf"))
        client = grid_instance[2].nodes[0]
        service.submit(serve_request("query", id=1, client=client))
        service.submit(serve_request("resolve", id=2))
        service.submit(serve_request("stats", id=3))
        with inject_faults({"serve.resolve": [InfeasibleError("no room")]}):
            responses = service.tick()
        assert [r["id"] for r in responses] == [1, 2, 3]
        assert [r["ok"] for r in responses] == [True, False, True]
        assert responses[1]["error"] == "no room"
        validate_serve_response(responses[1])
        validate_serve_response(responses[2])
        assert responses[2]["resolve_failures"] == 1
        assert responses[2]["resolves"] == 0
        assert service.version == 1

    def test_session_writes_one_line_per_request(self, grid_instance):
        service = _service(grid_instance, drift_threshold=0.0)
        client = str(grid_instance[2].nodes[0])
        requests = [
            serve_request("query", id=1, client=client),
            serve_request("update", id=2, client=client, rate=25.0),
            serve_request("query", id=3, client=client),
            serve_request("resolve", id=4),
            serve_request("stats", id=5),
        ]
        lines = [json.dumps(request) for request in requests]
        out = io.StringIO()
        faults = [SolverError("first"), SolverError("second")]
        with inject_faults({"serve.resolve": faults}):
            summary = serve_session(service, lines, out)
        written = [json.loads(line) for line in out.getvalue().splitlines()]
        assert [r["id"] for r in written] == [1, 2, 3, 4, 5]
        assert summary.responses == 5 and summary.errors == 1
        assert service.version == 1
        assert default_registry().counter("serve.resolve.failed").value == 2.0
