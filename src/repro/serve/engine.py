"""The in-process placement-serving engine.

:class:`PlacementService` wraps the batch QPP solver
(:func:`repro.core.solve_qpp`) in a long-running request loop:

* **Versioned cache** — every published placement is an immutable
  :class:`~repro.serve.cache.PlacementSnapshot`; delay queries are
  answered from the current snapshot's precomputed ``Delta_f(v)``
  vector without touching a solver (epsilon-stale reads).
* **Batching** — requests accumulate in a bounded queue and are
  drained per :meth:`tick`, at most ``max_batch`` at a time, with
  ``repro.obs`` counters/spans on every path.
* **Drift-triggered re-solve** — demand updates accumulate into the
  access distribution.  At the end of each tick the engine re-evaluates
  the *current* placement's objective under the new weights (one dot
  product against the snapshot's cached per-client vector).  When the
  relative drift exceeds ``drift_threshold``, a re-solve runs and
  atomically publishes the next snapshot version.
* **Re-solves re-select** — rates never reach the single-source solves,
  so a re-solve passes the current snapshot's ``per_source`` back to
  :func:`~repro.core.solve_qpp` with every candidate: each candidate is
  evaluated under the new demand and no LP runs after construction.
  Every snapshot is what a fresh full sweep returns for its demand (the
  Theorem 1.2 guarantee on the dense scale, where every node is a
  candidate).
* **Failed re-solves lose nothing** — a re-solve that raises a
  :class:`~repro.exceptions.ReproError` publishes nothing: the current
  snapshot keeps serving, pending updates stay pending (so queries stay
  flagged stale and the next tick tries again), and the failure is
  counted (``serve.resolve.failed``, ``resolve_failures`` in ``stats``).
  An explicit ``resolve`` request that fails gets an ``ok=false``
  response in its own slot; every request of the tick is answered.

The engine is single-process and deterministic: responses carry the
tick index and snapshot version, never wall-clock values, so a seeded
session replays byte-identically (``docs/serving.md``).
"""

from __future__ import annotations

import time
from collections import deque
from collections.abc import Mapping
from typing import TYPE_CHECKING, Any

import numpy as np

from .._validation import check_integer_in_range, check_scale, require
from ..core.placement import per_client_expected_max_delay
from ..core.qpp import solve_qpp
from ..exceptions import ReproError
from ..obs import counter, gauge, histogram, span
from ..resilience import fault_point
from .cache import PlacementSnapshot, SnapshotCache
from .schema import (
    RESPONSE_KIND,
    SERVE_SCHEMA_VERSION,
    validate_serve_request,
)

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from numpy.typing import NDArray

__all__ = ["PlacementService"]

#: Relative-drift floor: below this, projected and solved objectives are
#: considered numerically identical.
_DRIFT_TINY = 1e-12

_REQUESTS = counter("serve.request.count")
_BATCH_SIZE = histogram("serve.batch.size")
_STALE_READS = counter("serve.stale.reads")
_EXACT_READS = counter("serve.exact.reads")
_RESOLVES = counter("serve.resolve.count")
_RESOLVE_FAILURES = counter("serve.resolve.failed")
_VERSION = gauge("serve.snapshot.version")
_QUEUE_DEPTH = gauge("serve.queue.depth")
_TICK_SECONDS = histogram("serve.tick.seconds")


class PlacementService:
    """Single-process placement-as-a-service engine.

    Parameters mirror :func:`repro.core.solve_qpp` where they are
    forwarded to it (``alpha``, ``scale``, ``landmarks``, ``lp_method``,
    ``formulation``); the serving knobs are ``drift_threshold``
    (relative objective drift that triggers a re-solve) and
    ``max_batch`` / ``queue_limit`` (batching bounds).  The constructor
    runs the one full sweep; every re-solve re-selects among its
    candidates under the current demand.  ``warm_limit`` is validated
    but has no effect: re-selection needs no restricted candidate list.
    """

    def __init__(
        self,
        system: Any,
        strategy: Any,
        network: Any,
        *,
        alpha: float = 2.0,
        rates: Mapping[Any, float] | None = None,
        drift_threshold: float = 0.1,
        max_batch: int = 64,
        queue_limit: int = 4096,
        scale: str | None = None,
        landmarks: int = 16,
        lp_method: str = "highs",
        formulation: str = "prefix",
        warm_limit: int | None = None,
    ) -> None:
        require(
            drift_threshold >= 0.0,
            f"drift_threshold must be >= 0, got {drift_threshold!r}",
        )
        check_integer_in_range(max_batch, "max_batch", low=1)
        check_integer_in_range(queue_limit, "queue_limit", low=1)
        check_scale(scale)
        if warm_limit is not None:
            check_integer_in_range(warm_limit, "warm_limit", low=1)
        self._system = system
        self._strategy = strategy
        self._network = network
        self._alpha = float(alpha)
        self._drift_threshold = float(drift_threshold)
        self._max_batch = int(max_batch)
        self._queue_limit = int(queue_limit)
        self._scale = scale
        self._landmarks = int(landmarks)
        self._lp_method = lp_method
        self._formulation = formulation
        self._view = network.lazy_metric() if scale == "large" else None
        self._node_index: dict[Any, int] = {
            node: index for index, node in enumerate(network.nodes)
        }
        self._node_by_name = {str(node): node for node in network.nodes}
        self._queue: deque[dict[str, Any]] = deque()
        self._cache = SnapshotCache()
        # Demand model: every client starts with baseline rate (uniform
        # 1.0 unless initial `rates` are given); `update` requests add
        # deltas, clamped at zero when materialized.
        self._base_rates: dict[Any, float] = (
            {node: 1.0 for node in network.nodes}
            if rates is None
            else {node: float(rates.get(node, 0.0)) for node in network.nodes}
        )
        self._delta: dict[Any, float] = {}
        # Clients whose effective rate is positive.  Total demand stays
        # positive while this is non-zero, so updates that would zero it
        # are refused (O(1), exact) instead of failing the next drift check.
        self._positive_clients = sum(
            1 for rate in self._base_rates.values() if rate > 0.0
        )
        self._pending_updates = 0
        self._ticks = 0
        self._queries = 0
        self._stale_reads = 0
        self._exact_reads = 0
        self._resolves = 0
        self._resolve_failures = 0
        self._publish(rates if rates is not None else None, per_source=None)

    # -- public read-only state ------------------------------------------

    @property
    def version(self) -> int:
        """Version of the snapshot currently serving queries."""
        return self._cache.version

    @property
    def snapshot(self) -> PlacementSnapshot:
        """The current (immutable) snapshot."""
        return self._cache.current

    @property
    def ticks(self) -> int:
        """Number of completed ticks."""
        return self._ticks

    @property
    def resolves(self) -> int:
        """Number of snapshot publishes after the initial solve."""
        return self._resolves

    @property
    def queue_depth(self) -> int:
        """Requests waiting in the bounded queue."""
        return len(self._queue)

    @property
    def max_batch(self) -> int:
        """Maximum requests drained per tick."""
        return self._max_batch

    # -- demand model ----------------------------------------------------

    def _effective_rates(self) -> dict[Any, float]:
        rates = dict(self._base_rates)
        for node, delta in self._delta.items():
            rates[node] = max(0.0, rates[node] + delta)
        return rates

    def _weight_vector(self) -> "NDArray[np.float64]":
        rates = self._effective_rates()
        weights = np.array(
            [rates[node] for node in self._network.nodes], dtype=float
        )
        total = float(weights.sum())
        require(total > 0.0, f"total demand rate must be positive, got {total!r}")
        result: "NDArray[np.float64]" = weights / total
        return result

    def drift(self) -> float:
        """Relative drift of the snapshot objective under current demand."""
        snapshot = self._cache.current
        if self._pending_updates == 0:
            return 0.0
        projected = snapshot.projected_objective(self._weight_vector())
        return abs(projected - snapshot.objective) / max(
            abs(snapshot.objective), _DRIFT_TINY
        )

    # -- solve / publish -------------------------------------------------

    def _publish(
        self,
        rates: Mapping[Any, float] | None,
        *,
        per_source: Mapping[Any, Any] | None,
    ) -> PlacementSnapshot:
        fault_point("serve.resolve")
        result = solve_qpp(
            self._system,
            self._strategy,
            network=self._network,
            alpha=self._alpha,
            rates=rates,
            candidate_sources=None,
            lp_method=self._lp_method,
            formulation=self._formulation,
            scale=self._scale,
            landmarks=self._landmarks,
            per_source=per_source,
        )
        per_client = per_client_expected_max_delay(
            result.placement, self._strategy, metric=self._view
        )
        weights = self._weight_vector() if rates is not None else (
            np.full(len(self._node_index), 1.0 / len(self._node_index))
        )
        snapshot = PlacementSnapshot(
            version=self._cache.next_version(),
            placement=result.placement,
            result=result,
            telemetry=result.telemetry,
            per_client=per_client,
            weights=weights,
            objective=float(per_client @ weights),
        )
        self._cache.publish(snapshot)
        _VERSION.set(float(snapshot.version))
        return snapshot

    def _resolve_now(self) -> PlacementSnapshot:
        """Re-select under the current demand and publish the next snapshot.

        The current snapshot's single-source results are reused for every
        candidate, so this evaluates each candidate once and solves no LP.
        A :class:`~repro.exceptions.ReproError` publishes nothing and
        leaves the pending updates pending; it is counted and re-raised.
        """
        previous = self._cache.current.result
        try:
            with span("serve.resolve", version=self._cache.version):
                snapshot = self._publish(
                    self._effective_rates(), per_source=previous.per_source
                )
        except ReproError:
            self._resolve_failures += 1
            _RESOLVE_FAILURES.inc()
            raise
        self._resolves += 1
        self._pending_updates = 0
        _RESOLVES.inc()
        return snapshot

    # -- request intake --------------------------------------------------

    def submit(self, document: Mapping[str, Any]) -> None:
        """Validate and enqueue one request document.

        Raises :class:`ValidationError` on schema violations or when the
        bounded queue is full; the JSONL loop turns both into ``error``
        responses.
        """
        validate_serve_request(document)
        require(
            len(self._queue) < self._queue_limit,
            f"serve queue is full (queue_limit={self._queue_limit})",
        )
        self._queue.append(dict(document))
        _QUEUE_DEPTH.set(float(len(self._queue)))

    # -- responses -------------------------------------------------------

    def _response(
        self, document: Mapping[str, Any] | None, op: str, **fields: Any
    ) -> dict[str, Any]:
        response: dict[str, Any] = {
            "kind": RESPONSE_KIND,
            "schema_version": SERVE_SCHEMA_VERSION,
            "id": document.get("id") if document is not None else None,
            "op": op,
            "ok": True,
            "tick": self._ticks,
            "version": self._cache.version,
        }
        response.update(fields)
        return response

    def error_response(
        self, message: str, *, request: Mapping[str, Any] | None = None
    ) -> dict[str, Any]:
        """An ``ok=false`` response carrying *message*."""
        response = self._response(request, "error", error=message)
        response["ok"] = False
        return response

    # -- request handlers ------------------------------------------------

    def _resolve_client(self, document: Mapping[str, Any]) -> Any:
        client = document["client"]
        if client in self._node_index:
            return client
        resolved = self._node_by_name.get(str(client))
        require(resolved is not None, f"unknown client node {client!r}")
        return resolved

    def _handle_query(self, document: Mapping[str, Any]) -> dict[str, Any]:
        node = self._resolve_client(document)
        snapshot = self._cache.current
        delay = snapshot.delay_for(self._node_index[node])
        stale = self._pending_updates > 0
        self._queries += 1
        if stale:
            self._stale_reads += 1
            _STALE_READS.inc()
        else:
            self._exact_reads += 1
            _EXACT_READS.inc()
        return self._response(document, "query", delay=delay, stale=stale)

    def _handle_update(self, document: Mapping[str, Any]) -> dict[str, Any]:
        node = self._resolve_client(document)
        base = self._base_rates[node]
        old_delta = self._delta.get(node, 0.0)
        new_delta = old_delta + float(document["rate"])
        # Effective rates clamp at zero: only the sign of base + delta counts.
        change = int(base + new_delta > 0.0) - int(base + old_delta > 0.0)
        require(
            self._positive_clients + change > 0,
            f"update of client {node!r} would leave no client with positive "
            "demand; demand unchanged",
        )
        self._delta[node] = new_delta
        self._positive_clients += change
        self._pending_updates += 1
        return self._response(document, "update", pending=self._pending_updates)

    def _handle_stats(self, document: Mapping[str, Any]) -> dict[str, Any]:
        return self._response(
            document,
            "stats",
            queries=self._queries,
            stale_reads=self._stale_reads,
            exact_reads=self._exact_reads,
            resolves=self._resolves,
            resolve_failures=self._resolve_failures,
            drift=self.drift(),
        )

    def _handle_resolve(self, document: Mapping[str, Any]) -> dict[str, Any]:
        snapshot = self._resolve_now()
        return self._response(
            document, "resolve", resolved=True, version=snapshot.version
        )

    # -- the tick --------------------------------------------------------

    def tick(self) -> list[dict[str, Any]]:
        """Drain up to ``max_batch`` queued requests and answer them.

        Queries are answered from the snapshot that is current *when the
        request is processed*: an earlier ``resolve`` in the same batch
        is visible to later queries, while the end-of-tick drift
        re-solve is not — those queries were (deliberately) epsilon-
        stale and are counted in ``serve.stale.reads``.  Every drained
        request gets exactly one response, in order, even when a
        re-solve fails.
        """
        if not self._queue:
            return []
        started = time.perf_counter()
        self._ticks += 1
        batch_size = min(self._max_batch, len(self._queue))
        responses: list[dict[str, Any]] = []
        with span("serve.tick", tick=self._ticks, batch=batch_size):
            _BATCH_SIZE.observe(float(batch_size))
            for _ in range(batch_size):
                document = self._queue.popleft()
                _REQUESTS.inc()
                try:
                    handler = {
                        "query": self._handle_query,
                        "update": self._handle_update,
                        "stats": self._handle_stats,
                        "resolve": self._handle_resolve,
                    }[document["op"]]
                    responses.append(handler(document))
                except ReproError as exc:
                    responses.append(
                        self.error_response(str(exc), request=document)
                    )
            if (
                self._pending_updates > 0
                and self.drift() > self._drift_threshold
            ):
                try:
                    self._resolve_now()
                except ReproError:
                    # Counted by _resolve_now; the current snapshot keeps
                    # serving and the next tick re-checks the drift.
                    pass
        _QUEUE_DEPTH.set(float(len(self._queue)))
        _TICK_SECONDS.observe(time.perf_counter() - started)
        return responses
