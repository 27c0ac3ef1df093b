"""The stdin/stdout JSONL loop behind ``repro serve``.

One request document per input line, one response document per output
line, in order.  Requests are batched: the service ticks whenever the
queue reaches ``max_batch`` pending requests, and drains completely at
end of input and before answering a line it cannot enqueue.  Output is
deterministic — ``json.dumps(sort_keys=True)`` plus tick/version stamps
instead of wall-clock values — so a seeded session replays
byte-identically (the property ``tests/test_serve_session.py`` locks
in).
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from dataclasses import dataclass
from typing import IO, Any

from ..exceptions import ValidationError
from .engine import PlacementService

__all__ = ["SessionSummary", "serve_session"]


@dataclass(frozen=True)
class SessionSummary:
    """What a finished JSONL session did (for logs, not for stdout)."""

    requests: int
    responses: int
    errors: int
    ticks: int
    resolves: int
    final_version: int


def _write(out: IO[str], document: dict[str, Any]) -> None:
    out.write(json.dumps(document, sort_keys=True))
    out.write("\n")


def serve_session(
    service: PlacementService, lines: Iterable[str], out: IO[str]
) -> SessionSummary:
    """Drive *service* with JSONL *lines*, writing responses to *out*."""
    requests = 0
    responses = 0
    errors = 0

    def flush_tick() -> None:
        nonlocal responses, errors
        for response in service.tick():
            if not response["ok"]:
                errors += 1
            responses += 1
            _write(out, response)

    def drain() -> None:
        while service.queue_depth:
            flush_tick()

    def reject(message: str, request: dict[str, Any] | None = None) -> None:
        nonlocal responses, errors
        # Requests still queued come first, so responses keep input order.
        drain()
        errors += 1
        responses += 1
        _write(out, service.error_response(message, request=request))

    for raw in lines:
        line = raw.strip()
        if not line:
            continue
        requests += 1
        try:
            document = json.loads(line)
        except json.JSONDecodeError as exc:
            reject(f"invalid JSON: {exc.msg}")
            continue
        try:
            service.submit(document)
        except ValidationError as exc:
            reject(str(exc), document if isinstance(document, dict) else None)
            continue
        if service.queue_depth >= service.max_batch:
            flush_tick()
    drain()
    out.flush()
    return SessionSummary(
        requests=requests,
        responses=responses,
        errors=errors,
        ticks=service.ticks,
        resolves=service.resolves,
        final_version=service.version,
    )
