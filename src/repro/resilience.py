"""Contract-gated retries, deadlines and seeded fault injection.

:func:`retrying` is the library's only sanctioned way to retry a solver
call, and it refuses to guess which failures are retryable: the *error
contract* — the JSON document emitted by ``repro lint --errors
--error-contract out.json`` (see :mod:`repro.lint.excflow`) — records,
for every solver entry point and every ``@raises``-declared function,
the interprocedurally inferred escape set and which of those exceptions
the author declared *transient*.  Only contract-declared-transient
exceptions are retried; a declared non-transient failure propagates
immediately (an ``InfeasibleError`` does not become feasible by asking
again), and an exception the contract never mentions raises
:class:`~repro.exceptions.ErrorContractError` — the escape analysis and
the declaration disagree, which is a defect, not a retry candidate.

This module deliberately consumes the contract as a plain JSON document
and never imports :mod:`repro.lint` — the lint tier sits at the top of
the layer order and this runtime near the bottom, so the certificate
file is the one-way bridge between them.

Typical use::

    from repro.resilience import deadline, load_certificate, retrying

    contract = load_certificate("error-contract.json")
    solve = retrying(solve_qpp, certificate=contract, attempts=3)
    result = solve(network, system, strategy)

:func:`deadline` adds a cooperative wall-clock budget: it is checked
between attempts (and after completion), never by interrupting a solver
mid-flight, so a partially-built LP model is never abandoned in an
inconsistent state.

Testing hooks: :func:`fault_point` is a no-op marker that solvers place
on their hot loops; :func:`inject_faults` / :func:`seeded_faults` arm
those markers deterministically so tests can force a transient
``SolverError`` mid-sweep and assert byte-identical recovery.
"""

from __future__ import annotations

import functools
import json
import os
import random
import time
from collections.abc import Callable, Iterator, Mapping, Sequence
from contextlib import contextmanager
from pathlib import Path
from typing import Any, TypeVar

from .exceptions import (
    DeadlineExceededError,
    ErrorContractError,
    SolverError,
    ValidationError,
)
from .obs.metrics import counter

__all__ = [
    "CONTRACT_ENV_VAR",
    "Deadline",
    "contract_entry",
    "deadline",
    "fault_point",
    "inject_faults",
    "load_certificate",
    "resolve_qualified_name",
    "retrying",
    "seeded_faults",
]

_R = TypeVar("_R")

#: Environment variable consulted when no certificate is passed explicitly.
CONTRACT_ENV_VAR = "REPRO_ERROR_CONTRACT"

#: The ``kind`` discriminator of an error-contract document.  Kept in
#: sync with ``repro.lint.excflow.CONTRACT_KIND`` (the lint tier owns
#: the schema; this module only recognises it).
_CONTRACT_KIND = "repro-error-contract"

#: Exception names never gated by the contract: programming errors
#: propagate verbatim no matter what the document says.  Mirrors the
#: ``policy.programming_errors`` default of the certificate schema.
_DEFAULT_PROGRAMMING_ERRORS = frozenset(
    {"TypeError", "NotImplementedError", "AssertionError", "KeyboardInterrupt"}
)


def load_certificate(
    source: Mapping[str, Any] | str | Path | None = None,
) -> dict[str, Any] | None:
    """Load an error-contract certificate from *source*.

    *source* may be an already-parsed contract mapping, a path to the
    JSON file written by ``repro lint --errors --error-contract``, or
    ``None`` — in which case the :data:`CONTRACT_ENV_VAR` environment
    variable is consulted and ``None`` is returned when it is unset.  A
    present but malformed contract raises
    :class:`~repro.exceptions.ValidationError`: a bad contract must
    never be mistaken for "no contract" and silently disable the gate.
    """
    if source is None:
        env = os.environ.get(CONTRACT_ENV_VAR)
        if not env:
            return None
        source = env
    if isinstance(source, Mapping):
        document: Any = dict(source)
    else:
        path = Path(source)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise ValidationError(
                f"cannot read error contract {str(path)!r}: {exc}"
            ) from exc
        try:
            document = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(
                f"error contract {str(path)!r} is not valid JSON: {exc}"
            ) from exc
    if not isinstance(document, dict):
        raise ValidationError(
            "error contract must be a JSON object, got "
            f"{type(document).__name__}"
        )
    if document.get("kind") != _CONTRACT_KIND:
        raise ValidationError(
            f"error contract 'kind' must be {_CONTRACT_KIND!r}, got "
            f"{document.get('kind')!r}"
        )
    functions = document.get("functions")
    if not isinstance(functions, dict):
        raise ValidationError(
            "error contract must carry a 'functions' object mapping "
            "qualified names to escape-set entries"
        )
    return document


def resolve_qualified_name(fn: Callable[..., Any]) -> tuple[str | None, str]:
    """The qualified name a contract lists *fn* under, or why it has none.

    Returns ``(qualified_name, "")`` on success and ``(None, reason)``
    when *fn* has no importable module-level name: :class:`functools.partial`
    chains are unwrapped to the underlying function (binding arguments
    does not change what it raises), but lambdas and functions defined
    inside other functions cannot be named by a contract.
    """
    target: Callable[..., Any] = fn
    while isinstance(target, functools.partial):
        target = target.func
    qualname = getattr(target, "__qualname__", None)
    module = getattr(target, "__module__", None)
    if qualname is None or module is None:
        return None, f"{target!r} has no __module__/__qualname__"
    if "<lambda>" in qualname:
        return None, "lambdas cannot be certified (no importable name)"
    if "<locals>" in qualname:
        return None, (
            f"{qualname!r} is defined inside a function; only "
            "module-level callables can be certified (and pickled)"
        )
    return f"{module}.{qualname}", ""


def contract_entry(
    certificate: Mapping[str, Any], fn: Callable[..., Any]
) -> dict[str, Any] | None:
    """The contract entry covering *fn*, or ``None`` if uncovered."""
    qualified, _ = resolve_qualified_name(fn)
    if qualified is None:
        return None
    entry = certificate.get("functions", {}).get(qualified)
    return entry if isinstance(entry, dict) else None


def _programming_errors(document: Mapping[str, Any] | None) -> frozenset[str]:
    policy = (document or {}).get("policy")
    if isinstance(policy, Mapping):
        names = policy.get("programming_errors")
        if isinstance(names, (list, tuple)) and all(
            isinstance(name, str) for name in names
        ):
            return frozenset(names)
    return _DEFAULT_PROGRAMMING_ERRORS


def _exception_names(exc: BaseException) -> frozenset[str]:
    """Every class name in the exception's MRO (so a contract declaring
    ``ReproError`` covers a concrete ``CapacityError`` at runtime)."""
    return frozenset(klass.__name__ for klass in type(exc).__mro__)


class Deadline:
    """A cooperative wall-clock budget.

    The deadline never interrupts work in flight; callers (and
    :func:`retrying`, between attempts) ask :meth:`check`, which raises
    :class:`~repro.exceptions.DeadlineExceededError` once the budget is
    spent.  *clock* is injectable so tests stay deterministic.
    """

    __slots__ = ("seconds", "_clock", "_start")

    def __init__(
        self,
        seconds: float,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if not seconds > 0:
            raise ValidationError(
                f"deadline seconds must be > 0, got {seconds!r}"
            )
        self.seconds = float(seconds)
        self._clock = clock
        self._start = clock()

    def elapsed(self) -> float:
        """Seconds spent since the deadline was created."""
        return self._clock() - self._start

    def remaining(self) -> float:
        """Seconds left in the budget (negative once expired)."""
        return self.seconds - self.elapsed()

    def expired(self) -> bool:
        return self.remaining() < 0

    def check(self, context: str = "") -> None:
        """Raise :class:`DeadlineExceededError` if the budget is spent."""
        if self.expired():
            where = f" during {context}" if context else ""
            raise DeadlineExceededError(
                f"deadline of {self.seconds:g}s exceeded{where} "
                f"(elapsed {self.elapsed():.3f}s)"
            )

    def __repr__(self) -> str:
        return f"Deadline(seconds={self.seconds!r}, elapsed={self.elapsed():.3f})"


def deadline(
    seconds: float, *, clock: Callable[[], float] = time.monotonic
) -> Deadline:
    """Start a cooperative :class:`Deadline` of *seconds* now."""
    return Deadline(seconds, clock=clock)


def retrying(
    fn: Callable[..., _R],
    *,
    certificate: Mapping[str, Any] | str | Path | None = None,
    attempts: int = 3,
    backoff: float = 0.0,
    sleep: Callable[[float], None] = time.sleep,
    deadline: Deadline | None = None,
) -> Callable[..., _R]:
    """Wrap *fn* so contract-declared-transient failures are retried.

    *fn* must resolve to a module-level callable covered by the error
    contract (*certificate* follows :func:`load_certificate` semantics);
    the gate fails closed with
    :class:`~repro.exceptions.ErrorContractError` when no contract or no
    entry is available — retrying an unknown failure mode is how
    half-written outputs get committed.  At most *attempts* calls are
    made; attempt ``i`` (0-based) is preceded by a ``backoff * 2**(i-1)``
    second sleep (pass ``sleep=`` to stub it out in tests) and by a
    *deadline* check when one is given.

    Per call, a raised exception is classified against the entry:

    - transient (its MRO intersects the entry's ``transient`` list):
      retried while attempts remain (``resilience.retry.count``),
      re-raised once they run out (``resilience.giveup.count``);
    - declared (MRO intersects ``raises``): re-raised immediately;
    - a programming error (``policy.programming_errors``): re-raised
      verbatim;
    - anything else: :class:`~repro.exceptions.ErrorContractError`
      chained from the original — the contract and reality disagree.
    """
    if attempts < 1:
        raise ValidationError(f"attempts must be >= 1, got {attempts}")
    if backoff < 0:
        raise ValidationError(f"backoff must be >= 0, got {backoff}")
    document = load_certificate(certificate)
    qualified, reason = resolve_qualified_name(fn)
    if qualified is None:
        raise ErrorContractError(
            f"cannot gate retries on the error contract: {reason}"
        )
    if document is None:
        raise ErrorContractError(
            f"no error contract available for {qualified!r}; generate one "
            "with 'repro lint --errors --error-contract' and pass it "
            f"(or set ${CONTRACT_ENV_VAR})"
        )
    entry = document.get("functions", {}).get(qualified)
    if not isinstance(entry, dict):
        raise ErrorContractError(
            f"{qualified!r} is not covered by the error contract; declare "
            "its escape set with @raises(...) or make it a solver entry "
            "point so the analysis publishes it"
        )
    declared = frozenset(entry.get("raises", ()))
    transient = frozenset(entry.get("transient", ()))
    programming = _programming_errors(document)
    retries = counter("resilience.retry.count")
    giveups = counter("resilience.giveup.count")

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> _R:
        for attempt in range(attempts):
            if deadline is not None:
                deadline.check(f"retrying {qualified}")
            if attempt and backoff:
                sleep(backoff * 2.0 ** (attempt - 1))
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                names = _exception_names(exc)
                if names & programming:
                    raise
                if names & transient:
                    if attempt + 1 < attempts:
                        retries.inc()
                        continue
                    giveups.inc()
                    raise
                if names & declared:
                    raise
                raise ErrorContractError(
                    f"{qualified!r} raised {type(exc).__name__}, which its "
                    f"error contract (raises={sorted(declared)!r}) does not "
                    "declare; re-run 'repro lint --errors' — the contract "
                    "is stale or the analysis found a gap"
                ) from exc
        raise AssertionError("unreachable: loop returns or raises")

    return wrapper


# --------------------------------------------------------------------------
# Seeded fault injection


class _FaultPlan:
    """One armed injection plan (see :func:`inject_faults`)."""

    __slots__ = ("queues", "decide", "hits")

    def __init__(
        self,
        queues: dict[str, list[BaseException]],
        decide: Callable[[str, int], BaseException | None] | None,
    ) -> None:
        self.queues = queues
        self.decide = decide
        #: Per-name hit counts, scoped to this plan's lifetime.
        self.hits: dict[str, int] = {}


#: Active plans, innermost last.  Module state is test-only: production
#: code never arms a plan, making :func:`fault_point` a cheap no-op.
_ACTIVE_PLANS: list[_FaultPlan] = []


def fault_point(name: str) -> None:
    """A named injection marker on a solver hot loop.

    A no-op unless a test armed :func:`inject_faults` /
    :func:`seeded_faults`; then the innermost plan covering *name* pops
    and raises its scheduled exception.  Each plan counts the hits it
    observes per name and the counts die with the plan, so schedules
    are deterministic.
    """
    if not _ACTIVE_PLANS:
        return
    for plan in reversed(_ACTIVE_PLANS):
        hit = plan.hits.get(name, 0)
        plan.hits[name] = hit + 1
        queue = plan.queues.get(name)
        if queue:
            counter("resilience.fault.injected").inc()
            raise queue.pop(0)
        if plan.decide is not None:
            fault = plan.decide(name, hit)
            if fault is not None:
                counter("resilience.fault.injected").inc()
                raise fault


@contextmanager
def inject_faults(
    schedule: Mapping[str, Sequence[BaseException]],
) -> Iterator[None]:
    """Arm :func:`fault_point` with an explicit FIFO *schedule*.

    ``inject_faults({"qpp.candidate": [SolverError("boom")]})`` makes
    the first ``fault_point("qpp.candidate")`` hit raise that instance;
    later hits pass through once the queue drains.  Plans nest; the
    innermost wins.
    """
    for name, faults in schedule.items():
        for fault in faults:
            if not isinstance(fault, BaseException):
                raise ValidationError(
                    f"fault for point {name!r} must be an exception "
                    f"instance, got {fault!r}"
                )
    plan = _FaultPlan(
        {name: list(faults) for name, faults in schedule.items()}, None
    )
    _ACTIVE_PLANS.append(plan)
    try:
        yield
    finally:
        _ACTIVE_PLANS.remove(plan)


@contextmanager
def seeded_faults(
    seed: int,
    rate: float,
    *,
    points: Sequence[str] | None = None,
    factory: Callable[[str, int], BaseException] | None = None,
) -> Iterator[None]:
    """Arm probabilistic faults from a seeded RNG (deterministic replay).

    Each :func:`fault_point` hit on one of *points* (all points when
    ``None``) draws from ``random.Random(seed)`` and raises
    ``factory(name, hit)`` with probability *rate*.  The default factory
    raises :class:`~repro.exceptions.SolverError`, the library's one
    transient failure class, so the schedule composes directly with
    :func:`retrying`.
    """
    if not 0.0 <= rate <= 1.0:
        raise ValidationError(f"fault rate must be in [0, 1], got {rate!r}")
    rng = random.Random(seed)
    allowed = None if points is None else frozenset(points)

    def decide(name: str, hit: int) -> BaseException | None:
        if allowed is not None and name not in allowed:
            return None
        if rng.random() >= rate:
            return None
        if factory is not None:
            return factory(name, hit)
        return SolverError(
            f"injected fault at {name!r} (seed={seed}, hit={hit})"
        )

    plan = _FaultPlan({}, decide)
    _ACTIVE_PLANS.append(plan)
    try:
        yield
    finally:
        _ACTIVE_PLANS.remove(plan)
