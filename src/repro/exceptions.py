"""Exception hierarchy for the :mod:`repro` package.

All exceptions raised deliberately by this library derive from
:class:`ReproError`, so callers can catch library failures without also
catching programming errors such as :class:`TypeError` raised by misuse
of the standard library.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ValidationError",
    "IntersectionError",
    "InfeasibleError",
    "UnboundedError",
    "SolverError",
    "CapacityError",
    "LintError",
    "ErrorContractError",
    "DeadlineExceededError",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ValidationError(ReproError, ValueError):
    """An input object violates a documented precondition.

    Also inherits :class:`ValueError` so idiomatic ``except ValueError``
    call sites continue to work.
    """


class IntersectionError(ValidationError):
    """A family of sets is not a quorum system.

    Raised when two members of the family have an empty intersection,
    violating the defining property of quorum systems.
    """

    def __init__(self, first: frozenset, second: frozenset) -> None:
        self.first = first
        self.second = second
        super().__init__(
            f"quorums {sorted(first, key=repr)} and {sorted(second, key=repr)} "
            "do not intersect"
        )


class InfeasibleError(ReproError):
    """No solution satisfies the problem's constraints.

    Raised, for example, when the total element load exceeds the total
    network capacity, or when an LP relaxation is infeasible.
    """


class UnboundedError(ReproError):
    """The optimization problem is unbounded below (for minimization)."""


class SolverError(ReproError):
    """The underlying numerical solver failed unexpectedly.

    This signals a solver-level breakdown (numerical difficulties,
    iteration limits) rather than a well-posed infeasibility, which is
    reported as :class:`InfeasibleError`.
    """


class CapacityError(InfeasibleError):
    """A placement-specific infeasibility caused by node capacities."""


class LintError(ReproError):
    """The static-analysis linter could not run (bad config or paths).

    Rule *violations* are reported as findings, not exceptions; this
    error marks misuse of the linter itself.
    """


class ErrorContractError(ReproError):
    """A callable failed the error-contract gate.

    Raised by :func:`repro.resilience.retrying` when the function it is
    asked to guard has no entry in the error-contract certificate
    (``repro lint --errors --error-contract``), when no certificate is
    available at all, or when the function raises an exception the
    contract never declared — the contract was violated, so the failure
    is surfaced loudly instead of being retried blindly.
    """


class DeadlineExceededError(ReproError):
    """A deadline-guarded call exceeded its wall-clock budget.

    Raised by :func:`repro.resilience.deadline`.  The check is
    cooperative: the wrapped call is never interrupted mid-flight, the
    budget is checked between attempts and after completion.
    """
