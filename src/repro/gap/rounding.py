"""Shmoys-Tardos rounding for the Generalized Assignment Problem.

Theorem 3.11 in the paper (Shmoys & Tardos 1993): any fractional solution
of the GAP LP can be rounded to an integral assignment whose cost does not
exceed the fractional cost and whose load on machine ``i`` is at most
``T_i + p_i^max <= 2 T_i`` (the additive term is the largest load of any
job fractionally assigned to the machine).

The rounding works as follows:

1. **Slots.** For each machine ``i``, sort the jobs with ``y_ij > 0`` by
   non-increasing load ``p_ij`` and pour their fractions, in that order,
   into unit-sized *slots* ``(i, 1), (i, 2), ...`` — a fraction can split
   across two consecutive slots.  This yields a fractional *matching*
   between jobs and slots: each job totals 1, each slot at most 1.
2. **Matching.** Build the jobs x slots cost matrix whose finite
   entries are the positive job/slot fractions (entry = ``c_ij``, ``inf``
   elsewhere) and compute a minimum-weight matching saturating every job.
   The fractional matching witnesses feasibility (Hall's condition) and,
   by integrality of the bipartite matching polytope, the optimal
   integral matching costs no more than the fractional one.  Rows follow
   job index and columns ``(machine, slot)`` index order, so ties between
   equal-cost matchings break the same way in every process.
3. **Load guarantee.** A machine receives at most one job per slot; every
   job landing in slot ``s >= 2`` has load at most the *smallest* load in
   slot ``s - 1``, so the total beyond the first slot is at most the
   machine's fractional load ``<= T_i``, and the first slot adds at most
   ``p_i^max``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from ..exceptions import SolverError, ValidationError
from .instance import GAPInstance, Label
from .lp import FractionalAssignment

__all__ = ["RoundedAssignment", "round_fractional_assignment"]

#: Fractions at or below this threshold are treated as numerical noise.
_FRACTION_EPSILON = 1e-9


@dataclass(frozen=True)
class RoundedAssignment:
    """The integral assignment produced by the rounding.

    Attributes
    ----------
    assignment:
        ``{job: machine}`` covering every job.
    cost:
        Total integral cost; guaranteed ``<= fractional cost`` up to
        numerical tolerance.
    machine_loads:
        Realized total load per machine; guaranteed
        ``<= T_i + p_i^max`` per machine.
    fractional_cost:
        Cost of the fractional solution that was rounded, for ratio
        reporting.
    """

    assignment: dict[Label, Label]
    cost: float
    machine_loads: dict[Label, float]
    fractional_cost: float


def _build_slots(
    fractions: np.ndarray, loads: np.ndarray, machine_index: int
) -> list[list[tuple[int, float]]]:
    """Partition a machine's fractional jobs into unit slots.

    Returns a list of slots, each a list of ``(job_index, fraction)``
    pairs summing to at most 1, with jobs appearing in non-increasing
    load order across the slot sequence.
    """
    row = fractions[machine_index]
    jobs = [int(j) for j in np.nonzero(row > _FRACTION_EPSILON)[0]]
    # Sort by non-increasing load; ties broken by job index for determinism.
    jobs.sort(key=lambda j: (-loads[machine_index, j], j))
    slots: list[list[tuple[int, float]]] = []
    current: list[tuple[int, float]] = []
    room = 1.0
    for job in jobs:
        remaining = float(row[job])
        while remaining > _FRACTION_EPSILON:
            take = min(remaining, room)
            current.append((job, take))
            remaining -= take
            room -= take
            if room <= _FRACTION_EPSILON:
                slots.append(current)
                current = []
                room = 1.0
    if current:
        slots.append(current)
    return slots


def _check_fractions(fractional: FractionalAssignment) -> np.ndarray:
    """Validate and clean the fractional matrix: clip, check, renormalize.

    Raises
    ------
    ValidationError
        If some job's fractions do not sum to (approximately) one.
    """
    instance = fractional.instance
    fractions = np.clip(np.asarray(fractional.fractions, dtype=float), 0.0, None)
    column_sums = fractions.sum(axis=0)
    for j, total in enumerate(column_sums):
        if abs(total - 1.0) > 1e-6:
            raise ValidationError(
                f"job {instance.jobs[j]!r} has fractional total {total:.6f}, expected 1"
            )
    return fractions / column_sums[np.newaxis, :]


def round_fractional_assignment(fractional: FractionalAssignment) -> RoundedAssignment:
    """Round a fractional GAP solution per Shmoys-Tardos.

    The input fractions are cleaned (clipped at zero, renormalized per
    job) before slotting so that mild LP solver noise cannot break the
    matching feasibility argument.

    Raises
    ------
    ValidationError
        If some job's fractions do not sum to (approximately) one.
    SolverError
        If the matching step fails — which indicates a malformed
        fractional input rather than a true infeasibility.
    """
    fractions = _check_fractions(fractional)
    instance = fractional.instance

    slots = [
        (i, slot)
        for i in range(instance.num_machines)
        for slot in _build_slots(fractions, instance.loads, i)
    ]
    weights = np.full((instance.num_jobs, len(slots)), np.inf)
    for column, (i, slot) in enumerate(slots):
        for job, fraction in slot:
            if fraction > _FRACTION_EPSILON:
                weights[job, column] = instance.costs[i, job]

    try:
        jobs, columns = linear_sum_assignment(weights)
    except ValueError as exc:  # pragma: no cover - defensive
        raise SolverError(
            "bipartite matching failed during GAP rounding; the fractional "
            "solution is likely not a feasible LP point"
        ) from exc

    assignment: dict[Label, Label] = {
        instance.jobs[int(j)]: instance.machines[slots[int(s)][0]]
        for j, s in zip(jobs, columns)
    }

    cost = instance.assignment_cost(assignment)
    machine_loads = instance.machine_loads(assignment)
    return RoundedAssignment(
        assignment=assignment,
        cost=cost,
        machine_loads=machine_loads,
        fractional_cost=fractional.cost,
    )
