"""Access strategies over quorum systems.

An *access strategy* (Naor & Wool) for a quorum system ``Q`` is a
probability distribution ``p : Q -> [0, 1]``; a client performing a quorum
access samples a quorum from ``p`` and contacts all of its members.  The
strategy induces a *load* on every element ``u``:

    load(u) = sum_{Q containing u} p(Q)

which is the input the placement algorithms of the paper balance against
physical node capacities.  This module provides :class:`AccessStrategy`
plus the §6 extension machinery (per-client strategies are mixtures of
strategies; non-uniform client access rates are rate-weighted mixtures).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

import numpy as np

from .._validation import (
    PROBABILITY_TOLERANCE,
    check_nonnegative,
    contract,
    cost,
    require,
)
from ..exceptions import ValidationError
from .base import Element, QuorumSystem

__all__ = ["AccessStrategy", "quorum_member_matrix"]


@contract(returns={"shape": ("s", "L"), "dtype": "int"})
@cost("n * q")
def quorum_member_matrix(
    system: QuorumSystem, quorum_indices: Sequence[int]
) -> np.ndarray:
    """Padded element-index rows for the selected quorums.

    Row ``i`` lists the universe indices of the members of quorum
    ``quorum_indices[i]``, padded on the right with the row's first
    member so every row has equal width — padding repeats a real member,
    which leaves max-reductions unchanged.

    Returns an integer array of shape ``(len(quorum_indices), L_max)``.
    """
    require(isinstance(system, QuorumSystem), "system must be a QuorumSystem")
    indices = [int(q) for q in quorum_indices]
    require(len(indices) > 0, "at least one quorum index is required")
    rows: list[list[int]] = []
    for q in indices:
        require(0 <= q < len(system), f"quorum index {q} out of range [0, {len(system)})")
        rows.append(sorted(system.element_index(u) for u in system.quorums[q]))
    width = max(len(row) for row in rows)
    members = np.empty((len(rows), width), dtype=np.intp)
    for i, row in enumerate(rows):
        members[i, : len(row)] = row
        members[i, len(row) :] = row[0]
    return members


class AccessStrategy:
    """A probability distribution over the quorums of a fixed system.

    Instances are immutable.  Probabilities are stored densely, aligned
    with ``system.quorums`` order.

    Examples
    --------
    >>> from repro.quorums import QuorumSystem, AccessStrategy
    >>> qs = QuorumSystem([{1, 2}, {2, 3}], name="pair")
    >>> p = AccessStrategy.uniform(qs)
    >>> p.load(2)
    1.0
    >>> p.load(1)
    0.5
    >>> p.max_load()
    1.0
    """

    __slots__ = ("_system", "_probabilities", "_loads", "_support_rows")

    def __init__(self, system: QuorumSystem, probabilities: Sequence[float]) -> None:
        require(isinstance(system, QuorumSystem), "system must be a QuorumSystem")
        probs = np.asarray(list(probabilities), dtype=float)
        if probs.shape != (len(system),):
            raise ValidationError(
                f"strategy needs exactly {len(system)} probabilities "
                f"(one per quorum), got {probs.shape[0]}"
            )
        if np.any(probs < -PROBABILITY_TOLERANCE):
            raise ValidationError("probabilities must be non-negative")
        probs = np.clip(probs, 0.0, None)
        total = float(probs.sum())
        if abs(total - 1.0) > 1e-6:
            raise ValidationError(
                f"probabilities must sum to 1 (got {total}); use "
                "AccessStrategy.from_weights for unnormalized weights"
            )
        self._system = system
        self._probabilities = probs / total
        self._probabilities.setflags(write=False)
        self._loads: np.ndarray | None = None
        self._support_rows: tuple[np.ndarray, np.ndarray] | None = None

    # -- constructors ---------------------------------------------------------------

    @classmethod
    def uniform(cls, system: QuorumSystem) -> "AccessStrategy":
        """The uniform strategy ``p(Q) = 1/|Q|`` (the paper's default for
        Grid and Majority, where it is load-optimal)."""
        m = len(system)
        return cls(system, np.full(m, 1.0 / m))

    @classmethod
    def from_weights(
        cls, system: QuorumSystem, weights: Sequence[float] | Mapping[int, float]
    ) -> "AccessStrategy":
        """Build a strategy from non-negative weights, normalizing their sum.

        *weights* may be a dense sequence (one weight per quorum) or a
        sparse mapping from quorum index to weight (missing indices get
        weight zero).
        """
        m = len(system)
        if isinstance(weights, Mapping):
            dense = np.zeros(m)
            for index, weight in weights.items():
                if not 0 <= int(index) < m:
                    raise ValidationError(f"quorum index {index} out of range [0, {m})")
                dense[int(index)] = check_nonnegative(weight, f"weights[{index}]")
        else:
            dense = np.asarray([check_nonnegative(w, "weight") for w in weights], dtype=float)
            if dense.shape != (m,):
                raise ValidationError(f"expected {m} weights, got {dense.shape[0]}")
        total = float(dense.sum())
        if total <= 0:
            raise ValidationError("at least one weight must be positive")
        return cls(system, dense / total)

    @classmethod
    def point_mass(cls, system: QuorumSystem, quorum_index: int) -> "AccessStrategy":
        """The degenerate strategy that always accesses one fixed quorum."""
        m = len(system)
        if not 0 <= quorum_index < m:
            raise ValidationError(f"quorum index {quorum_index} out of range [0, {m})")
        probs = np.zeros(m)
        probs[quorum_index] = 1.0
        return cls(system, probs)

    @classmethod
    def mixture(
        cls, strategies: Sequence["AccessStrategy"], weights: Sequence[float]
    ) -> "AccessStrategy":
        """A convex combination of strategies over the *same* system.

        This implements the §6 observation that assigning every client the
        average of the per-client strategies preserves the average-delay
        analysis: the average strategy is exactly this mixture with weights
        proportional to the clients' access rates.
        """
        require(len(strategies) > 0, "mixture requires at least one strategy")
        require(
            len(strategies) == len(weights),
            "mixture requires one weight per strategy",
        )
        system = strategies[0].system
        for strategy in strategies[1:]:
            if not strategy.system.same_layout(system):
                raise ValidationError(
                    "all strategies in a mixture must share one system, "
                    "with its quorums in the same order"
                )
        w = np.asarray([check_nonnegative(x, "mixture weight") for x in weights], dtype=float)
        total = float(w.sum())
        if total <= 0:
            raise ValidationError("mixture weights must not all be zero")
        w = w / total
        probs = np.zeros(len(system))
        for strategy, weight in zip(strategies, w):
            probs += weight * strategy.probabilities
        return cls(system, probs)

    # -- accessors -------------------------------------------------------------------

    @property
    def system(self) -> QuorumSystem:
        return self._system

    @property
    def probabilities(self) -> np.ndarray:
        """Read-only probability vector aligned with ``system.quorums``."""
        return self._probabilities

    def probability(self, quorum_index: int) -> float:
        return float(self._probabilities[quorum_index])

    def support(self) -> tuple[int, ...]:
        """Indices of quorums with strictly positive probability."""
        return tuple(int(i) for i in np.nonzero(self._probabilities > 0)[0])

    def support_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Padded member rows and probabilities of the support, the inputs
        of :func:`repro.core._kernels.expected_max_delays`.

        Row ``i`` lists the universe indices of the members of the
        ``i``-th supported quorum (:func:`quorum_member_matrix`).  Both
        arrays are built once and read-only; they index every system with
        this one's layout (:meth:`QuorumSystem.same_layout`).  The
        probabilities still sum to one, because every off-support
        probability is exactly zero.
        """
        if self._support_rows is None:
            support = self.support()
            members = quorum_member_matrix(self._system, support)
            probabilities = self._probabilities[np.asarray(support, dtype=np.intp)]
            members.setflags(write=False)
            probabilities.setflags(write=False)
            self._support_rows = (members, probabilities)
        return self._support_rows

    # -- loads -----------------------------------------------------------------------

    def _load_vector(self) -> np.ndarray:
        if self._loads is None:
            loads = np.zeros(self._system.universe_size)
            for index, quorum in enumerate(self._system.quorums):
                p = self._probabilities[index]
                if p == 0:
                    continue
                for element in quorum:
                    loads[self._system.element_index(element)] += p
            loads.setflags(write=False)
            self._loads = loads
        return self._loads

    def load(self, element: Element) -> float:
        """``load(u) = sum over quorums containing u of p(Q)``."""
        return float(self._load_vector()[self._system.element_index(element)])

    def loads(self) -> dict[Element, float]:
        """Load of every universe element."""
        vector = self._load_vector()
        return {u: float(vector[i]) for i, u in enumerate(self._system.universe)}

    def load_array(self) -> np.ndarray:
        """Loads as an array aligned with ``system.universe`` order."""
        return self._load_vector()

    def max_load(self) -> float:
        """The system load of this strategy: the most loaded element."""
        return float(self._load_vector().max())

    def total_load(self) -> float:
        """Sum of element loads, equal to the expected quorum size."""
        return float(self._load_vector().sum())

    def expected_quorum_size(self) -> float:
        """Expected number of elements contacted per access (= total load)."""
        return float(
            sum(p * len(q) for p, q in zip(self._probabilities, self._system.quorums))
        )

    # -- sampling ---------------------------------------------------------------------

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Sample quorum indices from this distribution.

        Returns a single ``int`` when *size* is None, else an ndarray of
        indices.  Sampling drives the discrete access simulation used in
        the examples; the analytic evaluators never sample.
        """
        result = rng.choice(len(self._system), size=size, p=self._probabilities)
        if size is None:
            return int(result)
        return result

    # -- comparison ---------------------------------------------------------------------

    def allclose(self, other: "AccessStrategy", tolerance: float = 1e-9) -> bool:
        """True if *other* is the same distribution over the same system,
        with its quorums in the same order."""
        return self._system.same_layout(other._system) and bool(
            np.allclose(self._probabilities, other._probabilities, atol=tolerance)
        )

    def __repr__(self) -> str:
        return (
            f"AccessStrategy(system={self._system.name!r}, "
            f"support={len(self.support())}/{len(self._system)}, "
            f"max_load={self.max_load():.4f})"
        )


def iter_strategy(strategy: AccessStrategy) -> Iterable[tuple[float, frozenset]]:
    """Yield ``(probability, quorum)`` pairs with positive probability."""
    for index in strategy.support():
        yield strategy.probability(index), strategy.system.quorums[index]
