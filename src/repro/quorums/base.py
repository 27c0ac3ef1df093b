"""Core quorum-system type.

A *quorum system* over a universe ``U`` is a family ``Q = {Q_1, ..., Q_m}``
of subsets of ``U`` (the *quorums*) such that every pair of quorums has a
non-empty intersection.  This module provides :class:`QuorumSystem`, the
immutable value type the whole library is built around, together with the
structural checks used throughout the paper (intersection property,
coterie minimality, element degrees).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Hashable
from typing import Any

from .._validation import require
from ..exceptions import IntersectionError, ValidationError

__all__ = ["QuorumSystem", "Element"]

#: Universe elements may be any hashable value (ints, strings, tuples...).
Element = Hashable


def _sort_key(element: Element) -> tuple[str, str]:
    """A total order over heterogeneous hashables: by type name, then repr."""
    return (type(element).__name__, repr(element))


class QuorumSystem:
    """An immutable quorum system: a pairwise-intersecting family of sets.

    Parameters
    ----------
    quorums:
        The family of quorums.  Each quorum may be any iterable of hashable
        elements; duplicates *within* a quorum are collapsed, but duplicate
        *quorums* are rejected (they would silently distort access
        strategies and loads).
    universe:
        Optional explicit universe.  Must contain every element appearing
        in a quorum; defaults to the union of the quorums.  Elements of the
        universe that appear in no quorum are permitted (they simply carry
        zero load and are never placed preferentially).
    name:
        Human-readable label used in reprs and benchmark reports.
    check:
        When true (the default), eagerly verify the pairwise intersection
        property and raise :class:`IntersectionError` on violation.
        Constructions that guarantee the property by design pass
        ``check=False`` to skip the quadratic verification; tests
        re-verify them explicitly.

    Examples
    --------
    >>> qs = QuorumSystem([{1, 2}, {2, 3}, {1, 3}], name="triangle")
    >>> len(qs)
    3
    >>> qs.universe
    (1, 2, 3)
    >>> qs.element_degree(2)
    2
    """

    __slots__ = ("_quorums", "_universe", "_universe_index", "name", "_membership")

    def __init__(
        self,
        quorums: Iterable[Iterable[Element]],
        *,
        universe: Iterable[Element] | None = None,
        name: str = "quorum system",
        check: bool = True,
    ) -> None:
        frozen = tuple(frozenset(q) for q in quorums)
        require(len(frozen) > 0, "a quorum system must contain at least one quorum")
        for q in frozen:
            require(len(q) > 0, "quorums must be non-empty")
        if len(set(frozen)) != len(frozen):
            raise ValidationError("duplicate quorums are not allowed")

        union: set[Element] = set()
        for q in frozen:
            union.update(q)
        if universe is None:
            universe_tuple = tuple(sorted(union, key=_sort_key))
        else:
            universe_tuple = tuple(sorted(set(universe), key=_sort_key))
            missing = union.difference(universe_tuple)
            require(
                not missing,
                f"universe is missing elements used by quorums: {sorted(missing, key=_sort_key)!r}",
            )

        if check:
            _verify_intersection(frozen)

        self._quorums = frozen
        self._universe = universe_tuple
        self._universe_index = {u: i for i, u in enumerate(universe_tuple)}
        self.name = name
        # Lazily built: element -> tuple of quorum indices containing it.
        self._membership: dict[Element, tuple[int, ...]] | None = None

    # -- basic container protocol --------------------------------------------------

    def __len__(self) -> int:
        return len(self._quorums)

    def __iter__(self) -> Iterator[frozenset]:
        return iter(self._quorums)

    def __getitem__(self, index: int) -> frozenset:
        return self._quorums[index]

    def __contains__(self, quorum: Any) -> bool:
        try:
            return frozenset(quorum) in set(self._quorums)
        except TypeError:
            return False

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuorumSystem):
            return NotImplemented
        return set(self._quorums) == set(other._quorums)

    def __hash__(self) -> int:
        return hash(frozenset(self._quorums))

    def same_layout(self, other: "QuorumSystem") -> bool:
        """Whether *other* lists the same quorums and universe in the same
        order, so that a quorum or element position means the same in both.

        ``==`` compares quorum *sets*; a strategy's probabilities and the
        evaluators index :attr:`quorums` and :attr:`universe` by position,
        so pairing a strategy with a system needs this stricter test.
        """
        return self is other or (
            self._quorums == other._quorums and self._universe == other._universe
        )

    def __repr__(self) -> str:
        return (
            f"QuorumSystem(name={self.name!r}, quorums={len(self)}, "
            f"universe={len(self._universe)})"
        )

    # -- structure -------------------------------------------------------------------

    @property
    def quorums(self) -> tuple[frozenset, ...]:
        """The quorums, in construction order."""
        return self._quorums

    @property
    def universe(self) -> tuple[Element, ...]:
        """The universe, in a deterministic sorted order."""
        return self._universe

    @property
    def universe_size(self) -> int:
        return len(self._universe)

    def element_index(self, element: Element) -> int:
        """Position of *element* in :attr:`universe` (stable across runs)."""
        try:
            return self._universe_index[element]
        except KeyError:
            raise ValidationError(f"{element!r} is not in the universe") from None

    def _membership_map(self) -> dict[Element, tuple[int, ...]]:
        if self._membership is None:
            mapping: dict[Element, list[int]] = {u: [] for u in self._universe}
            for index, quorum in enumerate(self._quorums):
                for element in quorum:
                    mapping[element].append(index)
            self._membership = {u: tuple(ids) for u, ids in mapping.items()}
        return self._membership

    def quorums_containing(self, element: Element) -> tuple[int, ...]:
        """Indices of quorums containing *element* (empty if unused)."""
        if element not in self._universe_index:
            raise ValidationError(f"{element!r} is not in the universe")
        return self._membership_map()[element]

    def element_degree(self, element: Element) -> int:
        """Number of quorums containing *element*."""
        return len(self.quorums_containing(element))

    # -- quorum-system predicates ------------------------------------------------------

    def verify_intersection(self) -> None:
        """Re-verify the pairwise intersection property.

        Useful for constructions built with ``check=False``; raises
        :class:`IntersectionError` naming the offending pair.
        """
        _verify_intersection(self._quorums)

    def is_coterie(self) -> bool:
        """True if no quorum strictly contains another (i.e. the family is
        an antichain, the *coterie* condition of Garcia-Molina & Barbara)."""
        for i, a in enumerate(self._quorums):
            for b in self._quorums[i + 1 :]:
                if a < b or b < a:
                    return False
        return True

    def min_quorum_size(self) -> int:
        return min(len(q) for q in self._quorums)

    def max_quorum_size(self) -> int:
        return max(len(q) for q in self._quorums)

    # -- derived systems -----------------------------------------------------------------

    def relabel(self, mapping: dict[Element, Element], *, name: str | None = None) -> "QuorumSystem":
        """Apply an injective relabeling to the universe.

        Raises if *mapping* is not injective on the universe (two elements
        mapping to the same target would merge quorum members and can break
        quorum sizes and loads silently).
        """
        targets = [mapping.get(u, u) for u in self._universe]
        if len(set(targets)) != len(targets):
            raise ValidationError("relabeling must be injective on the universe")
        new_quorums = [frozenset(mapping.get(u, u) for u in q) for q in self._quorums]
        return QuorumSystem(
            new_quorums,
            universe=targets,
            name=name or self.name,
            check=False,
        )

    def reduced(self, *, name: str | None = None) -> "QuorumSystem":
        """Drop dominated quorums, returning the coterie of minimal quorums.

        A quorum that strictly contains another can be removed without
        affecting the intersection property; the result has (weakly) lower
        load under its optimal strategy.
        """
        minimal: list[frozenset] = []
        for q in self._quorums:
            if not any(other < q for other in self._quorums):
                minimal.append(q)
        # Preserve order, drop duplicates (can't occur; quorums are unique).
        return QuorumSystem(
            minimal, universe=self._universe, name=name or f"{self.name} (reduced)", check=False
        )


def _verify_intersection(quorums: tuple[frozenset, ...]) -> None:
    for i, a in enumerate(quorums):
        for b in quorums[i + 1 :]:
            if a.isdisjoint(b):
                raise IntersectionError(a, b)
