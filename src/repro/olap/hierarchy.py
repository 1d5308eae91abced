"""ROLL-UP along dimension hierarchies (an extension beyond the paper).

Classical OLAP rolls a cube up along a *concept hierarchy*: cities to
countries, days to months, ages to age bands.  The paper's framework does not
include hierarchies (its DRILL-OUT removes a dimension entirely), but its
partial result ``pres(Q)`` supports them directly — and for the same reason
DRILL-OUT needs ``pres(Q)``, roll-up does too: a fact carrying several
dimension values that map to the *same* parent must not have its measures
counted once per child value.

This module provides :class:`DimensionHierarchy` — a mapping from dimension
values to parents (one level; stack several for multi-level hierarchies).
The roll-up itself is :func:`repro.analytics.rolling.roll_partial` (parents
substituted in ``pres(Q)``, then Algorithm 1's δ step) followed by
:func:`repro.olap.rewriting.answer_from_rolled_partial`;
:meth:`repro.olap.session.OLAPSession.roll_up` runs both through the planner.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Tuple

from repro.errors import OLAPError
from repro.algebra.expressions import comparable

__all__ = ["DimensionHierarchy"]


class DimensionHierarchy:
    """A one-level concept hierarchy: dimension value → parent value.

    A hierarchy is data — explicit pairs, or numeric bands built by
    :meth:`banded` — so it pickles and canonicalizes by value.

    Parameters
    ----------
    mapping:
        Explicit child → parent assignments.  Keys are compared both as
        given and through the literal-to-Python conversion, so a mapping
        keyed by plain ints matches ``xsd:integer`` literals.
    default:
        Parent assigned when neither ``mapping`` nor a band covers a value;
        with the default ``None`` such values raise
        :class:`~repro.errors.OLAPError`, which surfaces incomplete
        hierarchies instead of silently mis-grouping.
    name:
        Display name (used by session history records).
    """

    def __init__(
        self,
        mapping: Optional[Mapping[object, object]] = None,
        default: Optional[object] = None,
        name: str = "hierarchy",
    ):
        self.name = name
        self._mapping: Dict[object, object] = {}
        self._comparable_mapping: Dict[object, object] = {}
        if mapping:
            for child, parent in mapping.items():
                self._mapping[child] = parent
                try:
                    self._comparable_mapping[comparable(child)] = parent
                except TypeError:
                    pass
        self._default = default
        #: ``(low, high, label)`` triples of a :meth:`banded` hierarchy.
        self._bands: Tuple[Tuple[object, object, object], ...] = ()

    @classmethod
    def from_pairs(cls, pairs: Iterable[Tuple[object, object]], name: str = "hierarchy") -> "DimensionHierarchy":
        """Build a hierarchy from ``(child, parent)`` pairs."""
        return cls(mapping=dict(pairs), name=name)

    @classmethod
    def banded(
        cls,
        bands: Iterable[Tuple[object, object, object]],
        name: str = "bands",
        default: Optional[object] = None,
    ) -> "DimensionHierarchy":
        """Build a numeric banding hierarchy from ``(low, high, label)`` triples.

        Bounds are inclusive; bands are tried in the given order.
        """
        hierarchy = cls(default=default, name=name)
        hierarchy._bands = tuple((comparable(low), comparable(high), label) for low, high, label in bands)
        return hierarchy

    def parent(self, value: object) -> object:
        """Return the parent of a dimension value."""
        if value in self._mapping:
            return self._mapping[value]
        try:
            key = comparable(value)
        except TypeError:
            key = None
        if key is not None and key in self._comparable_mapping:
            return self._comparable_mapping[key]
        for low, high, label in self._bands:
            try:
                if low <= key <= high:
                    return label
            except TypeError:
                continue
        if self._default is not None:
            return self._default
        raise OLAPError(f"hierarchy {self.name!r} has no parent for value {value!r}")

    def canonical_token(self) -> str:
        """A value-based identity token for caching (see :mod:`repro.olap.cache`).

        Two hierarchies with equal tokens map every value to the same parent,
        so cached cubes rolled through one can serve queries rolled through
        the other: explicit mappings canonicalize by their (order-insensitive)
        child → parent pairs, :meth:`banded` hierarchies by their band
        triples, both plus the default.
        """
        if self._bands:
            bands = ";".join(f"({low!r},{high!r})->{label!r}" for low, high, label in self._bands)
            token = "bands{" + bands + "}"
        else:
            entries = []
            for child, parent in self._mapping.items():
                try:
                    key = comparable(child)
                except TypeError:
                    key = child
                entries.append(f"{key!r}->{parent!r}")
            token = "map{" + ";".join(sorted(entries)) + "}"
        if self._default is not None:
            token += f"|default={self._default!r}"
        return token

    def __repr__(self) -> str:  # pragma: no cover
        return f"DimensionHierarchy({self.name}, {len(self._mapping)} explicit mappings)"
