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

from typing import Callable, Dict, Iterable, Mapping, Optional, Tuple

from repro.errors import OLAPError
from repro.algebra.expressions import comparable

__all__ = ["DimensionHierarchy"]


class DimensionHierarchy:
    """A one-level concept hierarchy: dimension value → parent value.

    Parameters
    ----------
    mapping:
        Explicit child → parent assignments.  Keys are compared both as
        given and through the literal-to-Python conversion, so a mapping
        keyed by plain ints matches ``xsd:integer`` literals.
    classify:
        Optional fallback function applied to values absent from ``mapping``
        (e.g. ``lambda age: "young" if age < 30 else "senior"``).
    default:
        Parent assigned when neither ``mapping`` nor ``classify`` covers a
        value; with the default ``None`` such values raise
        :class:`~repro.errors.OLAPError`, which surfaces incomplete
        hierarchies instead of silently mis-grouping.
    name:
        Display name (used by session history records).
    """

    def __init__(
        self,
        mapping: Optional[Mapping[object, object]] = None,
        classify: Optional[Callable[[object], object]] = None,
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
        self._classify = classify
        self._default = default
        #: ``(low, high, label)`` triples when built by :meth:`banded`; lets
        #: :meth:`canonical_token` stay content-based for banding closures.
        self._bands: Optional[Tuple[Tuple[object, object, object], ...]] = None
        self._band_default: Optional[object] = None

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
        band_list = [(comparable(low), comparable(high), label) for low, high, label in bands]

        def classify(value: object) -> object:
            candidate = comparable(value)
            for low, high, label in band_list:
                try:
                    if low <= candidate <= high:
                        return label
                except TypeError:
                    continue
            if default is not None:
                return default
            raise OLAPError(f"value {value!r} falls outside every band of hierarchy {name!r}")

        hierarchy = cls(classify=classify, name=name)
        hierarchy._bands = tuple(band_list)
        hierarchy._band_default = default
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
        if self._classify is not None:
            return self._classify(value)
        if self._default is not None:
            return self._default
        raise OLAPError(f"hierarchy {self.name!r} has no parent for value {value!r}")

    def canonical_token(self) -> str:
        """A value-based identity token for caching (see :mod:`repro.olap.cache`).

        Two hierarchies with equal tokens map every value to the same parent,
        so cached cubes rolled through one can serve queries rolled through
        the other:

        * explicit mappings canonicalize by their (order-insensitive)
          child → parent pairs plus the default;
        * :meth:`banded` hierarchies canonicalize by their band triples;
        * arbitrary ``classify`` functions have no inspectable extension, so
          they canonicalize by object identity (``hier@...`` tokens, which
          :mod:`repro.olap.cache` refuses to persist to disk).
        """
        if self._bands is not None:
            bands = ";".join(f"({low!r},{high!r})->{label!r}" for low, high, label in self._bands)
            token = "bands{" + bands + "}"
            if self._band_default is not None:
                token += f"|default={self._band_default!r}"
            return token
        if self._classify is not None:
            return f"hier@{id(self)}"
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
