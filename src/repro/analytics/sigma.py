"""Dimension restrictions (the Σ function of extended analytical queries).

Definition 2 of the paper extends an analytical query with a total function
Σ that maps each dimension ``d_i`` either to its full value set ``V_i`` or
to a non-empty subset of ``V_i``.  SLICE and DICE are then pure Σ
transformations.

Here Σ is represented by :class:`Sigma`, a mapping from dimension name to a
:class:`DimensionRestriction`.  A restriction is plain data, one of:

* the **full** domain (no constraint) — the default for every dimension;
* an explicit **value set**;
* a **range** between two bounds, each end closed or open (e.g. the
  paper's Example 4, where ``20 ≤ d_age ≤ 30``).

The conjunction of two restrictions (:meth:`DimensionRestriction.intersect`)
is again one of these, so a restriction pickles, compares and canonicalizes
by value whatever OLAP chain built it.  Restrictions answer
:meth:`DimensionRestriction.allows` for individual values;
:meth:`Sigma.allows_row` combines them over a row of dimension values, which
is exactly the σ_dice selection of Definition 5, and :meth:`Sigma.predicate`
is the one σ predicate the algebra runs.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from operator import ge, gt, le, lt
from typing import Collection, Dict, Iterable, Mapping, Optional, Tuple

from repro.errors import SigmaError
from repro.algebra.expressions import comparable

__all__ = ["DimensionRestriction", "Sigma", "SigmaPredicate"]

_EMPTY = "the intersection of the two restrictions is empty"
#: A range's test at its low and its high end, by whether the end is closed.
_AT_LEAST, _AT_MOST = {True: ge, False: gt}, {True: le, False: lt}


class DimensionRestriction:
    """The restriction Σ(dᵢ) of one dimension: full, a value set or a range."""

    __slots__ = ("_values", "_comparable_values", "_range")

    def __init__(self, values: Optional[Collection[object]] = None):
        #: ``(low, low_closed, high, high_closed)`` for a range.
        self._range: Optional[Tuple[object, bool, object, bool]] = None
        if values is None:
            self._values = self._comparable_values = None
            return
        values_tuple = tuple(values)
        if not values_tuple:
            raise SigmaError("a dimension restriction value set must be non-empty (Definition 2)")
        self._values = values_tuple
        self._comparable_values = {comparable(value) for value in values_tuple}

    # -- constructors -------------------------------------------------------

    @classmethod
    def full(cls) -> "DimensionRestriction":
        """The unconstrained restriction Σ(dᵢ) = Vᵢ."""
        return cls()

    @classmethod
    def to_values(cls, values: Collection[object]) -> "DimensionRestriction":
        """Restriction to an explicit set of values (DICE)."""
        return cls(values=values)

    @classmethod
    def to_value(cls, value: object) -> "DimensionRestriction":
        """Restriction to a single value (SLICE)."""
        return cls(values=[value])

    @classmethod
    def to_range(cls, low: object, high: object, inclusive: bool = True) -> "DimensionRestriction":
        """Restriction to a numeric/lexicographic range (range DICE), closed
        at both ends or open at both ends; one that allows nothing raises."""
        return cls._between(low, bool(inclusive), high, bool(inclusive))

    @classmethod
    def _between(cls, low: object, low_closed: bool, high: object, high_closed: bool) -> "DimensionRestriction":
        """The one range constructor.  Bounds that do not order (NaN, unrelated
        types), cross or meet at an open end allow nothing: :class:`SigmaError`."""
        try:
            empty = not _AT_MOST[low_closed and high_closed](comparable(low), comparable(high))
        except TypeError:
            empty = True
        if empty:
            raise SigmaError(f"the range {low!r}..{high!r} allows no value (Definition 2)")
        restriction = cls()
        restriction._range = (low, low_closed, high, high_closed)
        return restriction

    # -- semantics -----------------------------------------------------------

    @property
    def is_full(self) -> bool:
        """True for the unconstrained restriction."""
        return self._values is None and self._range is None

    @property
    def values(self) -> Optional[Tuple[object, ...]]:
        """The explicit value set, or None for full/range restrictions."""
        return self._values

    @property
    def bounds(self) -> Optional[Tuple[object, bool, object, bool]]:
        """``(low, low_closed, high, high_closed)`` of a range, else None."""
        return self._range

    @property
    def description(self) -> str:
        """A human-readable rendering (session history, ``Sigma.describe``)."""
        if self._values is not None:
            return "{" + ", ".join(str(value) for value in self._values) + "}"
        if self._range is not None:
            low, low_closed, high, high_closed = self._range
            return f"range {'[' if low_closed else '('}{low}, {high}{']' if high_closed else ')'}"
        return "V (full domain)"

    def allows(self, value: object) -> bool:
        """True when ``value`` belongs to Σ(dᵢ)."""
        if self._range is not None:
            low, low_closed, high, high_closed = self._range
            candidate = comparable(value)
            try:
                return _AT_LEAST[low_closed](candidate, comparable(low)) and _AT_MOST[high_closed](
                    candidate, comparable(high)
                )
            except TypeError:
                return False
        if self._values is None:
            return True
        if value in self._values:
            return True
        try:
            return comparable(value) in self._comparable_values  # type: ignore[operator]
        except TypeError:
            return False

    def canonical_token(self) -> str:
        """A value-based identity token for caching (see :mod:`repro.olap.cache`).

        Two restrictions with equal tokens allow exactly the same values, so
        materialized results keyed by the token can be shared.  Value sets
        canonicalize order-insensitively and ranges by their bounds, both
        through the same literal-to-Python conversion the σ_dice selection
        uses; numbers that compare equal (``20``, ``20.0``) render alike, so
        restrictions that allow the same values have equal tokens.
        """
        if self._values is not None:
            return "in{" + ",".join(sorted(_token_of(v) for v in self._comparable_values)) + "}"
        if self._range is not None:
            low, low_closed, high, high_closed = self._range
            return (
                f"range{'[' if low_closed else '('}{_token_of(low)},"
                f"{_token_of(high)}{']' if high_closed else ')'}"
            )
        return "*"

    def subsumes(self, other: "DimensionRestriction") -> bool:
        """True when every value allowed by ``other`` is allowed by this one.

        Conservative (may answer False for subsumptions it cannot prove):
        used by the planner to decide whether a cached ``ans(Q)`` whose Σ is
        *weaker* can answer a transformed query by σ-selection alone.
        """
        if self.is_full:
            return True
        if other.is_full:
            return False
        if other._values is not None:
            # A finite extension: check membership value by value.
            return all(self.allows(value) for value in other._values)
        if self._values is not None:
            return False
        try:
            return self.intersect(other) == other
        except SigmaError:
            return False

    def intersect(self, other: "DimensionRestriction") -> "DimensionRestriction":
        """The conjunction of two restrictions (dicing an already-diced query).

        A value set keeps the values the other side allows; two ranges give
        the tighter range.  Raises :class:`~repro.errors.SigmaError` when
        the conjunction allows nothing (Definition 2 wants non-empty sets).
        """
        if self.is_full:
            return other
        if other.is_full:
            return self
        if self._values is not None or other._values is not None:
            finite, test = (self, other) if self._values is not None else (other, self)
            common = [value for value in finite._values if test.allows(value)]
            if not common:
                raise SigmaError(_EMPTY)
            return DimensionRestriction.to_values(common)
        low, low_closed = _tighter(self._range[:2], other._range[:2], gt)
        high, high_closed = _tighter(self._range[2:], other._range[2:], lt)
        return DimensionRestriction._between(low, low_closed, high, high_closed)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DimensionRestriction):
            return NotImplemented
        return self.canonical_token() == other.canonical_token()

    def __repr__(self) -> str:  # pragma: no cover
        return f"DimensionRestriction({self.description})"


def _token_of(value: object) -> str:
    """The token of one value or bound: ``repr`` of its comparable form, with
    numbers as exact fractions (``20``, ``41/2``), so ``20``, ``20.0`` and
    ``Decimal("20")`` — equal under ``allows`` — get one token."""
    value = comparable(value)
    if isinstance(value, (int, float, Decimal)):
        try:
            return str(Fraction(value))
        except (ValueError, OverflowError):  # NaN and the infinities
            return repr(float(value))
    return repr(value)


def _tighter(first: Tuple[object, bool], second: Tuple[object, bool], tighter) -> Tuple[object, bool]:
    """The tighter of two ``(bound, closed)`` ends of the same side: by
    ``tighter`` (``>`` for lows, ``<`` for highs), closed only when both are
    at a tie.  Bounds that do not order (NaN, unrelated types) bound ranges
    no value lies in, so their conjunction is empty."""
    (bound, closed), (other_bound, other_closed) = first, second
    try:
        mine, theirs = comparable(bound), comparable(other_bound)
        if tighter(mine, theirs):
            return bound, closed
        if tighter(theirs, mine):
            return other_bound, other_closed
        if mine == theirs:
            return other_bound, closed and other_closed
    except TypeError:
        pass
    raise SigmaError(_EMPTY)


class Sigma:
    """The total function Σ over the dimensions of an extended AnQ.

    Instances are immutable; the transformation methods return new objects.
    """

    def __init__(
        self,
        dimensions: Iterable[str],
        restrictions: Optional[Mapping[str, DimensionRestriction]] = None,
    ):
        dimension_names = tuple(dimensions)
        if len(set(dimension_names)) != len(dimension_names):
            raise SigmaError(f"duplicate dimension names: {dimension_names}")
        mapping: Dict[str, DimensionRestriction] = {
            name: DimensionRestriction.full() for name in dimension_names
        }
        if restrictions:
            for name, restriction in restrictions.items():
                if name not in mapping:
                    raise SigmaError(
                        f"Σ mentions unknown dimension {name!r}; dimensions are {dimension_names}"
                    )
                if not isinstance(restriction, DimensionRestriction):
                    raise SigmaError(
                        f"restriction for {name!r} must be a DimensionRestriction, "
                        f"got {type(restriction).__name__}"
                    )
                mapping[name] = restriction
        self._dimensions = dimension_names
        self._restrictions = mapping

    # -- accessors -----------------------------------------------------------

    @property
    def dimensions(self) -> Tuple[str, ...]:
        return self._dimensions

    def restriction(self, dimension: str) -> DimensionRestriction:
        if dimension not in self._restrictions:
            raise SigmaError(f"unknown dimension {dimension!r}; dimensions are {self._dimensions}")
        return self._restrictions[dimension]

    def __getitem__(self, dimension: str) -> DimensionRestriction:
        return self.restriction(dimension)

    def is_unrestricted(self) -> bool:
        """True when every dimension maps to its full domain (a standard AnQ)."""
        return all(restriction.is_full for restriction in self._restrictions.values())

    def restricted_dimensions(self) -> Tuple[str, ...]:
        return tuple(
            name for name in self._dimensions if not self._restrictions[name].is_full
        )

    def canonical_tokens(self) -> Tuple[Tuple[str, str], ...]:
        """Per-dimension ``(name, token)`` pairs identifying this Σ by value."""
        return tuple(
            (name, self._restrictions[name].canonical_token()) for name in self._dimensions
        )

    def subsumes(self, other: "Sigma") -> bool:
        """True when Σ′ = ``other`` is a pointwise strengthening of this Σ.

        Then σ_{Σ′}(ans(Q)) answers the strengthened query from this one's
        materialized answer (Proposition 1 applied dimension-wise).
        """
        if set(self._dimensions) != set(other._dimensions):
            return False
        return all(
            self._restrictions[name].subsumes(other._restrictions[name])
            for name in self._dimensions
        )

    # -- σ_dice --------------------------------------------------------------

    def allows_row(self, row: Mapping[str, object]) -> bool:
        """True when every dimension value of the row belongs to its Σ set.

        Dimensions absent from the row are ignored (they may have been
        drilled out); this is only used with rows that carry all Σ dims.
        """
        for name, restriction in self._restrictions.items():
            if restriction.is_full:
                continue
            if name in row and not restriction.allows(row[name]):
                return False
        return True

    def predicate(self) -> "SigmaPredicate":
        """The σ_dice selection predicate, compilable against any relation.

        Use with :func:`repro.algebra.operators.select`: on either engine
        each restricted column's distinct stored values are tested once
        (:meth:`~repro.algebra.relation.Relation.values_passing`, decoded
        terms handed to :meth:`DimensionRestriction.allows`) and a row is
        kept by membership of its values in the passing sets.
        """
        return SigmaPredicate(self)

    # -- transformations (return new Sigma objects) --------------------------

    def restrict(self, dimension: str, restriction: DimensionRestriction) -> "Sigma":
        """Σ′ = Σ \\ {(d, Σ(d))} ∪ {(d, S)} — used by SLICE and DICE."""
        if dimension not in self._restrictions:
            raise SigmaError(f"unknown dimension {dimension!r}; dimensions are {self._dimensions}")
        updated = dict(self._restrictions)
        updated[dimension] = restriction
        return Sigma(self._dimensions, updated)

    def restrict_many(self, restrictions: Mapping[str, DimensionRestriction]) -> "Sigma":
        sigma = self
        for dimension, restriction in restrictions.items():
            sigma = sigma.restrict(dimension, restriction)
        return sigma

    def without(self, dimensions: Iterable[str]) -> "Sigma":
        """Drop dimensions (DRILL-OUT): Σ′ = Σ \\ {(dⱼ, Σ(dⱼ))}."""
        dropped = set(dimensions)
        unknown = dropped - set(self._dimensions)
        if unknown:
            raise SigmaError(f"cannot drop unknown dimensions {sorted(unknown)}")
        remaining = [name for name in self._dimensions if name not in dropped]
        restrictions = {name: self._restrictions[name] for name in remaining}
        return Sigma(remaining, restrictions)

    def with_new(self, dimensions: Iterable[str]) -> "Sigma":
        """Add dimensions with full domains (DRILL-IN): Σ′ = Σ ∪ {(dⱼ, Vⱼ)}."""
        new_names = list(dimensions)
        for name in new_names:
            if name in self._restrictions:
                raise SigmaError(f"dimension {name!r} is already present")
        restrictions = dict(self._restrictions)
        for name in new_names:
            restrictions[name] = DimensionRestriction.full()
        return Sigma(tuple(self._dimensions) + tuple(new_names), restrictions)

    def reorder(self, dimensions: Iterable[str]) -> "Sigma":
        """Return Σ over the same dimensions in a different order."""
        names = tuple(dimensions)
        if set(names) != set(self._dimensions) or len(names) != len(self._dimensions):
            raise SigmaError("reorder must be given a permutation of the current dimensions")
        return Sigma(names, {name: self._restrictions[name] for name in names})

    # -- presentation ---------------------------------------------------------

    def describe(self) -> str:
        parts = [
            f"{name} ↦ {self._restrictions[name].description}" for name in self._dimensions
        ]
        return "Σ = {" + "; ".join(parts) + "}"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sigma):
            return NotImplemented
        return (
            self._dimensions == other._dimensions
            and all(self._restrictions[n] == other._restrictions[n] for n in self._dimensions)
        )

    def __repr__(self) -> str:  # pragma: no cover
        return f"Sigma({self.describe()})"


class SigmaPredicate:
    """The σ_dice selection of Definition 5, the one σ predicate.

    Row storage compiles it against a relation schema
    (:meth:`compile`), so :func:`repro.algebra.operators.select` evaluates
    it positionally — directly on term ids when the relation is id-encoded;
    columnar storage reads :attr:`sigma` and builds a boolean mask.
    """

    __slots__ = ("_sigma",)

    def __init__(self, sigma: Sigma):
        self._sigma = sigma

    @property
    def sigma(self) -> Sigma:
        """The Σ this predicate selects by (used by the columnar kernels)."""
        return self._sigma

    def compile(self, relation):
        """A positional row test over ``relation``'s rows."""
        tests = []
        for name in self._sigma.dimensions:
            restriction = self._sigma.restriction(name)
            if restriction.is_full or not relation.has_column(name):
                # Dimensions absent from the relation are ignored (they may
                # have been drilled out), mirroring allows_row.
                continue
            allowed = relation.values_passing(name, restriction.allows)
            tests.append((relation.column_index(name), allowed.__contains__))
        if not tests:
            return lambda row: True
        if len(tests) == 1:
            index, test = tests[0]
            return lambda row: test(row[index])
        return lambda row: all(test(row[index]) for index, test in tests)

    def __repr__(self) -> str:  # pragma: no cover
        return f"SigmaPredicate({self._sigma.describe()})"
