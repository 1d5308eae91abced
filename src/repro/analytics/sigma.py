"""Dimension restrictions (the Σ function of extended analytical queries).

Definition 2 of the paper extends an analytical query with a total function
Σ that maps each dimension ``d_i`` either to its full value set ``V_i`` or
to a non-empty subset of ``V_i``.  SLICE and DICE are then pure Σ
transformations.

Here Σ is represented by :class:`Sigma`, a mapping from dimension name to a
:class:`DimensionRestriction`.  A restriction is one of:

* the **full** domain (no constraint) — the default for every dimension;
* an explicit **value set**;
* an intensional **predicate** (e.g. a numeric range, as in the paper's
  Example 4 where ``20 ≤ d_age ≤ 30``), carrying a human-readable
  description.

Restrictions answer :meth:`DimensionRestriction.allows` for individual
values; :meth:`Sigma.allows_row` combines them over a row of dimension
values, which is exactly the σ_dice selection of Definition 5.
"""

from __future__ import annotations

from typing import Callable, Collection, Dict, Iterable, Mapping, Optional, Tuple, Union

from repro.errors import SigmaError
from repro.algebra.expressions import comparable

__all__ = ["DimensionRestriction", "Sigma", "SigmaPredicate"]


class DimensionRestriction:
    """The restriction Σ(dᵢ) of one dimension."""

    __slots__ = ("_values", "_comparable_values", "_predicate", "_range", "description")

    def __init__(
        self,
        values: Optional[Collection[object]] = None,
        predicate: Optional[Callable[[object], bool]] = None,
        description: str = "",
    ):
        self._range: Optional[Tuple[object, object, bool]] = None
        if values is not None and predicate is not None:
            raise SigmaError("a dimension restriction is either a value set or a predicate, not both")
        if values is not None:
            values_tuple = tuple(values)
            if not values_tuple:
                raise SigmaError("a dimension restriction value set must be non-empty (Definition 2)")
            self._values = values_tuple
            self._comparable_values = {comparable(value) for value in values_tuple}
        else:
            self._values = None
            self._comparable_values = None
        self._predicate = predicate
        if not description:
            if values is not None:
                description = "{" + ", ".join(str(value) for value in self._values) + "}"
            elif predicate is not None:
                description = getattr(predicate, "__name__", "predicate")
            else:
                description = "V (full domain)"
        self.description = description

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
        """Restriction to a numeric/lexicographic range (range DICE).

        The bounds are kept as data, not in a closure, so a range-diced
        query pickles and reaches process workers.
        """
        bounds = f"[{low}, {high}]" if inclusive else f"({low}, {high})"
        restriction = cls(description=f"range {bounds}")
        restriction._range = (low, high, inclusive)
        return restriction

    @classmethod
    def to_predicate(cls, predicate: Callable[[object], bool], description: str = "") -> "DimensionRestriction":
        """Restriction defined by an arbitrary membership predicate."""
        return cls(predicate=predicate, description=description)

    # -- semantics -----------------------------------------------------------

    @property
    def is_full(self) -> bool:
        """True for the unconstrained restriction."""
        return self._values is None and self._predicate is None and self._range is None

    @property
    def values(self) -> Optional[Tuple[object, ...]]:
        """The explicit value set, or None for full/predicate restrictions."""
        return self._values

    def allows(self, value: object) -> bool:
        """True when ``value`` belongs to Σ(dᵢ)."""
        if self.is_full:
            return True
        if self._predicate is not None:
            return bool(self._predicate(value))
        if self._range is not None:
            low, high, inclusive = self._range
            low, high, candidate = comparable(low), comparable(high), comparable(value)
            try:
                if inclusive:
                    return low <= candidate <= high
                return low < candidate < high
            except TypeError:
                return False
        if value in self._values:  # type: ignore[operator]
            return True
        try:
            return comparable(value) in self._comparable_values  # type: ignore[operator]
        except TypeError:
            return False

    def canonical_token(self) -> str:
        """A value-based identity token for caching (see :mod:`repro.olap.cache`).

        Two restrictions with equal tokens allow exactly the same values, so
        materialized results keyed by the token can be shared:

        * the full domain and explicit value sets canonicalize by value
          (order-insensitive, via the same literal-to-Python conversion the
          σ_dice selection uses);
        * ranges built by :meth:`to_range` canonicalize by their bounds;
        * arbitrary predicates have no inspectable extension, so they
          canonicalize by object identity — never falsely shared, but only
          reusable while the same predicate object is in play.
        """
        if self.is_full:
            return "*"
        if self._values is not None:
            return "in{" + ",".join(sorted(repr(v) for v in self._comparable_values)) + "}"
        if self._range is not None:
            low, high, inclusive = self._range
            return f"range({comparable(low)!r},{comparable(high)!r},{inclusive})"
        return f"pred@{id(self._predicate)}"

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
        if self.canonical_token() == other.canonical_token():
            return True
        if other._values is not None:
            # A finite extension: check membership value by value.
            return all(self.allows(value) for value in other._values)
        if self._range is not None and other._range is not None:
            low, high, inclusive = self._range
            other_low, other_high, other_inclusive = other._range
            try:
                wider_low = comparable(low) < comparable(other_low) or (
                    comparable(low) == comparable(other_low) and (inclusive or not other_inclusive)
                )
                wider_high = comparable(high) > comparable(other_high) or (
                    comparable(high) == comparable(other_high) and (inclusive or not other_inclusive)
                )
            except TypeError:
                return False
            return wider_low and wider_high
        return False

    def intersect(self, other: "DimensionRestriction") -> "DimensionRestriction":
        """The conjunction of two restrictions (used when dicing an already-diced query)."""
        if self.is_full:
            return other
        if other.is_full:
            return self
        if self._values is not None and other._values is not None:
            common = [value for value in self._values if other.allows(value)]
            if not common:
                raise SigmaError("the intersection of the two restrictions is empty")
            return DimensionRestriction.to_values(common)

        def both(value: object) -> bool:
            return self.allows(value) and other.allows(value)

        return DimensionRestriction.to_predicate(
            both, description=f"{self.description} ∩ {other.description}"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DimensionRestriction):
            return NotImplemented
        if self.is_full and other.is_full:
            return True
        if self._values is not None and other._values is not None:
            return set(self._values) == set(other._values)
        return self is other  # predicate restrictions compare by identity

    def __repr__(self) -> str:  # pragma: no cover
        return f"DimensionRestriction({self.description})"


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
    """The σ_dice selection of Definition 5 as a compilable row predicate.

    Callable on row mappings (delegating to :meth:`Sigma.allows_row`) for
    the generic path, and compilable against a relation schema so that
    :func:`repro.algebra.operators.select` evaluates it positionally —
    directly on term ids when the relation is id-encoded.
    """

    __slots__ = ("_sigma",)

    def __init__(self, sigma: Sigma):
        self._sigma = sigma

    @property
    def sigma(self) -> Sigma:
        """The Σ this predicate selects by (used by the columnar kernels)."""
        return self._sigma

    def __call__(self, row: Mapping[str, object]) -> bool:
        return self._sigma.allows_row(row)

    def compile(self, relation):
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
