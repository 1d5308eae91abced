"""Aggregation functions and their algebraic properties.

The paper's drill-out discussion (Section 3.2) distinguishes **distributive**
aggregation functions (``sum``, ``count``, ``min``, ``max``) — whose results
over a union of disjoint bags can be combined from per-bag results — from
non-distributive ones such as ``avg``, which must be recomputed from the
detailed values.  That property drives which rewritings are possible, so each
registered aggregate carries it as metadata.

All aggregates operate on **bags** of values (Python sequences where
duplicates matter).  Values may be RDF literals; they are converted to
Python numbers/strings first through :func:`~repro.algebra.expressions.comparable`.

Mergeable-state algebra
-----------------------

γ is evaluated through **one** algebra whether it runs over a whole
relation or over the fact shards of :mod:`repro.olap.parallel`: ``make``
(bag → state), ``merge`` (state × state → state, associative and
commutative) and ``finalize`` (state → aggregated value).  Serial γ is the
one-partition case — ``finalize(make(bag))`` — so each standard aggregate is
defined exactly once, by those three functions.  Plain distributivity would
not be enough: ``avg`` and ``count_distinct`` are not distributive, yet both
*are* mergeable through a richer state — ``avg`` as a ``(sum, count)`` pair,
``count_distinct`` as the set of distinct raw values (term ids on encoded
relations, so shards never decode).  A custom aggregate that supplies only a
bag function is the degenerate case: its state is its final value, which
cannot be merged, so it answers serially and is never partitioned
(:attr:`AggregateFunction.mergeable` is False).
"""

from __future__ import annotations

import operator
from decimal import Decimal
from functools import reduce
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.errors import AggregationError
from repro.algebra.expressions import comparable

__all__ = [
    "AggregateFunction",
    "AggregateRegistry",
    "default_registry",
    "get_aggregate",
    "COUNT",
    "COUNT_DISTINCT",
    "SUM",
    "AVG",
    "MIN",
    "MAX",
    "POISONED_GROUP",
]


class _PoisonedGroup:
    """Sentinel state: the group's bag failed to prepare in some partition.

    γ omits a group whose bag raises "undefined" (e.g. non-numeric values
    under ``sum``) — *as a whole*, mirroring Definition 1's "x^j does not
    contribute to the cube".  A partition only sees its slice of the bag,
    so a failing slice must poison the group across every partition or the
    answer would depend on where the shard boundaries fell.  The sentinel
    absorbs merges and is dropped at finalize; pickling preserves identity
    across process boundaries.
    """

    __slots__ = ()

    def __reduce__(self):
        return (_poisoned_group, ())

    def __repr__(self) -> str:  # pragma: no cover
        return "POISONED_GROUP"


def _poisoned_group() -> "_PoisonedGroup":
    return POISONED_GROUP


POISONED_GROUP = _PoisonedGroup()


def _identity(state: object, value=None) -> object:
    return state


class AggregateFunction:
    """A named aggregation function ``⊕`` over bags of values.

    ``AggregateFunction(name, function, ...)`` wraps a plain bag function —
    the form custom aggregates register in.  The standard aggregates are
    built by :meth:`from_states` from their mergeable-state algebra, whose
    contract is

        ``finalize(merge(make(A), make(B))) = ⊕(A ⊎ B)``

    with ``merge`` associative and commutative, so the γ results of disjoint
    row partitions combine in any order and grouping into exactly the serial
    answer.  States must be plain picklable Python data — they cross process
    boundaries.

    Attributes
    ----------
    name:
        Registry key, e.g. ``"sum"``.
    distributive:
        True when ``⊕(A ∪ B) = ⊕({⊕(A), ⊕(B)})`` for disjoint bags A, B.
    numeric_only:
        True when inputs must be numbers (after literal conversion).
    raw_states:
        True when states are built from the *raw* relation column values
        (term ids on encoded relations) instead of :meth:`prepare`'d ones:
        ``count`` needs only the bag's cardinality and ``count_distinct``
        ships integer sets, so neither converts while grouping;
        :meth:`finalize` then receives ``value`` (id → comparable value,
        :meth:`~repro.rdf.dictionary.TermDictionary.value`) to read the
        merged members, once, at the merge boundary.
    """

    def __init__(
        self,
        name: str,
        function: Callable[[List], object],
        distributive: bool,
        numeric_only: bool = True,
    ):
        self.name = name
        self.distributive = distributive
        self.numeric_only = numeric_only
        self.raw_states = False
        self._make = function
        self._merge: Optional[Callable[[object, object], object]] = None
        self._finalize: Callable = _identity

    @classmethod
    def from_states(
        cls,
        name: str,
        make: Callable[[Sequence], object],
        merge: Callable[[object, object], object],
        finalize: Callable,
        distributive: bool,
        numeric_only: bool,
        raw_states: bool,
    ) -> "AggregateFunction":
        """Define a mergeable aggregate by its state algebra.

        ``finalize`` is called as ``finalize(state, value)``; a distributive
        aggregate's state is the aggregated value itself.
        """
        aggregate = cls(name, make, distributive, numeric_only)
        aggregate._merge = merge
        aggregate._finalize = finalize
        aggregate.raw_states = raw_states
        return aggregate

    # ------------------------------------------------------------------

    @property
    def mergeable(self) -> bool:
        """True when states of disjoint sub-bags merge (γ can be partitioned)."""
        return self._merge is not None

    def make(self, values: Sequence) -> object:
        """The state of one non-empty bag (raw or prepared, per ``raw_states``)."""
        return self._make(values)

    def merge(self, left: object, right: object) -> object:
        """Combine the states of two disjoint sub-bags."""
        if self._merge is None:
            raise AggregationError(
                f"aggregate {self.name!r} has no mergeable state; evaluate serially"
            )
        return self._merge(left, right)

    def finalize(self, state: object, value: Optional[Callable[[object], object]] = None) -> object:
        """Turn a (merged) state into the aggregated value."""
        return self._finalize(state, value)

    def __call__(self, values: Iterable) -> object:
        """Aggregate a bag of values: the one-partition ``finalize(make(bag))``.

        Per Definition 1 of the paper, the aggregate of an empty bag is
        *undefined*; we signal that with :class:`AggregationError`, and the
        evaluator simply omits the fact from the cube.
        """
        prepared = self.prepare(values)
        if not prepared:
            raise AggregationError(f"aggregate {self.name!r} is undefined on an empty bag")
        return self._finalize(self._make(prepared), None)

    def combine(self, partial_results: Iterable) -> object:
        """Combine already-aggregated partial results (distributive functions only).

        A distributive mergeable aggregate's state *is* its value, so
        combining is folding ``merge`` over the partial results (``count``
        adds its counts up); a bag-function aggregate declared distributive
        re-applies its function.
        """
        if not self.distributive:
            raise AggregationError(
                f"aggregate {self.name!r} is not distributive; partial results cannot be combined"
            )
        prepared = [comparable(value) for value in partial_results]
        if not prepared:
            raise AggregationError(f"aggregate {self.name!r} is undefined on an empty bag")
        if self._merge is None:
            return self._make(prepared)
        return reduce(self._merge, prepared)

    def prepare(self, values: Iterable) -> List:
        """Convert a bag to the value space ⊕ aggregates over.

        Literals become Python values and, for numeric-only aggregates,
        everything is coerced to a number (or :class:`AggregationError` is
        raised).  γ builds every non-raw state from exactly these values,
        whichever partition it runs over.
        """
        prepared = [comparable(value) for value in values]
        if self.numeric_only:
            converted = []
            for value in prepared:
                if isinstance(value, bool):
                    converted.append(int(value))
                elif isinstance(value, (int, float, Decimal)):
                    converted.append(value)
                else:
                    try:
                        converted.append(float(value))
                    except (TypeError, ValueError):
                        raise AggregationError(
                            f"aggregate {self.name!r} requires numeric values, got {value!r}"
                        ) from None
            return converted
        return prepared

    def __repr__(self) -> str:  # pragma: no cover
        kind = "distributive" if self.distributive else "non-distributive"
        return f"AggregateFunction({self.name}, {kind})"


def _avg_make(values: Sequence) -> tuple:
    return (sum(values), len(values))


def _avg_merge(left: tuple, right: tuple) -> tuple:
    return (left[0] + right[0], left[1] + right[1])


def _avg_finalize(state: tuple, value=None) -> float:
    total, count = state
    return float(total) / count


def _distinct_finalize(state: frozenset, value=None) -> int:
    return len(set(map(comparable if value is None else value, state)))


#: ``count`` is distributive: the state is the bag's cardinality (no value
#: is ever decoded or converted) and counts of disjoint sub-bags add up.
COUNT = AggregateFunction.from_states(
    "count", len, operator.add, _identity, distributive=True, numeric_only=False, raw_states=True
)

#: ``count_distinct`` is *not* distributive (distinct values may repeat across
#: sub-bags): the state is the set of distinct raw values, merge unions the
#: sets, and only the merged set's members are read as comparable values —
#: so two ids decoding to equal comparable values (``28`` and ``28.0``) count
#: as one, exactly as over the whole bag.
COUNT_DISTINCT = AggregateFunction.from_states(
    "count_distinct",
    frozenset,
    operator.or_,
    _distinct_finalize,
    distributive=False,
    numeric_only=False,
    raw_states=True,
)

#: ``sum``: the state is the running sum; merge adds (exact on ints/Decimals).
SUM = AggregateFunction.from_states(
    "sum", sum, operator.add, _identity, distributive=True, numeric_only=True, raw_states=False
)

#: ``avg``: the state is ``(sum, count)``; division happens once, at finalize.
#: Sums of integer bags stay integers, so the merged total — and therefore
#: ``float(total) / n`` — is bit-identical however the rows were partitioned.
AVG = AggregateFunction.from_states(
    "avg",
    _avg_make,
    _avg_merge,
    _avg_finalize,
    distributive=False,
    numeric_only=True,
    raw_states=False,
)

#: ``min`` / ``max``: the state is the extremum so far; merge re-compares.
MIN = AggregateFunction.from_states(
    "min", min, min, _identity, distributive=True, numeric_only=False, raw_states=False
)
MAX = AggregateFunction.from_states(
    "max", max, max, _identity, distributive=True, numeric_only=False, raw_states=False
)


class AggregateRegistry:
    """Name → :class:`AggregateFunction` registry.

    A fresh registry contains the six standard aggregates; applications can
    :meth:`register` additional ones (e.g. median, stddev) and they become
    usable in analytical queries by name.
    """

    def __init__(self, include_defaults: bool = True):
        self._functions: Dict[str, AggregateFunction] = {}
        if include_defaults:
            for function in (COUNT, COUNT_DISTINCT, SUM, AVG, MIN, MAX):
                self.register(function)

    def register(self, function: AggregateFunction, replace: bool = False) -> None:
        if function.name in self._functions and not replace:
            raise AggregationError(f"aggregate {function.name!r} is already registered")
        self._functions[function.name] = function

    def get(self, name: str) -> AggregateFunction:
        key = name.lower()
        if key not in self._functions:
            raise AggregationError(
                f"unknown aggregate {name!r}; registered: {sorted(self._functions)}"
            )
        return self._functions[key]

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._functions

    def names(self) -> List[str]:
        return sorted(self._functions)

    def __len__(self) -> int:
        return len(self._functions)


_DEFAULT_REGISTRY = AggregateRegistry()


def default_registry() -> AggregateRegistry:
    """The process-wide default registry used when none is supplied."""
    return _DEFAULT_REGISTRY


def get_aggregate(function) -> AggregateFunction:
    """Coerce a name or an :class:`AggregateFunction` into an AggregateFunction."""
    if isinstance(function, AggregateFunction):
        return function
    if isinstance(function, str):
        return _DEFAULT_REGISTRY.get(function)
    raise AggregationError(
        f"expected an aggregate name or AggregateFunction, got {type(function).__name__}"
    )
