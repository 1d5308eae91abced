"""Grouping and aggregation (γ).

``group_aggregate`` implements the γ operator used throughout the paper:
group the rows of a relation by a list of grouping columns and apply an
aggregation function ⊕ to the bag of values of a measure column within each
group.  Facts whose measure bag is empty simply produce no group (per
Definition 1 the aggregated measure is then undefined); with the γ operator
this happens naturally because such facts contribute no rows.

There is **one** γ, built on the mergeable-state algebra of
:mod:`repro.algebra.aggregates`: ``group_partial_states`` produces one
state per group of one row partition, ``merge_group_states`` combines the
state maps of disjoint partitions (fact shards) and ``finalize_group_states``
turns a state map into γ's rows.  ``group_aggregate`` is the one-partition
case — it finalizes the states of the whole relation — so the serial and
the partitioned answer are the same code, not two loops kept in step.  Group
keys stay in the relation's value space (term ids group exactly like terms
— the encoding is bijective and shards share one dictionary), so merging
never decodes.

``group_rows`` is the lower-level helper returning the groups themselves,
used by the analytics evaluator when it needs to post-process bags (e.g. to
deduplicate measure keys in Algorithm 1).
"""

from __future__ import annotations

from functools import reduce
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import AggregationError, UnknownColumnError
from repro.algebra.aggregates import AggregateFunction, get_aggregate
from repro.algebra.columnar import (
    ArrayGroupStates,
    ColumnarIdRelation,
    distinct_count_states,
    group_states_columnar,
)
from repro.algebra.expressions import comparable, memoized_unary
from repro.algebra.relation import Relation, Row, relation_like, tuple_getter

__all__ = [
    "group_rows",
    "group_aggregate",
    "group_partial_states",
    "merge_group_states",
    "finalize_group_states",
    "aggregate_column",
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


def group_rows(relation: Relation, by: Sequence[str]) -> Dict[Tuple, List[Row]]:
    """Partition rows by the values of the ``by`` columns.

    Returns a mapping from group key (tuple of values, in ``by`` order) to
    the list of full rows in that group, preserving input order within each
    group.
    """
    key_of = tuple_getter(relation.column_indexes(by))
    groups: Dict[Tuple, List[Row]] = {}
    for row in relation:
        groups.setdefault(key_of(row), []).append(row)
    return groups


def _value_decoder(relation: Relation, measure: str) -> Optional[Callable[[object], object]]:
    """Memoized id → comparable value of an encoded measure column, else None.

    Measure literals repeat, and every aggregate converts its inputs to the
    comparable form anyway, so each distinct literal is decoded and
    converted exactly once.
    """
    decoder = relation.column_decoder(measure)
    if decoder is None:
        return None
    return memoized_unary(lambda value_id: comparable(decoder(value_id)))


def group_aggregate(
    relation: Relation,
    by: Sequence[str],
    measure: str,
    function,
    output_column: str = "v",
) -> Relation:
    """γ_{by, ⊕(measure)}: group and aggregate.

    Parameters
    ----------
    relation:
        Input bag relation.
    by:
        Grouping columns; they become the leading columns of the result.
    measure:
        Column whose values are aggregated within each group.
    function:
        Aggregate name (``"sum"``, ``"avg"``, ...) or
        :class:`~repro.algebra.aggregates.AggregateFunction`.
    output_column:
        Name of the aggregated column in the result (default ``"v"``).

    The single-partition case of the state algebra:
    ``finalize_group_states(group_partial_states(relation))``.  Groups whose
    measure bag is undefined under ⊕ (empty after ``None`` filtering,
    non-numeric under a numeric aggregate) are omitted.
    """
    aggregate: AggregateFunction = get_aggregate(function)
    relation.column_index(measure)  # raises UnknownColumnError for bad names
    if output_column in by:
        raise UnknownColumnError(
            f"output column {output_column!r} clashes with a grouping column"
        )
    if isinstance(relation, ColumnarIdRelation) and aggregate.name == "count_distinct":
        # The one serial special case: sets of ids per group have no array
        # form, and boxing them costs 2.4x counting the relation's distinct
        # (group, value) pairs.
        rows = finalize_group_states(distinct_count_states(relation, by, measure), "count")
    else:
        states = group_partial_states(relation, by, measure, aggregate)
        rows = finalize_group_states(states, aggregate, _value_decoder(relation, measure))
    # Group keys stay in their input space (ids group exactly like terms:
    # the encoding is bijective); the aggregated column is always plain.
    return relation_like(
        tuple(by) + (output_column,), rows, relation, plain_columns=(output_column,)
    )


def group_partial_states(
    relation: Relation,
    by: Sequence[str],
    measure: str,
    function,
):
    """One partition's γ: one aggregate state per group.

    ``None`` measures are filtered, encoded measure values are decoded and
    converted once per distinct id (never, for ``raw_states`` aggregates),
    and a group whose bag is undefined under ⊕ is held as
    :data:`POISONED_GROUP` so the omission survives a merge.  Columnar
    relations answer in array form
    (:class:`~repro.algebra.columnar.ArrayGroupStates`) when the aggregate
    and the bag have one; everything else — including a non-mergeable
    aggregate, whose "state" is its final value — is a dict keyed by group.
    """
    aggregate: AggregateFunction = get_aggregate(function)
    if isinstance(relation, ColumnarIdRelation):
        # Array-form states: one row per group across parallel arrays, so
        # merges concatenate + re-reduce instead of re-boxing.
        array_states = group_states_columnar(relation, by, measure, aggregate)
        if array_states is not None:
            return array_states
    measure_index = relation.column_index(measure)
    # count / count_distinct states are built from the raw column values
    # (term ids on encoded relations) — no decoding while grouping.
    decode = None if aggregate.raw_states else _value_decoder(relation, measure)
    states: Dict[Tuple, object] = {}
    for key, group in group_rows(relation, by).items():
        values = [row[measure_index] for row in group if row[measure_index] is not None]
        if not values:
            continue
        try:
            if not aggregate.raw_states:
                if decode is not None:
                    values = [decode(value) for value in values]
                values = aggregate.prepare(values)
            states[key] = aggregate.make(values)
        except AggregationError:
            states[key] = POISONED_GROUP
    return states


def merge_group_states(state_maps: Iterable, function):
    """Combine per-partition γ states (associative and commutative).

    Each partition contributes either a dict state map or an
    :class:`~repro.algebra.columnar.ArrayGroupStates` (the columnar
    engine's array form).  All-array partitions merge vectorized —
    concatenate + re-reduce, no per-group boxing; a mix is aligned by
    boxing the array partitions first.  Raises
    :class:`AggregationError` when a non-mergeable aggregate's group
    spans two partitions.
    """
    aggregate = get_aggregate(function)
    partitions = list(state_maps)
    if partitions and all(isinstance(states, ArrayGroupStates) for states in partitions):
        return reduce(ArrayGroupStates.merge, partitions)
    merged: Dict[Tuple, object] = {}
    for states in partitions:
        if isinstance(states, ArrayGroupStates):
            states = states.to_dict()
        for key, state in states.items():
            existing = merged.get(key)
            if existing is None:
                merged[key] = state
            elif existing is POISONED_GROUP or state is POISONED_GROUP:
                merged[key] = POISONED_GROUP
            else:
                merged[key] = aggregate.merge(existing, state)
    return merged


def finalize_group_states(
    states,
    function,
    decode: Optional[Callable[[object], object]] = None,
) -> List[Row]:
    """Turn (merged) γ states into ``key + (aggregated value,)`` rows.

    ``states`` is a dict state map or an
    :class:`~repro.algebra.columnar.ArrayGroupStates`.  ``decode`` (id →
    term) is forwarded to raw-state aggregates (count_distinct) whose
    members are still encoded; pass the shared dictionary's decoder when
    the measure column was id-encoded.  Poisoned groups (undefined in some
    partition) are dropped.
    """
    if isinstance(states, ArrayGroupStates):
        states = states.to_dict()
    aggregate = get_aggregate(function)
    return [
        key + (aggregate.finalize(state, decode),)
        for key, state in states.items()
        if state is not POISONED_GROUP
    ]


def aggregate_column(relation: Relation, measure: str, function) -> object:
    """Aggregate a whole column (no grouping); raises on an empty relation."""
    aggregate = get_aggregate(function)
    decoder = relation.column_decoder(measure)
    values = [value for value in relation.column_values(measure) if value is not None]
    if decoder is not None:
        values = [decoder(value) for value in values]
    return aggregate(values)
