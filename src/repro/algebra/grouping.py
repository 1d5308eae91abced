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
turns a state map into γ's output relation.  ``group_aggregate`` is the
one-partition case — it finalizes the states of the whole relation — so the
serial and the partitioned answer are the same code, not two loops kept in
step.  Group keys stay in the relation's value space (term ids group
exactly like terms — the encoding is bijective and shards share one
dictionary), so merging never decodes.  Array-form states finalize into a
columnar relation (``ans(Q)`` is columnar on the columnar engine).
"""

from __future__ import annotations

from functools import reduce
from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple

from repro.errors import UnknownColumnError
from repro.algebra.aggregates import POISONED_GROUP, AggregateFunction, get_aggregate
from repro.algebra.columnar import ArrayGroupStates
from repro.algebra.relation import IdRelation, Relation

__all__ = [
    "group_aggregate",
    "group_partial_states",
    "merge_group_states",
    "finalize_group_states",
    "POISONED_GROUP",
]


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
    states = relation.group_states(by, measure, aggregate)
    # Group keys stay in their input space (ids group exactly like terms:
    # the encoding is bijective); the aggregated column is always plain.
    encoded = [name for name in by if relation.column_decoder(name) is not None]
    dictionary = getattr(relation, "dictionary", None)
    value = dictionary.value if relation.column_decoder(measure) is not None else None
    return finalize_group_states(
        states, aggregate, (*by, output_column), dictionary, encoded, value
    )


def group_partial_states(
    relation: Relation,
    by: Sequence[str],
    measure: str,
    function,
):
    """One partition's γ: one aggregate state per group.

    ``None`` measures are filtered, encoded measure values are read as their
    dictionary's comparable values (never, for ``raw_states`` aggregates),
    and a group whose bag is undefined under ⊕ is held as
    :data:`POISONED_GROUP` so the omission survives a merge.  Columnar
    relations answer in array form
    (:class:`~repro.algebra.columnar.ArrayGroupStates`) when the aggregate
    and the bag have one; everything else — including a non-mergeable
    aggregate, whose "state" is its final value — is a dict keyed by group.
    """
    return relation.group_states(by, measure, get_aggregate(function))


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
    columns: Sequence[str],
    dictionary=None,
    encoded: Sequence[str] = (),
    value: Optional[Callable[[object], object]] = None,
) -> Relation:
    """γ's output over (merged) states: ``columns`` are the grouping columns
    (``encoded`` of them ids of ``dictionary``), then the aggregated one.

    Array states finalize in their arrays (they name the built-in that
    finalizes them), a dict state map into rows; ``value`` (id → comparable
    value, :meth:`~repro.rdf.dictionary.TermDictionary.value`, given when
    the measure column held ids of ``dictionary``) is forwarded to raw-state
    aggregates (count_distinct) whose members are still encoded.  Poisoned
    groups (undefined in some partition) are dropped.
    """
    columns = tuple(columns)
    if isinstance(states, ArrayGroupStates):
        return states.finalized(columns, dictionary, encoded, value)
    aggregate = get_aggregate(function)
    rows = [
        key + (aggregate.finalize(state, value),)
        for key, state in states.items()
        if state is not POISONED_GROUP
    ]
    if dictionary is None or not encoded:
        return Relation.adopt(columns, rows)
    return IdRelation.adopt_encoded(columns, rows, dictionary, encoded)
