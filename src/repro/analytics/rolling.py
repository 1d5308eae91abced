"""Rolling a partial result through a query's ROLL-UP stage stack.

A rolled-up :class:`~repro.analytics.query.AnalyticalQuery` carries a stack
of :class:`~repro.analytics.query.RollStage` objects (see that module).  Its
``pres`` is defined from the base query's ``pres`` by the generalized
Algorithm-1 pipeline:

1. σ-select with the stage's ``sigma_before`` (the Σ at the finer level);
2. replace the rolled dimension's values by their hierarchy parents;
3. σ-select with the Σ in effect *after* the roll (the next stage's
   ``sigma_before``, or the query's own Σ after the last stage);
4. after the last stage, δ-deduplicate once — a fact whose several child
   values collapse to one parent must contribute each measure key once per
   parent, not once per child.  (Deduplicating between stages is equivalent:
   value substitution commutes with duplicate elimination.)

The helpers here operate on decoded relations and are shared by the
from-scratch evaluator, the OLAP rewriter and the planner's
``rollup-from-cached`` candidate.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.algebra.operators import dedup, select
from repro.algebra.relation import Relation
from repro.analytics.answer import PartialResult
from repro.errors import RewritingError

if TYPE_CHECKING:  # pragma: no cover
    from repro.analytics.query import AnalyticalQuery

__all__ = ["rolled_dimension_relation", "roll_partial"]


def rolled_dimension_relation(relation: Relation, dimension: str, hierarchy) -> Relation:
    """Replace one column's values by their hierarchy parents."""
    index = relation.column_index(dimension)

    def roll(row):
        return row[:index] + (hierarchy.parent(row[index]),) + row[index + 1 :]

    return relation.map_rows(roll)


def roll_partial(partial: PartialResult, query: "AnalyticalQuery", start: int = 0) -> PartialResult:
    """Map a finer ``pres`` at lattice level ``start`` to ``pres(query)``.

    ``partial`` must be the partial result of ``query.rollup_prefix(start)``
    — or of any query whose Σ *subsumes* that prefix's Σ (the junction
    σ-selection strengthens it to exactly the prefix's Σ).  The result has
    the standard ``(x, d₁..dₙ, k, v)`` layout and is a valid ``pres(query)``.
    """
    stages = query.rollup
    if not 0 <= start < len(stages):
        raise RewritingError(
            f"rollup start level {start} out of range 0..{len(stages) - 1} "
            f"for query {query.name!r}"
        )
    relation = select(partial.relation, stages[start].sigma_before.predicate())
    for index in range(start, len(stages)):
        stage = stages[index]
        relation = rolled_dimension_relation(relation, stage.dimension, stage.hierarchy)
        sigma_after = stages[index + 1].sigma_before if index + 1 < len(stages) else query.sigma
        relation = select(relation, sigma_after.predicate())
    return partial.with_storage(dedup(relation))
