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

Like every other ``pres → pres`` derivation it is closed over the storage
it is given: σ, the substitution (:meth:`Relation.map_column
<repro.algebra.relation.Relation.map_column>`) and δ are relation-protocol
methods, so a columnar ``pres`` is rolled on its arrays and an id-space one
on its ids.  ``hierarchy.parent()`` sees decoded values, once per distinct
child; a parent that is no term of the graph travels under a derived id
(:meth:`TermDictionary.encode_derived
<repro.rdf.dictionary.TermDictionary.encode_derived>`).  Shared by the
from-scratch evaluator and the OLAP rewriter's ``roll-up/pres`` route, from
the origin or any cached finer lattice level.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.algebra.operators import dedup, select
from repro.analytics.answer import PartialResult
from repro.errors import RewritingError

if TYPE_CHECKING:  # pragma: no cover
    from repro.analytics.query import AnalyticalQuery

__all__ = ["roll_partial"]


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
    relation = select(partial.storage, stages[start].sigma_before.predicate())
    for index in range(start, len(stages)):
        stage = stages[index]
        relation = relation.map_column(stage.dimension, stage.hierarchy.parent)
        sigma_after = stages[index + 1].sigma_before if index + 1 < len(stages) else query.sigma
        relation = select(relation, sigma_after.predicate())
    return partial.with_storage(dedup(relation))
