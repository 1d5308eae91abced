"""View-based rewriting of OLAP operations (the paper's core contribution).

Given a query ``Q`` whose results have been materialized (its answer
``ans(Q)`` and its partial result ``pres(Q)``), and an OLAP transformation
``T`` with ``Q_T = T(Q)``, this module computes ``ans(Q_T)`` *without
re-evaluating the classifier and measure over the AnS instance* — except for
the small auxiliary query needed by DRILL-IN.

The paper's Algorithms 1 and 2 have one shape: build a table ``T`` from
``pres(Q)``, then apply Equation (3)'s γ.  ``T`` *is* ``pres(Q_T)`` up to the
key column's concrete values, so each operation is written here exactly
once, as the derivation of ``pres(Q_T)`` from ``pres(Q)``:

* :func:`select_partial` — SLICE / DICE: ``σ_Σ′(pres(Q))``, run on first read;
* :func:`drill_out_partial` — Algorithm 1, lines 2–3: project, then δ;
* :func:`drill_in_partial` — Algorithm 2, lines 2–3: ``pres(Q) ⋈ q_aux(I)``;
* :func:`repro.analytics.rolling.roll_partial` — ROLL-UP: substitute
  hierarchy parents, then δ (the generalized Algorithm 1), once per stage
  between ``Q``'s lattice level and ``Q_T``'s;

and ``ans(Q_T)`` is Equation (3) over that table, through the same γ
from-scratch evaluation uses
(:meth:`~repro.analytics.evaluator.AnalyticalQueryEvaluator.answer_from_partial`).
Materializing the derived table is what lets OLAP *chains* — slice, then
drill-out, then dice, ... — stay on the rewriting path throughout.

One shortcut: :func:`slice_dice_from_answer` — Proposition 1, σ over
``ans(Q)`` — answers SLICE/DICE reading ``|ans|`` rather than ``|pres|`` rows.

:func:`drill_out_from_answer_naive` is the *incorrect* relational-style
re-aggregation of ``ans(Q)`` discussed in Example 5, kept for the tests and
the ``examples/olap_dashboard_session.py`` demo that show why ``pres(Q)`` is
needed.

:func:`reuse_route` is the one reuse rule: it names the rewriting that
answers ``Q_T`` from the results of a query ``Q`` — the origin of the
operation, or any cached query at ``Q_T``'s lattice level or a finer one —
by how ``Q`` relates to ``Q_T``, not by which operation produced ``Q_T``.
:class:`OLAPRewriter` runs the named rewriting from one derivation table.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from repro.errors import InvalidOperationError, RewritingError
from repro.algebra.aggregates import AggregateFunction
from repro.algebra.grouping import group_aggregate
from repro.algebra.operators import dedup, join_on, project, select
from repro.bgp.evaluator import BGPEvaluator
from repro.analytics.answer import CubeAnswer, MaterializedQueryResults, PartialResult
from repro.analytics.evaluator import AnalyticalQueryEvaluator
from repro.analytics.query import AnalyticalQuery
from repro.analytics.rolling import roll_partial
from repro.olap.auxiliary import auxiliary_join_columns, build_auxiliary_query
from repro.olap.operations import DrillIn, DrillOut, OLAPOperation

__all__ = [
    "slice_dice_from_answer",
    "select_partial",
    "drill_out_partial",
    "drill_in_partial",
    "drill_out_from_partial",
    "drill_in_from_partial",
    "answer_from_rolled_partial",
    "drill_out_from_answer_naive",
    "reuse_route",
    "OLAPRewriter",
    "RewritingResult",
]


# ---------------------------------------------------------------------------
# Proposition 1: SLICE / DICE by selection over ans(Q) — the one shortcut
# ---------------------------------------------------------------------------


def slice_dice_from_answer(answer: CubeAnswer, transformed_query: AnalyticalQuery) -> CubeAnswer:
    """σ_dice(ans(Q)) = ans(Q_DICE) (Definition 5 / Proposition 1).

    ``transformed_query`` carries the Σ′ of the SLICE/DICE; the selection
    keeps the answer rows whose dimension values all belong to their Σ′
    sets.  It runs on the answer's native value space — on an encoded
    ``ans(Q)`` the Σ tests operate on term ids without decoding.
    """
    sigma = transformed_query.sigma
    selected = select(answer.storage, sigma.predicate())
    return CubeAnswer(selected, answer.dimension_columns, answer.measure_column)


# ---------------------------------------------------------------------------
# pres(Q) → pres(Q_T): one derivation per operation
# ---------------------------------------------------------------------------


def select_partial(partial: PartialResult, transformed_query: AnalyticalQuery) -> PartialResult:
    """SLICE / DICE: ``pres(Q_T) = σ_Σ′(pres(Q))``, the Σ′ row selection,
    deferred to the first read of its ``storage`` (Proposition 1 answers
    from ``ans(Q)``: only a step navigating on from ``Q_T`` pays for it)."""
    return partial.selected(transformed_query.sigma.predicate())


def drill_out_partial(
    partial: PartialResult,
    query: AnalyticalQuery,
    transformed_query: AnalyticalQuery,
) -> PartialResult:
    """Algorithm 1, lines 2–3: the table ``T`` of DRILL-OUT, i.e. ``pres(Q_T)``.

    2. ``T ← Π_{root, d₁..d_{i-1}, d_{i+1}..dₙ, k, v}(pres(Q))``
    3. ``T ← δ(T)`` — the deduplication is what prevents facts that are
       multi-valued along the removed dimension(s) from being counted
       several times.

    Applicability: the removed dimensions must be **unrestricted** in Q's Σ.
    DRILL-OUT drops the removed dimension's Σ entry from the transformed
    query, so ``ans(Q_T)`` re-admits facts the restriction excluded — facts
    that ``pres(Q)`` (computed under Σ) no longer contains.  Rewriting from
    this pres would silently produce the *navigation-filtered* cube instead
    of ``ans(Q_T)``, so it refuses.
    """
    remaining = transformed_query.dimension_names
    unknown = [name for name in remaining if name not in partial.dimension_columns]
    if unknown:
        raise RewritingError(
            f"the materialized pres({query.name}) does not contain dimensions {unknown}"
        )
    restricted = _removed_restricted_dimensions(query, transformed_query)
    if restricted:
        raise RewritingError(
            f"DRILL-OUT removes dimensions {restricted} whose Σ restricts the values; "
            f"pres({query.name}) lacks the facts the restriction excluded, so the "
            f"transformed query must be evaluated from scratch"
        )
    kept = (partial.fact_column, *remaining, partial.key_column, partial.measure_column)
    return partial.with_storage(dedup(project(partial.storage, kept)))


def _removed_restricted_dimensions(
    query: AnalyticalQuery, transformed_query: AnalyticalQuery
) -> list:
    """The Σ-restricted dimensions of ``Q`` that ``Q_T`` no longer has.

    Empty for every operation that keeps Q's dimensions; non-empty means
    ``pres(Q)`` cannot answer ``Q_T`` (see :func:`drill_out_partial`).
    """
    remaining = set(transformed_query.dimension_names)
    return [name for name in query.sigma.restricted_dimensions() if name not in remaining]


def drill_in_partial(
    partial: PartialResult,
    query: AnalyticalQuery,
    transformed_query: AnalyticalQuery,
    instance_evaluator: Optional[BGPEvaluator],
) -> PartialResult:
    """Algorithm 2, lines 2–3: the table ``T`` of DRILL-IN, i.e. ``pres(Q_T)``.

    2. build the auxiliary query ``q_aux(dvars, d_{n+1})`` (Definition 6);
    3. ``T ← pres(Q) ⋈_{dvars} q_aux(I)`` — the instance is consulted only
       through ``q_aux``, which touches a small part of it.
    """
    if instance_evaluator is None:
        raise RewritingError(
            "DRILL-IN rewriting needs access to the AnS instance for the auxiliary query"
        )
    original_dimensions = set(query.dimension_names)
    new_dimensions = [
        name for name in transformed_query.dimension_names if name not in original_dimensions
    ]
    if not new_dimensions:
        raise RewritingError(
            "the transformed query adds no new dimension; nothing to drill in"
        )
    auxiliary = build_auxiliary_query(query.classifier, new_dimensions)
    join_columns = auxiliary_join_columns(query.classifier, auxiliary)
    joined = join_on(
        partial.storage,
        instance_evaluator.evaluate_ids(auxiliary, semantics="set"),
        [(column, column) for column in join_columns],
    )
    layout = (
        partial.fact_column,
        *transformed_query.dimension_names,
        partial.key_column,
        partial.measure_column,
    )
    return partial.with_storage(joined.reorder(layout))


# ---------------------------------------------------------------------------
# ans(Q_T) = Equation (3) over the derived table
# ---------------------------------------------------------------------------


def answer_from_rolled_partial(
    partial: PartialResult, transformed_query: AnalyticalQuery
) -> CubeAnswer:
    """Equation (3) over a derived ``pres(Q_T)``: the last line of every rewriting.

    ``partial`` must already be ``pres(Q_T)`` — at the transformed query's
    granularity and δ-deduplicated (what :func:`drill_out_partial`,
    :func:`drill_in_partial` and :func:`repro.analytics.rolling.roll_partial`
    return).  This is the γ from-scratch evaluation runs; it reads only the
    table, never an instance, so it is called on the evaluator class.
    """
    return AnalyticalQueryEvaluator.answer_from_partial(None, transformed_query, partial)


def drill_out_from_partial(
    partial: PartialResult,
    query: AnalyticalQuery,
    transformed_query: AnalyticalQuery,
) -> CubeAnswer:
    """Algorithm 1: answer ``Q_DRILL-OUT`` from ``pres(Q)`` (:func:`drill_out_partial`, then γ)."""
    table = drill_out_partial(partial, query, transformed_query)
    return answer_from_rolled_partial(table, transformed_query)


def drill_in_from_partial(
    partial: PartialResult,
    query: AnalyticalQuery,
    transformed_query: AnalyticalQuery,
    instance_evaluator: BGPEvaluator,
) -> CubeAnswer:
    """Algorithm 2: answer ``Q_DRILL-IN`` from ``pres(Q)`` and the instance
    (:func:`drill_in_partial`, then γ)."""
    table = drill_in_partial(partial, query, transformed_query, instance_evaluator)
    return answer_from_rolled_partial(table, transformed_query)


# ---------------------------------------------------------------------------
# The naive (incorrect in general) drill-out over ans(Q) — Example 5
# ---------------------------------------------------------------------------


def drill_out_from_answer_naive(
    answer: CubeAnswer,
    transformed_query: AnalyticalQuery,
) -> CubeAnswer:
    """Re-aggregate ``ans(Q)`` directly, the relational-DW way.

    This is what a classical OLAP engine would do for a distributive ⊕: drop
    the removed dimension columns and combine the already-aggregated
    values.  In the RDF setting it is **incorrect in general** (Example 5):
    facts that are multi-valued along a removed dimension are counted once
    per value.  It is provided only so the tests and the dashboard example
    can quantify that error; :func:`drill_out_from_partial` is the correct
    algorithm.
    """
    aggregate = transformed_query.aggregate
    if not aggregate.distributive:
        raise RewritingError(
            f"aggregate {aggregate.name!r} is not distributive; ans(Q)-based drill-out is impossible"
        )
    remaining = transformed_query.dimension_names
    projected = project(answer.storage, (*remaining, answer.measure_column))
    grouped = group_aggregate(
        projected,
        by=remaining,
        measure=answer.measure_column,
        function=_combiner(aggregate),
        output_column=answer.measure_column,
    )
    return CubeAnswer(grouped, tuple(remaining), answer.measure_column)


def _combiner(aggregate):
    """Wrap a distributive aggregate so γ combines partial aggregates."""
    return AggregateFunction(
        f"{aggregate.name}_combine", aggregate.combine, distributive=True, numeric_only=False
    )


# ---------------------------------------------------------------------------
# The reuse rule and the derivation table
# ---------------------------------------------------------------------------


#: The one place a rewriting is mapped to its derivation:
#: ``derive(pres(Q), Q, Q_T, instance_evaluator)`` returns ``pres(Q_T)``.
_DERIVATIONS = {
    "slice-dice/ans": lambda partial, query, target, _: select_partial(partial, target),
    "roll-up/pres": lambda partial, query, target, _: roll_partial(
        partial, target, start=len(query.rollup)
    ),
    "drill-out/pres": lambda partial, query, target, _: drill_out_partial(partial, query, target),
    "drill-in/pres+aux": drill_in_partial,
}

#: The rewritings between cubes of different dimensions, read off the operation.
_DRILLS = {DrillOut: "drill-out/pres", DrillIn: "drill-in/pres+aux"}


def reuse_route(
    query: AnalyticalQuery, transformed_query: AnalyticalQuery, operation: OLAPOperation
) -> Optional[str]:
    """The rewriting that answers ``Q_T`` from the materialized results of
    ``Q``, or None: the one reuse rule, for the origin and any cached entry.

    When ``Q`` shares ``Q_T``'s classifier, measure and aggregate (its core
    key), the rule reads their positions in the cube lattice: at the same
    level with a Σ subsuming ``Q_T``'s, ``slice-dice/ans`` (Proposition 1
    applied dimension-wise); at a finer level whose rollup stack is a prefix
    of ``Q_T``'s and whose Σ subsumes the Σ ``Q_T`` records at the junction,
    ``roll-up/pres`` through the remaining stages (a DRILL-DOWN target
    included).  Otherwise ``Q_T`` has other dimensions, and only DRILL-OUT
    and DRILL-IN of ``Q`` itself have a rewriting — DRILL-OUT none when it
    removes a Σ-restricted dimension (see :func:`drill_out_partial`).
    """
    if query.core_key == transformed_query.core_key:
        level, stages = len(query.rollup), transformed_query.rollup
        if query.rollup != stages[:level]:  # not at Q_T's level or a finer one
            return None
        if level == len(stages):
            return "slice-dice/ans" if query.sigma.subsumes(transformed_query.sigma) else None
        return "roll-up/pres" if query.sigma.subsumes(stages[level].sigma_before) else None
    if _removed_restricted_dimensions(query, transformed_query):
        return None
    return _DRILLS.get(type(operation))


class RewritingResult(NamedTuple):
    """Outcome of answering a transformed query through rewriting."""

    answer: CubeAnswer
    #: Names the rewriting, and with it the inputs read: ``slice-dice/ans``
    #: (``ans(Q)``), ``drill-out/pres`` / ``roll-up/pres`` (``pres(Q)``),
    #: ``drill-in/pres+aux`` (``pres(Q)`` and the instance).
    strategy: str
    #: The derived ``pres(Q_T)`` — the table the answer was aggregated from,
    #: or, for SLICE/DICE, the deferred σ over ``pres(Q)``.
    partial: PartialResult


class OLAPRewriter:
    """Answers transformed queries from materialized results (see :func:`reuse_route`).

    Parameters
    ----------
    instance_evaluator:
        BGP evaluator over the AnS instance, needed by DRILL-IN's auxiliary
        query (and only by it).
    """

    def __init__(self, instance_evaluator: Optional[BGPEvaluator] = None):
        self._instance_evaluator = instance_evaluator

    def answer(
        self,
        materialized: MaterializedQueryResults,
        operation: OLAPOperation,
        transformed_query: Optional[AnalyticalQuery] = None,
    ) -> RewritingResult:
        """Answer ``Q_T`` from the materialized results of a query ``Q`` by
        the rewriting :func:`reuse_route` names.

        ``Q`` is usually the query ``operation`` transforms, but may be any
        cached query the rule relates to ``Q_T`` (the planner passes each of
        its sources with the operation it plans).  ``transformed_query`` may
        be supplied when the caller has already built it; otherwise it is
        derived by applying ``operation`` to the materialized query.

        ``pres(Q_T)`` is derived once; the answer is Equation (3) over it and
        the result carries it, so the transformed query can itself be the
        input of further rewritten OLAP operations.  SLICE/DICE is the
        exception: its answer is Proposition 1's σ over ``ans(Q)``, and its
        ``pres(Q_T) = σ_Σ′(pres(Q))`` is carried deferred — the σ runs only
        if something reads it (:func:`select_partial`).
        """
        query = materialized.query
        if transformed_query is None:
            transformed_query = operation.apply(query)
        # A refused DRILL-OUT still runs its derivation, which says why it refuses.
        strategy = reuse_route(query, transformed_query, operation) or _DRILLS.get(type(operation))
        if strategy is None:
            raise InvalidOperationError(
                f"no rewriting answers {transformed_query.name!r} from the results of {query.name!r}"
            )
        partial = _DERIVATIONS[strategy](
            materialized.partial, query, transformed_query, self._instance_evaluator
        )
        if strategy == "slice-dice/ans":
            answer = slice_dice_from_answer(materialized.answer, transformed_query)
        else:
            answer = answer_from_rolled_partial(partial, transformed_query)
        return RewritingResult(answer, strategy, partial)
