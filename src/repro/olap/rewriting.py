"""View-based rewriting of OLAP operations (the paper's core contribution).

Given a query ``Q`` whose results have been materialized (its answer
``ans(Q)`` and/or its partial result ``pres(Q)``), and an OLAP
transformation ``T`` with ``Q_T = T(Q)``, this module computes
``ans(Q_T)`` *without re-evaluating the classifier and measure over the AnS
instance* — except for the small auxiliary query needed by DRILL-IN.

Implemented algorithms:

* :func:`slice_dice_from_answer` — Proposition 1: σ_dice over ``ans(Q)``;
* :func:`drill_out_from_partial` — Algorithm 1: project ``pres(Q)``,
  deduplicate (δ), re-aggregate (γ);
* :func:`drill_in_from_partial` — Algorithm 2: join ``pres(Q)`` with the
  auxiliary query's answer over the instance, then aggregate;
* :func:`drill_out_from_answer_naive` — the *incorrect* relational-style
  re-aggregation of ``ans(Q)`` discussed in Example 5, kept for the
  benchmark that demonstrates why ``pres(Q)`` is needed.

:class:`OLAPRewriter` packages these together with strategy selection.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.errors import InvalidOperationError, MaterializationError, RewritingError
from repro.algebra.aggregates import AggregateFunction
from repro.algebra.grouping import group_aggregate
from repro.algebra.operators import dedup, join_on, project, select
from repro.algebra.relation import IdRelation, Relation
from repro.bgp.evaluator import BGPEvaluator
from repro.analytics.answer import CubeAnswer, MaterializedQueryResults, PartialResult
from repro.analytics.query import AnalyticalQuery
from repro.analytics.rolling import roll_partial
from repro.olap.auxiliary import auxiliary_join_columns, build_auxiliary_query
from repro.olap.operations import Dice, DrillDown, DrillIn, DrillOut, OLAPOperation, RollUp, Slice

__all__ = [
    "slice_dice_from_answer",
    "drill_out_from_partial",
    "drill_in_from_partial",
    "drill_out_from_answer_naive",
    "answer_from_rolled_partial",
    "transform_partial",
    "OLAPRewriter",
    "RewriteOption",
    "RewritingResult",
]


# ---------------------------------------------------------------------------
# Proposition 1: SLICE / DICE by selection over ans(Q)
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
# Algorithm 1: DRILL-OUT from pres(Q)
# ---------------------------------------------------------------------------


def drill_out_from_partial(
    partial: PartialResult,
    query: AnalyticalQuery,
    transformed_query: AnalyticalQuery,
) -> CubeAnswer:
    """Algorithm 1: answer ``Q_DRILL-OUT`` from ``pres(Q)``.

    Steps (lines of Algorithm 1):

    2. ``T ← Π_{root, d₁..d_{i-1}, d_{i+1}..dₙ, k, v}(pres(Q))``
    3. ``T ← δ(T)`` — the deduplication is what prevents facts that are
       multi-valued along the removed dimension(s) from being counted
       several times;
    4. ``T ← γ_{remaining dims, ⊕(v)}(T)``.

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
    _require_removed_dimensions_unrestricted(query, transformed_query)
    kept_columns = (
        partial.fact_column,
        *remaining,
        partial.key_column,
        partial.measure_column,
    )
    table = project(partial.storage, kept_columns)
    table = dedup(table)
    aggregated = group_aggregate(
        table,
        by=remaining,
        measure=partial.measure_column,
        function=transformed_query.aggregate,
        output_column=partial.measure_column,
    )
    return CubeAnswer(aggregated, tuple(remaining), partial.measure_column)


def _require_removed_dimensions_unrestricted(
    query: AnalyticalQuery, transformed_query: AnalyticalQuery
) -> None:
    """Refuse pres(Q)-based DRILL-OUT when a removed dimension carried a Σ restriction."""
    remaining = set(transformed_query.dimension_names)
    restricted = [
        name
        for name in query.sigma.restricted_dimensions()
        if name not in remaining
    ]
    if restricted:
        raise RewritingError(
            f"DRILL-OUT removes dimensions {restricted} whose Σ restricts the values; "
            f"pres({query.name}) lacks the facts the restriction excluded, so the "
            f"transformed query must be evaluated from scratch"
        )


# ---------------------------------------------------------------------------
# Algorithm 2: DRILL-IN from pres(Q) + the instance
# ---------------------------------------------------------------------------


def drill_in_from_partial(
    partial: PartialResult,
    query: AnalyticalQuery,
    transformed_query: AnalyticalQuery,
    instance_evaluator: BGPEvaluator,
) -> CubeAnswer:
    """Algorithm 2: answer ``Q_DRILL-IN`` from ``pres(Q)`` and the instance.

    Steps (lines of Algorithm 2):

    2. build the auxiliary query ``q_aux(dvars, d_{n+1})`` (Definition 6);
    3. ``T ← pres(Q) ⋈_{dvars} q_aux(I)`` — the instance is consulted only
       through ``q_aux``, which touches a small part of it;
    4. ``T ← γ_{d₁..dₙ, d_{n+1}, ⊕(v)}(T)``.
    """
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
    auxiliary_answer = _auxiliary_answer(partial, instance_evaluator, auxiliary)

    joined = join_on(
        partial.storage,
        auxiliary_answer,
        [(column, column) for column in join_columns],
    )
    output_dimensions = tuple(transformed_query.dimension_names)
    aggregated = group_aggregate(
        joined,
        by=output_dimensions,
        measure=partial.measure_column,
        function=transformed_query.aggregate,
        output_column=partial.measure_column,
    )
    return CubeAnswer(aggregated, output_dimensions, partial.measure_column)


def _auxiliary_answer(partial: PartialResult, instance_evaluator: BGPEvaluator, auxiliary):
    """Evaluate ``q_aux`` in the same value space as the materialized pres(Q).

    An engine-built pres(Q) is encoded against the instance dictionary, so
    the auxiliary answer can stay encoded too and the join keys on integer
    ids; a pres(Q) restored from disk (decoded) gets a decoded auxiliary
    answer.
    """
    storage = partial.storage
    if (
        isinstance(storage, IdRelation)
        and storage.dictionary is instance_evaluator.graph.dictionary
    ):
        return instance_evaluator.evaluate_ids(auxiliary, semantics="set")
    return instance_evaluator.evaluate(auxiliary, semantics="set")


# ---------------------------------------------------------------------------
# ROLL-UP from pres(Q): the generalized Algorithm-1 pipeline
# ---------------------------------------------------------------------------


def answer_from_rolled_partial(
    partial: PartialResult, transformed_query: AnalyticalQuery
) -> CubeAnswer:
    """γ-aggregate an already-rolled ``pres(Q_T)`` into ``ans(Q_T)``.

    The partial must already be at the transformed query's granularity and
    δ-deduplicated (see :func:`repro.analytics.rolling.roll_partial`).
    """
    aggregated = group_aggregate(
        partial.storage,
        by=partial.dimension_columns,
        measure=partial.measure_column,
        function=transformed_query.aggregate,
        output_column=partial.measure_column,
    )
    return CubeAnswer(aggregated, partial.dimension_columns, partial.measure_column)


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
    per value.  It is provided only so benchmarks/tests can quantify that
    error; :func:`drill_out_from_partial` is the correct algorithm.
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
# Rewriting the partial result itself (enables chains of OLAP operations)
# ---------------------------------------------------------------------------


def transform_partial(
    partial: PartialResult,
    query: AnalyticalQuery,
    transformed_query: AnalyticalQuery,
    operation: OLAPOperation,
    instance_evaluator: Optional[BGPEvaluator] = None,
) -> PartialResult:
    """Derive ``pres(Q_T)`` from ``pres(Q)`` for an OLAP transformation T.

    The paper's algorithms produce ``ans(Q_T)``; the tables they build along
    the way are (up to the key column's concrete values) exactly
    ``pres(Q_T)``, so materializing them lets OLAP *chains* — slice, then
    drill-out, then dice, ... — stay on the rewriting path throughout:

    * SLICE / DICE: the Σ′ row selection applied to ``pres(Q)``;
    * DRILL-OUT: the projected and deduplicated table T of Algorithm 1
      (before the final aggregation);
    * DRILL-IN: the join of ``pres(Q)`` with the auxiliary query's answer
      (Algorithm 2's T before aggregation), which needs the instance.
    """
    if isinstance(operation, (Slice, Dice)):
        selected = select(partial.storage, transformed_query.sigma.predicate())
        return PartialResult(
            selected,
            fact_column=partial.fact_column,
            dimension_columns=partial.dimension_columns,
            key_column=partial.key_column,
            measure_column=partial.measure_column,
        )
    if isinstance(operation, DrillOut):
        _require_removed_dimensions_unrestricted(query, transformed_query)
        remaining = tuple(transformed_query.dimension_names)
        kept = (partial.fact_column, *remaining, partial.key_column, partial.measure_column)
        table = dedup(project(partial.storage, kept))
        return PartialResult(
            table,
            fact_column=partial.fact_column,
            dimension_columns=remaining,
            key_column=partial.key_column,
            measure_column=partial.measure_column,
        )
    if isinstance(operation, DrillIn):
        if instance_evaluator is None:
            raise RewritingError(
                "deriving pres(Q_DRILL-IN) needs access to the AnS instance for the auxiliary query"
            )
        original_dimensions = set(query.dimension_names)
        new_dimensions = [
            name for name in transformed_query.dimension_names if name not in original_dimensions
        ]
        auxiliary = build_auxiliary_query(query.classifier, new_dimensions)
        join_columns = auxiliary_join_columns(query.classifier, auxiliary)
        auxiliary_answer = _auxiliary_answer(partial, instance_evaluator, auxiliary)
        joined = join_on(
            partial.storage, auxiliary_answer, [(column, column) for column in join_columns]
        )
        layout = (
            partial.fact_column,
            *transformed_query.dimension_names,
            partial.key_column,
            partial.measure_column,
        )
        return PartialResult(
            joined.reorder(layout),
            fact_column=partial.fact_column,
            dimension_columns=tuple(transformed_query.dimension_names),
            key_column=partial.key_column,
            measure_column=partial.measure_column,
        )
    if isinstance(operation, RollUp):
        return roll_partial(partial, transformed_query, start=len(query.rollup))
    raise InvalidOperationError(
        f"no partial-result rewriting is defined for operation {type(operation).__name__}"
    )


# ---------------------------------------------------------------------------
# Strategy selection
# ---------------------------------------------------------------------------


class RewriteOption:
    """One applicable rewriting, reported to the planner.

    Instead of callers hand-picking an algorithm per operation, the
    rewriter *reports* what it can do with the materialized inputs at hand:
    which strategy, which input it consumes and how big that input is, a
    crude estimate of the output size, and whether the instance must be
    consulted (DRILL-IN's auxiliary query).  The planner turns each option
    into a costed plan candidate.
    """

    __slots__ = ("strategy", "input_kind", "input_rows", "estimated_output_rows", "needs_instance")

    def __init__(
        self,
        strategy: str,
        input_kind: str,
        input_rows: int,
        estimated_output_rows: float,
        needs_instance: bool = False,
    ):
        self.strategy = strategy
        #: ``"answer"`` or ``"partial"`` — which materialized input is read.
        self.input_kind = input_kind
        self.input_rows = input_rows
        self.estimated_output_rows = estimated_output_rows
        self.needs_instance = needs_instance

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"RewriteOption({self.strategy}, {self.input_kind}: {self.input_rows} rows "
            f"-> ~{self.estimated_output_rows:.0f})"
        )


def _sigma_selectivity(transformed_query: AnalyticalQuery) -> float:
    """Heuristic fraction of rows kept by the transformed query's σ_dice.

    Value-set restrictions keep roughly ``min(1, |S| / 10)`` of the rows
    (dimension domains in the workloads have tens of values); range and
    predicate restrictions keep half.  Per-dimension fractions multiply
    (independence).  Only used for ranking, never for correctness.
    """
    selectivity = 1.0
    sigma = transformed_query.sigma
    for dimension in sigma.restricted_dimensions():
        restriction = sigma[dimension]
        if restriction.values is not None:
            selectivity *= min(1.0, len(restriction.values) / 10.0)
        else:
            selectivity *= 0.5
    return max(selectivity, 0.001)


class RewritingResult:
    """Outcome of answering a transformed query through rewriting."""

    def __init__(
        self,
        answer: CubeAnswer,
        strategy: str,
        used_answer: bool,
        used_partial: bool,
        used_instance: bool,
        partial: Optional[PartialResult] = None,
    ):
        self.answer = answer
        self.strategy = strategy
        self.used_answer = used_answer
        self.used_partial = used_partial
        self.used_instance = used_instance
        #: ``pres(Q_T)`` derived from ``pres(Q)`` when requested (see
        #: :meth:`OLAPRewriter.answer`'s ``materialize_partial``).
        self.partial = partial

    def __repr__(self) -> str:  # pragma: no cover
        return f"RewritingResult({self.strategy}, {len(self.answer)} cells)"


class OLAPRewriter:
    """Answers transformed queries from materialized results of the original.

    Parameters
    ----------
    instance_evaluator:
        BGP evaluator over the AnS instance, needed by DRILL-IN's auxiliary
        query (and only by it).
    """

    def __init__(self, instance_evaluator: Optional[BGPEvaluator] = None):
        self._instance_evaluator = instance_evaluator

    def options(
        self,
        materialized: MaterializedQueryResults,
        operation: OLAPOperation,
        transformed_query: Optional[AnalyticalQuery] = None,
    ) -> Tuple[RewriteOption, ...]:
        """The rewritings applicable to ``T(Q)`` given what is materialized.

        Returns an empty tuple when the required input (``ans(Q)`` for
        SLICE/DICE, ``pres(Q)`` for the drills, plus an instance evaluator
        for DRILL-IN) is missing — the planner then knows reuse is off the
        table and falls back to from-scratch evaluation.
        """
        if transformed_query is None:
            transformed_query = operation.apply(materialized.query)
        if isinstance(operation, (Slice, Dice)):
            if not materialized.has_answer():
                return ()
            rows = len(materialized.answer)
            return (
                RewriteOption(
                    "slice-dice/ans",
                    "answer",
                    rows,
                    rows * _sigma_selectivity(transformed_query),
                ),
            )
        if isinstance(operation, DrillOut):
            if not materialized.has_partial():
                return ()
            try:
                _require_removed_dimensions_unrestricted(materialized.query, transformed_query)
            except RewritingError:
                return ()
            rows = len(materialized.partial)
            # Dropping dimensions merges groups: the output is at most the
            # current answer size, estimated as half of it.
            cells = len(materialized.answer) if materialized.has_answer() else rows
            return (RewriteOption("drill-out/pres", "partial", rows, max(cells / 2.0, 1.0)),)
        if isinstance(operation, DrillIn):
            if not materialized.has_partial() or self._instance_evaluator is None:
                return ()
            rows = len(materialized.partial)
            # The auxiliary join can only refine groups; output grows with
            # the new dimension's fan-out, estimated at 2x the current cells.
            cells = len(materialized.answer) if materialized.has_answer() else rows
            return (
                RewriteOption(
                    "drill-in/pres+aux", "partial", rows, cells * 2.0, needs_instance=True
                ),
            )
        if isinstance(operation, RollUp):
            if not materialized.has_partial():
                return ()
            rows = len(materialized.partial)
            return (
                RewriteOption(
                    "roll-up/pres",
                    "partial",
                    rows,
                    rows * _sigma_selectivity(transformed_query),
                ),
            )
        # DRILL-DOWN restores a finer granularity that pres(Q) no longer
        # carries; the planner must answer it from the cache lattice or from
        # scratch, never from the coarser origin.
        return ()

    def answer(
        self,
        materialized: MaterializedQueryResults,
        operation: OLAPOperation,
        transformed_query: Optional[AnalyticalQuery] = None,
        materialize_partial: bool = False,
    ) -> RewritingResult:
        """Answer ``T(Q)`` using the materialized results of ``Q``.

        ``transformed_query`` may be supplied when the caller has already
        built it (e.g. the OLAP session); otherwise it is derived by
        applying ``operation`` to the materialized query.

        With ``materialize_partial=True`` the result also carries
        ``pres(Q_T)`` (derived from ``pres(Q)`` when it is available), so the
        transformed query can itself be the input of further rewritten OLAP
        operations.
        """
        query = materialized.query
        if transformed_query is None:
            transformed_query = operation.apply(query)

        if isinstance(operation, (Slice, Dice)):
            if not materialized.has_answer():
                raise MaterializationError(
                    f"SLICE/DICE rewriting needs ans({query.name}) to be materialized"
                )
            answer = slice_dice_from_answer(materialized.answer, transformed_query)
            result = RewritingResult(answer, "slice-dice/ans", True, False, False)
        elif isinstance(operation, DrillOut):
            if not materialized.has_partial():
                raise MaterializationError(
                    f"DRILL-OUT rewriting needs pres({query.name}) to be materialized"
                )
            answer = drill_out_from_partial(materialized.partial, query, transformed_query)
            result = RewritingResult(answer, "drill-out/pres", False, True, False)
        elif isinstance(operation, DrillIn):
            if not materialized.has_partial():
                raise MaterializationError(
                    f"DRILL-IN rewriting needs pres({query.name}) to be materialized"
                )
            if self._instance_evaluator is None:
                raise RewritingError(
                    "DRILL-IN rewriting needs access to the AnS instance for the auxiliary query"
                )
            answer = drill_in_from_partial(
                materialized.partial, query, transformed_query, self._instance_evaluator
            )
            result = RewritingResult(answer, "drill-in/pres+aux", False, True, True)
        elif isinstance(operation, RollUp):
            if not materialized.has_partial():
                raise MaterializationError(
                    f"ROLL-UP rewriting needs pres({query.name}) to be materialized"
                )
            rolled = roll_partial(
                materialized.partial, transformed_query, start=len(query.rollup)
            )
            answer = answer_from_rolled_partial(rolled, transformed_query)
            result = RewritingResult(answer, "roll-up/pres", False, True, False)
            if materialize_partial:
                result.partial = rolled
        else:
            raise InvalidOperationError(
                f"no rewriting is defined for operation {type(operation).__name__}"
            )

        if materialize_partial and materialized.has_partial() and result.partial is None:
            result.partial = transform_partial(
                materialized.partial,
                query,
                transformed_query,
                operation,
                self._instance_evaluator,
            )
        return result
