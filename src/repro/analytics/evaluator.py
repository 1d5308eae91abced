"""From-scratch evaluation of analytical queries over an AnS instance.

This module implements the extended measure result ``mᵏ(I)`` and
Definition 4 (the partial result ``pres(Q, I)``), together with the
aggregation step of Equation (3), which answers Definition 1:

    ``ans(Q)(I) = γ_{d₁,...,dₙ,⊕(v)}(π_{x,d₁,...,dₙ,v}(pres(Q, I)))``

The literal Definitions 1 and 3 (per-fact measure bags, ``int(Q)``) are
test code (``tests/definitions.py``), the reference Equation (3) is held to.

The evaluator is the *baseline* against which the OLAP rewritings of
:mod:`repro.olap.rewriting` are compared: it always goes back to the AnS
instance, evaluating the classifier (set semantics, restricted by Σ) and the
measure (bag semantics) and joining them on the fact variable.

Execution model
---------------

The whole pipeline runs in **id space** (late materialization): the BGP
evaluator returns dictionary-encoded
:class:`~repro.algebra.relation.IdRelation` results, the Σ-selection tests
ids with memoized decoding, the fact-variable hash join keys on integers and
γ decodes only the measure bags it aggregates.  Materialized ``pres(Q)`` and
``ans(Q)`` stay encoded, so the OLAP rewritings never decode either; the
public accessors (``PartialResult.relation``, ``CubeAnswer.relation``)
decode lazily at the result boundary and a :class:`~repro.olap.cube.Cube`
decodes its answer once (``CubeAnswer.decoded_cells``).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.algebra.columnar import resolve_engine
from repro.algebra.grouping import group_aggregate, group_partial_states
from repro.algebra.operators import join_on, select
from repro.algebra.relation import Relation
from repro.rdf.graph import Graph, GraphShard
from repro.rdf.statistics import GraphStatistics
from repro.bgp.evaluator import BGPEvaluator
from repro.analytics.answer import CubeAnswer, KeyGenerator, MaterializedQueryResults, PartialResult
from repro.analytics.query import KEY_COLUMN, AnalyticalQuery
from repro.analytics.rolling import roll_partial

__all__ = ["AnalyticalQueryEvaluator"]


class AnalyticalQueryEvaluator:
    """Evaluates analytical queries against one materialized AnS instance.

    Parameters
    ----------
    instance:
        The AnS instance graph (see :func:`repro.analytics.instance.materialize_instance`).
    statistics:
        Optional pre-computed statistics of the instance (recomputed otherwise).
    engine:
        ``"rows"``, ``"columnar"`` or None/``"auto"`` — see
        :func:`repro.algebra.columnar.resolve_engine`.  ``auto`` picks the
        vectorized columnar engine when numpy (the ``[fast]`` extra) is
        installed, honouring a ``REPRO_ENGINE`` override.
    """

    #: Entailment mode marker the planner reads to name scratch evaluation
    #: (``"saturate"`` / None).  Evaluation itself is plain either way; the
    #: session sets ``"saturate"`` when the graph is its maintained ρdf
    #: closure.
    entailment: Optional[str] = None

    def __init__(
        self,
        instance: Graph,
        statistics: Optional[GraphStatistics] = None,
        engine: Optional[str] = None,
    ):
        self._instance = instance
        self._engine = resolve_engine(engine)
        self._bgp = BGPEvaluator(instance, statistics, engine=self._engine)

    @property
    def instance(self) -> Graph:
        return self._instance

    @property
    def bgp_evaluator(self) -> BGPEvaluator:
        return self._bgp

    @property
    def engine(self) -> str:
        """The resolved execution engine: ``"rows"`` or ``"columnar"``."""
        return self._engine

    # ------------------------------------------------------------------
    # engine-space building blocks (dictionary-encoded id relations)
    # ------------------------------------------------------------------

    def _bgp_result(self, query, semantics: str, seed=None, fact_range=None) -> Relation:
        return self._bgp.evaluate_ids(query, semantics=semantics, seed=seed, fact_range=fact_range)

    def _classifier_relation(self, query: AnalyticalQuery, fact_range=None, seed=None) -> Relation:
        relation = self._bgp_result(query.classifier, "set", seed=seed, fact_range=fact_range)
        if query.sigma.is_unrestricted():
            return relation
        return select(relation, query.sigma.predicate())

    def _measure_relation(self, query: AnalyticalQuery, fact_range=None, seed=None) -> Relation:
        return self._bgp_result(query.measure, "bag", seed=seed, fact_range=fact_range)

    def _extended_measure_relation(
        self,
        query: AnalyticalQuery,
        key_generator: Optional[KeyGenerator] = None,
        fact_range=None,
        seed=None,
    ) -> Relation:
        keys = key_generator or KeyGenerator()
        measure = self._measure_relation(query, fact_range=fact_range, seed=seed)
        # Consume len(measure) consecutive keys in one step; the measure's
        # storage prepends them (row tuples, or an arange column).
        return measure.prepend_keys(KEY_COLUMN, keys.take(len(measure)))

    # ------------------------------------------------------------------
    # pres / ans
    # ------------------------------------------------------------------

    def partial_result(
        self,
        query: AnalyticalQuery,
        key_generator: Optional[KeyGenerator] = None,
        fact_range=None,
        seed: Optional[Sequence[int]] = None,
    ) -> PartialResult:
        """``pres(Q, I) = c(I) ⋈ₓ mᵏ(I)`` (Definition 4).

        The returned partial result keeps its relation in the engine's
        value space (encoded ids); use
        :attr:`~repro.analytics.answer.PartialResult.relation` for the
        decoded view.  Keys come from ``key_generator``: one per measure
        embedding, repeated across the fact's classifier rows (Algorithm
        1's key-dedup semantics depend on this).

        ``fact_range`` restricts both sides to facts with term ids in the
        given ``(variable, lo, hi)`` interval — the building block of
        per-shard evaluation (see :meth:`shard_results`).  ``seed``
        restricts both sides to the facts with the given ids, by seeding the
        BGP solver with them — how a delta refresh
        (:mod:`repro.olap.maintenance`) re-derives its affected facts.

        Rolled-up queries evaluate their base (finest-granularity) query and
        map the result through the rollup stack (see
        :mod:`repro.analytics.rolling`), in the storage the base ``pres`` has.
        """
        if query.rollup:
            base_partial = self.partial_result(
                query.base_query(), key_generator=key_generator, fact_range=fact_range, seed=seed
            )
            return roll_partial(base_partial, query, start=0)
        fact = query.fact_variable.name
        facts = None if seed is None else {query.fact_variable: seed}
        classifier_relation = self._classifier_relation(query, fact_range=fact_range, seed=facts)
        keyed_measure = self._extended_measure_relation(
            query, key_generator, fact_range=fact_range, seed=facts
        )
        # Reorder mᵏ columns to (x, k, v) so the join drops the duplicate fact
        # column and the output layout is (x, d₁..dₙ, k, v).
        measure_column = query.measure_variable.name
        keyed_measure = keyed_measure.reorder((fact, KEY_COLUMN, measure_column))
        joined = join_on(classifier_relation, keyed_measure, [(fact, fact)])
        dimension_columns = query.dimension_names
        expected = (fact, *dimension_columns, KEY_COLUMN, measure_column)
        if tuple(joined.columns) != expected:
            joined = joined.reorder(expected)
        return PartialResult(
            joined,
            fact_column=fact,
            dimension_columns=dimension_columns,
            key_column=KEY_COLUMN,
            measure_column=measure_column,
        )

    def answer_from_partial(self, query: AnalyticalQuery, partial: PartialResult) -> CubeAnswer:
        """Equation (3): aggregate the partial result into ``ans(Q)``.

        The one γ of the library: scratch evaluation calls it on the
        ``pres(Q)`` it just built, every OLAP rewriting on the ``pres(Q_T)``
        it derived (:mod:`repro.olap.rewriting`).  It reads nothing but
        ``partial`` — γ addresses the dimension and measure columns by name,
        so Equation (3)'s π (dropping the key column) is left implicit.
        """
        aggregated = group_aggregate(
            partial.storage,
            by=partial.dimension_columns,
            measure=partial.measure_column,
            function=query.aggregate,
            output_column=partial.measure_column,
        )
        return CubeAnswer(aggregated, partial.dimension_columns, partial.measure_column)

    def answer(self, query: AnalyticalQuery) -> CubeAnswer:
        """``ans(Q, I)`` computed from scratch (Definition 1 via Equation (3))."""
        return self.answer_from_partial(query, self.partial_result(query))

    # ------------------------------------------------------------------
    # per-shard evaluation (partitioned execution support)
    # ------------------------------------------------------------------

    def partial_answer_states(
        self, query: AnalyticalQuery, partial: PartialResult
    ) -> Dict[Tuple, object]:
        """Mergeable γ states of ``ans(Q)`` from one (shard's) partial result.

        The per-shard half of Equation (3): the γ of
        :meth:`answer_from_partial` over the same relation, stopped before
        ``finalize`` at the aggregate state per dimension group.  States of
        disjoint fact shards merge into the exact serial answer (see
        :mod:`repro.algebra.grouping`).
        """
        return group_partial_states(
            partial.storage,
            by=partial.dimension_columns,
            measure=partial.measure_column,
            function=query.aggregate,
        )

    def shard_results(
        self, query: AnalyticalQuery, shard: GraphShard, key_base: int = 1
    ) -> Tuple[Relation, object]:
        """Evaluate one fact shard: (``pres(Q)``, γ states).

        The fact variable is range-restricted to the shard's id interval in
        both the classifier and the measure evaluation, so each fact's
        partial-result rows are produced by exactly one shard.  ``newk()``
        keys start at ``key_base`` — callers hand each shard a disjoint key
        range, preserving Algorithm 1's key-dedup semantics across the
        concatenated ``pres(Q)``.

        This is the payload a worker process ships back to the merge side:
        the ``pres(Q)`` relation cut loose from its dictionary (every process
        numbers terms alike, so the merge side re-binds it to its own) and
        the states of :meth:`partial_answer_states`.  On the columnar engine
        both are int64 arrays — the relation's columns, without its memo,
        and :class:`~repro.algebra.columnar.ArrayGroupStates`
        (``count_distinct``'s as ``(group…, id)`` pairs); on the row engine,
        id row tuples and a state dict keyed by dimension-id tuples.
        """
        fact_range = (query.fact_variable, shard.lo, shard.hi)
        partial = self.partial_result(
            query, key_generator=KeyGenerator(key_base), fact_range=fact_range
        )
        states = self.partial_answer_states(query, partial)
        return partial.storage.with_dictionary(None), states

    def evaluate(self, query: AnalyticalQuery) -> MaterializedQueryResults:
        """Answer ``Q`` and keep the materialized inputs for later OLAP reuse.

        The partial result is retained alongside the final answer, as the
        paper assumes: "pres(Q) ... which we assume has been materialized
        and stored as part of the evaluation of the original query Q".
        """
        partial = self.partial_result(query)
        return MaterializedQueryResults(query, self.answer_from_partial(query, partial), partial)
