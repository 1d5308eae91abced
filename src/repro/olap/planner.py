"""Cost-based planning of OLAP-operation answering strategies.

The paper's contribution is that a transformed query ``Q_T = T(Q)`` *can* be
answered from materialized results of ``Q``; whether it *should* be depends
on what is cached and how big everything is.  :class:`OLAPPlanner` makes
that choice per operation: it enumerates every candidate answering strategy,
prices each with a row-count cost model, and executes the cheapest.

It is the only place a route is enumerated and priced: the session's forced
``rewrite`` / ``scratch`` strategies are ``families`` filters on
:meth:`OLAPPlanner.plan`, ``OLAPSession.execute`` runs
:meth:`OLAPPlanner.plan_query`, and a stale entry is patched off the read
path only by :meth:`OLAPPlanner.refresh_stale`, which ranks the same
candidates.

Candidate strategies, in the order they are enumerated (a candidate's
*family* is its strategy name up to the first ``[``):

``cached``
    The transformed query's own canonical form is already in the result
    cache (a repeated operation, or a warm start from disk): return the
    stored answer.  Unless a ``families`` filter is given, a fresh hit is
    planned alone: its ``Plan.explain()`` shows this one candidate.

``rewrite[...]``
    One of the paper's rewritings applied to materialized results: derive
    ``pres(Q_T)`` from a cached ``pres`` (Algorithm 1 for DRILL-OUT,
    Algorithm 2 with its auxiliary query for DRILL-IN, the hierarchy roll
    for ROLL-UP), then the one γ of Equation (3) — Proposition 1 (σ over
    ``ans``) is the SLICE/DICE shortcut.  The sources are the *origin*
    query's entry, then every fresh entry sharing ``Q_T``'s classifier,
    measure and aggregate; :func:`repro.olap.rewriting.reuse_route` names
    each one's rewriting by how it relates to ``Q_T``, not by which
    operation produced ``Q_T``: ``slice-dice/ans`` from a same-level entry
    whose Σ is pointwise weaker, ``roll-up/pres`` from a finer lattice level
    (DRILL-DOWN included), ``drill-out/pres`` and ``drill-in/pres+aux`` from
    the origin only.  Each candidate's detail names the source it reads.
    This is how a DICE of a SLICE reuses the SLICE's materialized results
    even when the origin handed to the session is the root query.

``refresh-cached``
    The transformed query's canonical form is cached but **stale** (the
    instance was mutated since), and the graph's change log still covers
    the gap: patch the entry's ``pres(Q)``/``ans(Q)`` from the triple
    deltas (:class:`~repro.olap.maintenance.DeltaMaintainer`) instead of
    recomputing.  Priced by delta size plus the cached input sizes, so the
    planner — not a heuristic flag — decides when patching beats rewriting
    or starting from scratch.

``parallel``
    Re-evaluate ``Q_T`` shard-parallel on the AnS instance
    (:class:`~repro.olap.parallel.ParallelExecutor`): per-shard evaluation
    plus a merge of the aggregate states.  Only enumerated when the session
    was built with ``workers > 1`` and the executor can run ``Q_T`` in its
    worker processes (:meth:`~repro.olap.parallel.ParallelExecutor.supports`).

``scratch``
    Re-evaluate ``Q_T`` on the AnS instance with the id-space engine,
    priced with :class:`~repro.rdf.statistics.GraphStatistics` estimates.

Cost model
----------
Every cost formula is in this module; the rewriter, the maintainer and the
parallel executor only run the routes.  All costs are in "rows touched".
Reuse candidates count the rows of the materialized inputs they read, at
per-row weights for selection, group-by and join work fitted against
scratch (DRILL-IN adds its auxiliary query at the engine multiplier); the
from-scratch candidate sums per-triple-pattern match estimates plus the
estimated BGP output cardinalities — the same statistics the BGP
evaluator's join optimizer uses; ``parallel`` divides that by the usable
worker lanes and adds merge and dispatch overheads, so small instances
price it *above* plain scratch; ``refresh-cached`` grows with the delta and
the cached input sizes; cache hits pay a small per-cell touch cost.  The
model only needs to *rank* strategies, from inputs (entry sizes, graph
statistics, the delta's unifications with the query bodies) that are cheap
to read — and a fresh hit is not ranked at all.

Every constant lives in a :class:`~repro.olap.calibration.CostModel` and
:class:`OLAPPlanner` is its only reader;
:func:`~repro.olap.calibration.fit_cost_model` refits them from the
observed runtimes a session records — see :mod:`repro.olap.calibration`
and :mod:`repro.olap.advisor`.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.analytics.answer import CubeAnswer, MaterializedQueryResults, PartialResult
from repro.analytics.evaluator import AnalyticalQueryEvaluator
from repro.analytics.query import AnalyticalQuery
from repro.errors import (
    InvalidOperationError, MaterializationError, QueryDefinitionError, RewritingError,
)
from repro.olap.auxiliary import build_auxiliary_query
from repro.olap.cache import CacheEntry, ResultCache
from repro.olap.calibration import CostModel
from repro.olap.maintenance import DeltaMaintainer
from repro.olap.operations import OLAPOperation
from repro.olap.parallel import ParallelExecutor
from repro.olap.rewriting import OLAPRewriter, reuse_route
from repro.rdf.graph import GraphDelta

__all__ = ["PlanCandidate", "Plan", "OLAPPlanner"]


class PlanCandidate:
    """One costed way of answering the transformed query."""

    __slots__ = ("strategy", "cost", "input_rows", "detail", "_execute")

    def __init__(
        self,
        strategy: str,
        cost: float,
        input_rows: int,
        detail: str,
        execute: Callable[[], Tuple[CubeAnswer, PartialResult]],
    ):
        self.strategy = strategy
        self.cost = cost
        self.input_rows = input_rows
        self.detail = detail
        self._execute = execute

    def execute(self) -> Tuple[CubeAnswer, PartialResult]:
        return self._execute()

    def __repr__(self) -> str:  # pragma: no cover
        return f"PlanCandidate({self.strategy}, cost~{self.cost:.1f})"


class Plan:
    """The costed candidates for one operation, cheapest first."""

    def __init__(
        self,
        operation: Optional[OLAPOperation],
        transformed_query: AnalyticalQuery,
        candidates: List[PlanCandidate],
    ):
        if not candidates:
            raise ValueError("a plan needs at least one candidate (scratch is always available)")
        self.operation = operation  # None: a plan of the query itself (plan_query)
        self.transformed_query = transformed_query
        # The strategy name breaks cost ties: explain() output and golden
        # comparisons must not depend on candidate enumeration order.
        self.candidates = sorted(
            candidates, key=lambda candidate: (candidate.cost, candidate.strategy)
        )

    @property
    def chosen(self) -> PlanCandidate:
        return self.candidates[0]

    def execute(self) -> Tuple[CubeAnswer, PartialResult]:
        return self.chosen.execute()

    def explain(self) -> str:
        """Human-readable plan, one line per candidate, chosen first."""
        operation = "execute" if self.operation is None else self.operation.describe()
        lines = [f"plan: {operation} -> {self.transformed_query.name}"]
        for index, candidate in enumerate(self.candidates):
            marker = "->" if index == 0 else "  "
            lines.append(
                f"  {marker} {candidate.strategy:<28} cost~{candidate.cost:>10.1f}  ({candidate.detail})"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Plan({self.transformed_query.name}, chosen={self.chosen.strategy})"


class OLAPPlanner:
    """Chooses and runs the cheapest answering strategy per OLAP operation.

    Parameters
    ----------
    evaluator:
        The from-scratch analytical evaluator over the AnS instance (also
        supplies the graph statistics used to price the scratch candidate).
    cache:
        The session's bounded result cache (canonical-form keyed).
    parallel:
        Optional :class:`~repro.olap.parallel.ParallelExecutor`; when
        present (session built with ``workers > 1``) a ``parallel``
        candidate is enumerated for mergeable aggregates.
    cost_model:
        Optional :class:`~repro.olap.calibration.CostModel` supplying
        every pricing constant.  Defaults to the static model; a
        model fitted from observed runtimes
        (:func:`~repro.olap.calibration.fit_cost_model`) recalibrates the
        *relative* strategy weights without changing any answer.

    Examples
    --------
    Plans are inspectable: every candidate carries its strategy, its
    estimated cost in rows touched, and a human-readable detail line.

    >>> from repro.datagen.generic import GenericConfig, generic_dataset, generic_query
    >>> from repro.olap.operations import Slice
    >>> from repro.olap.session import OLAPSession
    >>> dataset = generic_dataset(GenericConfig(facts=30, dimensions=2, seed=7))
    >>> query = generic_query(dataset.config, aggregate="count")
    >>> session = OLAPSession(dataset.instance, dataset.schema)
    >>> cube = session.execute(query)
    >>> value = sorted(cube.dimension_values("d0"), key=repr)[0]
    >>> operation = Slice("d0", value)
    >>> plan = session.planner.plan(query, operation, operation.apply(query))
    >>> len(plan.candidates) >= 2          # at least a reuse option + scratch
    True
    >>> plan.chosen is plan.candidates[0]  # cheapest first
    True
    >>> plan.chosen.strategy in ("rewrite[slice-dice/ans]", "scratch")
    True
    """

    def __init__(
        self,
        evaluator: AnalyticalQueryEvaluator,
        cache: ResultCache,
        parallel: Optional[ParallelExecutor] = None,
        cost_model: Optional[CostModel] = None,
    ):
        self._evaluator = evaluator
        self._cache = cache
        self._rewriter = OLAPRewriter(evaluator.bgp_evaluator)
        self._statistics = evaluator.bgp_evaluator.statistics
        self._model = cost_model or CostModel()
        self._maintainer = DeltaMaintainer(evaluator)
        self._parallel = parallel
        # Rows-touched multiplier of scratch and parallel; the reuse weights
        # need none (one set of them fits both engines).
        self._engine_multiplier = self._model.engine_multiplier(evaluator.engine)

    @property
    def cost_model(self) -> CostModel:
        """The pricing constants every candidate is costed with."""
        return self._model

    @property
    def maintainer(self) -> DeltaMaintainer:
        """The delta maintainer executing the ``refresh-cached`` candidate and
        counting the delta unifications it is priced by."""
        return self._maintainer

    @property
    def parallel(self) -> Optional[ParallelExecutor]:
        """The shard-parallel executor, or None for a single-worker session."""
        return self._parallel

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------

    def plan(
        self,
        original_query: AnalyticalQuery,
        operation: OLAPOperation,
        transformed_query: AnalyticalQuery,
        families: Optional[Tuple[str, ...]] = None,
    ) -> Plan:
        """Enumerate and cost the candidate strategies for ``T(Q)``.

        Makes the operation's cache reads: the origin's entry first (one
        accounted lookup, whatever the filter), then the transformed query's
        own entry and the entries sharing its core key, the other sources of
        the ``rewrite`` candidates.
        Without a ``families`` filter a fresh hit is planned alone, and
        scratch is a candidate whenever it is not, so a plan always exists.
        When neither the origin nor the transformed query has a usable entry,
        an unfiltered plan hands a stale origin to :meth:`refresh_stale`
        first: patched, it restores the rewritings for this and later
        operations; not worth patching, it is dropped.

        Every candidate returns ``ans(Q_T)`` with ``pres(Q_T)``; the
        Proposition 1 candidates (``rewrite[slice-dice/ans]``) return it as a
        deferred σ over the ``pres`` they start from, run only when something
        reads it.

        ``families`` restricts the enumeration to the named candidate
        families (the session's forced strategies pass ``("rewrite",)`` or
        ``("scratch",)``) and never refreshes; unlisted families are not
        probed.  A filter that leaves no candidate raises
        :class:`~repro.errors.MaterializationError` when the origin's results
        are not materialized, :class:`~repro.errors.RewritingError` otherwise
        (no cached entry relates to ``Q_T``: a forced-rewrite DRILL-DOWN
        without a cached finer level, say).
        """

        def wanted(family: str) -> bool:
            return families is None or family in families

        evaluator = self._evaluator
        origin = self._cache.get(original_query, evaluator.instance, engine=evaluator.engine)
        candidates = self._own_entry_candidates(transformed_query) if wanted("cached") else []
        if families is None and candidates and candidates[0].strategy == "cached":
            return Plan(operation, transformed_query, candidates)
        if origin is None and families is None and not candidates:
            origin = self.refresh_stale(original_query)

        reuse = (
            self._rewrite_candidates(origin, operation, transformed_query)
            if wanted("rewrite")
            else []
        )
        candidates.extend(reuse)

        executor = self._parallel
        if wanted("parallel") and executor is not None and executor.supports(transformed_query):
            candidates.append(self._parallel_candidate(transformed_query))

        # Cached lattice entries reveal the *actual* pres(Q) row count the
        # scratch evaluation would have to roll (rolling preserves rows);
        # pricing scratch's rolling pass with the statistics estimate while
        # the reuse candidates carry actual counts would skew the comparison.
        pres_rows_hint: Optional[int] = None
        if transformed_query.rollup:
            observed = [
                candidate.input_rows
                for candidate in reuse
                if candidate.strategy == "rewrite[roll-up/pres]"
            ]
            if origin is not None:
                observed.append(origin.materialized.partial.row_bound()[0])
            pres_rows_hint = max(observed, default=None)

        if wanted("scratch"):
            candidates.append(self._scratch_candidate(transformed_query, pres_rows_hint))

        if not candidates:  # only the ("rewrite",) filter can leave none
            reason = f"{operation.describe()} cannot be answered by rewriting {original_query.name!r}"
            if origin is None:
                raise MaterializationError(
                    f"{reason}: its results are not materialized; call execute() first"
                )
            raise RewritingError(f"{reason}; use the plan or scratch strategy")
        return Plan(operation, transformed_query, candidates)

    def plan_query(self, query: AnalyticalQuery) -> Plan:
        """Enumerate and cost the ways of answering ``query`` itself.

        What ``OLAPSession.execute`` runs: the query's own cache entry
        (``cached`` or ``refresh-cached``), ``parallel`` and ``scratch``,
        priced as in :meth:`plan`.  A fresh hit is returned alone (a hit
        must stay O(1)).  A stale entry is priced against recomputing on
        every read: batches landing since it went stale grow its delta.
        """
        candidates = self._own_entry_candidates(query)
        if candidates and candidates[0].strategy == "cached":
            return Plan(None, query, candidates)
        return Plan(None, query, candidates + self._instance_candidates(query))

    def refresh_stale(self, query: AnalyticalQuery) -> Optional[CacheEntry]:
        """Patch ``query``'s stale cache entry if :meth:`plan_query` would,
        else drop it; the refreshed entry, or None.

        The one refresh decision off the read path: the ingest layer's
        ``RefreshScheduler`` calls it for hot entries after a batch, and
        :meth:`plan` for a stale origin.  ``refresh-cached`` is
        ranked against the instance candidates :meth:`plan_query` ranks it
        against.  A patch that loses now loses on every later read (the delta
        only grows), so the entry is invalidated; its pin survives.  Nothing
        is done when ``query`` has no stale entry.
        """
        graph = self._evaluator.instance
        found = self._cache.stale_entry(query, graph)
        if found is None:
            return None
        patch = self._refresh_candidate(query, *found)
        if Plan(None, query, [patch, *self._instance_candidates(query)]).chosen is patch:
            return self._cache.refresh(query, graph, self._maintainer)
        self._cache.invalidate(query)
        return None

    def price_cached(self, query: AnalyticalQuery, cells: int) -> Tuple[float, float]:
        """``(cached cost, scratch cost)`` of answering ``query`` from a
        ``cells``-cell cache entry or from the instance: the candidates
        :meth:`plan_query` ranks, whose difference is what the workload
        advisor credits a materialization with per access."""
        return self._cached_cost(cells), self._scratch_candidate(query).cost

    # ------------------------------------------------------------------
    # candidate builders
    # ------------------------------------------------------------------

    def _own_entry_candidates(self, query: AnalyticalQuery) -> List[PlanCandidate]:
        """``cached`` or ``refresh-cached``: the entry under ``query``'s own key."""
        graph = self._evaluator.instance
        exact = self._cache.get(query, graph, engine=self._evaluator.engine)
        if exact is not None:
            return [self._cached_candidate(exact.materialized)]
        stale = self._cache.stale_entry(query, graph)
        if stale is not None:
            return [self._refresh_candidate(query, stale[0], stale[1])]
        return []

    def _instance_candidates(self, query: AnalyticalQuery) -> List[PlanCandidate]:
        """``parallel`` (when the executor can run ``query``) and ``scratch``."""
        candidates = []
        if self._parallel is not None and self._parallel.supports(query):
            candidates.append(self._parallel_candidate(query))
        candidates.append(self._scratch_candidate(query))
        return candidates

    def _cached_cost(self, cells: int) -> float:
        return self._model.base_cost + cells * self._model.cached_cell_cost

    def _cached_candidate(self, materialized: MaterializedQueryResults) -> PlanCandidate:
        cells = len(materialized.answer)
        return PlanCandidate(
            "cached",
            self._cached_cost(cells),
            cells,
            f"ans already cached: {cells} cells",
            lambda: (materialized.answer, materialized.partial),
        )

    def _refresh_candidate(
        self, transformed_query: AnalyticalQuery, entry: CacheEntry, delta: GraphDelta
    ) -> PlanCandidate:
        cost = self._model.base_cost + self._refresh_cost(entry.materialized, delta)
        pres_rows = entry.materialized.partial.row_bound()[0]

        def run() -> Tuple[CubeAnswer, PartialResult]:
            refreshed = self._cache.refresh(
                transformed_query, self._evaluator.instance, self._maintainer
            )
            if refreshed is not None:
                return refreshed.materialized.answer, refreshed.materialized.partial
            # The entry turned out unpatchable (e.g. the change log rolled
            # over between planning and execution): recompute instead, and
            # store the result — the session skips re-storing for this
            # strategy because the cache normally already holds it.
            materialized = self._evaluator.evaluate(transformed_query)
            self._cache.put(transformed_query, materialized, self._evaluator.instance)
            return materialized.answer, materialized.partial

        return PlanCandidate(
            "refresh-cached",
            cost,
            pres_rows,
            f"patch stale pres/ans ({pres_rows} rows) from {len(delta)} triple deltas",
            run,
        )

    def _rewrite_candidates(
        self,
        origin: Optional[CacheEntry],
        operation: OLAPOperation,
        transformed_query: AnalyticalQuery,
    ) -> List[PlanCandidate]:
        """``rewrite[...]``: one candidate per source :func:`reuse_route`
        relates to ``Q_T``.

        The sources are the origin's entry first (passed in: one read off disk
        never enters memory, so no scan of the cache finds it), then every
        fresh entry sharing ``Q_T``'s core key but for ``Q_T``'s own, which the
        ``cached`` and ``refresh-cached`` candidates cover.
        """
        version = self._evaluator.instance.version
        sources = [] if origin is None else [origin]
        listed = {transformed_query.canonical_key, *(entry.key for entry in sources)}
        sources += [
            entry
            for entry in self._cache.entries_with_core(transformed_query)
            if entry.key not in listed and entry.graph_version == version
        ]
        candidates = []
        for entry in sources:
            strategy = reuse_route(entry.query, transformed_query, operation)
            if strategy is not None:
                candidates.append(
                    self._rewrite_candidate(entry.materialized, strategy, operation, transformed_query)
                )
        return candidates

    def _rewrite_candidate(
        self,
        materialized: MaterializedQueryResults,
        strategy: str,
        operation: OLAPOperation,
        transformed_query: AnalyticalQuery,
    ) -> PlanCandidate:
        """The ``strategy`` rewriting of ``Q_T`` from ``materialized``; its
        detail names the source it reads."""
        source = materialized.query
        if strategy == "slice-dice/ans":
            rows, realize = len(materialized.answer), 0.0
            detail = f"ans({source.name}): {rows} rows"
        else:
            rows, realize = self._pres_read(materialized.partial)
            level = f" at lattice level {len(source.rollup)}" if strategy == "roll-up/pres" else ""
            detail = f"pres({source.name}){level}: {rows} rows"

        def run() -> Tuple[CubeAnswer, PartialResult]:
            result = self._rewriter.answer(materialized, operation, transformed_query)
            return result.answer, result.partial

        return PlanCandidate(
            f"rewrite[{strategy}]",
            self._rewrite_cost(strategy, rows, source, transformed_query) + realize,
            rows,
            detail,
            run,
        )

    def _parallel_candidate(self, transformed_query: AnalyticalQuery) -> PlanCandidate:
        executor = self._parallel
        cost = self._model.base_cost + self._instance_cost(transformed_query, None, executor)
        instance_triples = len(self._evaluator.instance)
        detail = (
            f"{executor.shard_count} shards on {executor.workers} workers "
            f"({executor.attach_mode} attach)"
        )
        return PlanCandidate(
            "parallel",
            cost,
            instance_triples,
            detail,
            lambda: self._evaluate_on(executor, transformed_query),
        )

    def _scratch_candidate(
        self, transformed_query: AnalyticalQuery, pres_rows_hint: Optional[int] = None
    ) -> PlanCandidate:
        cost = self._model.base_cost + self._instance_cost(
            transformed_query, pres_rows_hint, None
        )
        instance_triples = len(self._evaluator.instance)
        # Entailment-aware sessions evaluate scratch over the saturated
        # graph; the plan says so, so explain() shows what "from scratch"
        # actually means in this session.
        mode = self._evaluator.entailment
        return PlanCandidate(
            "scratch" if mode is None else f"scratch[{mode}]",
            cost,
            instance_triples,
            f"instance: {instance_triples} triples, est. {cost:.0f} rows touched",
            lambda: self._evaluate_on(self._evaluator, transformed_query),
        )

    @staticmethod
    def _evaluate_on(engine, query: AnalyticalQuery) -> Tuple[CubeAnswer, PartialResult]:
        """Run ``query`` on the instance through the evaluator or the executor."""
        materialized = engine.evaluate(query)
        return materialized.answer, materialized.partial

    # ------------------------------------------------------------------
    # cost estimation helpers
    # ------------------------------------------------------------------

    def _instance_cost(
        self,
        query: AnalyticalQuery,
        pres_rows_hint: Optional[int],
        executor: Optional[ParallelExecutor],
    ) -> float:
        """Estimated rows touched evaluating ``query`` on the instance —
        serially (``executor`` None: ``scratch``) or on ``executor``'s shards
        (``parallel``); one pricing, so neither omits work the other pays.

        Classifier and measure are evaluated independently and joined on the
        fact variable; the join reads both results once more.  The
        refresh-vs-recompute decision prices recomputing with the same
        ``scratch`` candidate, so every strategy is in the same unit.  The
        result is scaled by the per-engine multiplier (the columnar engine
        touches rows vectorized).  Under ``entailment="saturate"`` the
        statistics describe the (bigger) saturated graph.

        On shards only the evaluable part divides across the usable lanes
        (``min(workers, shard_count)``); merging touches every classifier
        row once plus one state map per shard, and dispatch pays a flat
        overhead per shard that ``CostModel.dispatch_cost`` sets by attach
        mode — workers of a snapshot-backed instance attach by path, those
        of a heap graph are seeded by pickling it, which keeps tiny
        instances serial.

        A rolled query pays the base-query evaluation *plus* the rolling
        pass: every pres row goes through every hierarchy stage at the same
        ``group_row_cost`` the ``rewrite[roll-up/pres]`` candidates are priced
        at — otherwise evaluation would look artificially cheap exactly
        where the lattice has a cached shortcut.  Like those candidates, the
        pass is outside the engine multiplier and the per-lane division.
        """
        model, statistics = self._model, self._statistics
        classifier_rows = statistics.estimate_bgp_cardinality(query.classifier)
        measure_rows = statistics.estimate_bgp_cardinality(query.measure)
        cost = (
            statistics.estimate_evaluation_cost(query.classifier)
            + statistics.estimate_evaluation_cost(query.measure)
            + (classifier_rows + measure_rows)
        )
        if executor is not None:
            shards = executor.shard_count
            lanes = max(1, min(executor.workers, shards))
            merge = model.merge_cell_cost * (classifier_rows + shards)
            cost = (
                cost / lanes + merge + model.dispatch_cost(self._evaluator.instance) * shards
            )
        cost *= self._engine_multiplier
        if query.rollup:
            # Cached pres row counts when known, else the pres-rows proxy of
            # the join term above.
            pres_rows = (
                float(pres_rows_hint)
                if pres_rows_hint is not None
                else classifier_rows + measure_rows
            )
            cost += pres_rows * model.group_row_cost * len(query.rollup)
        return cost

    def _rewrite_cost(
        self, strategy: str, rows: int, query: AnalyticalQuery, transformed_query: AnalyticalQuery
    ) -> float:
        """Estimated rows touched by one of the paper's rewritings.

        Every rewriting reads its source's materialized input (``rows`` of
        ``ans`` or ``pres``) at its family weight; a roll pays it once per
        stage between the source's lattice level and ``Q_T``'s.  DRILL-IN's
        auxiliary query evaluates on the instance through the same engine as
        scratch, so it is added at the engine multiplier.
        """
        model = self._model
        if strategy == "slice-dice/ans":
            return model.base_cost + rows * model.select_row_cost
        if strategy == "roll-up/pres":
            stages = len(transformed_query.rollup) - len(query.rollup)
            return model.base_cost + rows * model.group_row_cost * stages
        if strategy == "drill-out/pres":
            return model.base_cost + rows * model.group_row_cost
        # drill-in/pres+aux
        return model.base_cost + rows * model.join_row_cost + (
            self._engine_multiplier * self._auxiliary_cost(query, transformed_query)
        )

    def _refresh_cost(self, materialized: MaterializedQueryResults, delta: GraphDelta) -> float:
        """Estimated rows touched by patching ``materialized`` with ``delta``.

        Grows linearly with the delta (one affected-fact probe seed per
        unification of a delta triple with a body pattern) and with the
        cached input sizes (one partition scan of ``pres``, one splice of
        ``ans``) — so for small update batches it undercuts the from-scratch
        estimate and for instance-sized batches it exceeds it, which is
        exactly the crossover the planner should find.  A deferred SLICE/DICE
        ``pres`` is realized first, and the scan reads only the rows its σ
        keeps.
        """
        maintainer, model = self._maintainer, self._model
        query = materialized.query
        if not maintainer.patchable(query):
            return float("inf")  # such entries invalidate, never patch
        partial = materialized.partial
        pres_rows, realize = self._pres_read(partial)
        if partial.row_bound()[1]:
            pres_rows *= _sigma_selectivity(query)
        return (
            maintainer.unifications(query, delta) * model.delta_probe_cost
            + pres_rows * model.pres_scan_cost
            + realize
            + len(materialized.answer) * model.refresh_cell_cost
        )

    def _pres_read(self, partial: PartialResult) -> Tuple[int, float]:
        """``(rows, σ cost)`` of reading ``partial``, priced without realizing
        it: a deferred SLICE/DICE ``pres`` counts its parent's rows, plus
        ``select_row_cost`` per row for each σ still to run over them."""
        rows, pending = partial.row_bound()
        return rows, rows * pending * self._model.select_row_cost

    def _auxiliary_cost(
        self, original_query: AnalyticalQuery, transformed_query: AnalyticalQuery
    ) -> float:
        """Estimated cost of DRILL-IN's auxiliary query over the instance."""
        original_dimensions = set(original_query.dimension_names)
        new_dimensions = [
            name
            for name in transformed_query.dimension_names
            if name not in original_dimensions
        ]
        if not new_dimensions:
            return 0.0
        try:
            auxiliary = build_auxiliary_query(original_query.classifier, new_dimensions)
        except (InvalidOperationError, QueryDefinitionError):  # not applicable: the rewrite fails too
            return float("inf")
        return self._statistics.estimate_evaluation_cost(auxiliary)


def _sigma_selectivity(transformed_query: AnalyticalQuery) -> float:
    """Heuristic fraction of rows kept by the transformed query's σ_dice.

    Value-set restrictions keep roughly ``min(1, |S| / 10)`` of the rows
    (dimension domains in the workloads have tens of values); ranges keep
    half.  Per-dimension fractions multiply
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
