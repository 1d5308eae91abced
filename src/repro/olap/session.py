"""Interactive OLAP sessions over an analytical-schema instance.

:class:`OLAPSession` is the top-level convenience API tying everything
together — the object a data analyst (or an example script) works with:

* it owns the AnS instance, its evaluator, and a bounded
  :class:`~repro.olap.cache.ResultCache` of materialized results keyed by
  the *canonical form* of each analytical query (so results are found by
  what they answer, not by the navigation path that produced them);
* :meth:`execute` answers an analytical query and materializes its answer
  and partial result, exactly as the paper assumes ("pres(Q) ... has been
  materialized and stored as part of the evaluation of the original query
  Q") — unless the cache (or its disk store, on a warm start) already holds
  the result;
* :meth:`transform` applies an OLAP operation to a query and answers the
  transformed query.  The default ``"plan"`` strategy routes the operation
  through the cost-based :class:`~repro.olap.planner.OLAPPlanner`, which
  picks the cheapest of: returning a cached answer, one of the paper's
  rewritings over the origin's results or over any cached query at the
  target's lattice level (with a weaker Σ) or a finer one, or re-evaluating
  from scratch.  The forced strategies ``"rewrite"`` and
  ``"scratch"`` restrict the planner to that candidate family, so the
  paths can be compared (:meth:`compare_strategies`);
* every transformed query is materialized in turn (subject to the cache
  bound), so OLAP navigations can chain: slice, then drill-out, then dice...

The session records timing, input sizes and the winning strategy per
operation in :attr:`history`; with the planner each record also carries the
full costed plan (see ``details["plan"]``), which ``repro-olap demo
--explain`` prints.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import MaterializationError, OLAPError
from repro.rdf.graph import Graph
from repro.rdf.reasoning import RDFSClosure
from repro.analytics.answer import CubeAnswer, MaterializedQueryResults
from repro.analytics.evaluator import AnalyticalQueryEvaluator
from repro.analytics.query import AnalyticalQuery
from repro.analytics.schema import AnalyticalSchema
from repro.olap.cache import DEFAULT_CAPACITY, ResultCache
from repro.olap.calibration import CostModel, fit_cost_model
from repro.olap.cube import Cube
from repro.olap.maintenance import DeltaMaintainer
from repro.olap.operations import DrillDown, OLAPOperation, RollUp
from repro.olap.parallel import ParallelExecutor
from repro.olap.planner import OLAPPlanner

__all__ = ["OLAPSession", "TransformationRecord"]

#: The planner candidate families each :meth:`OLAPSession.transform` strategy
#: admits (None: all of them).
_STRATEGY_FAMILIES = {
    "plan": None,
    "rewrite": ("rewrite",),
    "scratch": ("scratch",),
}

#: History labels of :meth:`OLAPSession.execute` for the planner candidates
#: whose name differs.  ``execute`` tries :meth:`OLAPSession.cached_cube`
#: first, which serves every fresh in-memory entry: a planned hit was read
#: from disk.
_EXECUTE_LABELS = {"cached": "cache[disk]", "refresh-cached": "refresh"}


@dataclass
class TransformationRecord:
    """Bookkeeping for one executed query or OLAP transformation.

    ``seconds`` is the end-to-end wall-clock of the operation; it splits
    into ``plan_seconds`` (planner candidate enumeration under
    ``strategy="plan"`` — 0 for forced strategies and
    :meth:`OLAPSession.execute`) and ``execute_seconds``
    (actually serving the answer).  The calibrator feeds on
    ``execute_seconds`` only, so a cache hit's sample measures the cost of
    serving the hit, not of pricing its alternatives.
    """

    query_name: str
    operation: str
    strategy: str
    seconds: float
    input_rows: int
    output_cells: int
    details: Dict[str, object] = field(default_factory=dict)
    plan_seconds: float = 0.0
    execute_seconds: float = 0.0

    def __str__(self) -> str:
        return (
            f"{self.query_name}: {self.operation} via {self.strategy} "
            f"({self.input_rows} input rows -> {self.output_cells} cells, {self.seconds * 1000:.2f} ms)"
        )


class OLAPSession:
    """A cube-navigation session over one AnS instance.

    Parameters
    ----------
    instance:
        The AnS instance graph.  May be None when ``snapshot`` is given.
    snapshot:
        Path of an on-disk columnar snapshot (see :mod:`repro.storage`) to
        open as the instance — mutually exclusive with ``instance``.  The
        session attaches read-only memmap views (cold start is O(header),
        the columnar kernels read the file's pages zero-copy, and parallel
        workers re-attach by path instead of receiving a pickled graph); for
        a mutable heap graph pass
        ``load_snapshot(path, mmap=False)`` as ``instance`` instead.
    schema:
        Optional analytical schema (kept for introspection; queries carry
        their own).
    cache_capacity:
        Bound on the number of in-memory materialized results (LRU beyond
        it).  0 disables in-memory caching; correctness is unaffected
        because the planner falls back to from-scratch evaluation.
    cache_dir:
        Optional directory for write-through persistence of cache entries;
        a new session pointed at the same directory warm-starts from them.
    workers:
        Size of the shard-parallel worker-process pool (``>= 1``).  With
        ``workers > 1`` the planner enumerates a ``parallel`` candidate
        (per-shard evaluation + partial-aggregate merge) for
        :meth:`execute` and :meth:`transform` alike, for every query the
        :class:`~repro.olap.parallel.ParallelExecutor` supports.  ``1``
        (default) keeps everything serial.
    shard_count:
        Fact shards per parallel evaluation (``>= 1``; defaults to
        ``workers``).
    parallel_backend:
        ``"auto"`` (default) or ``"process"``, which mean the same thing:
        ``workers > 1`` runs shards in worker processes.  The former
        ``"thread"`` and ``"serial"`` values were removed and raise
        ``ValueError``.
    engine:
        ``"rows"``, ``"columnar"`` or None/``"auto"`` — the execution
        engine of the from-scratch evaluator (see
        :func:`repro.algebra.columnar.resolve_engine`).  ``auto`` uses the
        vectorized columnar engine when numpy (the ``[fast]`` extra) is
        installed, honouring a ``REPRO_ENGINE`` override.
    cost_model:
        Optional :class:`~repro.olap.calibration.CostModel` supplying every
        pricing constant the planner and the delta maintainer read.  Pass a
        fitted model (see :meth:`fit_cost_model`) to replan a workload
        with runtime-calibrated costs; omit it for the static defaults.
    entailment:
        ``None`` (default) answers queries over the asserted triples only.
        ``"saturate"`` evaluates every query over the ρdf closure of the
        instance: an :class:`~repro.rdf.reasoning.RDFSClosure` the session
        keeps in step with the source graph (see :meth:`sync`).  The
        closure moves by the source's delta, so cached cubes stay
        refreshable across additions and removals alike; plans name
        scratch evaluation ``scratch[saturate]``.

    Examples
    --------
    Execute a cube query, then navigate: transformations are answered
    from the materialized results whenever that is priced cheaper.

    >>> from repro.datagen.generic import GenericConfig, generic_dataset, generic_query
    >>> dataset = generic_dataset(GenericConfig(facts=30, dimensions=2, seed=3))
    >>> query = generic_query(dataset.config, aggregate="count")
    >>> session = OLAPSession(dataset.instance, dataset.schema)
    >>> cube = session.execute(query)
    >>> session.history[-1].strategy
    'scratch'
    >>> from repro.olap.operations import DrillOut
    >>> coarser = session.transform(query, DrillOut("d1"))
    >>> len(coarser) <= len(cube)
    True
    >>> session.engine in ("rows", "columnar")
    True
    """

    def __init__(
        self,
        instance: Optional[Graph] = None,
        schema: Optional[AnalyticalSchema] = None,
        cache_capacity: int = DEFAULT_CAPACITY,
        cache_dir: Optional[str] = None,
        workers: int = 1,
        shard_count: Optional[int] = None,
        parallel_backend: str = "auto",
        engine: Optional[str] = None,
        snapshot: Optional[str] = None,
        cost_model: Optional[CostModel] = None,
        entailment: Optional[str] = None,
    ):
        if (instance is None) == (snapshot is None):
            raise ValueError(
                "OLAPSession needs exactly one of instance= or snapshot="
            )
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if shard_count is not None and shard_count < 1:
            raise ValueError(f"shard_count must be >= 1, got {shard_count}")
        if parallel_backend in ("thread", "serial"):
            raise ValueError(
                f"parallel_backend {parallel_backend!r} was removed: workers > 1 "
                f"runs shards in worker processes"
            )
        if parallel_backend not in ("auto", "process"):
            raise ValueError(
                f"unknown parallel_backend {parallel_backend!r}; expected 'auto' or 'process'"
            )
        if entailment not in (None, "saturate"):
            raise OLAPError(
                f"unknown entailment mode {entailment!r}; expected None or 'saturate'"
            )
        if snapshot is not None:
            from repro.storage.snapshot import load_snapshot

            instance = load_snapshot(snapshot, mmap=True)
        self.schema = schema
        #: The graph handed in by the caller (mutate this one); identical to
        #: :attr:`instance` except under ``entailment="saturate"``, where
        #: ``instance`` is the graph of the session's ρdf closure.
        self.source_instance = instance
        self._closure = RDFSClosure(instance) if entailment == "saturate" else None
        if self._closure is not None:
            instance = self._closure.graph
        self.instance = instance
        self.evaluator = AnalyticalQueryEvaluator(instance, engine=engine)
        # The planner names scratch evaluation off this marker
        # (scratch[saturate]); evaluation itself is plain — the graph is
        # already closed.
        self.evaluator.entailment = entailment
        self._cache = ResultCache(cache_capacity, store_dir=cache_dir)
        self._cost_model = cost_model or CostModel()
        self._maintainer = DeltaMaintainer(self.evaluator)
        self._parallel = (
            ParallelExecutor(self.evaluator, workers=workers, shard_count=shard_count)
            if workers > 1
            else None
        )
        self._planner = OLAPPlanner(
            self.evaluator,
            self._cache,
            maintainer=self._maintainer,
            parallel=self._parallel,
            cost_model=self._cost_model,
        )
        self._queries: Dict[str, AnalyticalQuery] = {}
        self.history: List[TransformationRecord] = []
        self._closed = False

    # ------------------------------------------------------------------
    # cache / planner access
    # ------------------------------------------------------------------

    @property
    def cache(self) -> ResultCache:
        """The session's bounded result cache (inspect ``cache.stats``)."""
        return self._cache

    @property
    def planner(self) -> OLAPPlanner:
        return self._planner

    @property
    def cost_model(self) -> CostModel:
        """The cost model pricing every candidate in this session."""
        return self._cost_model

    def fit_cost_model(self, min_samples: int = 1) -> CostModel:
        """Fit a :class:`~repro.olap.calibration.CostModel` from this
        session's history.

        Uses the ``(predicted cost, observed execute seconds, strategy)``
        samples of every planned record (see
        :func:`~repro.olap.calibration.fit_cost_model`); the current model
        is the fit's starting point.  The session itself is *not* switched
        — construct a new :class:`OLAPSession` with ``cost_model=`` (the
        planner caches per-model derived state at construction) or use the
        advisor loop in :mod:`repro.olap.advisor`.
        """
        return fit_cost_model(
            self.history,
            engine=self.engine,
            base=self._cost_model,
            min_samples=min_samples,
        )

    def advise(self, top: int = 8):
        """Mine this session's history into an :class:`~repro.olap.advisor.AdvisorReport`.

        See :class:`~repro.olap.advisor.WorkloadAdvisor` — recommends
        canonical query keys to pre-materialize, cache entries to pin
        against LRU eviction, entries to evict early, and a fitted cost
        model, each with its predicted rows-touched benefit.
        """
        from repro.olap.advisor import WorkloadAdvisor

        return WorkloadAdvisor(self).report(top=top)

    def apply_recommendations(self, report) -> Dict[str, int]:
        """Apply an advisor report to this session (warm + pin the cache).

        Materializes every recommended query that is not already cached
        (through :meth:`execute`, so the results flow into the persistent
        store when one is configured), pins the recommended entries
        against LRU eviction, and drops the early-evict ones.  Returns
        counts per action, e.g. ``{"materialized": 2, "pinned": 3,
        "evicted": 1}``.
        """
        from repro.olap.advisor import apply_recommendations

        return apply_recommendations(self, report)

    @property
    def maintainer(self) -> DeltaMaintainer:
        """The delta maintainer patching cached results after instance updates."""
        return self._maintainer

    @property
    def parallel(self) -> Optional[ParallelExecutor]:
        """The shard-parallel executor (None for a single-worker session)."""
        return self._parallel

    @property
    def workers(self) -> int:
        """The session's worker-pool size (1 = fully serial)."""
        return self._parallel.workers if self._parallel is not None else 1

    @property
    def engine(self) -> str:
        """The from-scratch evaluator's engine: ``"rows"`` or ``"columnar"``."""
        return self.evaluator.engine

    @property
    def entailment(self) -> Optional[str]:
        """The session's entailment mode: None or ``"saturate"``."""
        return self.evaluator.entailment

    def sync(self) -> None:
        """Bring the ρdf closure up to the source graph's version.

        A no-op without entailment.  Every read calls it first; so must
        anyone who inspects :attr:`instance` or the cache's staleness
        against it after mutating :attr:`source_instance` (the refresh
        scheduler does).
        """
        if self._closure is not None:
            self._closure.sync()

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run (the session stays queryable
        serially, but the parallel pool is gone for good)."""
        return self._closed

    def close(self) -> None:
        """Release the parallel worker pool (idempotent; no-op when serial).

        Safe to call any number of times — a second close does nothing.
        After closing, the executor refuses to rebuild its pool, so a
        closed session can never leak worker processes; serial execution
        still works.  ``__exit__`` always calls this, so leaving the
        ``with`` block through an exception shuts down the process pool
        too.
        """
        if self._closed:
            return
        self._closed = True
        if self._parallel is not None:
            self._parallel.close()

    def __enter__(self) -> "OLAPSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # query execution
    # ------------------------------------------------------------------

    def execute(self, query: AnalyticalQuery) -> Cube:
        """Answer ``query`` and materialize ``ans(Q)`` and ``pres(Q)`` (cache-first).

        A fresh in-memory entry is served by :meth:`cached_cube`; otherwise
        runs the winner of :meth:`OLAPPlanner.plan_query
        <repro.olap.planner.OLAPPlanner.plan_query>`.  The history strategy
        names the route: ``cache`` / ``cache[disk]`` (the stored results,
        without touching the instance), ``refresh`` (a stale entry patched
        from the change log), ``parallel`` or ``scratch`` (evaluated on the
        instance).
        """
        cube = self.cached_cube(query)
        if cube is not None:
            return cube
        started = time.perf_counter()
        # Stamp a new entry with the version observed *before* evaluating: a
        # mutation interleaved between materialization and insertion must
        # yield a born-stale entry, never a fresh-stamped one holding stale
        # cells.
        observed_version = self.instance.version
        chosen = self._planner.plan_query(query).chosen
        answer, partial = chosen.execute()
        strategy = _EXECUTE_LABELS.get(chosen.strategy, chosen.strategy)
        self._store(query, chosen, answer, partial, observed_version)
        return self._executed(query, answer, strategy, chosen.input_rows, started)

    def cached_cube(self, query: AnalyticalQuery, decode: bool = True) -> Optional[Cube]:
        """``query`` answered from its fresh in-memory cache entry, or None.

        The one hit path: :meth:`execute` tries it first, and the serving
        layer calls it on its event loop with ``decode=False``, which serves
        only an answer already decoded — so the call reads the entry and
        neither decodes nor evaluates.  None, with nothing counted or
        recorded, when the entry is missing, stale, only on disk or (under
        ``decode=False``) not decoded yet; the planner's route then answers.
        """
        self.sync()
        started = time.perf_counter()
        ready = None if decode else (lambda entry: entry.materialized.answer.decoded)
        entry = self._cache.hit(query, self.instance, ready)
        if entry is None:
            return None
        answer = entry.materialized.answer
        self._queries[query.name] = query
        strategy = "cache[disk]" if entry.origin == "disk" else "cache"
        return self._executed(query, answer, strategy, len(answer), started)

    def _executed(self, query, answer: CubeAnswer, strategy: str, input_rows: int, started: float) -> Cube:
        """The cube of an answered :meth:`execute`, its record appended."""
        elapsed = time.perf_counter() - started
        record = TransformationRecord(
            query.name, "execute", strategy, elapsed, input_rows, len(answer), execute_seconds=elapsed
        )
        return self._recorded(Cube(answer, query), record)

    def _recorded(self, cube: Cube, record: TransformationRecord) -> Cube:
        """Append ``record`` to the history and hand it back on its cube.

        ``history[-1]`` is only *this* operation's record until the next one
        lands — concurrent callers of one session (the serving layer) read
        ``cube.record`` instead.
        """
        self.history.append(record)
        cube.record = record
        return cube

    def _resolve_query(self, query: Union[str, AnalyticalQuery]) -> AnalyticalQuery:
        if isinstance(query, str):
            if query not in self._queries:
                raise MaterializationError(
                    f"query {query!r} has not been executed in this session; call execute() first"
                )
            return self._queries[query]
        return query

    def materialized(self, query: Union[str, AnalyticalQuery]) -> MaterializedQueryResults:
        """The materialized results of a previously executed query.

        Raises :class:`~repro.errors.MaterializationError` when the query
        was never executed here or its cache entry has been evicted or
        invalidated by an instance mutation.
        """
        self.sync()
        resolved = self._resolve_query(query)
        entry = self._cache.get(resolved, self.instance, engine=self.engine)
        if entry is None:
            raise MaterializationError(
                f"query {resolved.name!r} has not been executed in this session (or its "
                f"cached results were evicted); call execute() first"
            )
        return entry.materialized

    def executed_queries(self) -> Tuple[str, ...]:
        return tuple(self._queries)

    def forget(self, query: Union[str, AnalyticalQuery]) -> None:
        """Drop a query's materialized results and name binding (frees memory)."""
        name = query if isinstance(query, str) else query.name
        resolved = self._queries.pop(name, None)
        if resolved is not None:
            self._cache.discard(resolved)
        elif isinstance(query, AnalyticalQuery):
            self._cache.discard(query)

    # ------------------------------------------------------------------
    # OLAP transformations
    # ------------------------------------------------------------------

    def transform(
        self,
        query: Union[str, AnalyticalQuery],
        operation: OLAPOperation,
        strategy: str = "plan",
    ) -> Cube:
        """Apply an OLAP operation to a query, answer the result and store
        it (``ans(Q_T)`` and ``pres(Q_T)``) for further navigation.

        Parameters
        ----------
        query:
            The origin query (or its name) the operation transforms.
        operation:
            The OLAP operation (SLICE / DICE / DRILL-OUT / DRILL-IN /
            ROLL-UP / DRILL-DOWN).
        strategy:
            ``"plan"`` (default) — cost-based choice among cached answers,
            the paper's rewritings (from the origin or another cached
            query) and scratch;
            ``"rewrite"`` — force the paper's rewriting algorithms, from
            the cheapest source (raises when no cached result can be
            rewritten into the transformed query);
            ``"scratch"`` — force re-evaluation on the instance.

        The planner makes every cache read, including patching a stale
        origin when that is priced cheaper than recomputing it (see
        :meth:`OLAPPlanner.plan <repro.olap.planner.OLAPPlanner.plan>`).
        """
        if strategy not in _STRATEGY_FAMILIES:
            raise OLAPError(
                f"unknown strategy {strategy!r}; expected plan, rewrite or scratch"
            )
        self.sync()
        original_query = self._resolve_query(query)
        transformed_query = operation.apply(original_query)
        started = time.perf_counter()
        # Version observed when the transformed result is materialized (see
        # ResultCache.put: the stamp must predate the evaluation, not the
        # insertion).
        observed_version = self.instance.version
        plan = self._planner.plan(
            original_query, operation, transformed_query, families=_STRATEGY_FAMILIES[strategy]
        )
        chosen = plan.chosen
        planned = strategy == "plan"
        plan_seconds = time.perf_counter() - started if planned else 0.0
        answer, transformed_partial = plan.execute()
        # Forced routes record their price too: fit_cost_model samples them.
        details: Dict[str, object] = {"estimated_cost": chosen.cost}
        if planned:
            details["plan"] = plan.explain()
        elapsed = time.perf_counter() - started
        self._store(transformed_query, chosen, answer, transformed_partial, observed_version)

        return self._recorded(
            Cube(answer, transformed_query),
            TransformationRecord(
                query_name=transformed_query.name,
                operation=operation.describe(),
                strategy=f"plan[{chosen.strategy}]" if planned else chosen.strategy,
                seconds=elapsed,
                input_rows=chosen.input_rows,
                output_cells=len(answer),
                details=details,
                plan_seconds=plan_seconds,
                execute_seconds=max(0.0, elapsed - plan_seconds),
            ),
        )

    def _store(self, query: AnalyticalQuery, chosen, answer: CubeAnswer, partial, version: int) -> None:
        """Keep ``query``'s results (answered by ``chosen``) for further navigation."""
        self._queries[query.name] = query
        # A served or in-place-patched entry already *is* the cache entry for
        # this very query: re-storing and re-persisting it is pure overhead.
        if chosen.strategy not in ("cached", "refresh-cached"):
            self._cache.put(
                query,
                MaterializedQueryResults(query, answer, partial),
                self.instance,
                version=version,
            )

    def explain_last(self) -> str:
        """Describe the session's most recent operation.

        Planned transformations return their full costed plan (the
        candidate table of :meth:`~repro.olap.planner.Plan.explain`);
        :meth:`execute` and the forced rewrite/scratch strategies
        return their one-line history record (strategy, row counts,
        timing).
        """
        if not self.history:
            return "(no operations in this session's history)"
        record = self.history[-1]
        plan = record.details.get("plan")
        if plan is not None:
            return str(plan)
        return str(record)

    # ------------------------------------------------------------------
    # roll-up along dimension hierarchies (extension beyond the paper)
    # ------------------------------------------------------------------

    def roll_up(
        self,
        query: Union[str, AnalyticalQuery],
        dimension: str,
        hierarchy,
        aggregate: Optional[str] = None,
        strategy: str = "plan",
    ) -> Cube:
        """Roll a cube up along a dimension hierarchy.

        A thin wrapper over :meth:`transform` with a
        :class:`~repro.olap.operations.RollUp` operation, so roll-ups go
        through the standard history path: the record carries the
        plan/execute timing split and the planner's ``estimated_cost``
        (feeding :meth:`fit_cost_model` and the advisor), and the rolled
        cube is materialized in the cache — a subsequent coarser roll-up
        can be answered from it (``rewrite[roll-up/pres]`` from any cached
        finer lattice level), and :meth:`drill_down` can navigate back.

        The returned cube is bound to the *rolled* query (its rollup stack
        records the hierarchy stage), not the origin query.
        """
        original_query = self._resolve_query(query)
        if aggregate is not None and aggregate != getattr(original_query.aggregate, "name", None):
            raise OLAPError(
                f"session roll-up keeps the query's own aggregate "
                f"({getattr(original_query.aggregate, 'name', '?')}); for ad-hoc "
                f"re-aggregation roll pres(Q) with repro.analytics.rolling.roll_partial "
                f"and aggregate it with repro.olap.rewriting.answer_from_rolled_partial"
            )
        return self.transform(original_query, RollUp(dimension, hierarchy), strategy=strategy)

    def drill_down(
        self,
        query: Union[str, AnalyticalQuery],
        dimension: Optional[str] = None,
        strategy: str = "plan",
    ) -> Cube:
        """Undo the most recent roll-up of a rolled query (inverse navigation).

        ``dimension`` optionally asserts which dimension the popped stage
        rolled (validation only).  Routed through :meth:`transform` like
        every other operation: the planner typically serves the finer cube
        straight from the cache (it was materialized on the way up) or
        re-rolls it from a cached finer level (``rewrite[roll-up/pres]``,
        which ``strategy="rewrite"`` forces); scratch evaluation is the
        always-available fallback.
        """
        original_query = self._resolve_query(query)
        return self.transform(original_query, DrillDown(dimension), strategy=strategy)

    # ------------------------------------------------------------------
    # comparisons (used by examples / tests / the CLI demo)
    # ------------------------------------------------------------------

    def compare_strategies(
        self, query: Union[str, AnalyticalQuery], operation: OLAPOperation
    ) -> Dict[str, object]:
        """Answer the transformed query with both strategies and compare.

        Returns a dictionary with both cubes, their timings and whether the
        cell contents agree.
        """
        self.sync()
        original_query = self._resolve_query(query)
        transformed_query = operation.apply(original_query)

        def answered_by(family: str) -> Tuple[Cube, float, str]:
            plan = self._planner.plan(original_query, operation, transformed_query, families=(family,))
            started = time.perf_counter()
            answer, _ = plan.execute()
            seconds = time.perf_counter() - started
            return Cube(answer, transformed_query), seconds, plan.chosen.strategy

        rewritten_cube, rewrite_seconds, rewrite_strategy = answered_by("rewrite")
        scratch_cube, scratch_seconds, _ = answered_by("scratch")
        return {
            "operation": operation.describe(),
            "rewrite_cube": rewritten_cube,
            "scratch_cube": scratch_cube,
            "rewrite_seconds": rewrite_seconds,
            "scratch_seconds": scratch_seconds,
            "speedup": (scratch_seconds / rewrite_seconds) if rewrite_seconds > 0 else float("inf"),
            "equal": rewritten_cube.same_cells(scratch_cube),
            "strategy": rewrite_strategy,
        }

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"OLAPSession({len(self.instance)} instance triples, "
            f"{len(self._cache)} cached results)"
        )
