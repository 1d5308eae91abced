"""Partitioned parallel execution of analytical queries.

The serial engine answers ``pres(Q)``/``ans(Q)`` by walking the whole AnS
instance on one core.  This module scales that out: the term-id space is
split into fact shards (:meth:`repro.rdf.graph.Graph.partition`), each shard
evaluates the query with the fact variable range-restricted to its interval
(classifier ⋈ₓ measure per shard, via
:meth:`~repro.analytics.evaluator.AnalyticalQueryEvaluator.shard_results`),
and the per-shard results are combined:

* ``pres(Q)`` is the concatenation of the shard partial results (facts are
  partitioned, so the shard relations are disjoint; ``newk()`` keys come
  from disjoint per-shard ranges);
* ``ans(Q)`` is the N-partition case of the one γ
  (:mod:`repro.algebra.grouping`): each shard stops at the aggregate
  states of :mod:`repro.algebra.aggregates` and the merge side folds them
  — COUNT/SUM add, AVG merges ``(sum, count)`` pairs, MIN/MAX re-compare,
  count_distinct unites per-shard id sets — then finalizes exactly as the
  serial γ does, so results combine **without re-decoding** a single term.  On
  the columnar engine the shard states arrive in **array form**
  (:class:`~repro.algebra.columnar.ArrayGroupStates`: one row per group
  across parallel int64 arrays, one per distinct ``(group…, id)`` pair for
  count_distinct), and the merge is a concatenate + re-reduce instead of a
  per-group dict fold — no re-boxing.

Execution
---------

``workers == 1``
    Shards evaluated inline, one after the other.  Still exercises the
    range-restricted evaluation and the merge algebra — the oracle-testing
    configuration.
``workers > 1``
    A :class:`~concurrent.futures.ProcessPoolExecutor` with one of two
    **attach modes** (see :attr:`ParallelExecutor.attach_mode`):

    * ``snapshot-mmap`` — when the instance is snapshot-backed (its
      :attr:`~repro.rdf.graph.Graph.snapshot_path` is set), the pool
      initializer ships only the **path**; each worker re-opens the
      snapshot by mmap and shares its pages with every other worker
      through the OS page cache.  Pool build cost is O(1) in the instance
      size — no graph is ever pickled.
    * ``pickled-graph`` — heap instances are pickled into every worker
      once via the initializer: O(instance) per pool build.

    In both modes workers receive tiny pickled shard specs per task and
    ship back the shard's ``pres(Q)``, cut loose from its dictionary, and
    its γ states: int64 arrays on the columnar engine (a few buffers per
    shard), id row tuples and state dicts on the row engine.  Term ids are
    identical across workers (the snapshot preserves the dense first-seen
    ids), so the merge side re-binds the relations to its dictionary and
    never re-encodes.  The pool is version-stamped: a graph mutation
    rebuilds it so workers never serve a stale snapshot.

:meth:`ParallelExecutor.supports` says which queries can go to shards: not
a roll-up, not a non-mergeable aggregate, and — with worker processes — not
an aggregate that does not pickle (Σ is data, so only a custom aggregate's
state functions can hold a closure), nor any query once the pool has
broken.  The planner offers the ``parallel`` candidate only for those, and
prices ``scratch`` for the rest.  A pool that breaks mid-dispatch is the
one downgrade left inside :meth:`ParallelExecutor.evaluate`: that query is
answered inline and counted in :class:`ExecutorStats` (``stats``), so
benchmark numbers can never unknowingly mix processes and inline runs.

The planner prices the ``parallel`` candidate
(:meth:`~repro.olap.planner.OLAPPlanner.plan`); this module only runs it.
"""

from __future__ import annotations

import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import OLAPError

from repro.algebra.grouping import finalize_group_states, merge_group_states
from repro.algebra.relation import Relation
from repro.analytics.answer import CubeAnswer, MaterializedQueryResults, PartialResult
from repro.analytics.evaluator import AnalyticalQueryEvaluator
from repro.analytics.query import KEY_COLUMN, AnalyticalQuery
from repro.rdf.graph import GraphShard

__all__ = [
    "ParallelExecutor",
    "ExecutorStats",
    "KEY_STRIDE",
]

#: Disjoint ``newk()`` key range per shard: shard *i* draws keys from
#: ``[1 + i * KEY_STRIDE, ...)``.  Keys only need global distinctness
#: (Algorithm 1 dedups by key), and 2^40 keys per shard is unreachable.
KEY_STRIDE = 1 << 40


@dataclass
class ExecutorStats:
    """Dispatch bookkeeping for one :class:`ParallelExecutor`.

    Counts every dispatch by where it ran (``"process"`` or inline
    ``"serial"``) and every **downgrade** (a pool that broke mid-dispatch)
    with its reason, so a benchmark can never silently mix the two.
    """

    #: Dispatch counts by where they ran, e.g. ``{"process": 4}``.
    dispatches: Dict[str, int] = field(default_factory=dict)
    #: Number of process-pool dispatch attempts that raised.
    process_failures: int = 0
    #: Chronological ``(from_backend, to_backend, reason)`` records.
    fallbacks: List[Tuple[str, str, str]] = field(default_factory=list)


# ---------------------------------------------------------------------------
# process-pool worker side
# ---------------------------------------------------------------------------

#: Per-worker evaluator over the graph snapshot shipped by the initializer.
_WORKER_EVALUATOR: Optional[AnalyticalQueryEvaluator] = None


def _initialize_worker(source, engine: Optional[str] = None) -> None:
    """Pool initializer: one evaluator per worker.

    ``source`` is the pickled graph, or the path of its snapshot: then
    nothing instance-sized crosses the process boundary — each worker mmaps
    the snapshot read-only and the OS page cache shares the hot pages across
    the pool, so pool build is O(header) whatever the instance size
    (statistics come from the snapshot header too).  ``engine`` is the
    parent evaluator's: auto-resolution in the worker could disagree with
    the parent.
    """
    global _WORKER_EVALUATOR
    if isinstance(source, str):
        from repro.storage.snapshot import load_snapshot

        source = load_snapshot(source, mmap=True)
    _WORKER_EVALUATOR = AnalyticalQueryEvaluator(source, engine=engine)


def _run_shard(payload: Tuple[AnalyticalQuery, GraphShard, int]):
    """Evaluate one pickled shard spec in a worker process."""
    query, shard, key_base = payload
    assert _WORKER_EVALUATOR is not None, "worker initializer did not run"
    return _WORKER_EVALUATOR.shard_results(query, shard, key_base=key_base)


# ---------------------------------------------------------------------------
# executor
# ---------------------------------------------------------------------------


class ParallelExecutor:
    """Runs analytical queries shard-parallel and merges the partial results.

    Parameters
    ----------
    evaluator:
        The serial :class:`~repro.analytics.evaluator.AnalyticalQueryEvaluator`
        over the AnS instance (it also answers a query inline when the pool
        breaks under it).
    workers:
        ``1`` evaluates the shards inline (the merge algebra is still
        exercised); ``> 1`` is the size of the worker-process pool.
    shard_count:
        Number of fact shards per query; defaults to ``workers``.  More
        shards than workers smooths load imbalance at a small dispatch cost.

    Examples
    --------
    ``workers=1`` evaluates the shards inline — the partitioned path and
    the merge algebra are fully exercised, without pool plumbing:

    >>> from repro.datagen.generic import GenericConfig, generic_dataset, generic_query
    >>> from repro.analytics.evaluator import AnalyticalQueryEvaluator
    >>> from repro.olap.cube import Cube
    >>> dataset = generic_dataset(GenericConfig(facts=30, dimensions=2, seed=9))
    >>> query = generic_query(dataset.config, aggregate="avg")
    >>> evaluator = AnalyticalQueryEvaluator(dataset.instance)
    >>> with ParallelExecutor(evaluator, workers=1, shard_count=4) as executor:
    ...     merged = executor.evaluate(query)
    >>> Cube(merged.answer, query).same_cells(Cube(evaluator.answer(query), query))
    True
    """

    def __init__(
        self,
        evaluator: AnalyticalQueryEvaluator,
        workers: int = 2,
        shard_count: Optional[int] = None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self._evaluator = evaluator
        self._graph = evaluator.instance
        self._workers = int(workers)
        self._shard_count = self._workers if shard_count is None else int(shard_count)
        if self._shard_count < 1:
            raise ValueError(f"shard_count must be >= 1, got {shard_count}")
        self._process_pool: Optional[ProcessPoolExecutor] = None
        self._process_pool_version: Optional[int] = None
        self._process_broken = False
        self._closed = False
        #: Where the most recent dispatch ran: ``"process"`` or ``"serial"``.
        self.last_backend: Optional[str] = None
        #: Running dispatch/fallback counters.
        self.stats = ExecutorStats()

    @property
    def attach_mode(self) -> str:
        """How worker processes receive the instance.

        ``"snapshot-mmap"`` when the graph is snapshot-backed — the pool
        initializer ships a path and workers mmap it (O(1) pool build);
        ``"pickled-graph"`` otherwise.
        """
        if self._graph.snapshot_path is not None:
            return "snapshot-mmap"
        return "pickled-graph"

    # -- introspection -------------------------------------------------

    @property
    def workers(self) -> int:
        return self._workers

    @property
    def shard_count(self) -> int:
        return self._shard_count

    def supports(self, query: AnalyticalQuery) -> bool:
        """True when ``query`` can be answered on this executor's shards.

        Requires a mergeable aggregate (a custom bag function has no state
        to merge).  Rolled-up queries are unsupported: a parent that is not
        a graph term gets a negative id from its dictionary
        (:meth:`~repro.rdf.dictionary.TermDictionary.encode_derived`), and
        each worker's dictionary would number those parents its own way, so
        worker ids would not match the merge side's.  With worker processes
        the aggregate must also pickle, and the pool must not have broken;
        a closed executor supports nothing.
        """
        if self._closed or query.rollup or not query.aggregate.mergeable:
            return False
        if self._workers == 1:
            return True
        if self._process_broken:
            return False
        try:
            pickle.dumps(query.aggregate)
        except (pickle.PicklingError, AttributeError, TypeError):
            # Σ and the query are data, but a custom aggregate's state
            # functions may be closures or lambdas that cannot cross a
            # process boundary.
            return False
        return True

    # -- execution -----------------------------------------------------

    def evaluate(self, query: AnalyticalQuery) -> MaterializedQueryResults:
        """Answer ``query`` shard-parallel; :meth:`supports` must hold.

        The result equals the serial engine's under
        :meth:`~repro.olap.cube.Cube.same_cells` — exact for COUNT, MIN,
        MAX, count_distinct and for SUM/AVG over integer bags; SUM/AVG over
        float measures may differ by an ulp (float addition is not
        associative), within same_cells' 1e-9 tolerance.  ``pres(Q)`` is
        equal as a bag modulo the opaque ``newk()`` key values.  The
        property suite in ``tests/properties/test_property_parallel.py``
        holds all of this across worker/shard combinations.
        """
        if self._closed:
            raise OLAPError(
                "ParallelExecutor is closed: its worker pool was shut down "
                "and will not be rebuilt (create a new session/executor)"
            )
        if not self.supports(query):
            raise OLAPError(
                f"query {query.name!r} cannot run on shards (a roll-up, a "
                f"non-mergeable or unpicklable aggregate, or a broken pool)"
            )
        results = self._dispatch(query, self._graph.partition(self._shard_count))
        return MaterializedQueryResults(
            query, self._merge_answer(query, results), self._merge_partial(query, results)
        )

    # -- dispatch ------------------------------------------------------

    def _dispatch(
        self, query: AnalyticalQuery, shards: Tuple[GraphShard, ...]
    ) -> List[Tuple[Relation, object]]:
        if self._workers > 1 and len(shards) > 1:
            try:
                results = self._dispatch_process(query, shards)
                self.last_backend = "process"
                dispatches = self.stats.dispatches
                dispatches["process"] = dispatches.get("process", 0) + 1
                return results
            except (BrokenProcessPool, pickle.PicklingError, OSError) as exc:
                # A torn-down pool or unpicklable instance data (workers die
                # unpickling the initializer's graph): count the failure,
                # answer this query inline, and stop offering shards (see
                # supports).  Genuine evaluation errors (e.g. min over mixed
                # types) propagate — they would raise identically inline.
                self._process_broken = True
                self._shutdown_process_pool()
                self.stats.process_failures += 1
                self.stats.fallbacks.append(("process", "serial", type(exc).__name__))
        self.last_backend = "serial"
        dispatches = self.stats.dispatches
        dispatches["serial"] = dispatches.get("serial", 0) + 1
        return [
            self._evaluator.shard_results(query, shard, key_base=_shard_key_base(shard))
            for shard in shards
        ]

    def _dispatch_process(self, query, shards):
        pool = self._ensure_process_pool()
        futures = [
            pool.submit(_run_shard, (query, shard, _shard_key_base(shard))) for shard in shards
        ]
        return [future.result() for future in futures]

    def _ensure_process_pool(self) -> ProcessPoolExecutor:
        version = self._graph.version
        if self._process_pool is not None and self._process_pool_version == version:
            return self._process_pool
        # The graph changed since the workers were seeded (or no pool exists
        # yet): rebuild so every worker snapshot matches the live instance.
        # An unpicklable graph surfaces as BrokenProcessPool on the first
        # result (workers die in the initializer) — _dispatch falls back.
        self._shutdown_process_pool()
        # Snapshot attach mode ships the path, not the graph.
        source = self._graph.snapshot_path or self._graph
        self._process_pool = ProcessPoolExecutor(
            max_workers=self._workers,
            initializer=_initialize_worker,
            initargs=(source, self._evaluator.engine),
        )
        self._process_pool_version = version
        return self._process_pool

    # -- merge ---------------------------------------------------------

    def _merge_answer(
        self, query: AnalyticalQuery, results: List[Tuple[Relation, object]]
    ) -> CubeAnswer:
        dictionary = self._graph.dictionary
        dimension_columns = query.dimension_names
        measure_column = query.measure_variable.name
        merged = merge_group_states((states for _, states in results), query.aggregate)
        answer_relation = finalize_group_states(
            merged, query.aggregate, (*dimension_columns, measure_column), dictionary,
            dimension_columns, value=dictionary.value,
        )
        return CubeAnswer(answer_relation, dimension_columns, measure_column)

    def _merge_partial(
        self, query: AnalyticalQuery, results: List[Tuple[Relation, object]]
    ) -> PartialResult:
        """``pres(Q)``: the shards' relations re-bound to the instance's
        dictionary and concatenated in their own storage (∪)."""
        dictionary = self._graph.dictionary
        first, *rest = (relation.with_dictionary(dictionary) for relation, _ in results)
        return PartialResult(
            first.union_all(rest),
            fact_column=query.fact_variable.name,
            dimension_columns=query.dimension_names,
            key_column=KEY_COLUMN,
            measure_column=query.measure_variable.name,
        )

    # -- lifecycle -----------------------------------------------------

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run; dispatch raises from then on."""
        return self._closed

    def close(self) -> None:
        """Shut down the worker pool (idempotent).

        After closing, any further dispatch raises
        :class:`~repro.errors.OLAPError` instead of silently rebuilding a
        pool that nobody would ever shut down again.
        """
        self._closed = True
        self._shutdown_process_pool()

    def _shutdown_process_pool(self) -> None:
        if self._process_pool is not None:
            self._process_pool.shutdown(wait=True)
            self._process_pool = None
            self._process_pool_version = None

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"ParallelExecutor({self._workers} workers, {self._shard_count} shards, "
            f"{self.attach_mode} attach)"
        )


def _shard_key_base(shard: GraphShard) -> int:
    """The start of one shard's disjoint ``newk()`` key range."""
    return 1 + shard.index * KEY_STRIDE
