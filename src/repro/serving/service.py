"""Asyncio front-end serving analytical queries to many tenants at once.

:class:`OLAPService` is the first layer of the system that is concurrent
end to end.  It composes the pieces the engine PRs built — snapshot
storage, version-stamped caches, per-session planners — into a
multi-tenant serving loop:

* **Admission control.**  Queries are *rejected, never queued unboundedly*:
  a service-wide waiting-depth bound and a per-tenant concurrency cap each
  raise a typed :class:`~repro.errors.AdmissionError` subclass
  (:class:`~repro.errors.QueueFullError`,
  :class:`~repro.errors.TenantBusyError`,
  :class:`~repro.errors.ServiceClosedError`), and every rejection is
  counted per type in :class:`ServiceStats` — load shedding a client can
  reason about.
* **Snapshot-isolated reads.**  At admission each query pins the current
  :class:`~repro.serving.generations.GraphGeneration`; it is answered
  against that frozen graph version even while the writer publishes
  successors, and the generation is retired only when its last reader
  drains.  The :class:`~repro.serving.service.ServedResult` carries the
  generation, so callers can verify the answer against from-scratch
  evaluation *at the version it was served from*.
* **Per-tenant sessions sharing one graph.**  Each (tenant, generation)
  pair lazily gets its own :class:`~repro.olap.session.OLAPSession` —
  private result cache, planner and history — over the *shared* published
  graph; tenants are isolated in state, not in data.  Two queries of one
  tenant may run concurrently in the same session (the result cache is
  lock-protected for exactly this).
* **A publish is not a cold start.**  A tenant's new session *adopts* the
  cache entries of its predecessor — the tenant's newest older session, or,
  when that generation has already retired, the entries it bequeathed —
  stale-stamped (:meth:`ResultCache.adopt <repro.olap.cache.ResultCache.adopt>`).
  A stale stamp is never served: the first read of each cube in the new
  generation prices a delta refresh (the generation's graph carries the
  writer's change-log tail) against recomputing, and normally patches.
* **A single writer.**  :meth:`OLAPService.update` applies triple deltas
  to the authoritative heap graph under the writer lock and republishes;
  readers never observe a half-applied batch.

The service is an ``async`` object: construct it, then ``async with`` it
(or call :meth:`aclose` yourself).  Query execution itself runs on a
bounded thread pool (`max_concurrency` threads), so the event loop stays
responsive while the engine works; only a fresh cache hit whose answer is
already decoded is answered on the loop, since it reads and computes nothing.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import (
    QueueFullError,
    ServiceClosedError,
    ServingError,
    TenantBusyError,
)
from repro.analytics.query import AnalyticalQuery
from repro.analytics.schema import AnalyticalSchema
from repro.olap.cache import DEFAULT_CAPACITY, CacheEntry, carried, in_log_window
from repro.olap.cube import Cube
from repro.olap.session import OLAPSession
from repro.rdf.graph import Graph
from repro.serving.generations import GenerationManager, GraphGeneration

__all__ = ["OLAPService", "ServedResult", "PublishResult", "ServiceStats", "TenantState"]


@dataclass
class ServedResult:
    """One answered query with its provenance.

    ``graph_version`` is the generation version the answer is consistent
    with; ``generation`` keeps that generation's graph reachable, so a
    differential check (``scratch evaluation at the served version``) is
    always possible, even after the service has moved on.
    """

    tenant: str
    query: AnalyticalQuery
    cube: Cube
    graph_version: int
    generation: GraphGeneration
    strategy: str
    seconds: float
    waited_seconds: float

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"ServedResult({self.tenant!r}, {self.query.name!r}, "
            f"{len(self.cube)} cells @ v{self.graph_version}, {self.strategy})"
        )


@dataclass
class PublishResult:
    """Outcome of one writer update."""

    mutations: int
    published: bool
    version: int


class ServiceStats:
    """Served / rejected / published accounting of one service."""

    __slots__ = (
        "served",
        "rejected_queue_full",
        "rejected_tenant_busy",
        "rejected_closed",
        "updates",
        "update_failures",
        "publishes",
        "served_by_tenant",
    )

    def __init__(self) -> None:
        self.served = 0
        self.rejected_queue_full = 0
        self.rejected_tenant_busy = 0
        self.rejected_closed = 0
        self.updates = 0
        #: Batches that raised and were rolled back — never counted in
        #: ``updates``, which only ever counts batches readers can observe.
        self.update_failures = 0
        self.publishes = 0
        self.served_by_tenant: Dict[str, int] = {}

    @property
    def rejected(self) -> int:
        """Total rejections across all typed causes."""
        return self.rejected_queue_full + self.rejected_tenant_busy + self.rejected_closed

    def as_dict(self) -> Dict[str, object]:
        return {
            "served": self.served,
            "rejected": self.rejected,
            "rejected_queue_full": self.rejected_queue_full,
            "rejected_tenant_busy": self.rejected_tenant_busy,
            "rejected_closed": self.rejected_closed,
            "updates": self.updates,
            "update_failures": self.update_failures,
            "publishes": self.publishes,
            "served_by_tenant": dict(self.served_by_tenant),
        }

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"ServiceStats(served={self.served}, rejected={self.rejected}, "
            f"updates={self.updates}, publishes={self.publishes})"
        )


@dataclass(frozen=True)
class Bequest:
    """What a retired session left its tenant: its cache entries carried to
    the writer graph's dictionary, read by the heir the way a cache is."""

    version: int  #: of the generation the session served
    oldest: int  #: stamp held: the writer's change log must reach back to it
    kept: Tuple[CacheEntry, ...]
    pins: Tuple[str, ...]

    def entries(self) -> Tuple[CacheEntry, ...]:
        return self.kept

    def pinned_keys(self) -> Tuple[str, ...]:
        return self.pins


@dataclass
class TenantState:
    """Per-tenant bookkeeping: concurrency cap and per-generation sessions."""

    name: str
    limit: int
    inflight: int = 0
    served: int = 0
    #: Generation version -> that generation's private OLAPSession.
    sessions: Dict[int, OLAPSession] = field(default_factory=dict)
    #: Entries of the newest retired session no live session succeeded yet.
    bequest: Optional[Bequest] = None


class OLAPService:
    """Concurrent, multi-tenant, snapshot-isolated OLAP serving layer.

    Parameters
    ----------
    instance:
        The mutable authoritative AnS instance graph (the writer's copy).
    schema:
        Optional analytical schema shared by every tenant session.
    max_concurrency:
        Queries executing simultaneously (the executor thread count).
    max_queue_depth:
        Admitted queries allowed to *wait* for an execution slot beyond
        the ``max_concurrency`` running ones; the next is rejected with
        :class:`~repro.errors.QueueFullError`.
    per_tenant_limit:
        In-flight queries (waiting + running) allowed per tenant before
        :class:`~repro.errors.TenantBusyError`.
    cache_capacity:
        Result-cache bound of each per-tenant session.
    engine:
        Execution engine pin passed to every session (None = auto).
    publish_mode / spool_dir:
        Generation publication knobs — see
        :class:`~repro.serving.generations.GenerationManager`.

    Examples
    --------
    >>> import asyncio
    >>> from repro.datagen.generic import GenericConfig, generic_dataset, generic_query
    >>> dataset = generic_dataset(GenericConfig(facts=30, dimensions=2, seed=3))
    >>> query = generic_query(dataset.config, aggregate="count")
    >>> async def serve_one():
    ...     async with OLAPService(dataset.instance, dataset.schema) as service:
    ...         result = await service.query("tenant-a", query)
    ...         return len(result.cube) > 0, result.graph_version == service.current_version
    >>> asyncio.run(serve_one())
    (True, True)
    """

    def __init__(
        self,
        instance: Graph,
        schema: Optional[AnalyticalSchema] = None,
        max_concurrency: int = 4,
        max_queue_depth: int = 16,
        per_tenant_limit: int = 2,
        cache_capacity: int = DEFAULT_CAPACITY,
        engine: Optional[str] = None,
        publish_mode: str = "auto",
        spool_dir: Optional[str] = None,
    ):
        if max_concurrency < 1:
            raise ServingError(f"max_concurrency must be >= 1, got {max_concurrency}")
        if max_queue_depth < 0:
            raise ServingError(f"max_queue_depth must be >= 0, got {max_queue_depth}")
        if per_tenant_limit < 1:
            raise ServingError(f"per_tenant_limit must be >= 1, got {per_tenant_limit}")
        self.schema = schema
        self._max_concurrency = int(max_concurrency)
        self._max_queue_depth = int(max_queue_depth)
        self._per_tenant_limit = int(per_tenant_limit)
        self._cache_capacity = cache_capacity
        self._engine = engine
        self._generations = GenerationManager(
            instance,
            spool_dir=spool_dir,
            mode=publish_mode,
            on_retire=self._close_generation_sessions,
        )
        self._tenants: Dict[str, TenantState] = {}
        # Guards the tenant table, every tenant's session map and bequest:
        # the loop thread inserts while the retire hook (run by whichever
        # thread published or unpinned last) pops.
        self._tenants_lock = threading.Lock()
        self._executor = ThreadPoolExecutor(
            max_workers=self._max_concurrency, thread_name_prefix="repro-serving"
        )
        self._waiting = 0
        self._inflight = 0
        self._closed = False
        self.stats = ServiceStats()
        # asyncio primitives bind to a running loop; created lazily on the
        # first awaited call (and re-created if that loop has since closed,
        # so a service object survives consecutive asyncio.run() calls as
        # long as it is idle in between).
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._slots: Optional[asyncio.Semaphore] = None
        self._writer_lock: Optional[asyncio.Lock] = None
        self._drained: Optional[asyncio.Event] = None

    # -- introspection -------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def current_version(self) -> int:
        """The generation version new queries are admitted against."""
        return self._generations.current.version

    @property
    def generations(self) -> GenerationManager:
        return self._generations

    @property
    def max_concurrency(self) -> int:
        return self._max_concurrency

    @property
    def max_queue_depth(self) -> int:
        return self._max_queue_depth

    @property
    def per_tenant_limit(self) -> int:
        return self._per_tenant_limit

    @property
    def inflight(self) -> int:
        """Admitted queries not yet completed (waiting + running)."""
        return self._inflight

    def tenants(self) -> List[str]:
        with self._tenants_lock:
            return sorted(self._tenants)

    def tenant(self, name: str) -> TenantState:
        """The (existing or fresh) bookkeeping record for ``name``."""
        with self._tenants_lock:
            state = self._tenants.get(name)
            if state is None:
                state = self._tenants[name] = TenantState(name, self._per_tenant_limit)
            return state

    # -- async plumbing ------------------------------------------------

    def _ensure_loop_state(self) -> None:
        loop = asyncio.get_running_loop()
        if self._loop is loop:
            return
        if self._loop is not None and not self._loop.is_closed() and self._inflight > 0:
            raise ServingError(
                "OLAPService is bound to a different running event loop; "
                "drive one service from one loop"
            )
        self._loop = loop
        self._slots = asyncio.Semaphore(self._max_concurrency)
        self._writer_lock = asyncio.Lock()
        # Signalled whenever ``_inflight`` drops to zero; aclose() awaits it
        # instead of polling.  Starts set: a service with nothing in flight
        # is already drained.
        self._drained = asyncio.Event()
        if self._inflight == 0:
            self._drained.set()

    async def __aenter__(self) -> "OLAPService":
        self._ensure_loop_state()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    # -- reads ---------------------------------------------------------

    async def query(self, tenant: str, query: AnalyticalQuery) -> ServedResult:
        """Admit, execute and answer ``query`` for ``tenant``.

        Raises a typed :class:`~repro.errors.AdmissionError` subclass when
        the query cannot be admitted; otherwise answers against the
        generation pinned at admission time, no matter how many updates
        land while the query waits or runs.
        """
        if self._closed:
            self.stats.rejected_closed += 1
            raise ServiceClosedError()
        self._ensure_loop_state()
        state = self.tenant(tenant)
        if state.inflight >= state.limit:
            self.stats.rejected_tenant_busy += 1
            raise TenantBusyError(tenant, state.inflight, state.limit)
        # ``_waiting`` counts queries genuinely blocked on an execution slot
        # (admission never suspends between this check and the semaphore, so
        # the counter is exact).  Reject only a query that *would* wait into
        # a full queue — one that would run immediately is always admitted.
        running = self._inflight - self._waiting
        if running >= self._max_concurrency and self._waiting >= self._max_queue_depth:
            self.stats.rejected_queue_full += 1
            raise QueueFullError(self._waiting, self._max_queue_depth)
        state.inflight += 1
        self._inflight += 1
        self._waiting += 1
        self._drained.clear()
        generation = self._generations.pin_current()
        admitted = time.perf_counter()
        try:
            try:
                await self._slots.acquire()
            finally:
                self._waiting -= 1
            try:
                started = time.perf_counter()
                session, predecessor = self._session_for(state, generation)
                # A fresh, decoded hit is answered here on the loop (it only
                # reads the entry); anything else runs on the executor.
                cube = None if predecessor is not None else session.cached_cube(query, decode=False)
                if cube is None:
                    if predecessor is not None:  # a new session's first read: not a cold start
                        await self._loop.run_in_executor(
                            self._executor, self._adopt, session, predecessor
                        )
                    cube = await self._loop.run_in_executor(
                        self._executor, self._execute, session, query
                    )
                finished = time.perf_counter()
            finally:
                self._slots.release()
            generation.served += 1
            state.served += 1
            self.stats.served += 1
            self.stats.served_by_tenant[tenant] = (
                self.stats.served_by_tenant.get(tenant, 0) + 1
            )
            return ServedResult(
                tenant=tenant,
                query=query,
                cube=cube,
                graph_version=generation.version,
                generation=generation,
                strategy=cube.record.strategy,
                seconds=finished - started,
                waited_seconds=started - admitted,
            )
        finally:
            state.inflight -= 1
            self._inflight -= 1
            if self._inflight == 0 and self._drained is not None:
                self._drained.set()
            self._generations.unpin(generation)

    @staticmethod
    def _execute(session: OLAPSession, query: AnalyticalQuery) -> Cube:
        return session.execute(query)

    @staticmethod
    def _adopt(session: OLAPSession, predecessor) -> None:
        session.cache.adopt(predecessor.entries(), session.instance, predecessor.pinned_keys())

    def _session_for(self, state: TenantState, generation: GraphGeneration):
        """``(session, predecessor)``: a session created by this call has yet
        to adopt (on the executor) from ``predecessor`` — the cache of the
        tenant's newest older session or, that generation retired, its bequest."""
        version = generation.version
        with self._tenants_lock:
            session = state.sessions.get(version)
        if session is not None:
            return session, None
        session = OLAPSession(
            generation.graph,
            self.schema,
            cache_capacity=self._cache_capacity,
            engine=self._engine,
        )
        with self._tenants_lock:
            older = {seen: held.cache for seen, held in state.sessions.items() if seen < version}
            if state.bequest is not None and state.bequest.version < version:
                older[state.bequest.version] = state.bequest
                state.bequest = None
            state.sessions[version] = session
        return session, older[max(older)] if older else None

    # -- writes --------------------------------------------------------

    async def update(
        self,
        add: Iterable = (),
        remove: Iterable = (),
        mutate: Optional[Callable[[Graph], object]] = None,
        publish: bool = True,
    ) -> PublishResult:
        """Apply a delta to the authoritative graph and republish.

        The single-writer discipline is enforced with an async lock:
        concurrent callers serialize, and the mutation + publication runs
        on the executor, so the event loop keeps admitting reads (which
        stay snapshot-isolated on their pinned generations throughout).
        ``mutate`` receives the writer graph for arbitrary batches beyond
        plain ``add``/``remove`` triples; with ``publish=False`` the delta
        is applied but only becomes visible at the next published update.

        Batches are **atomic**: when any triple of the batch, the
        ``mutate`` callback or the publication raises, the applied part is
        rolled back before the error propagates, so a later successful
        update can never publish a torn or failed batch.  Failed batches
        count in ``stats.update_failures``, never in ``stats.updates``.
        """
        if self._closed:
            self.stats.rejected_closed += 1
            raise ServiceClosedError("the serving layer is closed to writes")
        self._ensure_loop_state()
        add = tuple(add)
        remove = tuple(remove)
        async with self._writer_lock:
            writer = self._generations.writer_graph

            def apply_and_publish() -> PublishResult:
                before = writer.version
                writer.apply(add=add, remove=remove)
                previous = self._generations.current.version
                try:
                    if mutate is not None:
                        mutate(writer)
                    mutations = writer.version - before
                    version = self._generations.publish().version if publish else previous
                except Exception as error:
                    self._roll_back(writer, before, error)
                    raise
                return PublishResult(mutations, published=version != previous, version=version)

            try:
                result = await self._loop.run_in_executor(self._executor, apply_and_publish)
            except Exception:
                self.stats.update_failures += 1
                raise
        self.stats.updates += 1
        if result.published:
            self.stats.publishes += 1
        # A bequest whose oldest stamp left the writer's log window could
        # only be invalidated by its heir: an idle tenant must not hold it.
        with self._tenants_lock:
            for state in self._tenants.values():
                if state.bequest is not None and not in_log_window(state.bequest.oldest, writer):
                    state.bequest = None
        return result

    @staticmethod
    def _roll_back(writer: Graph, before: int, error: Exception) -> None:
        """Undo a batch whose ``mutate`` callback or publication failed.

        The explicit ``add``/``remove`` lists are atomic on their own
        (:meth:`~repro.rdf.graph.Graph.apply`).  A failed ``mutate``
        callback may have made arbitrary effective mutations, and a failed
        publication follows the whole batch, so the rollback replays the
        graph's own coalesced deltas since the batch started (which subsume
        the applied lists); when the change log cannot reconstruct them
        (overflow inside one batch, or ``clear()``), the writer really is
        torn and a :class:`~repro.errors.ServingError` chains the original
        error rather than silently leaving half a batch behind.
        """
        delta = writer.deltas_since(before)
        if delta is None:
            raise ServingError(
                "update batch failed and its effects cannot be rolled "
                "back (the change log cannot reconstruct the batch); the writer "
                "graph is torn — rebuild it before publishing again"
            ) from error
        decode = writer.decode_id
        writer.apply(
            remove=[tuple(map(decode, triple)) for triple in delta.added],
            add=[tuple(map(decode, triple)) for triple in delta.removed],
        )

    def stream_ingestor(self, **kwargs):
        """A :class:`~repro.ingest.stream.StreamIngestor` sinking into this
        service: micro-batches flow through the single writer's atomic
        :meth:`update` and publish a new generation per batch.  Keyword
        arguments (``capacity``, ``batch_size``, ``max_batch_age``,
        ``backpressure``, ``scheduler``) pass through to the ingestor.
        """
        from repro.ingest.stream import StreamIngestor

        return StreamIngestor(self, **kwargs)

    # -- lifecycle -----------------------------------------------------

    def _close_generation_sessions(self, generation: GraphGeneration) -> None:
        """Retire hook: drop every tenant's session for a drained generation.

        A closing session that no newer session of its tenant succeeded yet
        bequeaths its entries to the tenant, carried to the writer graph's
        dictionary (an append-only superset of every generation's, alive as
        long as the service) — so the retired graph is not kept reachable.
        Runs on whichever thread retired the generation; the tenants lock
        covers the table read and the hand-over, never the rebinding or
        ``close()``, and until the hand-over the session stays registered: an
        heir created meanwhile adopts from it directly.
        """
        writer = self._generations.writer_graph
        version = generation.version
        with self._tenants_lock:
            closing = [
                (state, state.sessions[version])
                for state in self._tenants.values()
                if version in state.sessions
            ]
        for state, session in closing:
            kept = tuple(carried(session.cache.entries(), writer))
            oldest = min([entry.graph_version for entry in kept], default=0)
            bequest = Bequest(version, oldest, kept, session.cache.pinned_keys())
            with self._tenants_lock:
                if state.sessions.pop(version, None) is None:
                    continue  # aclose() got there first
                succeeded = -1 if state.bequest is None else state.bequest.version
                if kept and version > max([succeeded, *state.sessions]):
                    state.bequest = bequest
            session.close()

    async def aclose(self) -> None:
        """Stop admitting queries, drain in-flight work, release everything.

        Idempotent.  New queries (and updates) are rejected with
        :class:`~repro.errors.ServiceClosedError` the moment closing
        starts; queries already admitted finish normally and are awaited.
        """
        if self._closed:
            return
        self._closed = True
        # Wait on the drain event (set when the last in-flight query's
        # bookkeeping completes) instead of a sleep-poll loop: close wakes
        # the moment the service drains, not up to a poll period later.
        if self._inflight > 0 and self._drained is not None:
            await self._drained.wait()
        with self._tenants_lock:
            for state in self._tenants.values():
                for session in state.sessions.values():
                    session.close()
                state.sessions.clear()
                state.bequest = None
        self._generations.close()
        self._executor.shutdown(wait=True)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"OLAPService(v{self.current_version}, {len(self._tenants)} tenants, "
            f"{self.stats.served} served, {self.stats.rejected} rejected)"
        )
