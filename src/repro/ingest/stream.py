"""Micro-batched streaming ingestion with backpressure and coalescing.

PR 3 made cached cubes survive *batched* updates; this module turns a
continuous stream of add/remove triples into those batches.  The design is
the classic write-ahead staging buffer of streaming stores:

* **Bounded buffer, typed backpressure.**  Pending mutations live in a
  bounded net-effect buffer.  When it is full, the synchronous submit paths
  raise :class:`~repro.errors.IngestBackpressureError` (typed: carries the
  depth and the bound) and the asynchronous ones either raise or *block*
  until a flush frees space — the caller picks with ``backpressure=``.
* **Coalescing before the graph.**  The buffer keys pending mutations by
  triple and keeps only the *last* mutation of each: an ``add`` chased by
  a ``remove`` of the same triple (or vice versa) collapses to the later
  mutation in place, so at most one graph operation per triple survives a
  burst of churn.  Duplicate submissions of the same pending mutation are
  absorbed for free.  Last-writer-wins is the only sound reduction for
  set-semantics graphs: the final state of a triple is decided by its last
  mutation alone, whereas cancelling an opposite *pair* outright would
  assume the earlier mutation had been effective — wrong exactly when it
  was a no-op (adding a triple the graph already holds, or removing one it
  never did).  Mutations of distinct triples commute, and same-triple
  mutations totally order through the single buffer slot.
* **Micro-batches at a cadence.**  A batch is cut when the buffer reaches
  ``batch_size`` pending mutations (size threshold) or the oldest pending
  mutation reaches ``max_batch_age`` seconds (age threshold); an async
  pump task (:meth:`StreamIngestor.start_pump`) enforces the age cadence
  autonomously, and :meth:`~StreamIngestor.flush` /
  :meth:`~StreamIngestor.aflush` cut one on demand.
* **Atomic application.**  Batches apply through the serving layer's
  single writer (:meth:`repro.serving.service.OLAPService.update`, itself
  atomic since this PR) or directly onto a bare
  :class:`~repro.rdf.graph.Graph` with the same
  roll-back-the-applied-prefix discipline, so a failed batch never leaves
  the sink half-mutated.
* **Refresh scheduling.**  After every applied batch the attached
  :class:`~repro.ingest.scheduler.RefreshScheduler` (when given) walks its
  registered session caches and patches (or drops) the stale entries that
  are read often; the read path prices the rest.
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import (
    IngestBackpressureError,
    IngestClosedError,
    IngestError,
    IngestPumpError,
    InvalidTripleError,
)
from repro.rdf.triples import Triple

__all__ = ["AppliedBatch", "IngestStats", "StreamIngestor", "DEFAULT_CAPACITY", "DEFAULT_BATCH_SIZE"]

#: Default bound on pending (coalesced) mutations in the buffer.
DEFAULT_CAPACITY = 4096
#: Default size threshold: pending mutations that cut a micro-batch.
DEFAULT_BATCH_SIZE = 256
#: Default age threshold in seconds: a pending mutation older than this
#: forces a flush even when the size threshold has not been reached.
DEFAULT_MAX_BATCH_AGE = 0.05


@dataclass
class AppliedBatch:
    """One micro-batch that reached the sink, with its provenance."""

    #: Monotonic batch number within this ingestor (0-based).
    sequence: int
    adds: Tuple[Triple, ...]
    removes: Tuple[Triple, ...]
    #: What cut the batch: ``"size"``, ``"age"`` or ``"forced"``.
    reason: str
    #: Wall-clock seconds spent applying (and publishing) the batch.
    seconds: float
    #: The sink's version after the batch (service publish version, or the
    #: bare graph's change counter).
    version: int

    def __len__(self) -> int:
        return len(self.adds) + len(self.removes)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"AppliedBatch(#{self.sequence}, +{len(self.adds)}/-{len(self.removes)}, "
            f"{self.reason}, v{self.version})"
        )


@dataclass
class IngestStats:
    """Accepted / coalesced / rejected / applied accounting of one ingestor."""

    #: Mutations offered to the ingestor (before coalescing).
    submitted: int = 0
    #: Mutations that grew the pending buffer.
    accepted: int = 0
    #: Pending mutations overwritten by an opposite mutation of the
    #: same triple (last-writer-wins: the earlier one never touches
    #: the graph).
    superseded: int = 0
    #: Submissions identical to an already-pending mutation (absorbed).
    duplicates: int = 0
    #: Submissions refused with :class:`IngestBackpressureError`.
    rejected: int = 0
    #: Async submissions that had to wait for a flush to free space.
    blocked: int = 0
    batches: int = 0
    applied_adds: int = 0
    applied_removes: int = 0
    failed_batches: int = 0
    #: Batches per cut reason (``size`` / ``age`` / ``forced``).
    flush_reasons: Dict[str, int] = field(default_factory=dict)

    @property
    def coalesced(self) -> int:
        """Submitted mutations that never reached the sink (superseded + dups)."""
        return self.superseded + self.duplicates


class StreamIngestor:
    """Turns a continuous triple stream into atomic micro-batches.

    Parameters
    ----------
    sink:
        Where batches land: an :class:`~repro.serving.service.OLAPService`
        (batches go through the single writer's atomic
        :meth:`~repro.serving.service.OLAPService.update` and republish) or
        a bare mutable :class:`~repro.rdf.graph.Graph` (batches apply
        directly through the same atomic
        :meth:`~repro.rdf.graph.Graph.apply`).
    capacity:
        Bound on pending coalesced mutations (backpressure beyond it).
    batch_size:
        Size threshold: a flush cuts at most this many mutations, and the
        buffer reaching it makes a batch *due*.
    max_batch_age:
        Age threshold in seconds: a pending mutation older than this makes
        a batch due even below ``batch_size``.
    backpressure:
        ``"error"`` — a full buffer always raises
        :class:`~repro.errors.IngestBackpressureError`;
        ``"block"`` — the async submit paths instead wait for a flush to
        free space (the sync paths still raise: they have no way to wait
        without deadlocking their own consumer).
    scheduler:
        Optional :class:`~repro.ingest.scheduler.RefreshScheduler` invoked
        after every applied batch.
    clock:
        Monotonic time source (injectable for deterministic age tests).

    Examples
    --------
    >>> from repro.rdf.graph import Graph
    >>> from repro.rdf.namespaces import EX
    >>> from repro.rdf.triples import Triple
    >>> graph = Graph()
    >>> ingestor = StreamIngestor(graph, batch_size=4)
    >>> ingestor.add(Triple(EX.a, EX.p, EX.b))   # buffered, not yet applied
    >>> len(graph)
    0
    >>> ingestor.remove(Triple(EX.a, EX.p, EX.b))  # supersedes the add
    >>> ingestor.pending                           # one pending remove
    1
    >>> ingestor.add(Triple(EX.c, EX.p, EX.d))
    >>> batch = ingestor.flush(force=True)
    >>> (len(graph), batch.reason, ingestor.stats.superseded)
    (1, 'forced', 1)
    """

    def __init__(
        self,
        sink,
        capacity: int = DEFAULT_CAPACITY,
        batch_size: int = DEFAULT_BATCH_SIZE,
        max_batch_age: float = DEFAULT_MAX_BATCH_AGE,
        backpressure: str = "error",
        scheduler=None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if capacity < 1:
            raise IngestError(f"capacity must be >= 1, got {capacity}")
        if batch_size < 1:
            raise IngestError(f"batch_size must be >= 1, got {batch_size}")
        if max_batch_age < 0:
            raise IngestError(f"max_batch_age must be >= 0, got {max_batch_age}")
        if backpressure not in ("error", "block"):
            raise IngestError(
                f"backpressure must be 'error' or 'block', got {backpressure!r}"
            )
        update = getattr(sink, "update", None)
        self._service_sink = asyncio.iscoroutinefunction(update)
        if not self._service_sink and not hasattr(sink, "add"):
            raise IngestError(
                f"sink must be an OLAPService or a mutable Graph, got {type(sink).__name__}"
            )
        self._sink = sink
        self._capacity = int(capacity)
        self._batch_size = int(batch_size)
        self._max_batch_age = float(max_batch_age)
        self._backpressure = backpressure
        self._scheduler = scheduler
        self._clock = clock
        #: Triple -> (net sign: +1 add / -1 remove, arrival clock reading),
        #: oldest arrival first.  Supersession keeps slot position and
        #: arrival, so the front entry is always the oldest and the age
        #: threshold never restarts for surviving mutations.
        self._pending: "OrderedDict[Triple, Tuple[int, float]]" = OrderedDict()
        self._sequence = 0
        self._closed = False
        self._pump_task: Optional[asyncio.Task] = None
        #: Why the background pump died, when it did (see start_pump).
        self._pump_error: Optional[BaseException] = None
        # Created lazily in async context: set whenever a flush frees space.
        self._space: Optional[asyncio.Event] = None
        self._flush_lock: Optional[asyncio.Lock] = None
        self.stats = IngestStats()
        self.applied: List[AppliedBatch] = []

    # -- introspection -------------------------------------------------

    @property
    def sink(self):
        return self._sink

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def batch_size(self) -> int:
        return self._batch_size

    @property
    def max_batch_age(self) -> float:
        return self._max_batch_age

    @property
    def backpressure(self) -> str:
        return self._backpressure

    @property
    def scheduler(self):
        return self._scheduler

    @property
    def pending(self) -> int:
        """Coalesced mutations waiting in the buffer."""
        return len(self._pending)

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def pump_error(self) -> Optional[BaseException]:
        """The exception that killed the background pump, or None.

        While set, the submit paths raise
        :class:`~repro.errors.IngestPumpError` instead of quietly buffering
        into a stream nobody flushes; :meth:`start_pump` clears it.
        """
        return self._pump_error

    def due(self) -> bool:
        """True when a micro-batch should be cut now (size or age)."""
        return self._due_reason() is not None

    def _due_reason(self) -> Optional[str]:
        """Why a batch is due now — ``"size"`` or ``"age"`` — or None.

        The front entry of the buffer is the oldest pending mutation.
        """
        pending = self._pending
        if not pending:
            return None
        if len(pending) >= self._batch_size:
            return "size"
        oldest = next(iter(pending.values()))[1]
        return "age" if self._clock() - oldest >= self._max_batch_age else None

    # -- submission ----------------------------------------------------

    @staticmethod
    def _as_triple(triple) -> Triple:
        """Normalize to a validated :class:`Triple` at the ingest boundary.

        Malformed input is rejected *here*, before it is buffered — a bad
        triple must fail its producer, never poison a later micro-batch.
        """
        if isinstance(triple, Triple):
            return triple
        try:
            subject, predicate, object_ = triple
        except (TypeError, ValueError) as exc:
            raise InvalidTripleError(f"cannot interpret {triple!r} as a triple") from exc
        return Triple(subject, predicate, object_)

    def _group(self, add: Iterable, remove: Iterable) -> List[Tuple[Triple, int]]:
        """Validate a submitted group: ``(triple, sign)`` pairs, removes first."""
        return [(self._as_triple(triple), -1) for triple in remove] + [
            (self._as_triple(triple), 1) for triple in add
        ]

    def _growth(self, group: List[Tuple[Triple, int]]) -> int:
        """How many slots ``group`` adds to the buffer: a triple already
        pending, or repeated within the group, coalesces into one slot."""
        pending = self._pending
        return len({triple for triple, _ in group if triple not in pending})

    def _admit(self, group: List[Tuple[Triple, int]], count_reject: bool = True) -> None:
        """Coalesce a validated group into the buffer, all or nothing.

        Raises :class:`IngestBackpressureError` — before buffering any of
        it — when the group's growth would exceed ``capacity``;
        ``count_reject=False`` keeps the raise out of ``stats.rejected``
        (blocking callers retry, they don't reject).
        """
        if self._closed:
            raise IngestClosedError()
        if self._pump_error is not None:
            raise IngestPumpError(self._pump_error) from self._pump_error
        pending = self._pending
        if len(pending) + self._growth(group) > self._capacity:
            if count_reject:
                self.stats.rejected += len(group)
            raise IngestBackpressureError(len(pending), self._capacity)
        self.stats.submitted += len(group)
        for triple, sign in group:
            existing = pending.get(triple)
            if existing is None:
                pending[triple] = (sign, self._clock())
                self.stats.accepted += 1
            elif existing[0] == sign:
                self.stats.duplicates += 1
            else:
                # Opposite mutation of a pending triple: the last writer
                # wins.  The slot keeps its position and arrival (the oldest
                # pending intent still bounds the batch age), only the sign
                # flips.  Cancelling the pair outright would be unsound: it
                # assumes the pending mutation would have been effective,
                # which a no-op add (triple already in the sink) or no-op
                # remove (never there) is not.
                pending[triple] = (sign, existing[1])
                self.stats.superseded += 1

    def add(self, triple) -> None:
        """Buffer one triple addition (synchronous; raises when full)."""
        self.ingest(add=(triple,))

    def remove(self, triple) -> None:
        """Buffer one triple removal (synchronous; raises when full)."""
        self.ingest(remove=(triple,))

    def ingest(self, add: Iterable = (), remove: Iterable = ()) -> None:
        """Buffer a group of mutations, all or nothing (synchronous; raises
        when the group does not fit, having buffered none of it)."""
        self._admit(self._group(add, remove))

    async def aingest(self, add: Iterable = (), remove: Iterable = ()) -> None:
        """Async group submit, all or nothing: blocks under
        ``backpressure="block"`` until the whole group fits.

        With a pump task running, a blocked producer waits for the pump's
        next flush; without one it drains a due batch inline — either way
        the await returns only once the group is buffered (or cancels with
        the typed error under ``backpressure="error"``, or at once for a
        group that outgrows ``capacity`` and so can never fit).
        """
        group = self._group(add, remove)
        # Whether the group can *ever* fit is its distinct triples against
        # capacity — not its growth over what is pending now, which a flush
        # can raise.
        blocking = self._backpressure == "block" and len({t for t, _ in group}) <= self._capacity
        while True:
            try:
                self._admit(group, count_reject=not blocking)
                return
            except IngestBackpressureError:
                if not blocking:
                    raise
                self.stats.blocked += 1
                await self._wait_for_space()

    async def _wait_for_space(self) -> None:
        pump = self._pump_task
        if pump is not None and not pump.done():
            # A live pump will flush; wait for it to signal freed space (or
            # for its failure handler to set the event and record the error
            # that the retry in aingest then surfaces).
            if self._space is None:
                self._space = asyncio.Event()
            self._space.clear()
            await self._space.wait()
        else:
            # No pump (or a dead one): the producer is its own consumer —
            # cut a batch now.
            await self.aflush(force=True)

    async def aadd(self, triple) -> None:
        await self.aingest(add=(triple,))

    async def aremove(self, triple) -> None:
        await self.aingest(remove=(triple,))

    # -- flushing ------------------------------------------------------

    def _take_batch(self, force: bool) -> Optional[Tuple[List[Tuple[Triple, int, float]], str]]:
        """Pop up to ``batch_size`` pending mutations, oldest first.

        Returns ``(items, reason)`` — items are ``(triple, sign, arrival)``
        — or None when no batch is due.  Popping *before* any (possibly
        awaited) application means two concurrent flushes can never ship
        the same mutation twice; survivors keep their own arrival stamps,
        so cutting a batch never restarts their age.
        """
        reason = self._due_reason() or ("forced" if force and self._pending else None)
        if reason is None:
            return None
        items: List[Tuple[Triple, int, float]] = []
        pending = self._pending
        while pending and len(items) < self._batch_size:
            triple, (sign, arrival) = pending.popitem(last=False)
            items.append((triple, sign, arrival))
        return items, reason

    def _requeue(self, items: List[Tuple[Triple, int, float]]) -> None:
        """Put a failed batch's mutations back at the front of the buffer.

        The sink's rollback discipline guarantees a failed batch left it
        unchanged, so re-queuing (for the caller's retry) loses nothing and
        double-applies nothing.  The items re-enter at the front with their
        original arrival stamps — they are older than everything pending —
        except where a newer mutation of the same triple arrived while the
        batch was in flight: last-writer-wins, the newer slot stands.  The
        buffer may transiently exceed ``capacity``; refusing the re-queue
        would turn backpressure into data loss.
        """
        pending = self._pending
        for triple, sign, arrival in reversed(items):
            if triple in pending:
                continue
            pending[triple] = (sign, arrival)
            pending.move_to_end(triple, last=False)

    async def _apply_batch(self, force: bool) -> Optional[AppliedBatch]:
        """Cut one batch, apply it to the sink and record it; None when none is due.

        A bare graph applies it through :meth:`~repro.rdf.graph.Graph.apply`
        (this coroutine then never suspends: see :func:`_run_inline`), a
        service through its single writer's ``update``.  Both are atomic, so
        a failed batch left the sink unchanged: its mutations are re-queued
        and a transient failure costs a retry, not the mutations.
        """
        taken = self._take_batch(force)
        if taken is None:
            return None
        items, reason = taken
        adds = tuple(triple for triple, sign, _ in items if sign > 0)
        removes = tuple(triple for triple, sign, _ in items if sign < 0)
        started = time.perf_counter()
        try:
            if self._service_sink:
                version = (await self._sink.update(add=adds, remove=removes)).version
            else:
                self._sink.apply(add=adds, remove=removes)
                version = self._sink.version
        except Exception:
            self.stats.failed_batches += 1
            self._requeue(items)
            raise
        batch = AppliedBatch(
            self._sequence, adds, removes, reason, time.perf_counter() - started, version
        )
        self._sequence += 1
        stats = self.stats
        stats.batches += 1
        stats.applied_adds += len(adds)
        stats.applied_removes += len(removes)
        stats.flush_reasons[reason] = stats.flush_reasons.get(reason, 0) + 1
        self.applied.append(batch)
        if self._space is not None:
            self._space.set()
        if self._scheduler is not None:
            self._scheduler.after_batch(batch)
        return batch

    def flush(self, force: bool = False) -> Optional[AppliedBatch]:
        """Cut and apply one micro-batch synchronously (bare-graph sinks).

        Returns the applied batch, or None when nothing is due (pass
        ``force=True`` to cut a below-threshold batch).  Service sinks are
        asynchronous — use :meth:`aflush` (calling ``flush`` on one raises).
        """
        if self._service_sink:
            raise IngestError(
                "this ingestor's sink is an OLAPService; use aflush()/adrain()"
            )
        return _run_inline(self._apply_batch(force))

    async def aflush(self, force: bool = False) -> Optional[AppliedBatch]:
        """Cut and apply one micro-batch (any sink; service sinks await)."""
        if not self._service_sink:
            return self.flush(force=force)
        if self._flush_lock is None:
            self._flush_lock = asyncio.Lock()
        async with self._flush_lock:
            return await self._apply_batch(force)

    def drain(self) -> List[AppliedBatch]:
        """Flush until the buffer is empty (synchronous sinks)."""
        batches = []
        while self._pending:
            batch = self.flush(force=True)
            if batch is not None:
                batches.append(batch)
        return batches

    async def adrain(self) -> List[AppliedBatch]:
        """Flush until the buffer is empty (any sink)."""
        batches = []
        while self._pending:
            batch = await self.aflush(force=True)
            if batch is not None:
                batches.append(batch)
        return batches

    def pump(self) -> Optional[AppliedBatch]:
        """Apply one micro-batch *if due* (the sync cadence driver).

        Callers feeding a bare graph interleave ``pump()`` with their
        submissions; it is a no-op until the size or age threshold trips.
        """
        if not self.due():
            return None
        return self.flush()

    # -- async pump / lifecycle ---------------------------------------

    def start_pump(self, interval: Optional[float] = None) -> asyncio.Task:
        """Start the background flush task enforcing the age cadence.

        Must be called with a running event loop.  The pump wakes every
        ``interval`` seconds (default: half the age threshold) and flushes
        whenever a batch is due; :meth:`aclose` cancels it and drains.  If
        a previous pump died on a flush failure (see :attr:`pump_error`),
        starting a new one clears the error and resumes ingestion — the
        failed batch is still in the buffer, re-queued.
        """
        if self._closed:
            raise IngestClosedError()
        if self._pump_task is not None and not self._pump_task.done():
            return self._pump_task
        self._pump_error = None
        loop = asyncio.get_running_loop()
        period = interval if interval is not None else max(self._max_batch_age / 2, 0.001)
        self._pump_task = loop.create_task(self._pump_loop(period))
        return self._pump_task

    async def _pump_loop(self, period: float) -> None:
        try:
            while True:
                await asyncio.sleep(period)
                while self.due():
                    await self.aflush()
        except asyncio.CancelledError:
            pass
        except Exception as exc:
            # A flush failure must not kill the pump *silently*: producers
            # blocked in _wait_for_space would sleep forever and the task
            # exception would go unretrieved.  Record the failure (the
            # submit paths re-raise it as IngestPumpError) and wake every
            # blocked producer so they observe it.
            self._pump_error = exc
            if self._space is None:
                self._space = asyncio.Event()
            self._space.set()

    async def aclose(self) -> None:
        """Stop the pump, drain the buffer, refuse further submissions."""
        if self._closed:
            return
        if self._pump_task is not None:
            self._pump_task.cancel()
            try:
                await self._pump_task
            except asyncio.CancelledError:
                pass
            self._pump_task = None
        await self.adrain()
        self._closed = True

    def close(self) -> None:
        """Drain and close a pump-less ingestor synchronously."""
        if self._closed:
            return
        if self._pump_task is not None and not self._pump_task.done():
            raise IngestError("a pump task is running; use aclose()")
        if self._service_sink:
            raise IngestError(
                "this ingestor's sink is an OLAPService; use aclose()"
            )
        self.drain()
        self._closed = True

    async def __aenter__(self) -> "StreamIngestor":
        self.start_pump()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    def __enter__(self) -> "StreamIngestor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover
        kind = "service" if self._service_sink else "graph"
        return (
            f"StreamIngestor({kind} sink, {self.pending}/{self._capacity} pending, "
            f"{self.stats.batches} batches)"
        )


def _run_inline(coroutine):
    """The result of a coroutine that finishes without suspending."""
    try:
        coroutine.send(None)
    except StopIteration as finished:
        return finished.value
    coroutine.close()
    raise IngestError("a synchronous batch suspended")
