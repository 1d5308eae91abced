"""MVCC graph generations: publish, pin, drain, retire.

The serving layer never lets a reader observe a half-applied update.  The
single writer owns a mutable heap :class:`~repro.rdf.graph.Graph` (the
authoritative instance) and *publishes* immutable **generations** of it;
every admitted query pins the generation that is current at admission time
and keeps answering against it even while the writer applies deltas and
publishes successors.  A generation is retired — its snapshot file
unlinked, its per-tenant sessions closed — only when it is no longer
current *and* its last pinned reader has drained.

Two publication modes:

``snapshot``
    :func:`repro.storage.snapshot.save_snapshot` merges the current
    generation's file with the writer's delta into a spool file (a file it
    cannot use gives a from-scratch write, counted in ``scratch_writes``)
    and the generation re-opens it as a read-only memory-mapped
    :class:`~repro.storage.mapped.SnapshotGraph`.  Readers
    share the file's pages through the OS page cache, the columnar kernels
    run zero-copy over it, and an accidental mutation raises
    :class:`~repro.errors.ReadOnlyGraphError` — isolation is enforced by
    construction, not convention.  Requires numpy (the ``[fast]`` extra).
``heap``
    The writer graph is deep-copied per publication
    (:meth:`~repro.rdf.graph.Graph.copy`, id-preserving).  O(instance) per publish and no
    read-only enforcement, but dependency-free — the fallback the
    ``auto`` mode selects when numpy is missing.

Version stamps carry through either way, and so does history: a published
generation's graph (an id-preserving copy — snapshots store the dictionary
in id order, :meth:`~repro.rdf.graph.Graph.copy` keeps the ids) takes over
the writer's :attr:`~repro.rdf.graph.Graph.version` *and the retained tail
of its change log* (:meth:`~repro.rdf.graph.Graph.adopt_history`).
``generation.graph.deltas_since(older_generation.version)`` therefore answers
the coalesced delta between the two generations, exactly as the live writer
graph would — and ``None`` exactly when the writer's own log could not
(overflow past the stamp, ``change_log_limit=0``, ``clear()``).  That is
what lets the version-stamped cache machinery carry a tenant's cubes across
a publish by delta refresh instead of starting every generation cold (see
:class:`~repro.serving.service.OLAPService`).
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
from typing import Callable, List, Optional

from repro.errors import ServingError
from repro.rdf.graph import Graph

__all__ = ["GraphGeneration", "GenerationManager", "resolve_publish_mode"]


def resolve_publish_mode(mode: str = "auto") -> str:
    """Resolve ``auto`` to ``snapshot`` when numpy is importable, else ``heap``.

    Explicit ``"snapshot"`` / ``"heap"`` pass through unchanged (a
    snapshot request without numpy will surface the usual
    :class:`~repro.errors.ConfigurationError` naming the ``[fast]`` extra
    at first publish).
    """
    if mode not in ("auto", "snapshot", "heap"):
        raise ServingError(
            f"unknown publish mode {mode!r}; expected auto, snapshot or heap"
        )
    if mode != "auto":
        return mode
    try:
        import numpy  # noqa: F401
    except ImportError:
        return "heap"
    return "snapshot"


class GraphGeneration:
    """One published, immutable graph version plus its reader pin count.

    ``pins`` counts the in-flight readers (plus the manager's own pin while
    the generation is current); the generation's resources are released
    only after the count drains to zero *and* a successor has been
    published.  Instances are handed out by :class:`GenerationManager` —
    pin/unpin through the manager, never directly.
    """

    __slots__ = ("version", "graph", "path", "pins", "retired", "served")

    def __init__(self, version: int, graph: Graph, path: Optional[str] = None):
        #: The writer graph's change counter at publish time.
        self.version = version
        #: The immutable published view (SnapshotGraph or frozen heap copy).
        self.graph = graph
        #: Spool file backing a snapshot-mode generation (None in heap mode).
        self.path = path
        self.pins = 0
        self.retired = False
        #: Queries answered against this generation (observability).
        self.served = 0

    def __repr__(self) -> str:  # pragma: no cover
        state = "retired" if self.retired else f"{self.pins} pins"
        return f"GraphGeneration(v{self.version}, {len(self.graph)} triples, {state})"


class GenerationManager:
    """Owns the writer graph and the chain of published generations.

    Parameters
    ----------
    instance:
        The mutable authoritative graph.  Only the writer (through
        :meth:`~repro.serving.service.OLAPService.update`) may mutate it.
    spool_dir:
        Directory for snapshot-mode spool files.  Defaults to a private
        temporary directory that is removed on :meth:`close`.
    mode:
        ``"auto"`` (default) / ``"snapshot"`` / ``"heap"`` — see
        :func:`resolve_publish_mode`.
    on_retire:
        Callback invoked with each :class:`GraphGeneration` right before
        its resources are released (the service closes that generation's
        per-tenant sessions here).
    """

    def __init__(
        self,
        instance: Graph,
        spool_dir: Optional[str] = None,
        mode: str = "auto",
        on_retire: Optional[Callable[[GraphGeneration], None]] = None,
    ):
        self._writer_graph = instance
        self._mode = resolve_publish_mode(mode)
        self._on_retire = on_retire
        self._owns_spool = spool_dir is None and self._mode == "snapshot"
        if spool_dir is None and self._mode == "snapshot":
            spool_dir = tempfile.mkdtemp(prefix="repro-serving-")
        elif spool_dir is not None:
            os.makedirs(spool_dir, exist_ok=True)
        self._spool_dir = spool_dir
        self._lock = threading.Lock()
        self._closed = False
        self.published_count = 0
        self.retired_count = 0
        #: Snapshot publishes whose predecessor file could not be merged from.
        self.scratch_writes = 0
        self._live: List[GraphGeneration] = []
        self._current: Optional[GraphGeneration] = None
        self._current = self._publish_locked()

    # -- introspection -------------------------------------------------

    @property
    def mode(self) -> str:
        """The resolved publication mode: ``"snapshot"`` or ``"heap"``."""
        return self._mode

    @property
    def writer_graph(self) -> Graph:
        """The mutable authoritative graph (single-writer discipline)."""
        return self._writer_graph

    @property
    def current(self) -> GraphGeneration:
        return self._current

    def live_generations(self) -> List[GraphGeneration]:
        """Generations not yet retired, oldest first (observability)."""
        with self._lock:
            return list(self._live)

    # -- pinning -------------------------------------------------------

    def pin_current(self) -> GraphGeneration:
        """Pin and return the current generation (one reader admitted).

        The pin guarantees the generation's graph, spool file and sessions
        stay alive until the matching :meth:`unpin` — even across any
        number of intervening publications.
        """
        with self._lock:
            if self._closed:
                raise ServingError("generation manager is closed")
            generation = self._current
            generation.pins += 1
            return generation

    def unpin(self, generation: GraphGeneration) -> None:
        """Release one reader pin; retire the generation when drained."""
        retire = None
        with self._lock:
            if generation.pins <= 0:  # pragma: no cover - double-unpin guard
                raise ServingError(
                    f"generation v{generation.version} unpinned more times than pinned"
                )
            generation.pins -= 1
            if generation.pins == 0 and generation is not self._current:
                retire = generation
        if retire is not None:
            self._retire(retire)

    # -- publication ---------------------------------------------------

    def publish(self) -> GraphGeneration:
        """Publish the writer graph's current state as a new generation.

        No-op (returns the current generation) when the writer graph has
        not changed since the last publication.  The previous generation
        loses the manager's own pin and is retired as soon as its last
        reader drains.
        """
        with self._lock:
            if self._closed:
                raise ServingError("generation manager is closed")
            if self._writer_graph.version == self._current.version:
                return self._current
            previous = self._current
            self._current = self._publish_locked()
            previous.pins -= 1  # the manager's currency pin
            retire = previous if previous.pins == 0 else None
        if retire is not None:
            self._retire(retire)
        return self._current

    def _publish_locked(self) -> GraphGeneration:
        version = self._writer_graph.version
        if self._mode == "snapshot":
            from repro.storage.snapshot import load_snapshot, save_snapshot

            path = os.path.join(self._spool_dir, f"gen-{version:010d}.snap")
            predecessor = self._current and self._current.path
            if not save_snapshot(self._writer_graph, path, predecessor=predecessor) and predecessor:
                self.scratch_writes += 1
            try:
                graph: Graph = load_snapshot(path, mmap=True)
            except Exception:
                os.unlink(path)
                raise
        else:
            path = None
            graph = self._writer_graph.copy()
        # Either way the published graph holds the writer's triples under the
        # writer's ids; put it on the writer's version axis, log tail included.
        graph.adopt_history(self._writer_graph)
        generation = GraphGeneration(version, graph, path)
        generation.pins = 1  # the manager's own pin while current
        self.published_count += 1
        self._live.append(generation)
        return generation

    # -- retirement ----------------------------------------------------

    def _retire(self, generation: GraphGeneration) -> None:
        generation.retired = True
        self.retired_count += 1
        with self._lock:
            if generation in self._live:
                self._live.remove(generation)
        if self._on_retire is not None:
            self._on_retire(generation)
        if generation.path is not None:
            # Unlinking is safe while readers that still hold the graph
            # object keep the mmap open (POSIX keeps the pages valid).
            try:
                os.unlink(generation.path)
            except OSError:  # pragma: no cover - already gone / spool removed
                pass

    def close(self) -> None:
        """Retire every generation and remove an owned spool directory.

        Callers must have drained all readers first (the service awaits its
        in-flight queries before closing the manager); a still-pinned
        generation is retired anyway — this is final shutdown.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            remaining = list(self._live)
            self._live = []
        for generation in remaining:
            self._retire(generation)
        if self._owns_spool and self._spool_dir is not None:
            shutil.rmtree(self._spool_dir, ignore_errors=True)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"GenerationManager(mode={self._mode}, current=v{self._current.version}, "
            f"{self.published_count} published, {self.retired_count} retired)"
        )
