"""Refresh of hot stale cubes after each ingested micro-batch.

After every published micro-batch some cached cubes are stale.  The read
path prices each stale entry on every read
(:meth:`~repro.olap.planner.OLAPPlanner.plan_query` ranks ``refresh-cached``
against recomputing), so a cube nobody reads again costs nothing.  What a
batch can change is *when* a patch is paid: a cube read often is patched now,
off the read path, so its next read is a plain hit.

:class:`RefreshScheduler` walks its sessions' caches after each batch and
hands every hot stale entry (at least :data:`HOT_HITS` observed hits) to
:meth:`~repro.olap.planner.OLAPPlanner.refresh_stale`, the planner's one
refresh decision off the read path: it patches the entry when the patch is
the cheapest way to answer it and drops it otherwise.  Cold stale entries
are left to the read path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.errors import IngestError

__all__ = ["RefreshScheduler", "SchedulerStats"]

#: An entry read at least this many times since materialization is hot: the
#: walk patches it.  Matches the advisor's notion that one access is not a
#: pattern.
HOT_HITS = 2


@dataclass
class SchedulerStats:
    """Cumulative counts of one scheduler's walks."""

    #: Batches after which the scheduler walked its sessions.
    batches: int = 0
    #: Stale entries seen across all walks.
    walked: int = 0
    #: Hot stale entries patched.
    eager_refreshes: int = 0
    #: Cold stale entries left to the read path, once per walk that saw
    #: them (the name is the benchmark's).
    lazy_marks: int = 0
    #: Hot stale entries dropped: their patch was not the cheapest answer,
    #: or the change log no longer reached back to their stamp.
    invalidations: int = 0


class RefreshScheduler:
    """Patches hot stale cubes after each batch; cold ones wait for a read.

    Register the :class:`~repro.olap.session.OLAPSession` objects whose
    caches serve reads over the ingested graph (typically sessions sharing
    the ingestor's bare-graph sink); attach the scheduler to a
    :class:`~repro.ingest.stream.StreamIngestor` and it runs after every
    applied micro-batch, or call :meth:`after_batch` yourself.

    Parameters
    ----------
    sessions:
        Sessions to walk; more can join later via :meth:`register`.
    policy:
        ``"auto"``, the only rule; any other value raises
        :class:`~repro.errors.IngestError`.
    """

    def __init__(self, sessions=(), policy: str = "auto"):
        if policy != "auto":
            raise IngestError(f"unknown refresh policy {policy!r}; the only one is 'auto'")
        self._sessions: List = list(sessions)
        self.stats = SchedulerStats()

    @property
    def sessions(self) -> Tuple:
        return tuple(self._sessions)

    def register(self, session) -> None:
        """Add a session whose cache this scheduler maintains."""
        if session not in self._sessions:
            self._sessions.append(session)

    def after_batch(self, batch=None) -> None:
        """Walk every registered session cache and refresh its hot stale entries.

        ``batch`` (the :class:`~repro.ingest.stream.AppliedBatch` that just
        published) is accepted for the ingestor hook signature; the walk only
        needs the sessions' current graph versions.
        """
        for session in self._sessions:
            self._walk(session)
        self.stats.batches += 1

    def _walk(self, session) -> None:
        # An entailing session's instance is its ρdf closure, which only
        # follows the source graph when synced.
        session.sync()
        version, stats = session.instance.version, self.stats
        for entry in session.cache.entries():
            if entry.graph_version >= version:
                continue  # fresh (or from the future of another graph)
            stats.walked += 1
            if entry.hits < HOT_HITS:
                stats.lazy_marks += 1
            elif session.planner.refresh_stale(entry.query) is None:
                stats.invalidations += 1
            else:
                stats.eager_refreshes += 1

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"RefreshScheduler({len(self._sessions)} sessions, "
            f"{self.stats.eager_refreshes} refreshed / {self.stats.lazy_marks} left cold / "
            f"{self.stats.invalidations} invalidated)"
        )
