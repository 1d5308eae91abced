"""Continuous refresh scheduling over session caches during ingestion.

After every published micro-batch the question is what to do with each
cached cube the batch left stale.  Three answers exist, and each is right
somewhere:

* **eager** — patch it now through the
  :class:`~repro.olap.maintenance.DeltaMaintainer`, paying refresh cost off
  the read path so the next read is a plain hit;
* **lazy** — mark it for refresh-on-read
  (:meth:`~repro.olap.cache.ResultCache.mark_lazy`): the read path patches
  it on first access — after pricing the patch against recomputing once
  more, since later batches grow the delta — and entries nobody reads again
  cost nothing;
* **invalidate** — drop it (:meth:`~repro.olap.cache.ResultCache.invalidate`,
  which keeps a pin) when patching is priced at or above recomputing from
  scratch (keeping it would only waste memory — the read path would never
  choose the patch).

The :class:`RefreshScheduler` makes that call per entry, per batch.  Its
``"auto"`` policy follows the entry's observed hit rate
(:attr:`~repro.olap.cache.CacheEntry.hits`): hot entries refresh eagerly,
cold ones go lazy.  Pricing flows through
:meth:`~repro.olap.planner.OLAPPlanner.price_refresh` — the planner's own
``refresh-cached`` and ``scratch`` candidates, so the scheduler never
eagerly applies a patch the read path would have rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import IngestError

__all__ = ["POLICIES", "RefreshDecision", "RefreshScheduler", "SchedulerStats"]

#: Supported scheduling policies.  ``"eager"`` and ``"lazy"`` force one
#: action for every patchable entry (the fixed baselines ``"auto"`` is
#: tested against, and a choice for callers who know their read pattern);
#: ``"auto"`` splits by hit rate.  All three invalidate entries whose
#: refresh is priced at or above a from-scratch recomputation.
POLICIES = ("eager", "lazy", "auto")

#: ``"auto"``'s default hotness bar: an entry read at least this many
#: times since materialization refreshes eagerly, anything colder goes
#: lazy.  Matches the advisor's notion that one access is not a pattern.
DEFAULT_HOT_HITS = 2


@dataclass
class RefreshDecision:
    """One scheduling decision for one stale cache entry."""

    #: Canonical cache key of the entry.
    key: str
    query_name: str
    #: ``"eager"``, ``"lazy"``, ``"invalidate"`` or ``"dropped"`` (the
    #: cache itself discarded the entry as unpatchable before the
    #: scheduler could choose).
    action: str
    refresh_cost: float
    scratch_cost: float
    #: The entry's access count when the decision was made.
    hits: int

    def as_dict(self) -> Dict[str, object]:
        return {
            "key": self.key,
            "query_name": self.query_name,
            "action": self.action,
            "refresh_cost": self.refresh_cost,
            "scratch_cost": self.scratch_cost,
            "hits": self.hits,
        }

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"RefreshDecision({self.query_name!r}: {self.action}, "
            f"refresh={self.refresh_cost:.1f} vs scratch={self.scratch_cost:.1f}, "
            f"hits={self.hits})"
        )


class SchedulerStats:
    """Cumulative decision counts of one scheduler."""

    __slots__ = ("batches", "walked", "eager_refreshes", "lazy_marks", "invalidations", "dropped")

    def __init__(self) -> None:
        #: Batches after which the scheduler walked its sessions.
        self.batches = 0
        #: Stale entries examined across all walks.
        self.walked = 0
        self.eager_refreshes = 0
        self.lazy_marks = 0
        #: Entries dropped because refresh was priced >= scratch.
        self.invalidations = 0
        #: Entries the cache discarded as unpatchable during the walk.
        self.dropped = 0

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:  # pragma: no cover
        parts = ", ".join(f"{name}={getattr(self, name)}" for name in self.__slots__)
        return f"SchedulerStats({parts})"


class RefreshScheduler:
    """Chooses eager / lazy / invalidate for stale cubes after each batch.

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
        One of :data:`POLICIES`.  ``"auto"`` (default) refreshes entries
        with at least ``hot_hits`` observed accesses eagerly and marks the
        rest lazy; ``"eager"`` / ``"lazy"`` force that action for every
        profitably-patchable entry.
    hot_hits:
        The ``"auto"`` hotness bar (ignored by the forced policies).
    """

    def __init__(self, sessions=(), policy: str = "auto", hot_hits: int = DEFAULT_HOT_HITS):
        if policy not in POLICIES:
            raise IngestError(
                f"unknown refresh policy {policy!r}; expected one of {POLICIES}"
            )
        if hot_hits < 0:
            raise IngestError(f"hot_hits must be >= 0, got {hot_hits}")
        self._sessions: List = list(sessions)
        self._policy = policy
        self._hot_hits = int(hot_hits)
        self.stats = SchedulerStats()
        #: Decisions of the most recent walk (replaced wholesale each batch).
        self.last_decisions: Tuple[RefreshDecision, ...] = ()

    @property
    def policy(self) -> str:
        return self._policy

    @property
    def hot_hits(self) -> int:
        return self._hot_hits

    @property
    def sessions(self) -> Tuple:
        return tuple(self._sessions)

    def register(self, session) -> None:
        """Add a session whose cache this scheduler maintains."""
        if session not in self._sessions:
            self._sessions.append(session)

    # ------------------------------------------------------------------

    def after_batch(self, batch=None) -> Tuple[RefreshDecision, ...]:
        """Walk every registered session cache and act on stale entries.

        ``batch`` (the :class:`~repro.ingest.stream.AppliedBatch` that just
        published) is accepted for the ingestor hook signature but the walk
        only needs the sessions' current graph versions.  Returns (and
        stores in :attr:`last_decisions`) the decisions taken.
        """
        decisions: List[RefreshDecision] = []
        for session in self._sessions:
            decisions.extend(self._walk(session))
        self.stats.batches += 1
        self.last_decisions = tuple(decisions)
        return self.last_decisions

    def _walk(self, session) -> List[RefreshDecision]:
        # An entailing session's instance is its ρdf closure, which only
        # follows the source graph when synced.
        session.sync()
        cache = session.cache
        graph = session.instance
        decisions: List[RefreshDecision] = []
        for entry in cache.entries():
            if entry.graph_version >= graph.version:
                continue  # fresh (or from the future of another graph)
            if cache.is_lazy(entry.key):
                continue  # already scheduled; the read path prices and owns it now
            self.stats.walked += 1
            decisions.append(self._decide(session, cache, graph, entry))
        return decisions

    def _decide(self, session, cache, graph, entry) -> RefreshDecision:
        query = entry.query
        hits = entry.hits
        # stale_entry() re-checks patchability and drops entries whose
        # deltas outran the graph's change log — that drop is the cache's
        # own invalidation, recorded here as "dropped".
        found = cache.stale_entry(query, graph)
        if found is None:
            self.stats.dropped += 1
            return RefreshDecision(
                key=entry.key,
                query_name=query.name,
                action="dropped",
                refresh_cost=float("inf"),
                scratch_cost=0.0,
                hits=hits,
            )
        entry, delta = found
        refresh_cost, scratch_cost = session.planner.price_refresh(entry, delta)
        action = self._choose(refresh_cost, scratch_cost, hits)
        if action == "eager":
            refreshed = cache.refresh(query, graph, session.maintainer)
            if refreshed is None:
                # The patch failed under our feet (e.g. the log rolled on
                # between pricing and patching); the cache already dropped it.
                self.stats.dropped += 1
                action = "dropped"
            else:
                self.stats.eager_refreshes += 1
        elif action == "lazy":
            cache.mark_lazy(entry.key)
            self.stats.lazy_marks += 1
        else:  # invalidate
            cache.invalidate(entry.key)
            self.stats.invalidations += 1
        return RefreshDecision(
            key=entry.key,
            query_name=query.name,
            action=action,
            refresh_cost=refresh_cost,
            scratch_cost=scratch_cost,
            hits=hits,
        )

    def _choose(self, refresh_cost: float, scratch_cost: float, hits: int) -> str:
        if refresh_cost >= scratch_cost:
            # Patching costs at least a recomputation: the read path would
            # never take the patch, so a retained entry is dead weight.
            # Drop it.
            return "invalidate"
        if self._policy == "eager":
            return "eager"
        if self._policy == "lazy":
            return "lazy"
        return "eager" if hits >= self._hot_hits else "lazy"

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"RefreshScheduler(policy={self._policy!r}, {len(self._sessions)} sessions, "
            f"{self.stats.eager_refreshes} eager / {self.stats.lazy_marks} lazy / "
            f"{self.stats.invalidations} invalidated)"
        )
