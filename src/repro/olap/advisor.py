"""Workload-driven materialization advisor for OLAP sessions.

The session already records everything an index advisor needs: every
executed query and OLAP transformation lands in
:attr:`~repro.olap.session.OLAPSession.history` with its winning strategy,
predicted cost and observed plan/execute timings, and every cache entry
counts its hits.  :class:`WorkloadAdvisor` mines that record in the classic
profile-workload → recommend → evaluate loop:

* **materialize** — canonical query keys the workload keeps coming back to;
  pre-materializing them at session start turns the first access of the
  next replay into a cache hit.  :func:`apply_recommendations` warms them
  through :meth:`~repro.olap.session.OLAPSession.execute`, so with a
  ``cache_dir`` they also flow into the persistent store and survive the
  process.
* **pin** — hot entries protected against LRU eviction
  (:meth:`~repro.olap.cache.ResultCache.pin`), so a burst of one-off
  queries cannot wash out the results the dashboard replays every minute.
* **evict** — entries that never served a hit, dropped early to make room
  while the cache is under LRU pressure.

Each recommendation carries its predicted **benefit**: the rows-touched
the planner would spend answering the query from scratch minus the cost of
serving it from the cache, times the number of accesses the history
observed — i.e. rows saved per replay of the same workload.

The report also carries a :class:`~repro.olap.calibration.CostModel`
fitted from the same history (see :func:`~repro.olap.calibration.fit_cost_model`),
closing the loop: replay the workload in a new session constructed with
``cost_model=report.cost_model`` and warmed by
:func:`apply_recommendations`, and the planner both prices candidates from
observed runtimes and starts with the hot set already materialized.
``repro-olap demo --advise`` runs that loop against the static cold planner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analytics.query import AnalyticalQuery
from repro.olap.cache import canonical_query_key
from repro.olap.calibration import CostModel, fit_cost_model

__all__ = [
    "Recommendation",
    "AdvisorReport",
    "WorkloadAdvisor",
    "apply_recommendations",
]

#: Accesses a key needs before it is worth pre-materializing / pinning.
HOT_ACCESS_THRESHOLD = 2


@dataclass(frozen=True)
class Recommendation:
    """One advisor action on one canonical query key."""

    #: ``"materialize"``, ``"pin"`` or ``"evict"``.
    action: str
    #: Canonical key of the target query (see :func:`canonical_query_key`).
    key: str
    #: Display name of the query the key was derived from.
    query_name: str
    #: The query object (needed to re-materialize; not serialized).
    query: AnalyticalQuery
    #: Times the workload touched this key (history records + cache hits).
    accesses: int
    #: Predicted rows-touched saved per replay of the recorded workload.
    benefit: float
    #: Human-readable justification.
    reason: str

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly form (query object reduced to its name)."""
        return {
            "action": self.action,
            "key": self.key,
            "query_name": self.query_name,
            "accesses": self.accesses,
            "benefit": round(self.benefit, 3),
            "reason": self.reason,
        }


@dataclass
class AdvisorReport:
    """Ranked advisor output: recommendations plus a fitted cost model."""

    #: All recommendations, highest predicted benefit first.
    recommendations: List[Recommendation] = field(default_factory=list)
    #: Cost model fitted from the same history (static when unfittable).
    cost_model: CostModel = field(default_factory=CostModel)
    #: History records the advisor consumed.
    history_records: int = 0

    def __bool__(self) -> bool:
        return bool(self.recommendations)

    def __len__(self) -> int:
        return len(self.recommendations)

    def by_action(self, action: str) -> List[Recommendation]:
        return [rec for rec in self.recommendations if rec.action == action]

    @property
    def materializations(self) -> List[Recommendation]:
        return self.by_action("materialize")

    @property
    def pins(self) -> List[Recommendation]:
        return self.by_action("pin")

    @property
    def evictions(self) -> List[Recommendation]:
        return self.by_action("evict")

    def as_dict(self) -> Dict[str, object]:
        return {
            "recommendations": [rec.as_dict() for rec in self.recommendations],
            "cost_model": self.cost_model.as_dict(),
            "history_records": self.history_records,
        }

    def describe(self) -> str:
        """Multi-line human-readable report (printed by ``demo --advise``)."""
        lines = [
            f"advisor report ({self.history_records} history records, "
            f"{len(self.recommendations)} recommendations)"
        ]
        for rec in self.recommendations:
            lines.append(
                f"  {rec.action:<11} {rec.query_name:<24} "
                f"benefit~{rec.benefit:>10.1f} rows/replay  ({rec.reason})"
            )
        lines.append("  " + self.cost_model.describe())
        return "\n".join(lines)


class WorkloadAdvisor:
    """Mines one session's history into an :class:`AdvisorReport`.

    Parameters
    ----------
    session:
        The :class:`~repro.olap.session.OLAPSession` whose history, cache
        statistics and cost estimates drive the recommendations.
    hot_threshold:
        Minimum observed accesses before a key is recommended for
        pre-materialization and pinning (default
        :data:`HOT_ACCESS_THRESHOLD`).
    """

    def __init__(self, session, hot_threshold: int = HOT_ACCESS_THRESHOLD):
        self._session = session
        self._hot_threshold = max(1, int(hot_threshold))

    # -- profiling -----------------------------------------------------------

    def _access_counts(self) -> Dict[str, int]:
        """Observed accesses per canonical key.

        A key is touched whenever a history record answered its query
        *and* whenever the cache served its entry (transform origins are
        read through the cache without a record of their own, so entry
        hits are the only evidence of origin reuse).
        """
        counts: Dict[str, int] = {}
        keys_by_name: Dict[str, str] = {}
        for name, query in self._session._queries.items():
            keys_by_name[name] = canonical_query_key(query)
        for record in self._session.history:
            key = keys_by_name.get(record.query_name)
            if key is not None:
                counts[key] = counts.get(key, 0) + 1
        for entry in self._session.cache.entries():
            if entry.hits:
                counts[entry.key] = counts.get(entry.key, 0) + entry.hits
        return counts

    def _benefit(self, query: AnalyticalQuery, cells: int, accesses: int) -> float:
        """Rows-touched saved per replay by serving ``query`` from cache.

        Both sides are the planner's own candidate costs, so the advisor
        credits exactly what ``execute`` would be charged (entailment branch
        fan-out and rolling passes included).
        """
        served, scratch = self._session.planner.price_cached(query, cells)
        return max(0.0, scratch - served) * accesses

    # -- recommendation ------------------------------------------------------

    def report(self, top: int = 8) -> AdvisorReport:
        """Build the ranked report (at most ``top`` actions per category).

        Hot keys (``accesses >= hot_threshold``) are recommended for
        pre-materialization — and for pinning when they currently hold a
        live cache entry.  When nothing crosses the threshold the single
        highest-benefit key is still recommended, so a short history
        yields a usable (if modest) warm-start set.  Entries that never
        served a hit are recommended for early eviction only while the
        cache is actually under LRU pressure.
        """
        session = self._session
        counts = self._access_counts()
        cache = session.cache
        queries_by_key: Dict[str, AnalyticalQuery] = {}
        for query in session._queries.values():
            queries_by_key.setdefault(canonical_query_key(query), query)

        scored = []
        for key, query in queries_by_key.items():
            accesses = counts.get(key, 0)
            if accesses <= 0:
                continue
            entry = cache.peek(query, session.instance)
            cells = len(entry.materialized.answer) if entry is not None else 0
            benefit = self._benefit(query, cells, accesses)
            if benefit <= 0.0:
                continue
            scored.append((benefit, accesses, key, query, entry))
        scored.sort(key=lambda item: (-item[0], item[2]))

        recommendations: List[Recommendation] = []
        hot = [item for item in scored if item[1] >= self._hot_threshold]
        if not hot and scored:
            hot = scored[:1]
        for benefit, accesses, key, query, entry in hot[:top]:
            recommendations.append(
                Recommendation(
                    action="materialize",
                    key=key,
                    query_name=query.name,
                    query=query,
                    accesses=accesses,
                    benefit=benefit,
                    reason=f"accessed {accesses}x; warm start saves a scratch evaluation",
                )
            )
        for benefit, accesses, key, query, entry in hot[:top]:
            if entry is not None or cache.capacity > 0:
                recommendations.append(
                    Recommendation(
                        action="pin",
                        key=key,
                        query_name=query.name,
                        query=query,
                        accesses=accesses,
                        benefit=benefit,
                        reason="hot entry; protect from LRU eviction",
                    )
                )

        # Early eviction: only under real LRU pressure, and never a key we
        # just recommended keeping.
        keep = {rec.key for rec in recommendations}
        if cache.capacity > 0 and len(cache) >= cache.capacity:
            cold = [
                entry
                for entry in cache.entries()
                if entry.hits == 0 and entry.key not in keep
            ]
            for entry in cold[:top]:
                recommendations.append(
                    Recommendation(
                        action="evict",
                        key=entry.key,
                        query_name=entry.query.name,
                        query=entry.query,
                        accesses=counts.get(entry.key, 0),
                        benefit=0.0,
                        reason="never served a hit; free a slot under LRU pressure",
                    )
                )

        return AdvisorReport(
            recommendations=recommendations,
            cost_model=session.fit_cost_model(),
            history_records=len(session.history),
        )


def apply_recommendations(session, report: AdvisorReport) -> Dict[str, int]:
    """Apply ``report`` to ``session``; returns per-action counts.

    Pins are asserted first — they are latent
    (:meth:`~repro.olap.cache.ResultCache.pin` protects a key from the
    moment its entry lands), so the materializations that follow can never
    LRU-evict each other out of a small cache.  Materializations run
    through :meth:`~repro.olap.session.OLAPSession.execute`, so results
    flow into the cache — and its persistent store, when configured —
    then early evictions are applied.  Applying a report produced by one
    session to a *fresh* session over the same instance is the warm-start
    path: the fresh session's first replay of the workload starts with
    the hot set already cached and pinned.
    """
    counts = {"materialized": 0, "pinned": 0, "evicted": 0}
    for rec in report.pins:
        session.cache.pin(rec.key)
        counts["pinned"] += 1
    for rec in report.materializations:
        if session.cache.peek(rec.query, session.instance) is None:
            session.execute(rec.query)
            counts["materialized"] += 1
    for rec in report.evictions:
        if session.cache.evict(rec.key):
            counts["evicted"] += 1
    return counts
