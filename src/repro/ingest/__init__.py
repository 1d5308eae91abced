"""Streaming ingestion: micro-batched writes with continuous refresh.

:class:`~repro.ingest.stream.StreamIngestor` turns a continuous stream of
add/remove triples into coalesced, atomic micro-batches applied to a bare
:class:`~repro.rdf.graph.Graph` or through the serving layer's single
writer, with bounded-buffer backpressure (typed error or async blocking).
:class:`~repro.ingest.scheduler.RefreshScheduler` runs after every
published batch and patches the stale cached cubes that are read often
(or drops them, when :meth:`~repro.olap.planner.OLAPPlanner.refresh_stale`
prices recomputing below patching); the read path prices the rest.
"""

from __future__ import annotations

from repro.ingest.scheduler import RefreshScheduler, SchedulerStats
from repro.ingest.stream import (
    DEFAULT_BATCH_SIZE,
    DEFAULT_CAPACITY,
    AppliedBatch,
    IngestStats,
    StreamIngestor,
)

__all__ = [
    "AppliedBatch",
    "DEFAULT_BATCH_SIZE",
    "DEFAULT_CAPACITY",
    "IngestStats",
    "RefreshScheduler",
    "SchedulerStats",
    "StreamIngestor",
]
