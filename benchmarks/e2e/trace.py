"""Per-layer spans recorded from outside the program.

The :class:`Tracer` replaces a fixed list of *public* callables of
``repro`` with timing wrappers, keeps the spans in memory, and restores the
originals on exit.  Nothing under ``src/`` knows about it: class methods
are patched on their class, module-level functions in every loaded
``repro.*`` module whose attribute *is* the original (``from x import f``
creates such aliases).

A span is ``[name, start, end, parent, op_id, thread]``.  The parent comes
from a :class:`~contextvars.ContextVar`, which behaves as a per-thread
stack for synchronous code and as a per-task stack for coroutines (two
interleaved ``service.query`` calls never adopt each other's spans).  A
span that starts on a service pool thread finds no parent there and is a
root tagged with that thread.  Spans inside worker *processes* are not
captured, so ``olap.parallel.answer`` carries the workers' time as its own.

A span's **self time** is its duration minus the durations of its direct
children; within one thread children nest inside their parent and do not
overlap, so the self times of an operation's spans add up to its root
span's duration.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from contextvars import ContextVar
from typing import Dict, List, Optional, Tuple

__all__ = ["OP_ID", "SPAN_TARGETS", "Tracer"]

#: The load generator's operation number; spans of one request share it.
OP_ID: ContextVar[Optional[int]] = ContextVar("e2e_op_id", default=None)
_CURRENT: ContextVar[Optional[list]] = ContextVar("e2e_current_span", default=None)

#: ``span name -> (module, attribute path)``; a dotted attribute path names a
#: method on a class of that module.  Several callables may share one span
#: name (the three synchronous submit entry points of the ingestor).
SPAN_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("olap.session.execute", "repro.olap.session", "OLAPSession.execute"),
    ("olap.session.transform", "repro.olap.session", "OLAPSession.transform"),
    ("olap.planner.plan", "repro.olap.planner", "OLAPPlanner.plan"),
    ("olap.plan.execute", "repro.olap.planner", "Plan.execute"),
    ("olap.rewriting.answer", "repro.olap.rewriting", "OLAPRewriter.answer"),
    ("olap.cache.get", "repro.olap.cache", "ResultCache.get"),
    ("olap.cache.put", "repro.olap.cache", "ResultCache.put"),
    ("olap.cache.refresh", "repro.olap.cache", "ResultCache.refresh"),
    ("olap.maintenance.refresh", "repro.olap.maintenance", "DeltaMaintainer.refresh"),
    ("olap.parallel.answer", "repro.olap.parallel", "ParallelExecutor.evaluate"),
    ("olap.cube.init", "repro.olap.cube", "Cube.__init__"),
    ("analytics.partial_result", "repro.analytics.evaluator", "AnalyticalQueryEvaluator.partial_result"),
    ("analytics.answer_from_partial", "repro.analytics.evaluator", "AnalyticalQueryEvaluator.answer_from_partial"),
    ("analytics.roll_partial", "repro.analytics.rolling", "roll_partial"),
    ("bgp.evaluate_ids", "repro.bgp.evaluator", "BGPEvaluator.evaluate_ids"),
    ("algebra.join_on", "repro.algebra.operators", "join_on"),
    ("algebra.select", "repro.algebra.operators", "select"),
    ("algebra.group_aggregate", "repro.algebra.grouping", "group_aggregate"),
    ("rdf.statistics.refresh", "repro.rdf.statistics", "GraphStatistics.refresh"),
    ("storage.save_snapshot", "repro.storage.snapshot", "save_snapshot"),
    ("storage.load_snapshot", "repro.storage.snapshot", "load_snapshot"),
    ("serving.query", "repro.serving.service", "OLAPService.query"),
    ("serving.update", "repro.serving.service", "OLAPService.update"),
    ("serving.generations.publish", "repro.serving.generations", "GenerationManager.publish"),
    ("ingest.submit", "repro.ingest.stream", "StreamIngestor.ingest"),
    ("ingest.submit", "repro.ingest.stream", "StreamIngestor.add"),
    ("ingest.submit", "repro.ingest.stream", "StreamIngestor.remove"),
    ("ingest.flush", "repro.ingest.stream", "StreamIngestor.flush"),
    ("ingest.scheduler.after_batch", "repro.ingest.scheduler", "RefreshScheduler.after_batch"),
)

SPAN_NAMES: Tuple[str, ...] = tuple(dict.fromkeys(name for name, _, _ in SPAN_TARGETS))


class Tracer:
    """Owns the timing wrappers and the recorded spans.

    Construct it once everything the run imports is loaded: the attributes to
    replace are resolved here, so :meth:`install` and :meth:`uninstall` are a
    few dozen ``setattr`` calls and can alternate every fraction of a second.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        #: ``(owner, attribute, original, wrapper)`` for every attribute to replace.
        self._targets: List[Tuple[object, str, object, object]] = []
        self._installed = False
        for name, module_name, path in SPAN_TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, attribute = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = inspect.getattr_static(owner, attribute)
                self._targets.append((owner, attribute, original, self._wrap(name, original)))
                continue
            original = getattr(module, attribute)
            wrapper = self._wrap(name, original)
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded is None or not loaded_name.startswith("repro"):
                    continue
                for alias, value in list(vars(loaded).items()):
                    if value is original:
                        self._targets.append((loaded, alias, original, wrapper))

    # -- install / restore ------------------------------------------------

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer is already installed")
        self._installed = True
        for owner, attribute, _, wrapper in self._targets:
            setattr(owner, attribute, wrapper)

    def uninstall(self) -> None:
        for owner, attribute, original, _ in self._targets:
            setattr(owner, attribute, original)
        self._installed = False

    def targets(self) -> List[Tuple[object, str, object]]:
        """``(owner, attribute, original)`` of every attribute the tracer replaces."""
        return [(owner, attribute, original) for owner, attribute, original, _ in self._targets]

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name: str, original):
        spans = self.spans
        clock = time.perf_counter
        thread_of = threading.get_ident

        def begin() -> Tuple[list, object]:
            span = [name, 0.0, 0.0, _CURRENT.get(), OP_ID.get(), thread_of()]
            spans.append(span)
            token = _CURRENT.set(span)
            span[1] = clock()
            return span, token

        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def traced(*args, **kwargs):
                span, token = begin()
                try:
                    return await original(*args, **kwargs)
                finally:
                    span[2] = clock()
                    _CURRENT.reset(token)

        else:

            @functools.wraps(original)
            def traced(*args, **kwargs):
                span, token = begin()
                try:
                    return original(*args, **kwargs)
                finally:
                    span[2] = clock()
                    _CURRENT.reset(token)

        return traced

    # -- reading the spans ------------------------------------------------

    def self_times(self) -> List[float]:
        """Self time of every span, in :attr:`spans` order."""
        covered: Dict[int, float] = {}
        for span in self.spans:
            parent = span[3]
            if parent is not None:
                covered[id(parent)] = covered.get(id(parent), 0.0) + (span[2] - span[1])
        return [(span[2] - span[1]) - covered.get(id(span), 0.0) for span in self.spans]

    def summary(self) -> Dict[str, Dict[str, float]]:
        """``{span name: {"calls": n, "self_s": seconds}}`` for every known name."""
        totals = {name: {"calls": 0, "self_s": 0.0} for name in SPAN_NAMES}
        for span, self_time in zip(self.spans, self.self_times()):
            entry = totals[span[0]]
            entry["calls"] += 1
            entry["self_s"] += self_time
        return totals

    def dump(self) -> List[Dict[str, object]]:
        """The spans as JSON-ready rows; ``parent`` is a row index or None."""
        index = {id(span): position for position, span in enumerate(self.spans)}
        return [
            {
                "name": name,
                "start": start,
                "end": end,
                "parent": index.get(id(parent)) if parent is not None else None,
                "op_id": op_id,
                "thread": thread,
            }
            for name, start, end, parent, op_id, thread in self.spans
        ]
