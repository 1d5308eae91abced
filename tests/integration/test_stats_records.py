"""Every stats record counts in its declared fields, and nowhere else.

The five stats records are plain dataclasses, so a misspelled counter
(``stats.hitz += 1``) would add an attribute instead of raising.  Driving each
owner through the paths that count and then comparing the record's instance
attributes with its declared fields catches such a slip on both engines.  The
names the end-to-end benchmark reads stay fields or properties.
"""

import asyncio
import dataclasses

import pytest

from repro.analytics.evaluator import AnalyticalQueryEvaluator
from repro.datagen.generic import GenericConfig, generic_dataset
from repro.ingest import RefreshScheduler, StreamIngestor
from repro.ingest.scheduler import SchedulerStats
from repro.ingest.stream import IngestStats
from repro.olap.cache import CacheStats
from repro.olap.operations import DrillOut
from repro.olap.parallel import ExecutorStats, ParallelExecutor
from repro.olap.session import OLAPSession
from repro.rdf import Literal, RDF, Triple
from repro.rdf.namespaces import EX
from repro.serving import OLAPService
from repro.serving.service import ServiceStats

#: Counter names ``benchmarks/e2e/workloads.py`` reads, per record.
BENCHMARK_READS = {
    CacheStats: {"hits", "misses", "evictions", "refreshes", "lazy_refreshes", "invalidations"},
    ExecutorStats: {"fallbacks"},
    ServiceStats: {"rejected", "publishes"},
    IngestStats: {"batches", "applied_adds", "applied_removes", "coalesced"},
    SchedulerStats: {"eager_refreshes", "lazy_marks", "invalidations"},
}


@pytest.fixture(params=["rows", "columnar"])
def engine(request):
    if request.param == "columnar":
        pytest.importorskip("numpy")
    return request.param


def _fact(tag: str):
    fact = EX.term(f"fact/extra-{tag}")
    return [
        Triple(fact, RDF.term("type"), EX.term("Fact")),
        Triple(fact, EX.term("dim0"), EX.term("dimvalue/0/0")),
        Triple(fact, EX.term("dim1"), EX.term("dimvalue/1/1")),
        Triple(fact, EX.term("measure"), Literal(7)),
    ]


def _assert_counts_in_fields(stats) -> None:
    fields = {field.name for field in dataclasses.fields(stats)}
    assert set(vars(stats)) == fields
    properties = {name for name, value in vars(type(stats)).items() if isinstance(value, property)}
    assert BENCHMARK_READS[type(stats)] <= fields | properties


def test_driven_stats_hold_only_their_fields(engine):
    dataset = generic_dataset(GenericConfig(facts=40, dimensions=2, seed=5))
    graph, query = dataset.instance, dataset.query

    session = OLAPSession(graph, engine=engine)
    session.execute(query)
    session.execute(query)
    session.transform(query, DrillOut("d1"))
    scheduler = RefreshScheduler([session])
    ingestor = StreamIngestor(graph, batch_size=4, scheduler=scheduler)
    ingestor.ingest(add=_fact("a"))
    ingestor.remove(_fact("a")[-1])
    ingestor.drain()
    session.execute(query)
    assert session.cache.stats.hits >= 1 and session.cache.stats.refreshes >= 1
    assert ingestor.stats.batches >= 1 and ingestor.stats.coalesced == 1
    assert scheduler.stats.batches >= 1

    executor = ParallelExecutor(AnalyticalQueryEvaluator(graph, engine=engine), workers=1)
    executor.evaluate(query)
    assert executor.stats.dispatches == {"serial": 1}

    async def serve() -> ServiceStats:
        async with OLAPService(graph, dataset.schema, engine=engine) as service:
            await service.query("tenant", query)
            await service.update(add=_fact("b"))
            return service.stats

    served = asyncio.run(serve())
    assert served.served == 1 and served.publishes == 1

    for stats in (session.cache.stats, ingestor.stats, scheduler.stats, executor.stats, served):
        _assert_counts_in_fields(stats)
