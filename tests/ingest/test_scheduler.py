"""RefreshScheduler: per-entry eager / lazy / invalidate decisions."""

import pytest

from repro.datagen.generic import GenericConfig, generic_dataset
from repro.datagen.retail import revenue_query
from repro.errors import IngestError
from repro.ingest import POLICIES, RefreshScheduler, StreamIngestor
from repro.analytics.evaluator import AnalyticalQueryEvaluator
from repro.olap.cube import Cube
from repro.olap.operations import Slice
from repro.olap.session import OLAPSession
from repro.rdf import Literal, RDF, Triple
from repro.rdf.graph import Graph
from repro.rdf.namespaces import EX
from repro.rdf.reasoning import saturate
from repro.rdf.statistics import GraphStatistics

from tests.naive_oracle import RecountedStatistics

RDF_TYPE = RDF.term("type")


@pytest.fixture(scope="module")
def dataset():
    return generic_dataset(GenericConfig(facts=60, dimensions=2, seed=11))


@pytest.fixture()
def live(dataset):
    """A mutable copy of the dataset instance plus a session over it."""
    graph = dataset.instance.copy()
    session = OLAPSession(graph, dataset.schema)
    yield graph, session, dataset.query
    session.close()


def fact_triples(tag: str, index: int):
    fact = EX.term(f"fact/extra-{tag}-{index}")
    return [
        Triple(fact, RDF_TYPE, EX.term("Fact")),
        Triple(fact, EX.term("dim0"), EX.term("dimvalue/0/0")),
        Triple(fact, EX.term("dim1"), EX.term("dimvalue/1/1")),
        Triple(fact, EX.term("measure"), Literal(7 + index)),
    ]


def ingest_round(graph, scheduler, tag: str, rounds: int = 1):
    ingestor = StreamIngestor(graph, batch_size=4, scheduler=scheduler)
    for index in range(rounds):
        ingestor.ingest(add=fact_triples(tag, index))
        ingestor.pump()
    ingestor.drain()
    return ingestor


class TestPolicies:
    def test_eager_policy_refreshes_in_place(self, live):
        graph, session, query = live
        session.execute(query)
        scheduler = RefreshScheduler([session], policy="eager")
        ingest_round(graph, scheduler, "eager", rounds=2)
        assert scheduler.stats.eager_refreshes >= 1
        assert scheduler.stats.lazy_marks == 0
        # The cached entry is already fresh: the next read is a plain hit.
        session.execute(query)
        assert session.history[-1].strategy in ("cache", "cache[disk]")
        assert not session.cache.lazy_keys()

    def test_lazy_policy_defers_to_the_read_path(self, live):
        graph, session, query = live
        session.execute(query)
        scheduler = RefreshScheduler([session], policy="lazy")
        ingest_round(graph, scheduler, "lazy")
        assert scheduler.stats.lazy_marks == 1
        assert scheduler.stats.eager_refreshes == 0
        assert session.cache.lazy_keys()
        before = session.cache.stats.lazy_refreshes
        session.execute(query)
        assert session.history[-1].strategy == "refresh"
        assert session.cache.stats.lazy_refreshes == before + 1
        assert not session.cache.lazy_keys()  # consumed by the read

    def test_lazy_entry_is_not_rewalked(self, live):
        """A lazy-marked entry belongs to the read path; later batches skip it."""
        graph, session, query = live
        session.execute(query)
        scheduler = RefreshScheduler([session], policy="lazy")
        ingest_round(graph, scheduler, "first")
        walked = scheduler.stats.walked
        ingest_round(graph, scheduler, "second")
        assert scheduler.stats.walked == walked
        assert scheduler.stats.lazy_marks == 1

    def test_lazy_mark_defers_the_patch_not_the_pricing(self, live):
        """Batches landing after the mark grow the delta: the read re-prices it.

        Regression: a marked entry's ``refresh-cached`` candidate used to be
        returned alone, so a delta that outgrew a recomputation was still
        patched row by row.
        """
        graph, session, query = live
        session.execute(query)
        scheduler = RefreshScheduler([session], policy="lazy")
        dropped = next(iter(graph))
        ingestor = StreamIngestor(graph, batch_size=1, scheduler=scheduler)
        ingestor.ingest(remove=[dropped])
        ingestor.drain()
        (decision,) = scheduler.last_decisions
        assert decision.action == "lazy" and decision.refresh_cost < decision.scratch_cost
        # Nine tenths of the instance go away; the walk skips the marked entry.
        doomed = [triple for triple in graph][: len(graph) * 9 // 10]
        bulk = StreamIngestor(graph, batch_size=len(doomed), scheduler=scheduler)
        bulk.ingest(remove=doomed)
        bulk.drain()
        assert session.cache.lazy_keys() and scheduler.stats.lazy_marks == 1
        entry, delta = session.cache.stale_entry(query, graph)
        refresh_cost, scratch_cost = session.planner.price_refresh(entry, delta)
        assert refresh_cost > scratch_cost
        plan = session.planner.plan_query(query)
        assert {c.strategy for c in plan.candidates} == {"refresh-cached", "scratch"}
        cube = session.execute(query)
        assert session.history[-1].strategy == "scratch"
        assert session.cache.stats.lazy_refreshes == 0
        assert not session.cache.lazy_keys()  # the recomputed entry superseded the mark
        oracle = AnalyticalQueryEvaluator(graph).answer(query)
        assert cube.same_cells(Cube(oracle, query))

    def test_auto_policy_splits_by_hit_rate(self, live):
        graph, session, query = live
        cold_query = Slice("d0", EX.term("dimvalue/0/0")).apply(query)
        session.execute(query)
        session.execute(query)
        session.execute(query)  # hot: 2 hits after materialization
        session.execute(cold_query)  # cold: 0 hits
        scheduler = RefreshScheduler([session], policy="auto", hot_hits=2)
        ingest_round(graph, scheduler, "auto")
        actions = {d.query_name: d.action for d in scheduler.last_decisions}
        assert actions[query.name] == "eager"
        assert actions[cold_query.name] == "lazy"
        assert scheduler.stats.eager_refreshes == 1
        assert scheduler.stats.lazy_marks == 1

    def test_decisions_carry_the_pricing(self, live):
        graph, session, query = live
        session.execute(query)
        scheduler = RefreshScheduler([session], policy="eager")
        ingest_round(graph, scheduler, "price")
        decision = scheduler.last_decisions[0]
        assert decision.action == "eager"
        assert 0 < decision.refresh_cost < decision.scratch_cost
        assert decision.as_dict()["query_name"] == query.name

    def test_unprofitable_patch_is_invalidated(self, live):
        """When refresh prices >= scratch the entry is dropped, never marked;
        the drop is an invalidation, and the key-scoped pin survives it."""
        graph, session, query = live
        session.execute(query)
        session.cache.pin(query)
        scheduler = RefreshScheduler([session], policy="lazy")
        # A huge delta relative to the cube: patching costs more than
        # recomputing, so every policy must invalidate.
        ingestor = StreamIngestor(graph, batch_size=100000, scheduler=scheduler)
        for index in range(400):
            ingestor.ingest(add=fact_triples("bulk", index))
        ingestor.drain()
        assert scheduler.stats.invalidations == 1
        assert scheduler.stats.lazy_marks == 0
        assert not session.cache.lazy_keys()
        assert session.cache.peek(query, graph) is None
        assert session.cache.is_pinned(query)
        assert session.cache.stats.evictions == 0
        assert session.cache.stats.invalidations == 1


class TestWritePathIsDeltaSized:
    """Nothing between ``ingest()`` and the refreshed cube walks the instance."""

    @pytest.mark.parametrize("policy, served", [("eager", "cache"), ("lazy", "refresh")])
    def test_no_whole_graph_iteration(self, live, monkeypatch, policy, served):
        graph, session, query = live
        session.execute(query)
        scheduler = RefreshScheduler([session], policy=policy)
        expected = AnalyticalQueryEvaluator(
            Graph(list(graph) + fact_triples("guard", 0))
        ).answer(query)

        def scan(*_args, **_kwargs):
            raise AssertionError("whole-graph iteration on the write path")

        match_ids = Graph.match_ids

        def match_ids_with_a_constant(self, s, p, o):
            if s is None and p is None and o is None:
                scan()
            return match_ids(self, s, p, o)

        monkeypatch.setattr(Graph, "__iter__", scan)
        monkeypatch.setattr(Graph, "encoded_triples", scan)
        monkeypatch.setattr(Graph, "match_ids", match_ids_with_a_constant)
        ingest_round(graph, scheduler, "guard")
        cube = session.execute(query)
        monkeypatch.undo()
        assert session.history[-1].strategy == served
        assert cube.same_cells(Cube(expected, query))

    def test_decisions_price_as_with_recounted_statistics(self, dataset, monkeypatch):
        """Maintained statistics change what pricing costs, not what it says."""

        def decisions():
            graph = dataset.instance.copy()
            session = OLAPSession(graph, dataset.schema)
            cold_query = Slice("d0", EX.term("dimvalue/0/0")).apply(dataset.query)
            session.execute(dataset.query)
            session.execute(dataset.query)  # hot: one hit; the slice stays cold
            session.execute(cold_query)
            scheduler = RefreshScheduler([session], policy="auto", hot_hits=1)
            ingestor = StreamIngestor(graph, batch_size=64, scheduler=scheduler)
            doomed = sorted(graph, key=str)[::7]
            seen = []
            for index in range(12):
                ingestor.ingest(add=fact_triples("priced", index), remove=doomed[index::12])
                ingestor.drain()
                session.execute(dataset.query)
                session.execute(cold_query)  # patches the lazy-marked entry
                seen.extend(
                    (d.query_name, d.action, d.refresh_cost, d.scratch_cost)
                    for d in scheduler.last_decisions
                )
            session.close()
            return seen

        maintained = decisions()
        monkeypatch.setattr(GraphStatistics, "refresh", RecountedStatistics.refresh)
        assert maintained and maintained == decisions()
        assert {action for _, action, _, _ in maintained} >= {"eager", "lazy"}


class TestWalk:
    def test_fresh_entries_are_skipped(self, live):
        graph, session, query = live
        session.execute(query)
        scheduler = RefreshScheduler([session])
        scheduler.after_batch()
        assert scheduler.stats.walked == 0
        assert scheduler.last_decisions == ()

    def test_multiple_sessions_are_walked(self, dataset):
        graph = dataset.instance.copy()
        sessions = [OLAPSession(graph, dataset.schema) for _ in range(2)]
        for session in sessions:
            session.execute(dataset.query)
        scheduler = RefreshScheduler(sessions, policy="eager")
        ingest_round(graph, scheduler, "multi")
        assert scheduler.stats.eager_refreshes == 2
        for session in sessions:
            session.close()

    def test_an_entailing_session_is_synced_before_the_walk(self, small_retail_dataset):
        """The walk compares entries against the session's ρdf closure, so
        it must first bring the closure up to the source graph."""
        dataset = small_retail_dataset
        graph = dataset.instance.copy()
        query = revenue_query(dataset.schema)
        session = OLAPSession(graph, dataset.schema, entailment="saturate")
        session.execute(query)
        session.execute(query)  # hot
        scheduler = RefreshScheduler([session], policy="eager")
        sale = EX.term("sale/scheduled")
        ingestor = StreamIngestor(graph, batch_size=4, scheduler=scheduler)
        ingestor.ingest(add=[
            Triple(sale, RDF_TYPE, EX.OnlineSale),  # a Sale only by entailment
            Triple(sale, EX.atStore, EX.term("store/s0")),
            Triple(sale, EX.ofProduct, EX.term("product/p0")),
            Triple(sale, EX.hasPromoAmount, Literal(77)),  # an amount only by entailment
        ])
        ingestor.drain()
        assert scheduler.stats.walked == 1
        assert [d.action for d in scheduler.last_decisions] == ["eager"]
        cube = session.execute(query)
        assert session.history[-1].strategy == "cache"
        oracle = AnalyticalQueryEvaluator(saturate(graph)).answer(query)
        assert cube.same_cells(Cube(oracle, query))
        session.close()

    def test_register_and_unregister(self, live):
        graph, session, _ = live
        scheduler = RefreshScheduler()
        scheduler.register(session)
        scheduler.register(session)  # idempotent
        assert scheduler.sessions == (session,)
        scheduler.unregister(session)
        assert scheduler.sessions == ()

    def test_constructor_validation(self):
        with pytest.raises(IngestError):
            RefreshScheduler(policy="psychic")
        with pytest.raises(IngestError):
            RefreshScheduler(hot_hits=-1)
        assert set(POLICIES) == {"eager", "lazy", "auto"}
