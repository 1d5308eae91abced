"""RefreshScheduler: hot stale entries are refreshed or dropped after a batch,
cold ones are left to the read path."""

import pytest

from repro.datagen.generic import GenericConfig, generic_dataset
from repro.datagen.retail import revenue_query
from repro.errors import IngestError
from repro.ingest import RefreshScheduler, StreamIngestor
from repro.ingest.scheduler import HOT_HITS
from repro.analytics.evaluator import AnalyticalQueryEvaluator
from repro.olap.cube import Cube
from repro.olap.operations import Slice
from repro.olap.planner import OLAPPlanner
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


def warm(session, query, reads):
    """Materialize ``query``, then read it ``reads`` more times (its hits)."""
    for _ in range(reads + 1):
        session.execute(query)


class TestHotAndCold:
    def test_a_hot_entry_is_refreshed_in_place(self, live):
        graph, session, query = live
        warm(session, query, HOT_HITS)
        scheduler = RefreshScheduler([session])
        ingest_round(graph, scheduler, "hot", rounds=2)
        assert scheduler.stats.eager_refreshes >= 1
        assert scheduler.stats.lazy_marks == scheduler.stats.invalidations == 0
        # The cached entry is already fresh: the next read is a plain hit.
        session.execute(query)
        assert session.history[-1].strategy == "cache"

    def test_a_cold_entry_is_left_to_the_read_path(self, live):
        graph, session, query = live
        warm(session, query, HOT_HITS - 1)
        scheduler = RefreshScheduler([session])
        ingest_round(graph, scheduler, "cold")
        assert scheduler.stats.lazy_marks == 1
        assert scheduler.stats.eager_refreshes == 0
        assert session.cache.stale_entry(query, graph) is not None
        session.execute(query)
        assert session.history[-1].strategy == "refresh"
        assert session.cache.stats.refreshes == 1
        assert session.cache.stats.lazy_refreshes == 0  # no producer left

    def test_a_cold_entry_is_counted_by_every_walk_that_leaves_it(self, live):
        graph, session, query = live
        session.execute(query)
        scheduler = RefreshScheduler([session])
        ingest_round(graph, scheduler, "first")
        ingest_round(graph, scheduler, "second")
        assert scheduler.stats.walked == scheduler.stats.lazy_marks == 2
        assert scheduler.stats.batches == 2

    def test_a_walk_over_cold_entries_prices_nothing(self, live, monkeypatch):
        graph, session, query = live
        session.execute(query)
        session.execute(Slice("d0", EX.term("dimvalue/0/0")).apply(query))
        graph.add_all(fact_triples("unpriced", 0))
        priced = []
        refresh_cost = OLAPPlanner._refresh_cost
        monkeypatch.setattr(
            OLAPPlanner, "_refresh_cost", lambda *args: priced.append(args) or refresh_cost(*args)
        )
        scheduler = RefreshScheduler([session])
        scheduler.after_batch()
        assert scheduler.stats.lazy_marks == 2
        assert priced == []

    def test_a_cold_entry_is_priced_on_its_read(self, live):
        """Batches after the walk grow the delta: the read re-prices the patch
        and recomputes once the delta outgrows a recomputation."""
        graph, session, query = live
        session.execute(query)
        scheduler = RefreshScheduler([session])
        ingestor = StreamIngestor(graph, batch_size=1, scheduler=scheduler)
        ingestor.ingest(remove=[next(iter(graph))])
        ingestor.drain()
        assert scheduler.stats.lazy_marks == 1
        plan = session.planner.plan_query(query)
        assert plan.chosen.strategy == "refresh-cached"
        # Nine tenths of the instance go away; the walk leaves the cold entry.
        doomed = [triple for triple in graph][: len(graph) * 9 // 10]
        bulk = StreamIngestor(graph, batch_size=len(doomed), scheduler=scheduler)
        bulk.ingest(remove=doomed)
        bulk.drain()
        assert scheduler.stats.lazy_marks == 2 and scheduler.stats.invalidations == 0
        plan = session.planner.plan_query(query)
        assert {c.strategy for c in plan.candidates} == {"refresh-cached", "scratch"}
        cube = session.execute(query)
        assert session.history[-1].strategy == "scratch"
        oracle = AnalyticalQueryEvaluator(graph).answer(query)
        assert cube.same_cells(Cube(oracle, query))

    def test_hot_and_cold_split_by_hits(self, live):
        graph, session, query = live
        cold_query = Slice("d0", EX.term("dimvalue/0/0")).apply(query)
        warm(session, query, HOT_HITS)
        session.execute(cold_query)
        scheduler = RefreshScheduler([session])
        ingest_round(graph, scheduler, "split")
        assert scheduler.stats.eager_refreshes == 1
        assert scheduler.stats.lazy_marks == 1
        fresh = {entry.key for entry in session.cache.entries() if entry.graph_version == graph.version}
        assert query.canonical_key in fresh
        assert cold_query.canonical_key not in fresh
        assert session.cache.stale_entry(cold_query, graph) is not None

    def test_an_unprofitable_patch_is_invalidated(self, live):
        """When refresh is not the cheapest answer the hot entry is dropped;
        the drop is an invalidation, and the key-scoped pin survives it."""
        graph, session, query = live
        warm(session, query, HOT_HITS)
        session.cache.pin(query)
        scheduler = RefreshScheduler([session])
        # A huge delta relative to the cube: patching costs more than
        # recomputing.
        ingestor = StreamIngestor(graph, batch_size=100000, scheduler=scheduler)
        for index in range(400):
            ingestor.ingest(add=fact_triples("bulk", index))
        ingestor.drain()
        assert scheduler.stats.invalidations == 1
        assert scheduler.stats.eager_refreshes == scheduler.stats.lazy_marks == 0
        assert query.canonical_key not in session.cache.keys()
        assert session.cache.stale_entry(query, graph) is None
        assert query.canonical_key in session.cache.pinned_keys()
        assert session.cache.stats.evictions == 0
        assert session.cache.stats.invalidations == 1

    def test_a_hot_entry_past_the_log_window_is_an_invalidation(self, dataset):
        graph = Graph(dataset.instance, change_log_limit=2)
        with OLAPSession(graph, dataset.schema) as session:
            warm(session, dataset.query, HOT_HITS)
            scheduler = RefreshScheduler([session])
            ingest_round(graph, scheduler, "window")
            assert scheduler.stats.invalidations == 1
            assert scheduler.stats.eager_refreshes == 0
            assert len(session.cache) == 0


class TestWritePathIsDeltaSized:
    """Nothing between ``ingest()`` and the refreshed cube walks the instance."""

    @pytest.mark.parametrize("reads, served", [(HOT_HITS, "cache"), (0, "refresh")])
    def test_no_whole_graph_iteration(self, live, monkeypatch, reads, served):
        graph, session, query = live
        warm(session, query, reads)
        scheduler = RefreshScheduler([session])
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
            warm(session, dataset.query, HOT_HITS)  # the slice stays cold
            session.execute(cold_query)
            priced = []
            plan_of = session.planner.plan_query

            def plan_query(query):
                plan = plan_of(query)
                priced.append(("read", query.name, plan.explain()))
                return plan

            session.planner.plan_query = plan_query
            refresh_candidate = session.planner._refresh_candidate

            def refresh_priced(query, entry, delta):
                candidate = refresh_candidate(query, entry, delta)
                priced.append(("batch", query.name, candidate.cost))
                return candidate

            session.planner._refresh_candidate = refresh_priced
            scheduler = RefreshScheduler([session])
            ingestor = StreamIngestor(graph, batch_size=64, scheduler=scheduler)
            doomed = sorted(graph, key=str)[::7]
            for index in range(12):
                ingestor.ingest(add=fact_triples("priced", index), remove=doomed[index::12])
                ingestor.drain()
                session.execute(dataset.query)
                session.execute(cold_query)  # the read path patches the cold entry
            session.close()
            return priced, scheduler.stats.as_dict(), session.cache.stats.as_dict()

        maintained = decisions()
        monkeypatch.setattr(GraphStatistics, "refresh", RecountedStatistics.refresh)
        assert maintained[0] and maintained == decisions()
        stats = maintained[1]
        assert stats["eager_refreshes"] >= 1 and stats["lazy_marks"] >= 1


class TestWalk:
    def test_fresh_entries_are_skipped(self, live):
        graph, session, query = live
        session.execute(query)
        scheduler = RefreshScheduler([session])
        assert scheduler.after_batch() is None
        assert scheduler.stats.walked == 0
        assert scheduler.stats.batches == 1

    def test_multiple_sessions_are_walked(self, dataset):
        graph = dataset.instance.copy()
        sessions = [OLAPSession(graph, dataset.schema) for _ in range(2)]
        for session in sessions:
            warm(session, dataset.query, HOT_HITS)
        scheduler = RefreshScheduler(sessions)
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
        warm(session, query, HOT_HITS)
        scheduler = RefreshScheduler([session])
        sale = EX.term("sale/scheduled")
        ingestor = StreamIngestor(graph, batch_size=4, scheduler=scheduler)
        ingestor.ingest(add=[
            Triple(sale, RDF_TYPE, EX.OnlineSale),  # a Sale only by entailment
            Triple(sale, EX.atStore, EX.term("store/s0")),
            Triple(sale, EX.ofProduct, EX.term("product/p0")),
            Triple(sale, EX.hasPromoAmount, Literal(77)),  # an amount only by entailment
        ])
        ingestor.drain()
        assert scheduler.stats.walked == scheduler.stats.eager_refreshes == 1
        cube = session.execute(query)
        assert session.history[-1].strategy == "cache"
        oracle = AnalyticalQueryEvaluator(saturate(graph)).answer(query)
        assert cube.same_cells(Cube(oracle, query))
        session.close()

    def test_register_is_idempotent(self, live):
        graph, session, _ = live
        scheduler = RefreshScheduler()
        scheduler.register(session)
        scheduler.register(session)
        assert scheduler.sessions == (session,)

    @pytest.mark.parametrize("policy", ["psychic", "eager", "lazy"])
    def test_auto_is_the_only_policy(self, policy):
        assert RefreshScheduler(policy="auto").stats.as_dict()["batches"] == 0
        with pytest.raises(IngestError):
            RefreshScheduler(policy=policy)
