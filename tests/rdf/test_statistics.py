"""Unit tests for graph statistics and cardinality estimation."""

import pytest

from repro.rdf import EX, Graph, Literal, RDF, Triple
from repro.rdf.statistics import GraphStatistics
from repro.rdf.terms import Variable
from repro.rdf.triples import TriplePattern

RDF_TYPE = RDF.term("type")


@pytest.fixture()
def stats_graph() -> Graph:
    graph = Graph()
    for index in range(10):
        user = EX.term(f"user{index}")
        graph.add(Triple(user, RDF_TYPE, EX.Blogger))
        graph.add(Triple(user, EX.hasAge, Literal(20 + index % 5)))
    for index in range(3):
        site = EX.term(f"site{index}")
        graph.add(Triple(site, RDF_TYPE, EX.Site))
    return graph


class TestCounts:
    def test_triple_and_predicate_counts(self, stats_graph):
        statistics = GraphStatistics(stats_graph)
        assert statistics.triple_count == len(stats_graph)
        assert statistics.predicate_counts[EX.hasAge] == 10
        assert statistics.predicate_counts[RDF_TYPE] == 13
        assert EX.unknown not in statistics.predicate_counts

    def test_class_counts(self, stats_graph):
        statistics = GraphStatistics(stats_graph)
        assert statistics.class_counts[EX.Blogger] == 10
        assert statistics.class_counts[EX.Site] == 3
        assert EX.Nothing not in statistics.class_counts

    def test_distinct_subject_object_counts(self, stats_graph):
        statistics = GraphStatistics(stats_graph)
        assert statistics.predicate_distinct_subjects[EX.hasAge] == 10
        assert statistics.predicate_distinct_objects[EX.hasAge] == 5

    def test_reads_auto_refresh_after_mutations(self, stats_graph):
        # Regression: statistics used to serve the counts captured at
        # construction until someone remembered to call refresh(), feeding
        # the planner estimates for a graph that no longer existed.
        statistics = GraphStatistics(stats_graph)
        ages = TriplePattern(Variable("s"), EX.hasAge, Variable("o"))
        sites = TriplePattern(Variable("s"), RDF_TYPE, EX.Site)
        assert statistics.estimate_pattern(ages) == 10
        stats_graph.add(Triple(EX.term("user99"), EX.hasAge, Literal(99)))
        assert statistics.estimate_pattern(ages) == 11
        stats_graph.add(Triple(EX.term("user99"), RDF_TYPE, EX.Site))
        assert statistics.estimate_pattern(sites) == 4

    def test_manual_refresh_still_works(self, stats_graph):
        statistics = GraphStatistics(stats_graph)
        stats_graph.add(Triple(EX.term("user99"), EX.hasAge, Literal(99)))
        statistics.refresh()
        assert statistics.predicate_counts[EX.hasAge] == 11


class TestEstimates:
    def test_predicate_only_pattern(self, stats_graph):
        statistics = GraphStatistics(stats_graph)
        pattern = TriplePattern(Variable("x"), EX.hasAge, Variable("a"))
        assert statistics.estimate_pattern(pattern) == 10

    def test_type_pattern_uses_class_counts(self, stats_graph):
        statistics = GraphStatistics(stats_graph)
        pattern = TriplePattern(Variable("x"), RDF_TYPE, EX.Site)
        assert statistics.estimate_pattern(pattern) == 3

    def test_bound_object_divides_by_distinct_objects(self, stats_graph):
        statistics = GraphStatistics(stats_graph)
        pattern = TriplePattern(Variable("x"), EX.hasAge, Literal(21))
        assert statistics.estimate_pattern(pattern) == pytest.approx(2.0)

    def test_bound_subject_estimate(self, stats_graph):
        statistics = GraphStatistics(stats_graph)
        pattern = TriplePattern(EX.term("user0"), EX.hasAge, Variable("a"))
        assert statistics.estimate_pattern(pattern) >= 1.0

    def test_fully_bound_pattern_is_exact(self, stats_graph):
        statistics = GraphStatistics(stats_graph)
        hit = TriplePattern(EX.term("user0"), EX.hasAge, Literal(20))
        miss = TriplePattern(EX.term("user0"), EX.hasAge, Literal(99))
        assert statistics.estimate_pattern(hit) == 1.0
        assert statistics.estimate_pattern(miss) == 0.0

    def test_unknown_predicate_estimates_zero(self, stats_graph):
        statistics = GraphStatistics(stats_graph)
        pattern = TriplePattern(Variable("x"), EX.unknown, Variable("y"))
        assert statistics.estimate_pattern(pattern) == 0.0

    def test_all_variable_pattern_estimates_graph_size(self, stats_graph):
        statistics = GraphStatistics(stats_graph)
        pattern = TriplePattern(Variable("s"), Variable("p"), Variable("o"))
        assert statistics.estimate_pattern(pattern) == len(stats_graph)

    def test_variable_predicate_with_bound_subject(self, stats_graph):
        statistics = GraphStatistics(stats_graph)
        pattern = TriplePattern(EX.term("user0"), Variable("p"), Variable("o"))
        assert statistics.estimate_pattern(pattern) == 2.0


class TestBGPEstimates:
    @pytest.fixture()
    def query_graph(self):
        graph = Graph()
        rdf_type = RDF.term("type")
        for index in range(20):
            user = EX.term(f"user{index}")
            graph.add(Triple(user, rdf_type, EX.Blogger))
            graph.add(Triple(user, EX.hasAge, Literal(20 + index % 5)))
            if index < 5:
                graph.add(Triple(user, EX.livesIn, EX.term("Madrid")))
        return graph

    def _query(self, *patterns):
        from repro.bgp.query import BGPQuery

        return BGPQuery([Variable("x")], list(patterns))

    def test_cardinality_bounded_by_most_selective_pattern(self, query_graph):
        statistics = GraphStatistics(query_graph)
        x = Variable("x")
        query = self._query(
            TriplePattern(x, RDF.term("type"), EX.Blogger),
            TriplePattern(x, EX.livesIn, EX.term("Madrid")),
        )
        estimate = statistics.estimate_bgp_cardinality(query)
        assert 1.0 <= estimate <= 5.0

    def test_extra_patterns_never_raise_the_estimate(self, query_graph):
        statistics = GraphStatistics(query_graph)
        x = Variable("x")
        single = self._query(TriplePattern(x, RDF.term("type"), EX.Blogger))
        joined = self._query(
            TriplePattern(x, RDF.term("type"), EX.Blogger),
            TriplePattern(x, EX.hasAge, Variable("a")),
        )
        assert statistics.estimate_bgp_cardinality(joined) <= statistics.estimate_bgp_cardinality(
            single
        )

    def test_bgp_cardinality_sees_mutations_without_manual_refresh(self, query_graph):
        statistics = GraphStatistics(query_graph)
        x = Variable("x")
        query = self._query(TriplePattern(x, EX.livesIn, EX.term("Madrid")))
        before = statistics.estimate_bgp_cardinality(query)
        for index in range(20, 40):
            query_graph.add(
                Triple(EX.term(f"user{index}"), EX.livesIn, EX.term("Madrid"))
            )
        after = statistics.estimate_bgp_cardinality(query)
        assert after > before
        assert after == pytest.approx(25.0)

    def test_unmatchable_pattern_zeroes_the_estimate(self, query_graph):
        statistics = GraphStatistics(query_graph)
        x = Variable("x")
        query = self._query(
            TriplePattern(x, RDF.term("type"), EX.Blogger),
            TriplePattern(x, EX.unknownPredicate, Variable("y")),
        )
        assert statistics.estimate_bgp_cardinality(query) == 0.0

    def test_evaluation_cost_at_least_scan_cost(self, query_graph):
        statistics = GraphStatistics(query_graph)
        x = Variable("x")
        query = self._query(
            TriplePattern(x, RDF.term("type"), EX.Blogger),
            TriplePattern(x, EX.hasAge, Variable("a")),
        )
        scan = sum(statistics.estimate_pattern(pattern) for pattern in query.body)
        assert statistics.estimate_evaluation_cost(query) >= scan
