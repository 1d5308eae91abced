"""Property-based tests for the RDF substrate (store invariants, I/O roundtrips)."""

import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import InvalidTripleError
from repro.rdf import EX, RDF, Graph, GraphStatistics, IRI, Literal, Triple
from repro.rdf.ntriples import parse_ntriples, serialize_ntriples
from repro.rdf.terms import Variable
from repro.rdf.triples import TriplePattern
from repro.rdf.turtle import parse_turtle, serialize_turtle

from tests.naive_oracle import RecountedStatistics, statistics_fields

# Strategies producing small, well-formed RDF terms.
local_names = st.text(alphabet="abcdefghij0123456789", min_size=1, max_size=8)
iris = local_names.map(lambda name: EX.term(name))
literals = st.one_of(
    st.integers(min_value=-1000, max_value=1000).map(Literal),
    st.booleans().map(Literal),
    st.text(alphabet="abc xyz", max_size=12).map(Literal),
)
subjects = iris
predicates = local_names.map(lambda name: EX.term("p_" + name))
objects = st.one_of(iris, literals)
triples = st.builds(Triple, subjects, predicates, objects)
triple_lists = st.lists(triples, max_size=30)


class TestGraphInvariants:
    @given(triple_lists)
    def test_graph_size_equals_distinct_triples(self, triple_list):
        graph = Graph()
        for triple in triple_list:
            graph.add(triple)
        assert len(graph) == len(set(triple_list))

    @given(triple_lists)
    def test_every_added_triple_is_found_by_all_access_paths(self, triple_list):
        graph = Graph(triple_list)
        for triple in set(triple_list):
            assert triple in graph
            assert triple in set(graph.triples(triple.subject, None, None))
            assert triple in set(graph.triples(None, triple.predicate, None))
            assert triple in set(graph.triples(None, None, triple.object))

    @given(triple_lists)
    def test_add_then_remove_restores_the_original_graph(self, triple_list):
        graph = Graph(triple_list)
        extra = Triple(EX.term("extra_subject"), EX.term("extra_predicate"), Literal("extra"))
        before = graph.copy()
        added = graph.add(extra)
        if added:
            graph.remove(extra)
        assert graph == before

    @given(triple_lists, triple_lists)
    def test_union_contains_both_operands(self, first, second):
        a, b = Graph(first), Graph(second)
        union = a.union(b)
        assert all(triple in union for triple in a)
        assert all(triple in union for triple in b)
        assert len(union) <= len(a) + len(b)

    @given(triple_lists)
    def test_count_ids_is_consistent_with_iteration(self, triple_list):
        graph = Graph(triple_list)
        for triple in list(graph)[:10]:
            s = graph.encode_term(triple.subject)
            p = graph.encode_term(triple.predicate)
            assert graph.count_ids(s, p, None) == len(list(graph.match_ids(s, p, None)))


# A universe small enough that removals hit, subjects repeat per predicate
# and classes empty out again: 4 subjects x (3 predicates + rdf:type) x 5 objects.
_pool_triples = st.builds(
    Triple,
    st.sampled_from([EX.term(f"s{i}") for i in range(4)]),
    st.sampled_from([EX.term(f"p{i}") for i in range(3)] + [RDF.term("type")]),
    st.sampled_from([EX.term(f"C{i}") for i in range(3)] + [Literal(1), Literal("x")]),
)
_pool_lists = st.lists(_pool_triples, max_size=6)
_mutations = st.one_of(
    st.tuples(st.just("add"), _pool_triples),
    st.tuples(st.just("remove"), _pool_triples),
    # poison: None, or the position in the add list where a malformed tuple
    # is spliced in, so apply() undoes its applied prefix.
    st.tuples(st.just("apply"), _pool_lists, _pool_lists, st.none() | st.integers(0, 6)),
    st.tuples(st.just("clear")),
)


def _assert_statistics_match_recount(graph, expected=None):
    """All five fields equal the recount (of ``graph`` unless given); returns it."""
    if expected is None:
        expected = statistics_fields(RecountedStatistics(graph))
    maintained = statistics_fields(GraphStatistics(graph))
    assert maintained == expected
    for name, counts in maintained.items():
        if name != "triple_count":
            assert 0 not in counts.values(), f"{name} lists a vanished key: {counts}"
    return expected


class TestMaintainedStatistics:
    """The summary a graph keeps with its indexes equals a naive recount."""

    @settings(max_examples=150, deadline=None, print_blob=True)
    @given(_pool_lists, st.lists(_mutations, max_size=12))
    def test_any_mutation_sequence_keeps_the_summary_exact(self, initial, mutations):
        graph = Graph(initial)
        long_lived = GraphStatistics(graph)  # re-syncs by version stamp
        for mutation in mutations:
            kind = mutation[0]
            if kind == "add":
                graph.add(mutation[1])
            elif kind == "remove":
                graph.remove(mutation[1])
            elif kind == "clear":
                graph.clear()
            else:
                _, adds, removes, poison = mutation
                if poison is None:
                    graph.apply(add=adds, remove=removes)
                else:
                    before = set(graph)
                    adds = adds[:poison] + [("not", "a-triple")] + adds[poison:]
                    with pytest.raises(InvalidTripleError):
                        graph.apply(add=adds, remove=removes)
                    assert set(graph) == before
            recount = _assert_statistics_match_recount(graph)
            long_lived.estimate_pattern(TriplePattern(Variable("s"), EX.term("p0"), Variable("o")))
            assert statistics_fields(long_lived) == recount
        _assert_statistics_match_recount(graph.copy())

    @settings(max_examples=25, deadline=None, print_blob=True)
    @given(_pool_lists, _pool_lists)
    def test_snapshot_reloads_carry_the_same_summary(self, kept, dropped):
        pytest.importorskip("numpy")  # snapshots require the [fast] extra
        graph = Graph(kept + dropped)
        graph.apply(remove=dropped)
        expected = statistics_fields(RecountedStatistics(graph))
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "graph.snap")
            graph.save_snapshot(path)
            reloaded = Graph.load_snapshot(path, mmap=False)
            _assert_statistics_match_recount(reloaded, expected)
            _assert_statistics_match_recount(Graph.load_snapshot(path, mmap=True), expected)
            # The reload is mutable: its counters keep following its indexes.
            reloaded.apply(add=dropped)
            _assert_statistics_match_recount(reloaded)


class TestSerializationRoundtrips:
    @settings(max_examples=50)
    @given(triple_lists)
    def test_ntriples_roundtrip(self, triple_list):
        graph = Graph(triple_list)
        assert parse_ntriples(serialize_ntriples(graph)) == graph

    @settings(max_examples=50)
    @given(triple_lists)
    def test_turtle_roundtrip(self, triple_list):
        graph = Graph(triple_list)
        assert parse_turtle(serialize_turtle(graph)) == graph

    @settings(max_examples=30)
    @given(triple_lists)
    def test_serialization_is_deterministic(self, triple_list):
        graph = Graph(triple_list)
        assert serialize_ntriples(graph) == serialize_ntriples(graph.copy())
