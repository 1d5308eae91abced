"""Property-based tests for the RDF substrate (store invariants, I/O roundtrips)."""

import itertools
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DictionaryError, InvalidTripleError
from repro.rdf import EX, RDF, Graph, GraphStatistics, IRI, Literal, Triple
from repro.rdf.dictionary import TermDictionary
from repro.rdf.ntriples import parse_ntriples, serialize_ntriples
from repro.rdf.terms import Variable
from repro.rdf.triples import TriplePattern
from repro.rdf.turtle import parse_turtle, serialize_turtle
from repro.storage.snapshot import load_snapshot, save_snapshot

from tests.naive_oracle import RecountedStatistics, statistics_fields

try:
    import numpy as np
except ImportError:  # the numpy-free install has no term table
    np = None

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


def _mutate(graph, mutation):
    """Apply one drawn mutation; a poisoned batch must leave ``graph`` as it was."""
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
            _mutate(graph, mutation)
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
            save_snapshot(graph, path)
            reloaded = load_snapshot(path, mmap=False)
            _assert_statistics_match_recount(reloaded, expected)
            _assert_statistics_match_recount(load_snapshot(path, mmap=True), expected)
            # The reload is mutable: its counters keep following its indexes.
            reloaded.apply(add=dropped)
            _assert_statistics_match_recount(reloaded)


def _full_walk_delta(graph, version):
    """``deltas_since`` by its definition: coalesce every logged record newer
    than ``version``, walking the whole log forward — ``(added, removed)``,
    or None where the log cannot answer."""
    if version > graph.version or (version < graph.version and version < graph.change_log_base):
        return None
    net = {}
    for logged_version, sign, encoded in graph._change_log:
        if logged_version > version:
            net[encoded] = net.get(encoded, 0) + sign
    return (
        tuple(triple for triple, balance in net.items() if balance > 0),
        tuple(triple for triple, balance in net.items() if balance < 0),
    )


class TestChangeLogWindow:
    """``deltas_since`` reads only the log's tail, and answers what a walk
    of the whole log answers — ``added`` and ``removed`` in the same order."""

    @settings(max_examples=150, deadline=None, print_blob=True)
    @given(_pool_lists, st.lists(_mutations, max_size=16), st.integers(1, 6))
    def test_window_equals_the_full_walk(self, initial, mutations, limit):
        graph = Graph(initial, change_log_limit=limit)  # small limits roll the log over
        for mutation in mutations:
            _mutate(graph, mutation)
            # Every stamp, asked twice (the second read is the memo's) and
            # in an order that misses the memo between them.
            for version in [*range(graph.version + 2), *range(graph.version + 1, -1, -1)]:
                delta = graph.deltas_since(version)
                expected = _full_walk_delta(graph, version)
                if expected is None:
                    assert delta is None
                else:
                    assert (delta.added, delta.removed) == expected
                    assert (delta.from_version, delta.to_version) == (version, graph.version)


def _assert_access_paths_match_a_scan(graph):
    """Every bound/unbound shape of every id-level access path, and ``in``,
    equals a brute-force filter of ``encoded_triples()``.

    Bound positions range over the ids at that position, one id of the
    dictionary that is not there, and the unknown-id sentinel ``-1``.
    """
    triples = list(graph.encoded_triples())
    assert len(triples) == len(set(triples)) == len(graph)
    all_ids = range(len(graph.dictionary))
    values = []
    for position in range(3):
        present = sorted({triple[position] for triple in triples})
        absent = [term_id for term_id in all_ids if term_id not in present][:1]
        values.append(present + absent + [-1])
    for shape in itertools.product((False, True), repeat=3):
        choices = [values[k] if bound else [None] for k, bound in enumerate(shape)]
        for key in itertools.product(*choices):
            expected = sorted(
                triple for triple in triples
                if all(want is None or want == got for want, got in zip(key, triple))
            )
            assert sorted(graph.match_ids(*key)) == expected, key
            assert graph.count_ids(*key) == len(expected), key
            for position in (k for k in range(3) if key[k] is None):
                found = sorted(graph.match_single_ids(*key, position))
                assert found == sorted(triple[position] for triple in expected), (key, position)
            if all(shape) and -1 not in key:
                decoded = tuple(map(graph.dictionary.decode, key))
                assert (decoded in graph) == bool(expected), key
    absent = (EX.term("absent"), EX.term("p0"), Literal(1))
    assert absent not in graph


class TestAccessPaths:
    """A heap graph and its mmap snapshot against a scan, after any mutations."""

    @settings(max_examples=40, deadline=None, print_blob=True)
    @given(_pool_lists, st.lists(_mutations, max_size=8))
    def test_every_shape_equals_a_filtered_scan(self, initial, mutations):
        graph = Graph(initial)
        _assert_access_paths_match_a_scan(graph)
        for mutation in mutations:
            _mutate(graph, mutation)
            _assert_access_paths_match_a_scan(graph)
        _assert_access_paths_match_a_scan(graph.copy())
        try:
            import numpy  # noqa: F401 - snapshots require the [fast] extra
        except ImportError:
            return
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "graph.snap")
            save_snapshot(graph, path)
            _assert_access_paths_match_a_scan(load_snapshot(path, mmap=True))
            _assert_access_paths_match_a_scan(load_snapshot(path, mmap=False))


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


# One step of a dictionary's life: encode a term, derive a value (a ROLL-UP
# parent: a term, a label, a tuple), gather ids (positions into the ids
# known at that point), or gather one id past either end (offset from it).
_derived_values = st.one_of(iris, literals, local_names, st.tuples(local_names, st.integers(0, 3)))
_dictionary_steps = st.one_of(
    st.tuples(st.just("encode"), objects),
    st.tuples(st.just("derive"), _derived_values),
    st.tuples(st.just("gather"), st.lists(st.integers(0, 10**6), max_size=12)),
    st.tuples(st.just("outside"), st.tuples(st.booleans(), st.integers(0, 40))),
)


class TestTermTableGather:
    @pytest.mark.skipif(np is None, reason="the term table is a numpy array")
    @settings(max_examples=150, deadline=None, print_blob=True)
    @given(st.lists(_dictionary_steps, max_size=40))
    def test_interleaved_encodes_and_gathers_equal_decoding_one_by_one(self, steps):
        dictionary = TermDictionary()
        for kind, argument in steps:
            if kind == "encode":
                dictionary.encode(argument)
            elif kind == "derive":
                dictionary.encode_derived(argument)
            known = list(range(len(dictionary))) + [-k for k in range(1, len(dictionary._derived_values) + 1)]
            if kind == "gather" and known:
                ids = np.asarray([known[position % len(known)] for position in argument], dtype=np.int64)
                gathered = dictionary.decode_many(ids)
                assert len(gathered) == len(ids)
                assert all(value is dictionary.decode(term_id) for value, term_id in zip(gathered, ids.tolist()))
            elif kind == "outside":
                past_the_tail, offset = argument
                bad = -len(dictionary._derived_values) - 1 - offset if past_the_tail else len(dictionary) + offset
                with pytest.raises(DictionaryError):
                    dictionary.decode_many(np.asarray(known[:1] + [bad], dtype=np.int64))
