"""Unit tests for the in-memory triple store (Graph)."""

from collections import deque

import pytest

from repro.errors import InvalidTripleError
from repro.rdf import EX, Graph, IRI, Literal, RDF, Triple
from repro.rdf.terms import Variable
from repro.rdf.triples import TriplePattern
from repro.storage.snapshot import load_snapshot, save_snapshot

RDF_TYPE = RDF.term("type")


def _encoded(graph: Graph, triple: Triple):
    return (
        graph.encode_term(triple.subject),
        graph.encode_term(triple.predicate),
        graph.encode_term(triple.object),
    )


@pytest.fixture()
def small_graph() -> Graph:
    graph = Graph(name="small")
    graph.add(Triple(EX.user1, RDF_TYPE, EX.Blogger))
    graph.add(Triple(EX.user2, RDF_TYPE, EX.Blogger))
    graph.add(Triple(EX.user1, EX.hasAge, Literal(28)))
    graph.add(Triple(EX.user2, EX.hasAge, Literal(35)))
    graph.add(Triple(EX.user1, EX.livesIn, EX.term("Madrid")))
    graph.add(Triple(EX.user1, EX.acquaintedWith, EX.user2))
    return graph


class TestMutation:
    def test_add_returns_true_only_for_new_triples(self):
        graph = Graph()
        triple = Triple(EX.user1, EX.hasAge, Literal(28))
        assert graph.add(triple) is True
        assert graph.add(triple) is False
        assert len(graph) == 1

    def test_add_accepts_plain_tuples(self):
        graph = Graph()
        graph.add((EX.user1, EX.hasAge, Literal(28)))
        assert Triple(EX.user1, EX.hasAge, Literal(28)) in graph

    def test_add_rejects_garbage(self):
        graph = Graph()
        with pytest.raises(InvalidTripleError):
            graph.add("not a triple")
        with pytest.raises(InvalidTripleError):
            graph.add((Literal("s"), EX.p, EX.o))

    def test_add_all_counts_new_triples(self, small_graph):
        graph = Graph()
        assert graph.add_all(small_graph) == len(small_graph)
        assert graph.add_all(small_graph) == 0

    def test_remove(self, small_graph):
        triple = Triple(EX.user1, EX.hasAge, Literal(28))
        assert small_graph.remove(triple) is True
        assert triple not in small_graph
        assert small_graph.remove(triple) is False

    def test_remove_unknown_term_is_noop(self, small_graph):
        assert small_graph.remove(Triple(EX.nobody, EX.hasAge, Literal(1))) is False

    def test_clear(self, small_graph):
        small_graph.clear()
        assert len(small_graph) == 0
        assert list(small_graph.triples()) == []

    def test_removed_triples_disappear_from_indexes(self, small_graph):
        small_graph.remove(Triple(EX.user1, EX.livesIn, EX.term("Madrid")))
        assert list(small_graph.triples(None, EX.livesIn, None)) == []

    def test_remove_rejects_garbage_like_add(self, small_graph):
        for garbage in ("not a triple", 42, (EX.user1, EX.hasAge)):
            with pytest.raises(InvalidTripleError):
                small_graph.remove(garbage)


@pytest.fixture(params=["heap", "snapshot"])
def either_graph(request, small_graph, tmp_path) -> Graph:
    """``small_graph`` on the heap, or re-opened from its mmap snapshot."""
    if request.param == "heap":
        return small_graph
    pytest.importorskip("numpy")  # snapshots require the [fast] extra
    path = str(tmp_path / "small.snap")
    save_snapshot(small_graph, path)
    return load_snapshot(path)


class TestMembership:
    @pytest.mark.parametrize(
        "malformed",
        [(EX.user1, EX.hasAge), (EX.user1, EX.hasAge, Literal(28), EX.extra), 5],
        ids=["pair", "quad", "int"],
    )
    def test_malformed_input_raises_like_add(self, either_graph, malformed):
        with pytest.raises(InvalidTripleError):
            _ = malformed in either_graph

    def test_triples_and_tuples_answer(self, either_graph):
        assert Triple(EX.user1, EX.hasAge, Literal(28)) in either_graph
        assert (EX.user1, EX.hasAge, Literal(28)) in either_graph
        assert (EX.user1, EX.hasAge, Literal(99)) not in either_graph
        assert (EX.nobody, EX.hasAge, Literal(28)) not in either_graph


class TestApply:
    """``Graph.apply`` is the one atomic batch mutation (ingestion and the
    serving writer both delegate to it)."""

    AGE = Triple(EX.user1, EX.hasAge, Literal(28))
    CITY = Triple(EX.user1, EX.livesIn, EX.term("Madrid"))
    NEW = [Triple(EX.user3, RDF_TYPE, EX.Blogger), Triple(EX.user3, EX.hasAge, Literal(41))]

    def test_counts_effective_mutations_only(self, small_graph):
        absent = Triple(EX.nobody, EX.hasAge, Literal(1))
        applied = small_graph.apply(add=self.NEW + [self.AGE], remove=[self.CITY, absent])
        assert applied == 3  # AGE was already present, ``absent`` never was
        assert self.CITY not in small_graph
        assert all(triple in small_graph for triple in self.NEW)

    def test_removes_run_before_adds(self, small_graph):
        small_graph.apply(add=[self.AGE], remove=[self.AGE])
        assert self.AGE in small_graph

    @pytest.mark.parametrize(
        "batch",
        [
            dict(add=NEW + ["not a triple"] + [Triple(EX.user4, RDF_TYPE, EX.Blogger)]),
            dict(remove=[AGE, CITY, 42]),
            dict(remove=[AGE, CITY], add=NEW + [(Literal("s"), EX.p, EX.o)]),
        ],
        ids=["raising-add", "raising-remove", "removes-applied-then-raising-add"],
    )
    def test_a_raising_triple_mid_batch_leaves_nothing_behind(self, small_graph, batch):
        before = small_graph.version
        size, contents = len(small_graph), set(small_graph)
        with pytest.raises(InvalidTripleError):
            small_graph.apply(**batch)
        assert len(small_graph) == size
        assert set(small_graph) == contents
        assert small_graph.deltas_since(before).is_empty()


class TestMatching:
    def test_full_scan(self, small_graph):
        assert len(list(small_graph.triples())) == len(small_graph)

    def test_spo_lookup(self, small_graph):
        results = list(small_graph.triples(EX.user1, EX.hasAge, None))
        assert results == [Triple(EX.user1, EX.hasAge, Literal(28))]

    def test_pos_lookup(self, small_graph):
        subjects = {t.subject for t in small_graph.triples(None, RDF_TYPE, EX.Blogger)}
        assert subjects == {EX.user1, EX.user2}

    def test_osp_lookup(self, small_graph):
        results = list(small_graph.triples(None, None, EX.user2))
        assert results == [Triple(EX.user1, EX.acquaintedWith, EX.user2)]

    def test_subject_only(self, small_graph):
        assert len(list(small_graph.triples(EX.user1, None, None))) == 4

    def test_unknown_constant_yields_nothing(self, small_graph):
        assert list(small_graph.triples(EX.term("missing"), None, None)) == []
        assert list(small_graph.triples(None, EX.term("missingProp"), None)) == []

    def test_fully_bound_membership(self, small_graph):
        hit = list(small_graph.triples(EX.user1, EX.hasAge, Literal(28)))
        miss = list(small_graph.triples(EX.user1, EX.hasAge, Literal(99)))
        assert len(hit) == 1 and miss == []

    def test_count_ids_matches_enumeration(self, small_graph):
        cases = [
            (None, None, None),
            (small_graph.encode_term(EX.user1), None, None),
            (None, small_graph.encode_term(EX.hasAge), None),
            (None, None, small_graph.encode_term(EX.user2)),
            (None, small_graph.encode_term(RDF_TYPE), small_graph.encode_term(EX.Blogger)),
            (small_graph.encode_term(EX.user1), small_graph.encode_term(EX.hasAge), None),
        ]
        for s, p, o in cases:
            assert small_graph.count_ids(s, p, o) == len(list(small_graph.match_ids(s, p, o)))

    def test_count_ids_with_unknown_sentinel(self, small_graph):
        assert small_graph.count_ids(-1, None, None) == 0


class TestNavigation:
    def test_subjects_predicates_objects(self, small_graph):
        assert set(small_graph.subjects(RDF_TYPE, EX.Blogger)) == {EX.user1, EX.user2}
        assert EX.hasAge in set(small_graph.predicates(EX.user1))
        assert set(small_graph.objects(EX.user1, EX.livesIn)) == {EX.term("Madrid")}

    def test_value(self, small_graph):
        assert small_graph.value(EX.user1, EX.hasAge) == Literal(28)
        assert small_graph.value(EX.user1, EX.wrotePost) is None

    def test_subjects_of_a_class(self, small_graph):
        assert set(small_graph.subjects(RDF_TYPE, EX.Blogger)) == {EX.user1, EX.user2}


class TestSetOperations:
    def test_copy_is_independent(self, small_graph):
        clone = small_graph.copy()
        clone.add(Triple(EX.user3, RDF_TYPE, EX.Blogger))
        assert len(clone) == len(small_graph) + 1

    def test_copy_preserves_every_id(self, small_graph):
        """Ids follow the source's insertion order, not the copy's iteration
        order, and terms whose triples were all removed keep theirs."""
        for index in range(40):  # enough terms for set iteration to scramble
            small_graph.add(Triple(EX.term(f"user/{index}"), EX.hasAge, Literal(index)))
        small_graph.remove(Triple(EX.user1, EX.livesIn, EX.term("Madrid")))
        clone = small_graph.copy()
        assert clone.dictionary is not small_graph.dictionary
        assert list(clone.dictionary.items()) == list(small_graph.dictionary.items())
        assert clone.encode_term(EX.term("Madrid")) == small_graph.encode_term(EX.term("Madrid"))
        assert set(clone.encoded_triples()) == set(small_graph.encoded_triples())
        assert clone == small_graph
        assert clone.statistics_summary() == small_graph.statistics_summary()
        assert list(clone.triples(subject=EX.user2, predicate=EX.hasAge)) == [
            Triple(EX.user2, EX.hasAge, Literal(35))
        ]
        # Independent dictionaries: a term new to the copy does not reach the source.
        clone.add(Triple(EX.user3, RDF_TYPE, EX.Blogger))
        assert small_graph.encode_term(EX.user3) is None

    def test_copy_starts_its_own_history(self, small_graph):
        clone = small_graph.copy()
        assert (clone.version, len(clone._change_log), clone.change_log_base) == (0, 0, 0)
        assert clone.change_log_limit == small_graph.change_log_limit

    def test_union(self, small_graph):
        other = Graph()
        other.add(Triple(EX.user3, RDF_TYPE, EX.Blogger))
        union = small_graph.union(other)
        assert len(union) == len(small_graph) + 1
        assert Triple(EX.user3, RDF_TYPE, EX.Blogger) in union

    def test_equality_by_triple_set(self, small_graph):
        clone = small_graph.copy()
        assert clone == small_graph
        clone.remove(Triple(EX.user1, EX.hasAge, Literal(28)))
        assert clone != small_graph

    def test_graphs_are_unhashable(self, small_graph):
        with pytest.raises(TypeError):
            hash(small_graph)

    def test_bool(self):
        assert not Graph()
        graph = Graph([Triple(EX.a, EX.p, EX.b)])
        assert graph


class TestDictionaryIntegration:
    def test_encode_decode_roundtrip(self, small_graph):
        term_id = small_graph.encode_term(EX.user1)
        assert term_id is not None
        assert small_graph.decode_id(term_id) == EX.user1

    def test_unknown_term_encodes_to_none(self, small_graph):
        assert small_graph.encode_term(EX.term("missing")) is None


class TestUnhashability:
    def test_hash_attribute_is_none(self):
        """Explicitly unhashable: __hash__ is None, like other mutable containers."""
        assert Graph.__hash__ is None

    def test_not_an_instance_of_hashable(self, small_graph):
        from collections.abc import Hashable

        assert not isinstance(small_graph, Hashable)

    def test_cannot_be_used_in_sets_or_dict_keys(self, small_graph):
        with pytest.raises(TypeError):
            {small_graph}
        with pytest.raises(TypeError):
            {small_graph: 1}


class TestChangeCounter:
    def test_fresh_graph_version(self):
        graph = Graph()
        assert graph.version == 0
        graph.add(Triple(EX.a, EX.p, EX.b))
        assert graph.version == 1

    def test_duplicate_add_does_not_bump(self, small_graph):
        version = small_graph.version
        duplicate = next(iter(small_graph))
        assert not small_graph.add(duplicate)
        assert small_graph.version == version

    def test_remove_bumps_only_when_present(self, small_graph):
        version = small_graph.version
        triple = next(iter(small_graph))
        assert small_graph.remove(triple)
        assert small_graph.version == version + 1
        assert not small_graph.remove(triple)
        assert small_graph.version == version + 1

    def test_clear_bumps_once_when_non_empty(self, small_graph):
        version = small_graph.version
        small_graph.clear()
        assert small_graph.version == version + 1
        small_graph.clear()  # already empty: no change
        assert small_graph.version == version + 1


class TestChangeLog:
    """The bounded triple-delta log feeding incremental cube maintenance."""

    def test_empty_delta_at_current_version(self, small_graph):
        delta = small_graph.deltas_since(small_graph.version)
        assert delta is not None and delta.is_empty()
        assert len(delta) == 0

    def test_add_and_remove_are_reported(self, small_graph):
        version = small_graph.version
        added = Triple(EX.user3, RDF_TYPE, EX.Blogger)
        removed = Triple(EX.user1, EX.hasAge, Literal(28))
        small_graph.add(added)
        small_graph.remove(removed)
        delta = small_graph.deltas_since(version)
        assert delta is not None
        assert delta.added == (_encoded(small_graph, added),)
        assert delta.removed == (_encoded(small_graph, removed),)
        assert len(delta) == 2
        assert (delta.from_version, delta.to_version) == (version, small_graph.version)

    def test_add_then_remove_coalesces_to_nothing(self, small_graph):
        version = small_graph.version
        triple = Triple(EX.user3, RDF_TYPE, EX.Blogger)
        small_graph.add(triple)
        small_graph.remove(triple)
        delta = small_graph.deltas_since(version)
        assert delta is not None and delta.is_empty()

    def test_remove_then_readd_coalesces_to_nothing(self, small_graph):
        version = small_graph.version
        triple = Triple(EX.user1, EX.hasAge, Literal(28))
        small_graph.remove(triple)
        small_graph.add(triple)
        delta = small_graph.deltas_since(version)
        assert delta is not None and delta.is_empty()

    def test_noop_mutations_do_not_log(self, small_graph):
        length = len(small_graph._change_log)
        small_graph.add(next(iter(small_graph)))  # duplicate
        small_graph.remove(Triple(EX.nobody, EX.hasAge, Literal(1)))  # absent
        assert len(small_graph._change_log) == length

    def test_clear_degrades_to_full_invalidation(self, small_graph):
        version = small_graph.version
        small_graph.clear()
        assert small_graph.deltas_since(version) is None
        assert len(small_graph._change_log) == 0
        # Post-clear mutations are trackable again.
        base = small_graph.version
        small_graph.add(Triple(EX.a, EX.p, EX.b))
        delta = small_graph.deltas_since(base)
        assert delta is not None and len(delta.added) == 1

    def test_overflow_degrades_to_full_invalidation(self):
        graph = Graph(change_log_limit=4)
        stamps = []
        for index in range(8):
            stamps.append(graph.version)
            graph.add(Triple(EX.term(f"s{index}"), EX.p, EX.o))
        # Versions from before the overflow window: not answerable.
        assert graph.deltas_since(stamps[0]) is None
        # The base moved forward to the overflow point; deltas since then work.
        base = graph.change_log_base
        assert base > 0
        delta = graph.deltas_since(base)
        assert delta is not None
        assert len(delta.added) == graph.version - base

    def test_overflow_evicts_one_record_not_the_window(self):
        """Regression: overflow is a ring buffer, not a wholesale drop.

        The old ``_log_change`` truncated the *entire* retained history on
        every overflow, so a consumer even one version behind lost delta
        coverage the moment a sustained stream crossed the limit.  Eviction
        must drop only the oldest record: after N > limit adds, exactly the
        newest ``limit`` records survive and every version in that window
        stays answerable.
        """
        limit = 4
        graph = Graph(change_log_limit=limit)
        for index in range(limit + 1):  # one past the limit: first overflow
            graph.add(Triple(EX.term(f"s{index}"), EX.p, EX.o))
        assert len(graph._change_log) == limit
        # The old behavior left base == version (empty log) here; the ring
        # buffer retains versions (1, limit+1] and answers all of them.
        assert graph.change_log_base == graph.version - limit
        for behind in range(1, limit + 1):
            delta = graph.deltas_since(graph.version - behind)
            assert delta is not None
            assert len(delta.added) == behind

    def test_sustained_stream_never_starves_a_trailing_consumer(self):
        """A consumer refreshing every batch stays within the window forever."""
        limit = 8
        batch = 3  # < limit: the consumer never falls out of the window
        graph = Graph(change_log_limit=limit)
        seen = graph.version
        for round_index in range(20):  # 60 mutations, far past the limit
            for index in range(batch):
                graph.add(Triple(EX.term(f"r{round_index}/{index}"), EX.p, EX.o))
            delta = graph.deltas_since(seen)
            assert delta is not None, f"starved at round {round_index}"
            assert len(delta.added) == batch
            seen = graph.version

    def test_future_version_is_unanswerable(self, small_graph):
        assert small_graph.deltas_since(small_graph.version + 1) is None

    def test_zero_limit_disables_the_log(self):
        graph = Graph(change_log_limit=0)
        version = graph.version
        graph.add(Triple(EX.a, EX.p, EX.b))
        assert graph.deltas_since(version) is None
        assert graph.deltas_since(graph.version) is not None  # empty delta

    def test_negative_limit_rejected(self):
        with pytest.raises(ValueError):
            Graph(change_log_limit=-1)

    def test_version_stamping_consistent_with_log(self, small_graph):
        """Every logged record carries the version its mutation produced."""
        version = small_graph.version
        first = Triple(EX.x1, EX.p, EX.o)
        second = Triple(EX.x2, EX.p, EX.o)
        small_graph.add(first)
        mid_version = small_graph.version
        small_graph.add(second)
        assert mid_version == version + 1
        assert small_graph.version == version + 2
        delta_mid = small_graph.deltas_since(mid_version)
        assert delta_mid.added == (_encoded(small_graph, second),)
        delta_all = small_graph.deltas_since(version)
        assert set(delta_all.added) == {
            _encoded(small_graph, first),
            _encoded(small_graph, second),
        }


class _CountingLog(deque):
    """A change log that counts the records iterated, either way."""

    def __init__(self, records):
        super().__init__(records)
        self.visited = 0

    def __iter__(self):
        for record in deque.__iter__(self):
            self.visited += 1
            yield record

    def __reversed__(self):
        for record in deque.__reversed__(self):
            self.visited += 1
            yield record


def test_a_miss_near_the_tail_of_a_full_log_visits_the_window_only():
    """``deltas_since`` on a memo miss reads the records newer than the
    stamp (and the one that stops it), not the whole 4,096-record log."""
    graph = Graph()
    for index in range(graph.change_log_limit + 100):
        graph.add(Triple(EX.term(f"s{index}"), EX.p, EX.o))
    assert len(graph._change_log) == graph.change_log_limit
    graph._change_log = log = _CountingLog(graph._change_log)
    for behind in (1, 3, 20):
        log.visited = 0
        delta = graph.deltas_since(graph.version - behind)
        assert len(delta.added) == behind
        assert log.visited <= behind + 1


class TestAdoptHistory:
    """A copy holding the source's triples under the source's ids can take
    over its version stamp and change-log tail."""

    def test_adopted_copy_answers_deltas_like_its_source(self, small_graph):
        seen = small_graph.version
        small_graph.add(Triple(EX.user3, RDF_TYPE, EX.Blogger))
        small_graph.remove(Triple(EX.user1, EX.hasAge, Literal(28)))
        clone = small_graph.copy()
        assert clone.deltas_since(seen) is None  # a bare copy knows no past
        clone.adopt_history(small_graph)
        assert clone.version == small_graph.version
        assert clone.change_log_base == small_graph.change_log_base
        for stamp in range(small_graph.version + 1):
            ours, theirs = clone.deltas_since(stamp), small_graph.deltas_since(stamp)
            assert (set(ours.added), set(ours.removed)) == (set(theirs.added), set(theirs.removed))
        assert clone.deltas_since(small_graph.version + 1) is None

    def test_the_adopted_tail_is_a_copy(self, small_graph):
        clone = small_graph.copy()
        clone.adopt_history(small_graph)
        stamp = small_graph.version
        small_graph.add(Triple(EX.user3, RDF_TYPE, EX.Blogger))
        assert clone.version == stamp and clone.deltas_since(stamp).is_empty()
        clone.add(Triple(EX.user4, RDF_TYPE, EX.Blogger))
        assert len(small_graph._change_log) == stamp + 1
        assert [len(clone.deltas_since(stamp).added), clone.version] == [1, stamp + 1]

    @pytest.mark.parametrize("how", ["overflow", "disabled", "clear"])
    def test_none_exactly_when_the_source_would_say_none(self, how):
        graph = Graph(change_log_limit=0 if how == "disabled" else 3)
        graph.add(Triple(EX.user1, RDF_TYPE, EX.Blogger))
        stamp = graph.version
        if how == "clear":
            graph.clear()
        for index in range(4):
            graph.add(Triple(EX.term(f"user/{index}"), RDF_TYPE, EX.Blogger))
        assert graph.deltas_since(stamp) is None
        clone = graph.copy()
        clone.adopt_history(graph)
        assert clone.deltas_since(stamp) is None
        assert clone.deltas_since(graph.version).is_empty()
        if how != "disabled":
            assert len(clone.deltas_since(graph.version - 2).added) == 2


class TestPartitionAndPickling:
    """Fact-id-range shards and process-boundary transport of graphs."""

    def _graph(self) -> Graph:
        graph = Graph(name="shardable")
        for index in range(10):
            graph.add(Triple(EX.term(f"s{index}"), EX.p, Literal(index)))
        return graph

    def test_partition_is_disjoint_and_exhaustive(self):
        graph = self._graph()
        shards = graph.partition(4)
        size = len(graph.dictionary)
        for term_id in range(size + 3):  # +3: ids assigned after partitioning
            assert sum(1 for shard in shards if shard.contains(term_id)) == 1

    def test_partition_shards_are_picklable_specs(self):
        import pickle

        graph = self._graph()
        for shard in graph.partition(3):
            clone = pickle.loads(pickle.dumps(shard))
            assert clone == shard

    def test_graph_survives_a_pickle_roundtrip(self):
        # The parallel executor ships the instance to process-pool workers;
        # ids must be preserved so shard results merge without re-encoding.
        import pickle

        graph = self._graph()
        clone = pickle.loads(pickle.dumps(graph))
        assert clone == graph
        for term, term_id in graph.dictionary.items():
            assert clone.dictionary.lookup(term) == term_id

    def test_partition_rejects_non_positive_counts(self):
        with pytest.raises(ValueError):
            self._graph().partition(0)
        with pytest.raises(ValueError):
            self._graph().partition(-2)
