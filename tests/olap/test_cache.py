"""Unit tests for the bounded result cache (:mod:`repro.olap.cache`)."""

import os
from decimal import Decimal

import pytest

from repro.errors import MaterializationError
from repro.rdf import EX, Graph, Literal, RDF, Triple
from repro.algebra.aggregates import AggregateFunction, default_registry
from repro.algebra.columnar import HAVE_NUMPY
from repro.algebra.relation import IdRelation
from repro.analytics.evaluator import AnalyticalQueryEvaluator
from repro.analytics.query import AnalyticalQuery
from repro.bgp.parser import parse_query
from repro.olap.cache import ResultCache, canonical_query_key
from repro.olap.cube import Cube
from repro.olap.operations import Dice, DrillOut, Slice
from repro.olap.session import OLAPSession
from repro.storage.snapshot import write_container

from tests.conftest import make_sites_query

RDF_TYPE = RDF.term("type")

#: Both engines; the columnar one needs the [fast] extra.
ENGINES = [
    "rows",
    pytest.param("columnar", marks=pytest.mark.skipif(not HAVE_NUMPY, reason="needs numpy")),
]


@pytest.fixture()
def materialized(example2_instance, sites_query):
    return AnalyticalQueryEvaluator(example2_instance).evaluate(sites_query)


def _variant(query, index):
    """Distinct canonical forms of the same core query (different slices)."""
    return Slice("dage", Literal(index)).apply(query)


def _evaluate(instance, query):
    return AnalyticalQueryEvaluator(instance).evaluate(query)


def _file_stamp(path):
    """A rewrite replaces the file: a new inode, whatever the clock says."""
    status = os.stat(path)
    return status.st_ino, status.st_mtime_ns


def _rewritten(path, edit):
    with open(path, "rb") as handle:
        data = handle.read()
    with open(path, "wb") as handle:
        handle.write(edit(data))


def _tsv_directory(path):
    """The entry directory the earlier text format left under the same name."""
    os.remove(path)
    os.makedirs(path)
    for name in ("manifest.json", "answer.tsv", "partial.tsv"):
        with open(os.path.join(path, name), "w") as handle:
            handle.write("{}\n" if name.endswith(".json") else "dage\tv\n")


#: How an entry file goes bad: each must read as a miss, never raise.
_DAMAGES = {
    "truncated section": lambda path: _rewritten(path, lambda data: data[:-1]),
    "bad magic": lambda path: _rewritten(path, lambda data: b"NOTANENT" + data[8:]),
    "corrupt header": lambda path: _rewritten(path, lambda data: data[:20] + b"#" + data[21:]),
    "graph snapshot kind": lambda path: write_container(path, {"graph_version": 0}, {}),
    "old tsv directory": _tsv_directory,
}

_MEDIAN = AggregateFunction("median_cache_oracle", lambda bag: sorted(bag)[len(bag) // 2], False)
if _MEDIAN.name not in default_registry():
    default_registry().register(_MEDIAN)

#: case → (measure values of fact i, aggregate)
_MEASURE_CASES = {
    "count": (lambda i: (i % 5, i % 3), "count"),
    "sum of ints": (lambda i: (i % 5 + 1, i % 3 + 7), "sum"),
    "sum of floats": (lambda i: (0.5 * (i % 4), 0.25 + i % 3), "sum"),
    "sum of ints and floats": (lambda i: (i % 5 + 1,) if i % 3 else (0.5,), "sum"),
    "sum of decimals": (lambda i: (Decimal("0.1") * (i % 4), Decimal("2.5")), "sum"),
    "avg": (lambda i: (i % 5 + 1, i % 3 + 7), "avg"),
    "count_distinct": (lambda i: (i % 4, (i + 1) % 4), "count_distinct"),
    "custom aggregate": (lambda i: (i % 5 + 1, i % 3 + 7), _MEDIAN.name),
    "ints of 2^31 and more": (lambda i: (2**31 + i, 2**40), "sum"),
    "ints of 2^63 and more": (lambda i: (2**62, 2**62), "sum"),
}


def _typed(cells):
    return {key: (type(value), value) for key, value in cells.items()}


def _measure_case(measures):
    """Twelve facts over one multi-valued dimension, fact i measuring ``measures(i)``."""
    graph = Graph()
    for index in range(12):
        fact = EX.term(f"fact/{index}")
        graph.add(Triple(fact, RDF_TYPE, EX.term("Fact")))
        graph.add(Triple(fact, EX.term("dim"), EX.term(f"d/{index % 3}")))
        if index % 4 == 0:
            graph.add(Triple(fact, EX.term("dim"), EX.term(f"d/{(index + 1) % 3}")))
        for value in measures(index):
            graph.add(Triple(fact, EX.term("measure"), Literal(value)))
    return graph


class TestCanonicalKeys:
    def test_name_does_not_matter(self, sites_query):
        renamed = sites_query.with_sigma(sites_query.sigma, name="completely_different")
        assert canonical_query_key(sites_query) == canonical_query_key(renamed)

    def test_sigma_changes_key_but_not_core(self, sites_query):
        sliced = Slice("dage", Literal(35)).apply(sites_query)
        assert canonical_query_key(sliced) != canonical_query_key(sites_query)
        assert sliced.core_key == sites_query.core_key

    def test_value_set_order_is_canonical(self, sites_query):
        forward = Dice({"dcity": [EX.term("Madrid"), EX.term("NY")]}).apply(sites_query)
        backward = Dice({"dcity": [EX.term("NY"), EX.term("Madrid")]}).apply(sites_query)
        assert canonical_query_key(forward) == canonical_query_key(backward)

    def test_navigation_path_does_not_matter(self, sites_query):
        """slice∘dice and dice∘slice reaching the same Σ share one key."""
        slice_op = Slice("dage", Literal(35))
        dice_op = Dice({"dcity": [EX.term("NY")]})
        one = dice_op.apply(slice_op.apply(sites_query))
        other = slice_op.apply(dice_op.apply(sites_query))
        assert canonical_query_key(one) == canonical_query_key(other)

    def test_range_dices_canonicalize_by_bounds(self, sites_query):
        one = Dice({"dage": (20, 40)}).apply(sites_query)
        other = Dice({"dage": (20, 40)}).apply(sites_query)
        assert canonical_query_key(one) == canonical_query_key(other)
        different = Dice({"dage": (20, 41)}).apply(sites_query)
        assert canonical_query_key(one) != canonical_query_key(different)

    def test_a_query_object_derives_its_keys_once(
        self, monkeypatch, example2_instance, sites_query, materialized
    ):
        """The cache reads the keys the query holds: however often it is
        looked up, one query object runs ``canonical_bgp_key`` at most twice
        (its classifier and its measure, for the core key)."""
        from repro.analytics import query as query_module
        from repro.analytics.query import AnalyticalQuery

        calls = []
        original = query_module.canonical_bgp_key
        monkeypatch.setattr(
            query_module, "canonical_bgp_key", lambda bgp: calls.append(bgp) or original(bgp)
        )
        fresh = AnalyticalQuery(
            sites_query.classifier, sites_query.measure, sites_query.aggregate, name="fresh"
        )
        cache = ResultCache(capacity=4)
        for _ in range(3):
            assert cache.get(fresh, example2_instance) is None
            assert cache.entries() == []
            assert cache.stale_entry(fresh, example2_instance) is None
        cache.put(fresh, materialized, example2_instance)
        for _ in range(3):
            assert cache.get(fresh, example2_instance) is not None
            assert list(cache.entries_with_core(fresh))
        assert len(calls) == 2
        # A SLICE of it is a new query with its own Σ, but the same core key.
        sliced = Slice("dage", Literal(35)).apply(fresh)
        cache.get(sliced, example2_instance)
        assert len(calls) == 2
        assert canonical_query_key(fresh) == canonical_query_key(sites_query)

    def test_a_query_is_read_only_but_its_name(self, sites_query):
        key = canonical_query_key(sites_query)
        for attribute in ("sigma", "classifier", "measure", "aggregate", "rollup", "schema"):
            with pytest.raises(AttributeError, match="read-only"):
                setattr(sites_query, attribute, getattr(sites_query, attribute))
        renamed = sites_query.with_sigma(sites_query.sigma)
        renamed.name = "display name only"
        assert canonical_query_key(renamed) == key


class TestLRUBehaviour:
    def test_eviction_order_is_lru(self, example2_instance, sites_query, materialized):
        cache = ResultCache(capacity=2)
        q1, q2, q3 = (_variant(sites_query, i) for i in (1, 2, 3))
        cache.put(q1, materialized, example2_instance)
        cache.put(q2, materialized, example2_instance)
        cache.put(q3, materialized, example2_instance)  # evicts q1
        assert cache.stats.evictions == 1
        assert cache.get(q1, example2_instance) is None
        assert cache.get(q2, example2_instance) is not None
        assert cache.get(q3, example2_instance) is not None

    def test_get_refreshes_recency(self, example2_instance, sites_query, materialized):
        cache = ResultCache(capacity=2)
        q1, q2, q3 = (_variant(sites_query, i) for i in (1, 2, 3))
        cache.put(q1, materialized, example2_instance)
        cache.put(q2, materialized, example2_instance)
        assert cache.get(q1, example2_instance) is not None  # q1 now most recent
        cache.put(q3, materialized, example2_instance)  # evicts q2, not q1
        assert cache.get(q1, example2_instance) is not None
        assert cache.get(q2, example2_instance) is None

    def test_capacity_zero_stores_nothing(self, example2_instance, sites_query, materialized):
        cache = ResultCache(capacity=0)
        cache.put(sites_query, materialized, example2_instance)
        assert len(cache) == 0
        assert cache.get(sites_query, example2_instance) is None

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=-1)


class TestPinning:
    def test_pinned_entry_survives_lru_pressure(
        self, example2_instance, sites_query, materialized
    ):
        cache = ResultCache(capacity=2)
        q1, q2, q3 = (_variant(sites_query, i) for i in (1, 2, 3))
        cache.put(q1, materialized, example2_instance)
        assert cache.pin(q1) is True
        cache.put(q2, materialized, example2_instance)
        cache.put(q3, materialized, example2_instance)  # would evict q1 (LRU)
        assert cache.get(q1, example2_instance) is not None  # pinned: survived
        assert cache.get(q2, example2_instance) is None  # evicted instead
        assert cache.stats.evictions == 1

    def test_unpin_restores_lru_eligibility(
        self, example2_instance, sites_query, materialized
    ):
        cache = ResultCache(capacity=2)
        q1, q2, q3 = (_variant(sites_query, i) for i in (1, 2, 3))
        cache.put(q1, materialized, example2_instance)
        cache.pin(q1)
        assert cache.unpin(q1) is True
        assert cache.unpin(q1) is False  # already unpinned
        cache.put(q2, materialized, example2_instance)
        cache.put(q3, materialized, example2_instance)
        assert cache.get(q1, example2_instance) is None  # LRU again

    def test_all_pinned_cache_may_exceed_capacity(
        self, example2_instance, sites_query, materialized
    ):
        cache = ResultCache(capacity=2)
        queries = [_variant(sites_query, i) for i in (1, 2, 3)]
        for query in queries:
            cache.pin(query)  # latent pin: protects the entry from insert on
            cache.put(query, materialized, example2_instance)
        assert len(cache) == 3  # over capacity rather than dropping pins
        assert cache.stats.evictions == 0

    def test_pin_by_key_before_insert(self, example2_instance, sites_query, materialized):
        cache = ResultCache(capacity=2)
        key = canonical_query_key(sites_query)
        assert cache.pin(key) is False  # no entry yet; pin is latent
        cache.put(sites_query, materialized, example2_instance)
        assert sites_query.canonical_key in cache.pinned_keys()
        assert key in cache.pinned_keys()

    def test_pin_survives_re_put(self, example2_instance, sites_query, materialized):
        cache = ResultCache(capacity=2)
        cache.put(sites_query, materialized, example2_instance)
        cache.pin(sites_query)
        cache.put(sites_query, materialized, example2_instance)  # refreshed entry
        assert sites_query.canonical_key in cache.pinned_keys()

    def test_explicit_evict_unpins_and_counts(
        self, example2_instance, sites_query, materialized
    ):
        cache = ResultCache(capacity=2)
        cache.put(sites_query, materialized, example2_instance)
        cache.pin(sites_query)
        assert cache.evict(sites_query) is True
        assert cache.evict(sites_query) is False  # already gone
        assert sites_query.canonical_key not in cache.pinned_keys()
        assert cache.stats.evictions == 1

    def test_discard_drops_pin(self, example2_instance, sites_query, materialized):
        cache = ResultCache(capacity=2)
        cache.put(sites_query, materialized, example2_instance)
        cache.pin(sites_query)
        cache.discard(sites_query)
        assert sites_query.canonical_key not in cache.pinned_keys()

    def test_clear_drops_pins(self, example2_instance, sites_query, materialized):
        cache = ResultCache(capacity=2)
        cache.put(sites_query, materialized, example2_instance)
        cache.pin(sites_query)
        cache.clear()
        assert cache.pinned_keys() == ()


class TestAccounting:
    def test_hit_and_miss_counts(self, example2_instance, sites_query, materialized):
        cache = ResultCache(capacity=4)
        assert cache.get(sites_query, example2_instance) is None
        assert cache.stats.misses == 1
        cache.put(sites_query, materialized, example2_instance)
        assert cache.stats.puts == 1
        assert cache.get(sites_query, example2_instance) is not None
        assert cache.get(sites_query, example2_instance) is not None
        assert cache.stats.hits == 2
        assert cache.stats.misses == 1

    def test_entry_hit_counter(self, example2_instance, sites_query, materialized):
        cache = ResultCache(capacity=4)
        cache.put(sites_query, materialized, example2_instance)
        entry = cache.get(sites_query, example2_instance)
        assert entry.hits == 1
        assert cache.get(sites_query, example2_instance).hits == 2


class TestGraphMutationInvalidation:
    def test_mutated_graph_never_serves_stale_entry(
        self, example2_instance, sites_query, materialized
    ):
        """A stale entry is not served — but with deltas available it is
        *retained* for refresh (a miss, not an invalidation)."""
        cache = ResultCache(capacity=4)
        cache.put(sites_query, materialized, example2_instance)
        example2_instance.add(Triple(EX.term("userX"), RDF_TYPE, EX.Blogger))
        assert cache.get(sites_query, example2_instance) is None
        assert cache.stats.misses == 1
        assert cache.stats.invalidations == 0
        assert cache.stale_entry(sites_query, example2_instance) is not None

    def test_mutation_past_the_log_window_invalidates(
        self, sites_query, materialized
    ):
        """When the change log cannot cover the gap, the entry is dropped."""
        from repro.rdf import Graph

        instance = Graph(change_log_limit=0)  # the log never answers
        instance.add(Triple(EX.term("user1"), RDF_TYPE, EX.Blogger))
        cache = ResultCache(capacity=4)
        cache.put(sites_query, materialized, instance)
        instance.add(Triple(EX.term("userX"), RDF_TYPE, EX.Blogger))
        assert cache.get(sites_query, instance) is None
        assert cache.stats.invalidations == 1
        assert cache.stats.misses == 1
        assert cache.stale_entry(sites_query, instance) is None

    def test_noop_mutation_keeps_entry(self, example2_instance, sites_query, materialized):
        cache = ResultCache(capacity=4)
        cache.put(sites_query, materialized, example2_instance)
        duplicate = next(iter(example2_instance))
        assert not example2_instance.add(duplicate)  # already present: no version bump
        assert cache.get(sites_query, example2_instance) is not None

    def test_session_never_serves_stale_results(self, example2_instance, sites_query):
        session = OLAPSession(example2_instance)
        session.execute(sites_query)
        example2_instance.add(Triple(EX.term("userY"), RDF_TYPE, EX.Blogger))
        with pytest.raises(MaterializationError):
            session.materialized(sites_query)

    def test_planner_answers_correctly_after_mutation(self, example2_instance, sites_query):
        """A transform after a mutation never serves the stale cube.

        (Pre-maintenance this was forced to fall back to scratch; with the
        change log the session may instead patch the stale origin and
        rewrite — either way the answer must reflect the mutation.)
        """
        session = OLAPSession(example2_instance)
        session.execute(sites_query)
        user5 = EX.term("user5")
        example2_instance.add(Triple(user5, RDF_TYPE, EX.Blogger))
        example2_instance.add(Triple(user5, EX.hasAge, Literal(35)))
        example2_instance.add(Triple(user5, EX.livesIn, EX.term("NY")))
        post = EX.term("p6")
        example2_instance.add(Triple(post, RDF_TYPE, EX.BlogPost))
        example2_instance.add(Triple(user5, EX.wrotePost, post))
        example2_instance.add(Triple(post, EX.postedOn, EX.term("s3")))
        cube = session.transform(sites_query, Slice("dage", Literal(35)), strategy="plan")
        assert cube.cell(Literal(35), EX.term("NY")) == 3


class TestPersistenceWarmStart:
    def test_round_trip_warm_start(self, tmp_path, example2_instance, sites_query, materialized):
        store = str(tmp_path / "cache")
        first = ResultCache(capacity=4, store_dir=store)
        first.put(sites_query, materialized, example2_instance)

        second = ResultCache(capacity=4, store_dir=store)
        entry = second.get(sites_query, example2_instance)
        assert entry is not None
        assert entry.origin == "disk"
        assert second.stats.disk_hits == 1
        restored = Cube(entry.materialized.answer, sites_query)
        original = Cube(materialized.answer, sites_query)
        assert restored.same_cells(original)
        assert len(entry.materialized.partial) == len(materialized.partial)

    @pytest.mark.parametrize("damage", sorted(_DAMAGES))
    def test_a_bad_entry_file_is_a_counted_miss_and_is_overwritten(
        self, tmp_path, example2_instance, sites_query, materialized, damage
    ):
        """A bad file under the entry's name never fails a read: it is a miss,
        counted in ``disk_rejects``, and the recompute writes a good file."""
        store = str(tmp_path / "cache")
        ResultCache(capacity=4, store_dir=store).put(sites_query, materialized, example2_instance)
        (name,) = os.listdir(store)
        _DAMAGES[damage](os.path.join(store, name))
        cold = ResultCache(capacity=4, store_dir=store)
        assert cold.get(sites_query, example2_instance) is None
        assert (cold.stats.disk_rejects, cold.stats.disk_hits, cold.stats.misses) == (1, 0, 1)
        session = OLAPSession(example2_instance, cache_dir=store)
        session.execute(sites_query)  # recomputes, and overwrites the bad file
        assert session.history[-1].strategy == "scratch"
        assert session.cache.stats.disk_rejects == 1
        healed = ResultCache(capacity=4, store_dir=store)
        assert healed.get(sites_query, example2_instance).origin == "disk"
        assert healed.stats.disk_rejects == 0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_a_warm_started_entry_is_in_the_graph_id_space(
        self, tmp_path, example2_instance, sites_query, engine
    ):
        """Read back into the live dictionary and the session's engine
        storage — the same storage a computed entry has."""
        store = str(tmp_path / "cache")
        computed = OLAPSession(example2_instance, cache_dir=store, engine=engine)
        expected_cube = computed.execute(sites_query)
        fresh = OLAPSession(example2_instance, cache_dir=store, engine=engine)
        assert fresh.execute(sites_query).same_cells(expected_cube)
        assert fresh.history[-1].strategy == "cache[disk]"
        restored, expected = fresh.materialized(sites_query), computed.materialized(sites_query)
        for storage, reference in (
            (restored.partial.storage, expected.partial.storage),
            (restored.answer.storage, expected.answer.storage),
        ):
            assert type(storage) is type(reference)
            assert isinstance(storage, IdRelation)
            assert storage.dictionary is example2_instance.dictionary
            assert storage.encoded_columns == reference.encoded_columns
            assert storage.bag_equal(reference)

    def test_warm_start_over_a_mapped_snapshot(self, tmp_path, example2_instance, sites_query):
        pytest.importorskip("numpy")
        from repro.storage.snapshot import save_snapshot

        path, store = str(tmp_path / "instance.snap"), str(tmp_path / "cache")
        save_snapshot(example2_instance, path)
        expected = OLAPSession(snapshot=path, cache_dir=store).execute(sites_query)
        fresh = OLAPSession(snapshot=path, cache_dir=store)
        assert fresh.execute(sites_query).same_cells(expected)
        assert fresh.history[-1].strategy == "cache[disk]"
        partial = fresh.materialized(sites_query).partial.storage
        assert partial.dictionary is fresh.instance.dictionary
        drilled = fresh.transform(sites_query, DrillOut("dage"), strategy="rewrite")
        assert drilled.cell(EX.term("Madrid")) == 3

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("case", sorted(_MEASURE_CASES))
    def test_measure_values_keep_their_python_type(self, tmp_path, case, engine):
        measures, aggregate = _MEASURE_CASES[case]
        graph = _measure_case(measures)
        query = AnalyticalQuery(
            parse_query("c(?x, ?d) :- ?x rdf:type ex:Fact, ?x ex:dim ?d"),
            parse_query("m(?x, ?v) :- ?x ex:measure ?v"),
            aggregate,
            name="measure_case",
        )
        store = str(tmp_path / "cache")
        expected = OLAPSession(graph, cache_dir=store, engine=engine).execute(query)
        fresh = OLAPSession(graph, cache_dir=store, engine=engine)
        cube = fresh.execute(query)
        assert fresh.history[-1].strategy == "cache[disk]"
        assert _typed(cube.cells()) == _typed(expected.cells()) != {}

    def test_disk_entry_for_other_instance_size_is_stale(
        self, tmp_path, example2_instance, sites_query, materialized
    ):
        store = str(tmp_path / "cache")
        ResultCache(capacity=4, store_dir=store).put(sites_query, materialized, example2_instance)
        example2_instance.add(Triple(EX.term("userZ"), RDF_TYPE, EX.Blogger))
        cold = ResultCache(capacity=4, store_dir=store)
        assert cold.get(sites_query, example2_instance) is None
        assert cold.stats.disk_hits == 0

    def test_disk_entry_rejected_when_content_changed_but_size_did_not(
        self, tmp_path, example2_instance, sites_query, materialized
    ):
        """Remove one triple, add another: same triple count, different
        content — the fingerprint must keep the disk entry from being
        resurrected (and from being re-stamped as valid)."""
        store = str(tmp_path / "cache")
        cache = ResultCache(capacity=4, store_dir=store)
        cache.put(sites_query, materialized, example2_instance)
        removed = Triple(EX.term("user1"), EX.hasAge, Literal(28))
        assert example2_instance.remove(removed)
        assert example2_instance.add(Triple(EX.term("userW"), RDF_TYPE, EX.Blogger))
        # In-memory entry: invalidated by the version stamp...
        assert cache.get(sites_query, example2_instance) is None
        # ...and the disk copy must not come back either, now or later.
        assert cache.get(sites_query, example2_instance) is None
        cold = ResultCache(capacity=4, store_dir=store)
        assert cold.get(sites_query, example2_instance) is None
        assert cold.stats.disk_hits == 0

    def test_capacity_zero_still_writes_through(
        self, tmp_path, example2_instance, sites_query, materialized
    ):
        store = str(tmp_path / "cache")
        writer = ResultCache(capacity=0, store_dir=store)
        writer.put(sites_query, materialized, example2_instance)
        assert len(writer) == 0
        reader = ResultCache(capacity=4, store_dir=store)
        assert reader.get(sites_query, example2_instance) is not None

    def test_session_warm_start(self, tmp_path, example2_instance, sites_query):
        store = str(tmp_path / "session-cache")
        warm = OLAPSession(example2_instance, cache_dir=store)
        expected = warm.execute(sites_query)

        fresh = OLAPSession(example2_instance, cache_dir=store)
        cube = fresh.execute(sites_query)
        assert fresh.history[-1].strategy == "cache[disk]"
        assert cube.same_cells(expected)
        # The warm-started partial supports drill rewritings immediately.
        drilled = fresh.transform(sites_query, DrillOut("dage"), strategy="rewrite")
        assert drilled.cell(EX.term("Madrid")) == 3


class TestSessionCacheIntegration:
    def test_plan_falls_back_to_scratch_when_origin_evicted(
        self, example2_instance, sites_query
    ):
        """With no origin entry (capacity 0 here; LRU eviction and
        invalidation likewise) the planner has no rewriting to offer."""
        session = OLAPSession(example2_instance, cache_capacity=0)
        session.execute(sites_query)
        cube = session.transform(sites_query, Slice("dage", Literal(35)))
        assert session.history[-1].strategy == "plan[scratch]"
        assert cube.cells() == {(Literal(35), EX.term("NY")): 2}

    def test_repeated_planned_operation_writes_disk_once(
        self, tmp_path, example2_instance, sites_query
    ):
        """A plan[cached] hit must not re-serialize the entry to disk."""
        import os

        store = str(tmp_path / "cache")
        session = OLAPSession(example2_instance, cache_dir=store)
        session.execute(sites_query)
        operation = Slice("dage", Literal(35))
        session.transform(sites_query, operation, strategy="plan")
        entry_files = sorted(os.listdir(store))
        stamps = {name: _file_stamp(os.path.join(store, name)) for name in entry_files}
        session.transform(sites_query, operation, strategy="plan")  # cached
        assert session.history[-1].strategy == "plan[cached]"
        assert sorted(os.listdir(store)) == entry_files
        for name, stamp in stamps.items():
            assert _file_stamp(os.path.join(store, name)) == stamp

    def test_repeating_a_dice_of_a_range_diced_dimension_is_a_hit(self, tmp_path):
        """A DICE of a range-diced dimension conjoins the two ranges into the
        tighter range, keyed by value: repeating it is a hit that stores
        nothing, and the query pickles and warm-starts from disk."""
        import pickle

        from repro.datagen.blogger import BloggerConfig, blogger_dataset, sites_per_blogger_query

        dataset = blogger_dataset(BloggerConfig(bloggers=60, seed=7))
        root = sites_per_blogger_query(dataset.schema)
        store = str(tmp_path / "cache")
        session = OLAPSession(dataset.instance, dataset.schema, cache_dir=store)
        session.execute(root)
        diced = session.transform(root, Dice({"dage": (20, 40)})).query
        operation = Dice({"dage": (25, 60)})
        first = session.transform(diced, operation)
        assert session.cache.stats.puts == 3
        second = session.transform(diced, operation)
        assert session.history[-1].strategy == "plan[cached]"
        assert session.cache.stats.puts == 3
        assert second.query == first.query
        assert pickle.loads(pickle.dumps(second.query)) == second.query

        warm = OLAPSession(dataset.instance, dataset.schema, cache_dir=store)
        assert warm.execute(second.query).same_cells(second)
        assert warm.history[-1].strategy == "cache[disk]"

    def test_forget_discards_cache_entry(self, example2_instance, sites_query):
        session = OLAPSession(example2_instance)
        session.execute(sites_query)
        assert len(session.cache) == 1
        session.forget(sites_query)
        assert len(session.cache) == 0

    def test_eviction_under_session_pressure(self, example2_instance, sites_query):
        session = OLAPSession(example2_instance, cache_capacity=1)
        session.execute(sites_query)
        session.transform(sites_query, Slice("dage", Literal(35)), strategy="plan")
        # Capacity 1: materializing the slice evicted the root query.
        assert len(session.cache) == 1
        with pytest.raises(MaterializationError):
            session.materialized(sites_query)

    def test_entries_with_core(self, example2_instance, sites_query, materialized):
        cache = ResultCache(capacity=4)
        sliced = Slice("dage", Literal(35)).apply(sites_query)
        cache.put(sites_query, materialized, example2_instance)
        cache.put(sliced, _evaluate(example2_instance, sliced), example2_instance)
        assert len(list(cache.entries_with_core(sites_query))) == 2


def _grow_instance(instance, suffix="X"):
    """A small semantically meaningful update batch: one new NY blogger."""
    user = EX.term(f"user{suffix}")
    post = EX.term(f"post{suffix}")
    instance.add(Triple(user, RDF_TYPE, EX.Blogger))
    instance.add(Triple(user, EX.hasAge, Literal(35)))
    instance.add(Triple(user, EX.livesIn, EX.term("NY")))
    instance.add(Triple(post, RDF_TYPE, EX.BlogPost))
    instance.add(Triple(user, EX.wrotePost, post))
    instance.add(Triple(post, EX.postedOn, EX.term("s1")))


class TestRefreshAccounting:
    """Accounting of the refresh path across mixed read/write workloads."""

    def test_cache_refresh_patches_and_restamps(
        self, example2_instance, sites_query, materialized
    ):
        from repro.analytics.evaluator import AnalyticalQueryEvaluator
        from repro.olap.maintenance import DeltaMaintainer

        cache = ResultCache(capacity=4)
        cache.put(sites_query, materialized, example2_instance)
        _grow_instance(example2_instance)
        maintainer = DeltaMaintainer(AnalyticalQueryEvaluator(example2_instance))
        entry = cache.refresh(sites_query, example2_instance, maintainer)
        assert entry is not None
        assert entry.graph_version == example2_instance.version
        assert cache.stats.refreshes == 1
        assert cache.stats.invalidations == 0
        # The refreshed entry is a plain hit from now on, and it is correct.
        assert cache.get(sites_query, example2_instance) is entry
        assert cache.stats.hits == 1
        refreshed = Cube(entry.materialized.answer, sites_query)
        scratch = Cube(
            AnalyticalQueryEvaluator(example2_instance).answer(sites_query), sites_query
        )
        assert refreshed.same_cells(scratch)

    def test_refresh_without_stale_entry_is_none(self, example2_instance, sites_query):
        from repro.analytics.evaluator import AnalyticalQueryEvaluator
        from repro.olap.maintenance import DeltaMaintainer

        cache = ResultCache(capacity=4)
        maintainer = DeltaMaintainer(AnalyticalQueryEvaluator(example2_instance))
        assert cache.refresh(sites_query, example2_instance, maintainer) is None
        assert cache.stats.refreshes == 0

    def test_session_mixed_workload_counts(self, example2_instance, sites_query):
        """execute / transform / update / re-execute: every counter lands.

        Row engine: the refresh-strategy assertion pins the uniform-cost
        ranking; columnar's cheaper scratch legitimately recomputes here.
        """
        session = OLAPSession(example2_instance, engine="rows")
        session.execute(sites_query)  # miss + put
        session.execute(sites_query)  # hit
        operation = Slice("dage", Literal(35))
        session.transform(sites_query, operation, strategy="plan")
        _grow_instance(example2_instance)
        cube = session.execute(sites_query)  # stale -> refresh
        assert session.history[-1].strategy == "refresh"
        stats = session.cache.stats
        assert stats.refreshes == 1
        assert stats.invalidations == 0
        assert stats.hits >= 1
        assert stats.misses >= 2
        from repro.analytics.evaluator import AnalyticalQueryEvaluator

        scratch = Cube(
            AnalyticalQueryEvaluator(example2_instance).answer(sites_query), sites_query
        )
        assert cube.same_cells(scratch)
        # The new blogger landed in the refreshed cube.
        assert cube.cell(Literal(35), EX.term("NY")) == 3

    def test_transform_after_update_prefers_patching_over_scratch(
        self, example2_instance, sites_query
    ):
        """After a small update batch the planner never falls back to scratch:
        it patches the stale origin (counted as a refresh) and answers the
        repeated operation from reuse candidates."""
        # Row engine: the "never scratch" assertion pins the uniform-cost
        # ranking; the columnar engine's 0.35x scratch multiplier can
        # legitimately price scratch under patching at this tiny scale.
        session = OLAPSession(example2_instance, engine="rows")
        session.execute(sites_query)
        operation = Slice("dage", Literal(35))
        session.transform(sites_query, operation, strategy="plan")
        _grow_instance(example2_instance)
        cube = session.transform(sites_query, operation, strategy="plan")
        assert session.history[-1].strategy != "plan[scratch]"
        assert session.cache.stats.refreshes >= 1
        from repro.analytics.evaluator import AnalyticalQueryEvaluator

        transformed = operation.apply(sites_query)
        scratch = Cube(
            AnalyticalQueryEvaluator(example2_instance).answer(transformed), transformed
        )
        assert cube.same_cells(scratch)

    def test_disk_loaded_entry_refreshes_correctly(
        self, tmp_path, example2_instance, sites_query
    ):
        """An origin="disk" entry survives updates too, through ``execute``.

        Row engine: the test must drive the *patch* path on the warm-started
        entry; columnar's cheaper scratch pricing would recompute at this
        fixture scale instead of patching.
        """
        from repro.analytics.evaluator import AnalyticalQueryEvaluator

        store = str(tmp_path / "cache")
        warm = OLAPSession(example2_instance, cache_dir=store)
        warm.execute(sites_query)

        fresh = OLAPSession(example2_instance, cache_dir=store, engine="rows")
        fresh.execute(sites_query)
        assert fresh.history[-1].strategy == "cache[disk]"
        _grow_instance(example2_instance, suffix="Y")
        cube = fresh.execute(sites_query)
        assert fresh.history[-1].strategy == "refresh"
        assert fresh.cache.stats.refreshes == 1
        entry = fresh.cache.get(sites_query, example2_instance)
        assert entry is not None and entry.origin == "disk"
        scratch = Cube(
            AnalyticalQueryEvaluator(example2_instance).answer(sites_query), sites_query
        )
        assert cube.same_cells(scratch)
        # Drill rewritings work off the patched partial result.
        drilled = fresh.transform(sites_query, DrillOut("dage"), strategy="rewrite")
        drilled_query = DrillOut("dage").apply(sites_query)
        drilled_scratch = Cube(
            AnalyticalQueryEvaluator(example2_instance).answer(drilled_query), drilled_query
        )
        assert drilled.same_cells(drilled_scratch)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_a_warm_started_entry_refreshes_by_delta_and_equals_scratch(
        self, tmp_path, example2_instance, sites_query, engine
    ):
        """Forced through ``cache.refresh`` (columnar pricing may prefer
        recomputing at this scale): the patch splices in the live id space."""
        store = str(tmp_path / "cache")
        OLAPSession(example2_instance, cache_dir=store, engine=engine).execute(sites_query)
        fresh = OLAPSession(example2_instance, cache_dir=store, engine=engine)
        fresh.execute(sites_query)
        assert fresh.history[-1].strategy == "cache[disk]"
        _grow_instance(example2_instance, suffix="W")
        entry = fresh.cache.refresh(sites_query, example2_instance, fresh.maintainer)
        assert entry is not None and entry.origin == "disk"
        assert (fresh.cache.stats.refreshes, fresh.cache.stats.invalidations) == (1, 0)
        for storage in (entry.materialized.partial.storage, entry.materialized.answer.storage):
            assert storage.dictionary is example2_instance.dictionary
        scratch = AnalyticalQueryEvaluator(example2_instance, engine=engine).evaluate(sites_query)
        assert Cube(entry.materialized.answer, sites_query).same_cells(Cube(scratch.answer, sites_query))
        assert Cube(entry.materialized.answer, sites_query).cell(Literal(35), EX.term("NY")) == 3

    def test_capacity_zero_never_refreshes(self, example2_instance, sites_query):
        session = OLAPSession(example2_instance, cache_capacity=0)
        session.execute(sites_query)
        _grow_instance(example2_instance, suffix="Z")
        session.execute(sites_query)
        assert session.history[-1].strategy == "scratch"
        assert session.cache.stats.refreshes == 0


class TestAdoption:
    """``adopt``: another cache's entries cross to a later generation of the
    same graph, stale-stamped and rebound to its dictionary."""

    @staticmethod
    def _generation(writer):
        published = writer.copy()  # id-preserving
        published.adopt_history(writer)
        return published

    def test_entries_cross_stale_stamped_rebound_and_refreshable(self, example2_instance, sites_query):
        from repro.olap.maintenance import DeltaMaintainer

        writer = example2_instance
        first = self._generation(writer)
        variants = [_variant(sites_query, index) for index in (28, 35)] + [sites_query]
        source = ResultCache(capacity=4)
        for query in variants:
            source.put(query, _evaluate(first, query), first)
        source.pin(variants[0])
        assert source.get(variants[1], first) is not None  # most recently used now
        _grow_instance(writer)
        second = self._generation(writer)

        heir = ResultCache(capacity=4)
        assert heir.adopt(source.entries(), second, source.pinned_keys()) == 3
        assert heir.keys() == source.keys() and heir.pinned_keys() == source.pinned_keys()
        assert len(source) == 3  # the source keeps its own entries
        # Nothing was materialized: adoptions are not puts.
        assert (heir.stats.puts, heir.stats.adopted) == (0, 3)
        for entry, original in zip(heir.entries(), source.entries()):
            assert entry.graph_version == first.version != second.version
            assert entry.materialized.partial.storage.dictionary is second.dictionary
            assert entry.materialized.answer.storage.dictionary is second.dictionary
            assert original.materialized.answer.storage.dictionary is first.dictionary
        # Never served as is; patched from the log tail the generation carries.
        assert heir.get(sites_query, second) is None
        maintainer = DeltaMaintainer(AnalyticalQueryEvaluator(second))
        entry = heir.refresh(sites_query, second, maintainer)
        assert entry is not None and entry.graph_version == second.version
        assert Cube(entry.materialized.answer, sites_query).same_cells(
            Cube(AnalyticalQueryEvaluator(second).answer(sites_query), sites_query)
        )

    def test_the_decoded_cells_are_shared_not_copied(self, example2_instance, sites_query):
        first = self._generation(example2_instance)
        source = ResultCache(capacity=2)
        source.put(sites_query, _evaluate(first, sites_query), first)
        cells = source.entries()[0].materialized.answer.decoded_cells()
        heir = ResultCache(capacity=2)
        heir.adopt(source.entries(), self._generation(example2_instance))
        assert heir.entries()[0].materialized.answer.decoded_cells() is cells

    def test_out_of_window_stamps_and_rolled_entries_stay_behind(self, example2_instance, sites_query):
        from repro.olap import DimensionHierarchy, RollUp

        writer = example2_instance
        first = self._generation(writer)
        rolled = RollUp("dage", DimensionHierarchy.banded([(0, 200, "any")], name="all")).apply(sites_query)
        source = ResultCache(capacity=4)
        source.put(sites_query, _evaluate(first, sites_query), first)
        source.put(rolled, _evaluate(first, rolled), first)
        source.pin(rolled)
        heir = ResultCache(capacity=4)
        assert heir.adopt(source.entries(), self._generation(writer), source.pinned_keys()) == 1
        assert heir.keys() == (canonical_query_key(sites_query),)
        # A pin crosses only with its entry: a later put of the key left
        # behind must stay evictable.
        assert heir.pinned_keys() == ()

        writer.clear()  # the log can no longer reach back to the stamp
        _grow_instance(writer)
        assert ResultCache(capacity=4).adopt(source.entries(), self._generation(writer)) == 0

    def test_a_key_already_held_is_left_alone(self, example2_instance, sites_query):
        first = self._generation(example2_instance)
        source = ResultCache(capacity=2)
        source.put(sites_query, _evaluate(first, sites_query), first)
        _grow_instance(example2_instance)
        second = self._generation(example2_instance)
        heir = ResultCache(capacity=2)
        fresh = heir.put(sites_query, _evaluate(second, sites_query), second)
        assert heir.adopt(source.entries(), second) == 0
        assert heir.get(sites_query, second) is fresh


class TestExecuteTimeVersionStamping:
    """Regression: entries must be stamped with the graph version observed at
    *evaluation* time, not whatever the version is when ``put`` finally runs.

    Pre-fix, ``put`` stamped ``graph.version`` at insert time, so a mutation
    interleaved between evaluation and insertion produced an entry stamped
    *newer* than the data it holds — it would then be served for the mutated
    graph even though it answers the old one.
    """

    def test_put_with_older_version_is_born_stale(
        self, example2_instance, sites_query, materialized
    ):
        cache = ResultCache(capacity=4)
        observed = example2_instance.version
        # The mutation lands between evaluation and insertion.
        example2_instance.add(Triple(EX.term("userX"), RDF_TYPE, EX.Blogger))
        entry = cache.put(
            sites_query, materialized, example2_instance, version=observed
        )
        assert entry.graph_version == observed
        # Born stale: never served as fresh for the mutated graph...
        assert cache.get(sites_query, example2_instance) is None
        # ...but retained for delta refresh like any other stale entry.
        assert cache.stale_entry(sites_query, example2_instance) is not None

    def test_put_default_still_stamps_insert_time(
        self, example2_instance, sites_query, materialized
    ):
        cache = ResultCache(capacity=4)
        entry = cache.put(sites_query, materialized, example2_instance)
        assert entry.graph_version == example2_instance.version
        assert cache.get(sites_query, example2_instance) is not None

    def test_born_stale_entry_never_persisted(
        self, tmp_path, example2_instance, sites_query, materialized
    ):
        store = str(tmp_path / "cache")
        cache = ResultCache(capacity=4, store_dir=store)
        observed = example2_instance.version
        example2_instance.add(Triple(EX.term("userX"), RDF_TYPE, EX.Blogger))
        cache.put(sites_query, materialized, example2_instance, version=observed)
        # A fresh cache over the same store must not warm-start from it.
        rewarmed = ResultCache(capacity=4, store_dir=store)
        assert rewarmed.get(sites_query, example2_instance) is None

    def test_session_stamps_before_evaluation(self, example2_instance, sites_query):
        """A mutation racing ``execute`` makes the entry stale, never wrong."""
        session = OLAPSession(example2_instance)
        original_evaluate = session.evaluator.evaluate

        def mutating_evaluate(query, **kwargs):
            result = original_evaluate(query, **kwargs)
            # Simulate a writer thread landing a triple mid-evaluation,
            # after the answer is computed but before the cache insert.
            example2_instance.add(
                Triple(EX.term("userRace"), RDF_TYPE, EX.Blogger)
            )
            return result

        session.evaluator.evaluate = mutating_evaluate
        session.execute(sites_query)
        session.evaluator.evaluate = original_evaluate
        # The entry was stamped with the pre-mutation version, so it is
        # already stale for the mutated graph — a lookup misses instead of
        # serving the pre-mutation cube as current.
        assert session.cache.get(sites_query, example2_instance) is None
        cube = session.execute(sites_query)
        scratch = Cube(
            AnalyticalQueryEvaluator(example2_instance).answer(sites_query),
            sites_query,
        )
        assert cube.same_cells(scratch)


class TestCacheThreadSafety:
    """Hammer the cache from many threads; the counters must stay coherent."""

    def test_concurrent_get_put_pin(self, example2_instance, sites_query):
        import threading

        evaluator = AnalyticalQueryEvaluator(example2_instance)
        variants = [_variant(sites_query, index) for index in range(8)]
        results = [evaluator.evaluate(variant) for variant in variants]
        cache = ResultCache(capacity=4)
        threads = 8
        rounds = 60
        barrier = threading.Barrier(threads)
        errors = []
        gets_per_thread = rounds * len(variants)

        def hammer(seed):
            try:
                barrier.wait()
                for round_index in range(rounds):
                    for index, variant in enumerate(variants):
                        if (round_index + seed + index) % 3 == 0:
                            cache.put(variant, results[index], example2_instance)
                        cache.get(variant, example2_instance)
                        if (round_index + seed + index) % 5 == 0:
                            cache.pin(variant)
                            cache.unpin(variant)
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        workers = [
            threading.Thread(target=hammer, args=(seed,)) for seed in range(threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()

        assert errors == []
        # Every get is accounted for exactly once: a hit or a miss.
        assert cache.stats.hits + cache.stats.misses == threads * gets_per_thread
        # All pins were released; LRU bookkeeping survived the hammering.
        assert cache.pinned_keys() == ()
        assert len(cache) <= 4
