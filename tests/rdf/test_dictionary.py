"""Unit tests for the term dictionary (integer encoding)."""

import pickle
import sys
import threading
from decimal import Decimal

import pytest

from repro.errors import DictionaryError
from repro.rdf import EX, BlankNode, Literal
from repro.rdf.dictionary import TermDictionary


class TestTermDictionary:
    def test_encode_assigns_dense_ids_in_first_seen_order(self):
        dictionary = TermDictionary()
        first = dictionary.encode(EX.user1)
        second = dictionary.encode(EX.user2)
        assert (first, second) == (0, 1)
        assert len(dictionary) == 2

    def test_encode_is_idempotent(self):
        dictionary = TermDictionary()
        assert dictionary.encode(EX.user1) == dictionary.encode(EX.user1)
        assert len(dictionary) == 1

    def test_decode_roundtrip(self):
        dictionary = TermDictionary()
        terms = [EX.user1, Literal(28), Literal("Bill"), EX.hasAge]
        ids = [dictionary.encode(term) for term in terms]
        assert [dictionary.decode(i) for i in ids] == terms

    def test_lookup_returns_none_for_unknown(self):
        dictionary = TermDictionary()
        assert dictionary.lookup(EX.user1) is None
        dictionary.encode(EX.user1)
        assert dictionary.lookup(EX.user1) == 0

    def test_encode_existing_raises_for_unknown(self):
        dictionary = TermDictionary()
        with pytest.raises(DictionaryError):
            dictionary.encode_existing(EX.user1)

    def test_decode_unknown_id_raises(self):
        dictionary = TermDictionary()
        with pytest.raises(DictionaryError):
            dictionary.decode(0)
        with pytest.raises(DictionaryError):
            dictionary.decode(-1)

    def test_derived_ids_are_negative_stable_and_invisible(self):
        dictionary = TermDictionary()
        dictionary.encode(EX.user1)
        assert dictionary.encode_derived(EX.user1) == 0  # a graph term keeps its graph id
        bucket = dictionary.encode_derived(EX.term("bucket/3"))
        label = dictionary.encode_derived("young")  # parents need not be terms
        assert bucket < 0 and label < 0 and bucket != label
        assert dictionary.encode_derived(EX.term("bucket/3")) == bucket
        assert dictionary.decode(bucket) == EX.term("bucket/3")
        assert dictionary.decode(label) == "young"
        assert len(dictionary) == 1
        assert list(dictionary.items()) == [(EX.user1, 0)]
        assert list(dictionary.terms()) == [EX.user1]
        assert EX.term("bucket/3") not in dictionary
        assert dictionary.lookup(EX.term("bucket/3")) is None
        assert len(dictionary.copy()) == 1
        with pytest.raises(DictionaryError):
            dictionary.copy().decode(bucket)
        with pytest.raises(DictionaryError):
            dictionary.decode(min(bucket, label) - 1)  # an unassigned derived id

    def test_concurrent_derived_encoding_assigns_each_value_one_id(self):
        import sys
        import threading

        dictionary = TermDictionary()
        values = [f"bucket/{index}" for index in range(200)]
        seen = [dict() for _ in range(8)]
        barrier = threading.Barrier(len(seen))

        def encode_all(mine, offset):
            barrier.wait(timeout=10)
            for index in range(len(values)):
                value = values[(index + offset) % len(values)]
                mine[value] = dictionary.encode_derived(value)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=encode_all, args=(mine, 25 * number))
                for number, mine in enumerate(seen)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert all(mine == seen[0] for mine in seen)
        assert sorted(seen[0].values()) == list(range(-len(values), 0))
        assert all(dictionary.decode(value_id) == value for value, value_id in seen[0].items())

    def test_contains(self):
        dictionary = TermDictionary()
        dictionary.encode(EX.user1)
        assert EX.user1 in dictionary
        assert EX.user2 not in dictionary

    def test_distinct_terms_get_distinct_ids(self):
        dictionary = TermDictionary()
        # A literal "28" and an IRI ending in 28 must not collide.
        id_literal = dictionary.encode(Literal(28))
        id_string = dictionary.encode(Literal("28"))
        id_iri = dictionary.encode(EX.term("28"))
        assert len({id_literal, id_string, id_iri}) == 3

    def test_copy_is_independent(self):
        dictionary = TermDictionary()
        dictionary.encode(EX.user1)
        clone = dictionary.copy()
        clone.encode(EX.user2)
        assert len(dictionary) == 1
        assert len(clone) == 2

    def test_items_and_terms_iteration(self):
        dictionary = TermDictionary()
        dictionary.encode(EX.user1)
        dictionary.encode(EX.user2)
        assert dict(dictionary.items()) == {EX.user1: 0, EX.user2: 1}
        assert list(dictionary.terms()) == [EX.user1, EX.user2]


class TestTypedValueColumn:
    """The id-indexed kind / int64 / float64 arrays γ gathers measures from."""

    def test_kinds_values_and_growth(self):
        np = pytest.importorskip("numpy")
        dictionary = TermDictionary()
        ints = [dictionary.encode(Literal(value)) for value in (3, -7, 2**31 - 1)]
        rows = np.asarray(ints + ints[:1])  # any order, repeats allowed
        assert dictionary.numeric_values(rows).tolist() == [3, -7, 2**31 - 1, 3]
        floats = [dictionary.encode(Literal(value)) for value in (0.5, -2.25)]
        gathered = dictionary.numeric_values(np.asarray(floats))
        assert gathered.dtype == np.float64 and gathered.tolist() == [0.5, -2.25]
        assert dictionary.numeric_values(np.asarray(ints[:1] + floats[:1])) is None  # a mix
        others = [Literal(2**31), Literal(True), Literal("3"), EX.user1, Literal(Decimal("1"))]
        for term in others:
            assert dictionary.numeric_values(np.asarray([dictionary.encode(term)])) is None
        size = len(dictionary._typed[0])
        late = [dictionary.encode(Literal(value)) for value in range(100, 100 + size)]
        assert dictionary.numeric_values(np.asarray(late)).tolist() == list(range(100, 100 + size))
        assert len(dictionary._typed[0]) > size
        assert dictionary.numeric_values(rows).tolist() == [3, -7, 2**31 - 1, 3]

    def test_derived_ids_live_in_the_columns_tail(self):
        np = pytest.importorskip("numpy")
        dictionary = TermDictionary()
        term_ids = [dictionary.encode(Literal(value)) for value in (1, 2)]
        derived = [dictionary.encode_derived(value) for value in (Literal(40), 41, Literal(42))]
        ids = np.asarray(derived + term_ids)
        assert dictionary.numeric_values(ids).tolist() == [40, 41, 42, 1, 2]
        assert dictionary.numeric_values(np.asarray([dictionary.encode_derived("label")])) is None

    def test_a_mapped_dictionary_decodes_the_heap_dictionarys_instances(self, tmp_path):
        np = pytest.importorskip("numpy")
        from repro.rdf.graph import Graph
        from repro.storage import load_snapshot, save_snapshot

        graph = Graph()
        for index in range(20):
            graph.add((EX.term(f"fact{index}"), EX.amount, Literal(index % 7)))
            graph.add((EX.term(f"fact{index}"), EX.label, Literal(f"f{index}", language="en")))
        path = str(tmp_path / "instance.snap")
        save_snapshot(graph, path)
        mapped = load_snapshot(path, mmap=True).dictionary
        assert all(mapped.decode(term_id) is term for term, term_id in graph.dictionary.items())
        amounts = [graph.dictionary.lookup(Literal(value)) for value in range(7)]
        assert mapped.numeric_values(np.asarray(amounts)).tolist() == list(range(7))  # inherited

    def test_readers_gathering_while_a_writer_appends_read_right_values(self):
        np = pytest.importorskip("numpy")
        import sys
        import threading

        dictionary = TermDictionary()
        for value in range(60):
            dictionary.encode(Literal(value))  # id == value throughout
        errors, done = [], threading.Event()

        def write():
            for value in range(60, 4000):
                dictionary.encode(Literal(value))
            done.set()

        def read():
            while not done.is_set():
                newest = np.arange(len(dictionary) - 50, len(dictionary))  # grows the column
                values = dictionary.numeric_values(newest)
                if values is None or values.tolist() != newest.tolist():
                    errors.append(newest[0])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=write)] + [threading.Thread(target=read) for _ in range(7)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert errors == [] and dictionary._typed[2] >= 2 * 60  # the column grew


def _every_kind(dictionary):
    """Ids of a term of every kind, then derived ids — a tuple, a string, an
    int, a term of no graph and None among them — in one mixed list."""
    terms = [
        EX.user1, BlankNode("b1"), Literal(28), Literal(2.5), Literal(2**40), Literal(True),
        Literal(Decimal("1.5")), Literal("x", language="en"), Literal("3"),
    ]
    derived = [("band", 1), "label", 41, EX.term("bucket/3"), None]
    return [dictionary.encode(term) for term in terms] + [dictionary.encode_derived(value) for value in derived]


class TestTermTable:
    """The id-indexed object array ``decode_many`` gathers terms from."""

    def test_a_gather_is_decode_for_every_kind_and_derived_ids(self):
        np = pytest.importorskip("numpy")
        dictionary = TermDictionary()
        ids = _every_kind(dictionary)
        mixed = np.asarray(ids + ids[::-1] + ids[:3])  # any order, repeats allowed
        gathered = dictionary.decode_many(mixed)
        assert len(gathered) == len(mixed)
        assert all(term is dictionary.decode(term_id) for term, term_id in zip(gathered, mixed.tolist()))
        assert dictionary.decode_many(np.asarray([], dtype=np.int64)) == []

    def test_the_table_grows_after_encode_and_encode_derived(self):
        np = pytest.importorskip("numpy")
        dictionary = TermDictionary()
        ids = _every_kind(dictionary)
        dictionary.decode_many(np.asarray(ids))
        size = len(dictionary._table[0])
        late = [dictionary.encode(Literal(value)) for value in range(100, 100 + size)]
        late += [dictionary.encode_derived(f"late{value}") for value in range(size)]
        everything = np.asarray(ids + late)
        assert dictionary.decode_many(everything) == [dictionary.decode(term_id) for term_id in ids + late]
        assert len(dictionary._table[0]) > size and dictionary._table[2] >= len(dictionary)

    def test_ids_outside_the_dictionary_raise_spare_capacity_included(self):
        np = pytest.importorskip("numpy")
        dictionary = TermDictionary()
        ids = _every_kind(dictionary)
        dictionary.decode_many(np.asarray(ids))
        newest, lowest = dictionary.encode(EX.user2), dictionary.encode_derived("one more")
        dictionary.decode_many(np.asarray([newest, lowest]))  # head and tail double: spare slots
        _, terms, head = dictionary._table
        assert head > newest + 1 and len(terms) - head > -lowest
        for bad in (newest + 1, head - 1, head, len(terms), lowest - 1, head - len(terms), 10**9, -(10**9)):
            with pytest.raises(DictionaryError):
                dictionary.decode(bad)
            with pytest.raises(DictionaryError):
                dictionary.decode_many(np.asarray([ids[0], bad]))
        assert dictionary._table[0].sum() == len(set(ids)) + 2  # a refused gather fills nothing

    def test_a_mapped_dictionary_decodes_only_the_requested_ids(self, tmp_path, monkeypatch):
        np = pytest.importorskip("numpy")
        from repro.rdf.graph import Graph
        from repro.storage import load_snapshot, mapped, save_snapshot

        graph = Graph()
        for index in range(40):
            graph.add((EX.term(f"fact{index}"), EX.amount, Literal(index % 7)))
        path = str(tmp_path / "instance.snap")
        save_snapshot(graph, path)
        dictionary = load_snapshot(path, mmap=True).dictionary
        reads = []
        record_key = mapped.record_key
        monkeypatch.setattr(mapped, "record_key", lambda *table: reads.append(table[-1]) or record_key(*table))
        wanted = [graph.dictionary.lookup(term) for term in (EX.term("fact3"), Literal(5), EX.amount)]
        column = np.asarray(wanted + wanted[:2])
        gathered = dictionary.decode_many(column)
        assert sorted(reads) == sorted(wanted)  # each asked id once, no other
        assert all(term is graph.dictionary.decode(term_id) for term, term_id in zip(gathered, column.tolist()))
        assert dictionary.decode_many(column) == gathered and len(reads) == len(wanted)
        assert dictionary.decode_many(np.asarray([dictionary.encode_derived("x")])) == ["x"]
        with pytest.raises(DictionaryError):
            dictionary.decode_many(np.asarray([len(dictionary)]))

    def test_a_copy_shares_no_table(self):
        np = pytest.importorskip("numpy")
        dictionary = TermDictionary()
        ids = np.asarray(_every_kind(dictionary)[:4])
        before = dictionary.decode_many(ids)
        clone = dictionary.copy()
        assert clone.decode_many(ids) == before
        for mine, theirs in zip(dictionary._table[:2], clone._table[:2]):
            assert not np.shares_memory(mine, theirs)
        added = clone.encode(EX.only_in_the_clone)
        assert clone.decode_many(np.asarray([added])) == [EX.only_in_the_clone]
        with pytest.raises(DictionaryError):
            dictionary.decode_many(np.asarray([added]))
        assert dictionary.decode_many(ids) == before

    def test_a_pickled_dictionary_carries_no_table_and_gathers_interned_terms(self):
        np = pytest.importorskip("numpy")
        dictionary = TermDictionary()
        ids = np.asarray(_every_kind(dictionary))
        gathered = dictionary.decode_many(ids)
        loaded = pickle.loads(pickle.dumps(dictionary))
        assert dictionary._table is not None and loaded._table is None
        again = loaded.decode_many(ids)
        assert all(mine is theirs for mine, theirs in zip(gathered[:9], again[:9]))  # re-interned terms
        assert again == gathered  # derived values compare equal (a tuple is re-built)

    def test_readers_gathering_while_writers_append_read_right_terms(self):
        np = pytest.importorskip("numpy")
        dictionary = TermDictionary()
        for value in range(60):
            dictionary.encode(Literal(value))  # id == value throughout
            dictionary.encode_derived(f"label{value}")  # id == -(value + 1) throughout
        errors, done = [], threading.Event()

        def write():
            for value in range(60, 4000):
                dictionary.encode(Literal(value))
                dictionary.encode_derived(f"label{value}")
            done.set()

        def read():
            while not done.is_set():
                count = min(len(dictionary), len(dictionary._derived_values))
                newest = np.arange(count - 40, count)
                column = np.concatenate((newest, -newest - 1))  # grows head and tail
                expected = [Literal(value) for value in newest.tolist()]
                expected += [f"label{value}" for value in newest.tolist()]
                if dictionary.decode_many(column) != expected:
                    errors.append(count)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=write)] + [threading.Thread(target=read) for _ in range(7)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert errors == [] and dictionary._table[2] >= 2 * 60  # the table grew
