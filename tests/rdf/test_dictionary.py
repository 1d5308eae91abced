"""Unit tests for the term dictionary (integer encoding)."""

from decimal import Decimal

import pytest

from repro.errors import DictionaryError
from repro.rdf import EX, Literal
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
