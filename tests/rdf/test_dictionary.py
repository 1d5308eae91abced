"""Unit tests for the term dictionary (integer encoding)."""

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
