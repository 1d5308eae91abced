"""Unit tests for the value conversion σ compares by and for predicate compilation.

The semantics of Σ's restrictions (equality, value sets, ranges) are in
``tests/analytics/test_sigma.py``.
"""

import pytest

from repro.algebra.expressions import comparable, compile_predicate
from repro.algebra.relation import IdRelation, Relation
from repro.rdf import EX, Literal
from repro.rdf.dictionary import TermDictionary


class TestComparable:
    def test_literal_conversion(self):
        assert comparable(Literal(28)) == 28
        assert comparable(Literal("Madrid")) == "Madrid"
        assert comparable(Literal(2.5)) == pytest.approx(2.5)

    def test_iri_converts_to_string(self):
        assert comparable(EX.Madrid) == "http://example.org/Madrid"

    def test_plain_python_passthrough(self):
        assert comparable(42) == 42
        assert comparable("text") == "text"
        assert comparable(None) is None


class TestCompilePredicate:
    def test_callable_sees_decoded_rows_of_an_encoded_relation(self):
        dictionary = TermDictionary()
        rows = [(dictionary.encode(city), dictionary.encode(Literal(age))) for city, age in
                ((EX.Madrid, 28), (EX.Kyoto, 35))]
        relation = IdRelation(("dcity", "dage"), rows, dictionary=dictionary)
        young_in_madrid = lambda row: row["dcity"] == EX.Madrid and row["dage"] == Literal(28)  # noqa: E731
        check = compile_predicate(young_in_madrid, relation)
        assert [check(row) for row in relation.rows] == [True, False]

    def test_callable_result_is_a_bool(self):
        relation = Relation(("a",), [(0,), (3,)])
        check = compile_predicate(lambda row: row["a"], relation)
        assert [check(row) for row in relation.rows] == [False, True]

    def test_callable_over_an_absent_column_fails_only_on_a_row(self):
        relation = Relation(("a",), [(1,)])
        check = compile_predicate(lambda row: row["b"] == 1, relation)
        with pytest.raises(KeyError):
            check((1,))
