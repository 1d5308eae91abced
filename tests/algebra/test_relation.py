"""Unit tests for the bag Relation."""

import pytest

from repro.errors import SchemaMismatchError, UnknownColumnError
from repro.algebra.relation import Relation
from repro.rdf import EX, Literal


class TestConstruction:
    def test_columns_and_rows(self):
        relation = Relation(["x", "v"], [(1, 10), (2, 20)])
        assert relation.columns == ("x", "v")
        assert relation.arity == 2
        assert len(relation) == 2
        assert list(relation) == [(1, 10), (2, 20)]

    def test_duplicate_rows_are_kept(self):
        relation = Relation(["x"], [(1,), (1,), (2,)])
        assert len(relation) == 3
        assert relation.to_multiset() == {(1,): 2, (2,): 1}

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaMismatchError):
            Relation(["x", "x"])

    def test_arity_mismatch_rejected(self):
        with pytest.raises(SchemaMismatchError):
            Relation(["x", "v"], [(1,)])

    def test_empty_constructor(self):
        relation = Relation.empty(["a", "b"])
        assert len(relation) == 0 and relation.columns == ("a", "b")
        assert not relation


class TestColumnAccess:
    def test_column_index_and_unknown(self):
        relation = Relation(["x", "v"], [(1, 2)])
        assert relation.column_index("v") == 1
        assert relation.column_indexes(["v", "x"]) == (1, 0)
        with pytest.raises(UnknownColumnError):
            relation.column_index("nope")

    def test_column_values_and_distinct(self):
        relation = Relation(["x", "v"], [(1, 5), (1, 5), (2, 7)])
        assert relation.column_values("v") == [5, 5, 7]
        assert relation.distinct_values("x") == {1, 2}


class TestMutationHelpers:
    def test_add_row_checks_arity(self):
        relation = Relation(["x", "v"])
        relation.add_row((1, 2))
        with pytest.raises(SchemaMismatchError):
            relation.add_row((1,))
        assert len(relation) == 1

    def test_extend(self):
        relation = Relation(["x"])
        relation.extend([(1,), (2,)])
        assert len(relation) == 2


class TestComparison:
    def test_bag_equality_counts_duplicates(self):
        a = Relation(["x"], [(1,), (1,), (2,)])
        b = Relation(["x"], [(2,), (1,), (1,)])
        c = Relation(["x"], [(1,), (2,)])
        assert a.bag_equal(b)
        assert a == b
        assert not a.bag_equal(c)

    def test_column_order_option(self):
        a = Relation(["x", "v"], [(1, 10)])
        b = Relation(["v", "x"], [(10, 1)])
        assert not a.bag_equal(b)
        assert a.bag_equal(b, ignore_column_order=True)

    def test_different_schema_never_equal(self):
        assert not Relation(["x"], [(1,)]).bag_equal(Relation(["y"], [(1,)]))

    def test_relations_unhashable(self):
        with pytest.raises(TypeError):
            hash(Relation(["x"]))


class TestReshaping:
    def test_reorder(self):
        relation = Relation(["x", "v"], [(1, 10), (2, 20)])
        reordered = relation.reorder(["v", "x"])
        assert reordered.columns == ("v", "x")
        assert reordered.rows == [(10, 1), (20, 2)]

    def test_reorder_requires_permutation(self):
        relation = Relation(["x", "v"], [(1, 10)])
        with pytest.raises(SchemaMismatchError):
            relation.reorder(["x"])

    def test_copy_is_independent(self):
        relation = Relation(["x"], [(1,)])
        clone = relation.copy()
        clone.add_row((2,))
        assert len(relation) == 1 and len(clone) == 2

    def test_map_column_calls_the_function_once_per_distinct_value(self):
        relation = Relation(["x", "v"], [(1, 10), (2, 20), (1, 30)])
        seen = []

        def double(value):
            seen.append(value)
            return value * 2

        doubled = relation.map_column("x", double)
        assert doubled.columns == ("x", "v")
        assert doubled.rows == [(2, 10), (4, 20), (2, 30)]
        assert sorted(seen) == [1, 2]
        assert relation.rows == [(1, 10), (2, 20), (1, 30)]
        with pytest.raises(UnknownColumnError):
            relation.map_column("nope", double)

    def test_head_and_sorted(self):
        relation = Relation(["x"], [(3,), (1,), (2,)])
        assert relation.head(2).rows == [(3,), (1,)]
        assert relation.sorted().rows == [(1,), (2,), (3,)]


class TestDisplay:
    def test_to_text_contains_headers_and_values(self):
        relation = Relation(["dage", "dcity", "v"], [(Literal(28), EX.term("Madrid"), 3)])
        text = relation.to_text()
        assert "dage" in text and "dcity" in text
        assert "28" in text and "Madrid" in text

    def test_to_text_truncates(self):
        relation = Relation(["x"], [(i,) for i in range(30)])
        text = relation.to_text(max_rows=5)
        assert "more rows" in text
