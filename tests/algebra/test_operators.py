"""Unit tests for the bag-relational algebra operators."""

import pytest

from repro.errors import SchemaMismatchError, UnknownColumnError
from repro.algebra.operators import (
    cross_product,
    dedup,
    join_on,
    project,
    rename,
    select,
    union_all,
)
from repro.algebra.relation import Relation
from repro.analytics.sigma import DimensionRestriction, Sigma
from tests.conftest import sigma_predicate


#: ``(group, measure)`` rows with int, float and repeated measures.
_MEASURED = [("a", 1), ("b", 2.5), ("a", 3), ("c", 0.5), ("b", 3), ("a", 1), ("c", -2)]

#: σ predicate → the same test written on ``(g, v)`` by hand.
_SELECTIONS = {
    "value set": (sigma_predicate(g=DimensionRestriction.to_values(["a", "c"])), lambda g, v: g in "ac"),
    "float range": (sigma_predicate(v=DimensionRestriction.to_range(0.5, 2.5)), lambda g, v: 0.5 <= v <= 2.5),
    "mixed int/float range": (
        sigma_predicate(v=DimensionRestriction.to_range(1, 2.75)), lambda g, v: 1 <= v <= 2.75
    ),
    "exclusive range": (
        sigma_predicate(v=DimensionRestriction.to_range(1, 3, inclusive=False)), lambda g, v: 1 < v < 3
    ),
    "conjunction": (
        sigma_predicate(g=DimensionRestriction.to_values(["a", "b"]), v=DimensionRestriction.to_range(2, 5)),
        lambda g, v: g in "ab" and 2 <= v <= 5,
    ),
    "unrestricted": (Sigma(("g", "v")).predicate(), lambda g, v: True),
    "half-open range": (
        sigma_predicate(v=DimensionRestriction.to_range(1, 3).intersect(
            DimensionRestriction.to_range(0, 3, inclusive=False)
        )),
        lambda g, v: 1 <= v < 3,
    ),
    "values within a range": (
        sigma_predicate(v=DimensionRestriction.to_values([1, 3, 0.5]).intersect(
            DimensionRestriction.to_range(1, 5)
        )),
        lambda g, v: v in (1, 3),
    ),
}


@pytest.fixture()
def pres_like() -> Relation:
    """A pres(Q)-shaped relation with a multi-valued dimension (Example 5)."""
    return Relation(
        ["x", "d1", "dn", "k", "v"],
        [
            ("x", "a1", "an", 1, 10),
            ("x", "a1", "bn", 1, 10),
            ("y", "a1", "bn", 2, 20),
        ],
    )


class TestSelect:
    def test_select_keeps_matching_rows(self, pres_like):
        result = select(pres_like, sigma_predicate(dn=DimensionRestriction.to_value("bn")))
        assert len(result) == 2
        assert all(row[2] == "bn" for row in result)

    def test_select_preserves_schema_and_duplicates(self):
        relation = Relation(["a"], [(1,), (1,), (2,)])
        below_2 = DimensionRestriction.to_range(float("-inf"), 2, inclusive=False)
        result = select(relation, sigma_predicate(a=below_2))
        assert result.columns == ("a",)
        assert result.rows == [(1,), (1,)]

    def test_select_empty_result(self, pres_like):
        assert len(select(pres_like, sigma_predicate(x=DimensionRestriction.to_value("nobody")))) == 0

    @pytest.mark.parametrize("case", list(_SELECTIONS))
    def test_select_keeps_exactly_the_rows_the_predicate_allows(self, case):
        predicate, allows = _SELECTIONS[case]
        relation = Relation(["g", "v"], _MEASURED)
        result = select(relation, predicate)
        assert result.columns == ("g", "v")
        assert result.rows == [row for row in _MEASURED if allows(*row)]


class TestProject:
    def test_project_keeps_duplicates(self, pres_like):
        result = project(pres_like, ["x", "k", "v"])
        assert result.columns == ("x", "k", "v")
        assert result.to_multiset() == {("x", 1, 10): 2, ("y", 2, 20): 1}

    def test_project_reorders_columns(self, pres_like):
        result = project(pres_like, ["v", "x"])
        assert result.columns == ("v", "x")
        assert result.rows[0] == (10, "x")

    def test_project_unknown_column(self, pres_like):
        with pytest.raises(UnknownColumnError):
            project(pres_like, ["nope"])


class TestDedup:
    def test_dedup_removes_duplicates_preserving_order(self):
        relation = Relation(["a"], [(2,), (1,), (2,), (1,)])
        assert dedup(relation).rows == [(2,), (1,)]

    def test_dedup_is_the_delta_step_of_algorithm1(self, pres_like):
        projected = project(pres_like, ["x", "d1", "k", "v"])
        deduplicated = dedup(projected)
        assert deduplicated.to_multiset() == {("x", "a1", 1, 10): 1, ("y", "a1", 2, 20): 1}


class TestRename:
    def test_rename(self, pres_like):
        renamed = rename(pres_like, {"v": "measure"})
        assert renamed.columns == ("x", "d1", "dn", "k", "measure")

    def test_rename_unknown_column(self, pres_like):
        with pytest.raises(UnknownColumnError):
            rename(pres_like, {"nope": "other"})


class TestJoins:
    def test_join_on_a_shared_column_keeps_it_once(self):
        classifier = Relation(["x", "dage"], [("u1", 28), ("u2", 35)])
        measure = Relation(["x", "v"], [("u1", 100), ("u1", 120), ("u3", 5)])
        joined = join_on(classifier, measure, [("x", "x")])
        assert joined.columns == ("x", "dage", "v")
        assert joined.to_multiset() == {("u1", 28, 100): 1, ("u1", 28, 120): 1}

    def test_join_bag_semantics_multiplies_duplicates(self):
        left = Relation(["x"], [("a",), ("a",)])
        right = Relation(["x", "v"], [("a", 1)])
        assert len(join_on(left, right, [("x", "x")])) == 2

    def test_join_on_differently_named_columns(self):
        left = Relation(["fact", "d"], [("u1", "a")])
        right = Relation(["entity", "v"], [("u1", 10), ("u2", 20)])
        joined = join_on(left, right, [("fact", "entity")])
        assert joined.columns == ("fact", "d", "entity", "v")
        assert joined.rows == [("u1", "a", "u1", 10)]

    def test_join_rejects_ambiguous_columns(self):
        left = Relation(["x", "v"], [("a", 1)])
        right = Relation(["x", "v"], [("a", 2)])
        with pytest.raises(SchemaMismatchError):
            join_on(left, right, [("x", "x")])

    def test_join_without_pairs_is_cross_product(self):
        left = Relation(["a"], [(1,), (2,)])
        right = Relation(["b"], [(3,)])
        assert len(join_on(left, right, [])) == 2

    def test_cross_product_requires_disjoint_schemas(self):
        with pytest.raises(SchemaMismatchError):
            cross_product(Relation(["a"], [(1,)]), Relation(["a"], [(2,)]))

    def test_join_builds_hash_on_smaller_side_same_result(self):
        small = Relation(["x", "s"], [("a", 1)])
        large = Relation(["x", "l"], [("a", i) for i in range(10)])
        assert join_on(small, large, [("x", "x")]).bag_equal(
            join_on(small, large.copy(), [("x", "x")])
        )
        assert len(join_on(large, small, [("x", "x")])) == 10


class TestUnion:
    def test_union_all_concatenates(self):
        a = Relation(["x"], [(1,), (2,)])
        b = Relation(["x"], [(2,)])
        assert union_all(a, b).to_multiset() == {(1,): 1, (2,): 2}

    def test_union_all_reorders_compatible_schemas(self):
        a = Relation(["x", "y"], [(1, 2)])
        b = Relation(["y", "x"], [(4, 3)])
        result = union_all(a, b)
        assert result.columns == ("x", "y")
        assert (3, 4) in result.rows

    def test_union_incompatible_schemas(self):
        with pytest.raises(SchemaMismatchError):
            union_all(Relation(["x"], [(1,)]), Relation(["y"], [(1,)]))

    def test_union_requires_an_argument(self):
        with pytest.raises(SchemaMismatchError):
            union_all()
