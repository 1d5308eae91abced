"""Property-based tests (hypothesis) for the bag-relational algebra.

These check the algebraic laws the OLAP rewritings rely on: commutation of
selection with projection-free operators, idempotence of deduplication,
group-by consistency with manual grouping, and distributive-aggregate
combination.
"""

from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.algebra.aggregates import AVG, COUNT, MAX, MIN, SUM
from repro.algebra.grouping import group_aggregate
from repro.algebra.operators import dedup, join_on, project, select, union_all
from repro.algebra.relation import Relation
from repro.analytics.sigma import DimensionRestriction
from tests.conftest import sigma_predicate

# Rows over a fixed 3-column schema (g: group, d: dimension, v: measure).
row_strategy = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=-50, max_value=50),
)
rows_strategy = st.lists(row_strategy, max_size=40)


def make_relation(rows):
    return Relation(["g", "d", "v"], rows)


class TestDedupProperties:
    @given(rows_strategy)
    def test_dedup_is_idempotent(self, rows):
        relation = make_relation(rows)
        once = dedup(relation)
        twice = dedup(once)
        assert once.rows == twice.rows

    @given(rows_strategy)
    def test_dedup_yields_distinct_rows_preserving_support(self, rows):
        relation = make_relation(rows)
        deduplicated = dedup(relation)
        assert len(set(deduplicated.rows)) == len(deduplicated.rows)
        assert set(deduplicated.rows) == set(relation.rows)


class TestSelectProjectProperties:
    @given(rows_strategy, st.integers(min_value=0, max_value=3))
    def test_selection_commutes_with_projection_on_kept_columns(self, rows, threshold):
        relation = make_relation(rows)
        predicate = sigma_predicate(g=DimensionRestriction.to_range(float("-inf"), threshold))
        left = project(select(relation, predicate), ["g", "v"])
        right = select(project(relation, ["g", "v"]), predicate)
        assert left.bag_equal(right)

    @given(rows_strategy)
    def test_projection_preserves_cardinality(self, rows):
        relation = make_relation(rows)
        assert len(project(relation, ["g"])) == len(relation)

    @given(rows_strategy, st.integers(min_value=0, max_value=3))
    def test_selection_is_a_sub_bag(self, rows, value):
        relation = make_relation(rows)
        selected = select(relation, sigma_predicate(g=DimensionRestriction.to_value(value)))
        full = relation.to_multiset()
        for row, count in selected.to_multiset().items():
            assert count <= full[row]


class TestUnionJoinProperties:
    @given(rows_strategy, rows_strategy)
    def test_union_all_cardinality_adds_up(self, rows_a, rows_b):
        a, b = make_relation(rows_a), make_relation(rows_b)
        assert len(union_all(a, b)) == len(a) + len(b)

    @given(rows_strategy, rows_strategy)
    def test_join_cardinality_matches_key_multiplicity_product(self, rows_a, rows_b):
        left = Relation(["g", "d", "v"], rows_a)
        right = Relation(["g", "w"], [(row[0], row[2]) for row in rows_b])
        joined = join_on(left, right, [("g", "g")])
        left_counts = defaultdict(int)
        for row in left:
            left_counts[row[0]] += 1
        right_counts = defaultdict(int)
        for row in right:
            right_counts[row[0]] += 1
        expected = sum(left_counts[key] * right_counts[key] for key in left_counts)
        assert len(joined) == expected

    @given(rows_strategy, rows_strategy)
    def test_join_is_symmetric_in_cardinality(self, rows_a, rows_b):
        left = Relation(["g", "d", "v"], rows_a)
        right = Relation(["h", "w"], [(row[0], row[2]) for row in rows_b])
        forward = join_on(left, right, [("g", "h")])
        backward = join_on(right, left, [("h", "g")])
        assert len(forward) == len(backward)


class TestGroupingProperties:
    @given(rows_strategy)
    def test_group_aggregate_matches_manual_computation(self, rows):
        relation = make_relation(rows)
        result = group_aggregate(relation, ["g"], "v", "sum")
        manual = defaultdict(int)
        for g, _, v in rows:
            manual[g] += v
        assert {row[0]: row[1] for row in result} == dict(manual)

    @given(rows_strategy)
    def test_count_equals_group_sizes(self, rows):
        relation = make_relation(rows)
        result = group_aggregate(relation, ["g"], "v", "count")
        sizes = defaultdict(int)
        for g, _, _ in rows:
            sizes[g] += 1
        assert {row[0]: row[1] for row in result} == dict(sizes)


class TestAggregateProperties:
    @given(st.lists(st.integers(min_value=-100, max_value=100), min_size=1),
           st.lists(st.integers(min_value=-100, max_value=100), min_size=1))
    def test_distributive_aggregates_combine_correctly(self, left, right):
        for aggregate in (SUM, COUNT, MIN, MAX):
            combined = aggregate.combine([aggregate(left), aggregate(right)])
            assert combined == aggregate(left + right)

    @given(st.lists(st.integers(min_value=-100, max_value=100), min_size=2))
    def test_avg_is_not_combinable_but_bounded(self, values):
        average = AVG(values)
        assert min(values) <= average <= max(values)

    @given(st.lists(st.integers(), min_size=1))
    def test_count_matches_length(self, values):
        assert COUNT(values) == len(values)
