"""Unit tests for the columnar kernels and the engine toggle.

Covers :mod:`repro.algebra.columnar` edge cases — empty relations,
all-rows-filtered masks, single-group γ, missing-measure ``None`` handling —
plus the engine-resolution contract (``REPRO_ENGINE`` override, the
``ConfigurationError`` raised when columnar is forced without numpy) and
the planner's per-engine cost multiplier.
"""

import operator
import pickle
from decimal import Decimal
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

np = pytest.importorskip("numpy")

from repro.errors import AlgebraError, ConfigurationError, UnknownColumnError
from repro.algebra import columnar
from repro.algebra.aggregates import AggregateFunction, get_aggregate
from repro.algebra.columnar import (
    ROW_CONVERSIONS,
    ArrayGroupStates,
    ColumnarIdRelation,
    resolve_engine,
)
from repro.algebra.grouping import (
    finalize_group_states,
    group_aggregate,
    group_partial_states,
    merge_group_states,
)
from repro.algebra.operators import dedup, join_on, project, select, union_all
from repro.algebra.relation import IdRelation
from repro.analytics.sigma import DimensionRestriction, Sigma
from repro.rdf.dictionary import TermDictionary
from repro.rdf.terms import IRI, XSD_DECIMAL, Literal
from tests.conftest import sigma_predicate

AGGREGATES = ("count", "sum", "avg", "min", "max", "count_distinct")


@pytest.fixture(autouse=True)
def _clear_engine_env(monkeypatch):
    """These tests pin the resolution contract itself; CI's engine-oracle
    matrix exports REPRO_ENGINE, which must not leak into them."""
    monkeypatch.delenv("REPRO_ENGINE", raising=False)


def _dictionary_with(values):
    dictionary = TermDictionary()
    ids = [dictionary.encode(value) for value in values]
    return dictionary, ids


def _paired_relations(rows, columns=("x", "d", "v"), encoded=None):
    """The same data as a columnar and as a row-backed id relation."""
    dictionary = TermDictionary()
    id_rows = []
    for row in rows:
        id_rows.append(tuple(dictionary.encode(value) for value in row))
    arrays = {
        name: np.asarray([row[index] for row in id_rows], dtype=np.int64)
        for index, name in enumerate(columns)
    }
    columnar_relation = ColumnarIdRelation.from_arrays(columns, arrays, dictionary, encoded)
    row_relation = IdRelation(columns, id_rows, dictionary=dictionary, encoded=encoded)
    return columnar_relation, row_relation


def _sample_rows(count=9):
    rows = []
    for index in range(count):
        rows.append(
            (
                IRI(f"http://example.org/fact{index % 4}"),
                IRI(f"http://example.org/city{index % 3}"),
                Literal(10 * (index % 5)),
            )
        )
    return rows


class TestColumnarIdRelation:
    def test_rows_materialize_lazily_and_match_row_engine(self):
        columnar_relation, row_relation = _paired_relations(_sample_rows())
        assert len(columnar_relation) == len(row_relation)
        assert list(columnar_relation) == list(row_relation)
        assert columnar_relation.bag_equal(row_relation)
        assert columnar_relation.materialize().bag_equal(row_relation.materialize())

    def test_plain_columns_keep_their_values_types_through_select_and_union(self):
        """γ's aggregated column is int64, float64 or object: σ on it masks
        with its own dtype, and ∪ of differing dtypes converts no value."""
        dictionary, ids = _dictionary_with([IRI(f"http://example.org/g{index}") for index in range(3)])

        def answer(values, dtype):
            column = np.empty(len(values), dtype=dtype)
            column[:] = values
            arrays = {"d": np.asarray(ids[: len(values)]), "v": column}
            return ColumnarIdRelation.from_arrays(("d", "v"), arrays, dictionary, encoded=("d",))

        ints, floats = answer([3, 4], np.int64), answer([0.5, 2.5, 3.0], np.float64)
        mixed = answer([1, 2.5], object)
        assert (ints.column_array("v").dtype, floats.column_array("v").dtype) == (np.int64, np.float64)
        assert mixed.column_array("v").dtype == object
        selected = select(floats, sigma_predicate(v=DimensionRestriction.to_range(1.0, 2.75)))
        assert isinstance(selected, ColumnarIdRelation) and selected.column_values("v") == [2.5]
        assert select(mixed, sigma_predicate(v=DimensionRestriction.to_range(2, 3))).column_values("v") == [2.5]
        before = ROW_CONVERSIONS.copy()
        united = union_all(ints, floats, mixed, ints.take(slice(0, 0)))
        assert ROW_CONVERSIONS == before and isinstance(united, ColumnarIdRelation)
        values = united.column_values("v")
        assert values == [3, 4, 0.5, 2.5, 3.0, 1, 2.5]
        assert [type(value) for value in values] == [int, int, float, float, float, int, float]
        assert union_all(ints, ints.take(slice(0, 0))).column_array("v").dtype == np.int64

    def test_empty_relation(self):
        dictionary = TermDictionary()
        empty = ColumnarIdRelation.from_arrays(
            ("x", "v"),
            {"x": np.empty(0, dtype=np.int64), "v": np.empty(0, dtype=np.int64)},
            dictionary,
        )
        assert len(empty) == 0
        assert not empty
        assert list(empty) == []
        assert empty.materialize().rows == []

    def test_reorder_and_head_stay_columnar(self):
        columnar_relation, row_relation = _paired_relations(_sample_rows())
        reordered = columnar_relation.reorder(("v", "x", "d"))
        assert isinstance(reordered, ColumnarIdRelation)
        assert reordered.bag_equal(row_relation.reorder(("v", "x", "d")))
        head = columnar_relation.head(3)
        assert isinstance(head, ColumnarIdRelation)
        assert len(head) == 3

    def test_column_access(self):
        columnar_relation, row_relation = _paired_relations(_sample_rows())
        assert columnar_relation.column_values("d") == row_relation.column_values("d")
        assert columnar_relation.distinct_values("d") == row_relation.distinct_values("d")
        with pytest.raises(UnknownColumnError):
            columnar_relation.column_array("missing")

    def test_columnar_relations_are_immutable(self):
        """Regression: the inherited ``add_row`` / ``extend`` appended to a
        materialized row list while ``len()`` and the arrays kept the old
        size.  A columnar relation is an operator output; both raise."""
        columnar_relation, _ = _paired_relations(_sample_rows(3), columns=("x", "d", "v"))
        before = columnar_relation.column_array("x").copy()
        with pytest.raises(AlgebraError):
            columnar_relation.add_row((9, 9, 9))
        with pytest.raises(AlgebraError):
            columnar_relation.extend([(9, 9, 9)])
        with pytest.raises(AlgebraError):
            columnar_relation.extend([])
        assert len(columnar_relation) == len(columnar_relation.rows) == 3
        assert (columnar_relation.column_array("x") == before).all()

    def test_zero_column_projection_keeps_the_cardinality(self):
        """Regression: ``from_arrays`` inferred the length from its first
        array, so π onto no columns lost the bag's cardinality."""
        columnar_relation, row_relation = _paired_relations(_sample_rows(3))
        fast = project(columnar_relation, ())
        slow = project(row_relation, ())
        assert isinstance(fast, ColumnarIdRelation)
        assert len(fast) == len(slow) == 3
        assert fast.rows == slow.rows == [(), (), ()]
        assert dedup(fast).rows == dedup(slow).rows == [()]
        assert len(fast.take(np.asarray([0, 2]))) == 2
        assert len(select(fast, Sigma(("x",)).predicate())) == 3

    def test_to_rows_is_counted_by_reason(self):
        columnar_relation, row_relation = _paired_relations(_sample_rows())
        before = ROW_CONVERSIONS["test:reason"]
        converted = columnar_relation.to_rows("test:reason")
        assert ROW_CONVERSIONS["test:reason"] == before + 1
        assert type(converted) is IdRelation
        assert converted.rows == row_relation.rows
        assert converted.encoded_columns == row_relation.encoded_columns
        assert row_relation.to_rows("test:reason") is row_relation
        assert ROW_CONVERSIONS["test:reason"] == before + 1

    def test_schema_validation(self):
        dictionary = TermDictionary()
        from repro.errors import SchemaMismatchError

        with pytest.raises(SchemaMismatchError):
            ColumnarIdRelation.from_arrays(
                ("x", "x"),
                {"x": np.zeros(1, dtype=np.int64)},
                dictionary,
            )
        with pytest.raises(SchemaMismatchError):
            ColumnarIdRelation.from_arrays(
                ("x", "v"),
                {
                    "x": np.zeros(2, dtype=np.int64),
                    "v": np.zeros(3, dtype=np.int64),
                },
                dictionary,
            )


_CITY0, _CITY1, _CITY2 = (IRI(f"http://example.org/city{index}") for index in range(3))

#: σ predicates over ``_sample_rows``; the arrays answer every one.
_SELECTIONS = {
    "value": sigma_predicate(d=DimensionRestriction.to_value(_CITY1)),
    "value set": sigma_predicate(d=DimensionRestriction.to_values([_CITY0, _CITY2])),
    "int range": sigma_predicate(v=DimensionRestriction.to_range(10, 30)),
    "float range": sigma_predicate(v=DimensionRestriction.to_range(9.5, 30.5)),
    "exclusive range": sigma_predicate(v=DimensionRestriction.to_range(10, 30, inclusive=False)),
    "literal bounds": sigma_predicate(v=DimensionRestriction.to_range(Literal(0), Literal(20.5))),
    "conjunction": sigma_predicate(
        v=DimensionRestriction.to_range(0, 30), d=DimensionRestriction.to_value(_CITY0)
    ),
    "unrestricted": Sigma(("d", "v")).predicate(),
    "half-open range": sigma_predicate(
        v=DimensionRestriction.to_range(0, 30).intersect(DimensionRestriction.to_range(10, 40, inclusive=False))
    ),
    "values within a range": sigma_predicate(
        v=DimensionRestriction.to_values([Literal(0), Literal(40)]).intersect(DimensionRestriction.to_range(-5, 5))
    ),
}


class TestSelectKernel:
    @pytest.mark.parametrize("case", list(_SELECTIONS))
    def test_sigma_like_predicates_match_row_select(self, case):
        predicate = _SELECTIONS[case]
        columnar_relation, row_relation = _paired_relations(_sample_rows())
        before = ROW_CONVERSIONS.copy()
        fast = select(columnar_relation, predicate)
        assert isinstance(fast, ColumnarIdRelation)
        assert ROW_CONVERSIONS == before
        assert fast.bag_equal(select(row_relation, predicate))

    def test_all_rows_filtered_mask(self):
        columnar_relation, row_relation = _paired_relations(_sample_rows())
        none_match = sigma_predicate(d=DimensionRestriction.to_value(IRI("http://example.org/elsewhere")))
        fast = select(columnar_relation, none_match)
        assert isinstance(fast, ColumnarIdRelation)
        assert len(fast) == 0
        assert fast.bag_equal(select(row_relation, none_match))

    def test_empty_relation_select(self):
        dictionary = TermDictionary()
        empty = ColumnarIdRelation.from_arrays(
            ("d",), {"d": np.empty(0, dtype=np.int64)}, dictionary
        )
        assert len(select(empty, sigma_predicate(d=DimensionRestriction.to_value(Literal(1))))) == 0

    def test_sigma_predicate_takes_the_mask_fast_path(self):
        """A real SigmaPredicate must mask-compile (not silently fall back
        to the row loop) — the engine's hottest selection shape."""
        columnar_relation, row_relation = _paired_relations(
            _sample_rows(), columns=("x", "dage", "v")
        )
        sigma = Sigma(
            ("dage",),
            {"dage": DimensionRestriction.to_value(IRI("http://example.org/city1"))},
        )
        before = ROW_CONVERSIONS.copy()
        fast = columnar_relation.select(sigma.predicate())
        assert isinstance(fast, ColumnarIdRelation) and (
            ROW_CONVERSIONS == before
        ), "SigmaPredicate lost the vectorized fast path"
        assert fast.bag_equal(select(row_relation, sigma.predicate()))


class TestJoinKernel:
    def test_join_matches_row_join_with_multiplicities(self):
        dictionary = TermDictionary()
        facts = [dictionary.encode(IRI(f"http://example.org/f{i}")) for i in range(4)]
        left = ColumnarIdRelation.from_arrays(
            ("x", "d"),
            {
                "x": np.asarray([facts[0], facts[0], facts[1], facts[3]], dtype=np.int64),
                "d": np.asarray(facts[:4], dtype=np.int64),
            },
            dictionary,
        )
        right = ColumnarIdRelation.from_arrays(
            ("x", "v"),
            {
                "x": np.asarray([facts[0], facts[1], facts[1], facts[2]], dtype=np.int64),
                "v": np.asarray(facts[:4], dtype=np.int64),
            },
            dictionary,
        )
        left_rows = IdRelation(("x", "d"), left.rows, dictionary=dictionary)
        right_rows = IdRelation(("x", "v"), right.rows, dictionary=dictionary)
        fast = join_on(left, right, [("x", "x")])
        assert isinstance(fast, ColumnarIdRelation)
        assert fast.bag_equal(join_on(left_rows, right_rows, [("x", "x")]))

    def test_join_empty_sides(self):
        dictionary = TermDictionary()
        empty = ColumnarIdRelation.from_arrays(
            ("x", "d"),
            {"x": np.empty(0, dtype=np.int64), "d": np.empty(0, dtype=np.int64)},
            dictionary,
        )
        other = ColumnarIdRelation.from_arrays(
            ("x", "v"),
            {"x": np.zeros(2, dtype=np.int64), "v": np.ones(2, dtype=np.int64)},
            dictionary,
        )
        assert len(empty.join_on(other, [("x", "x")], ("v",))) == 0
        assert len(other.join_on(empty, [("x", "x")], ("d",))) == 0


@st.composite
def _ids(draw, dense, sort=True):
    """Ids on one side of the span rule: ``dense`` ones in ``[base, base +
    _DENSE_SPAN·n)``, or those plus one id that widens the span just past it."""
    count = draw(st.integers(0 if dense else 1, 10))
    base = draw(st.integers(-4, 20))  # below 0: derived ids
    width = columnar._DENSE_SPAN * count
    ids = draw(st.lists(st.integers(base, base + max(width - 1, 0)), min_size=count, max_size=count))
    if not dense:
        ids.append(min(ids) + columnar._DENSE_SPAN * (count + 1))
    if ids:
        assert (columnar._dense_span(np.asarray(ids, dtype=np.int64)) is not None) is dense
    return sorted(ids) if sort else draw(st.permutations(ids))


class TestDenseIdKernels:
    """The offsets table and the rank table against nested loops, on both
    sides of the span rule."""

    @pytest.mark.parametrize("dense", [True, False], ids=["offsets", "searchsorted"])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_expand_sorted_enumerates_every_match_in_order(self, dense, data):
        right = data.draw(_ids(dense))
        low, high = (right[0], right[-1]) if right else (0, 0)
        # Keys below, inside (gaps included) and above the span, and derived ids.
        left = data.draw(st.lists(st.integers(min(low, 0) - 3, high + 3), max_size=12))
        expected = [(i, j) for i, key in enumerate(left) for j, other in enumerate(right) if key == other]
        left_idx, positions = columnar.expand_sorted(
            np.asarray(left, dtype=np.int64), np.asarray(right, dtype=np.int64)
        )
        assert left_idx.dtype == positions.dtype == np.int64
        assert list(zip(left_idx.tolist(), positions.tolist())) == expected

    @pytest.mark.parametrize("dense", [True, False], ids=["presence-table", "unique"])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_distinct_ids_and_their_positions(self, dense, data):
        values = data.draw(_ids(dense, sort=False))
        array = np.asarray(values, dtype=np.int64)
        for memoized in (False, True):
            relation = ColumnarIdRelation.from_arrays(("c",), {"c": array}, TermDictionary(), (), len(values))
            if memoized:
                relation._distinct_ids("c")  # the positions come from the memoized ids
            distinct, positions = relation._distinct_ids("c", inverse=True)
            assert distinct.tolist() == sorted(set(values))
            assert distinct[positions].tolist() == values

    @settings(max_examples=150, deadline=None)
    @given(values=_ids(False, sort=False))
    def test_sparse_distinct_ids_are_sorted_out_without_unique(self, values):
        # Past the span rule the no-inverse memo sorts and compares
        # neighbours: np.unique without an inverse takes numpy's hashing path.
        array = np.asarray(values, dtype=np.int64)
        relation = ColumnarIdRelation.from_arrays(("c",), {"c": array}, TermDictionary(), (), len(values))
        with mock.patch.object(np, "unique", side_effect=AssertionError("np.unique called")):
            distinct, positions = relation._distinct_ids("c")
            assert relation.distinct_values("c") == set(values)
        assert positions is None
        assert distinct.dtype == np.int64 and distinct.tolist() == sorted(set(values))


def _assert_no_array_form(relation, aggregate):
    """``group_states`` declines the array form: dict states over the rows,
    reported through the conversion counter."""
    before = ROW_CONVERSIONS["gamma:no-array-form"]
    states = relation.group_states(["d"], "v", get_aggregate(aggregate))
    assert not isinstance(states, ArrayGroupStates)
    assert ROW_CONVERSIONS["gamma:no-array-form"] == before + 1


class TestColumnarGamma:
    """γ over a columnar relation (array-form states, finalized) vs the row engine."""

    @pytest.mark.parametrize("aggregate", AGGREGATES)
    def test_matches_row_gamma(self, aggregate):
        columnar_relation, row_relation = _paired_relations(_sample_rows())
        fast = group_aggregate(columnar_relation, ["d"], "v", aggregate)
        assert fast.bag_equal(group_aggregate(row_relation, ["d"], "v", aggregate))

    @pytest.mark.parametrize("aggregate", AGGREGATES)
    def test_single_group(self, aggregate):
        rows = [
            (IRI("http://example.org/f0"), IRI("http://example.org/only"), Literal(7)),
            (IRI("http://example.org/f1"), IRI("http://example.org/only"), Literal(9)),
        ]
        columnar_relation, row_relation = _paired_relations(rows)
        fast = group_aggregate(columnar_relation, ["d"], "v", aggregate)
        slow = group_aggregate(row_relation, ["d"], "v", aggregate)
        assert len(fast) == 1
        assert fast.bag_equal(slow)

    @pytest.mark.parametrize("aggregate", AGGREGATES)
    def test_empty_relation(self, aggregate):
        dictionary = TermDictionary()
        empty = ColumnarIdRelation.from_arrays(
            ("d", "v"),
            {"d": np.empty(0, dtype=np.int64), "v": np.empty(0, dtype=np.int64)},
            dictionary,
        )
        assert len(group_aggregate(empty, ["d"], "v", aggregate)) == 0

    def test_no_grouping_columns(self):
        columnar_relation, row_relation = _paired_relations(_sample_rows())
        fast = group_aggregate(columnar_relation, [], "v", "sum")
        assert fast.bag_equal(group_aggregate(row_relation, [], "v", "sum"))

    def test_non_numeric_measure_falls_back(self):
        rows = [
            (IRI("http://example.org/f0"), IRI("http://example.org/c"), Literal("west")),
            (IRI("http://example.org/f1"), IRI("http://example.org/c"), Literal("east")),
        ]
        columnar_relation, row_relation = _paired_relations(rows)
        _assert_no_array_form(columnar_relation, "sum")
        # γ still answers (dict-form states over the rows), identically to rows:
        # sum over strings is undefined, so the group is omitted.
        assert group_aggregate(columnar_relation, ["d"], "v", "sum").bag_equal(
            group_aggregate(row_relation, ["d"], "v", "sum")
        )
        # min/max over strings are defined — and must also match.
        assert group_aggregate(columnar_relation, ["d"], "v", "min").bag_equal(
            group_aggregate(row_relation, ["d"], "v", "min")
        )

    @pytest.mark.parametrize("aggregate", ("sum", "avg", "min", "max"))
    def test_huge_integers_fall_back_to_exact_row_arithmetic(self, aggregate):
        """Values that could overflow int64 sums never enter the kernels:
        the array states decline and the row engine's unlimited-precision
        arithmetic produces the exact cell."""
        rows = [
            (IRI("http://example.org/f0"), IRI("http://example.org/c"), Literal(6 * 10**18)),
            (IRI("http://example.org/f1"), IRI("http://example.org/c"), Literal(6 * 10**18)),
            (IRI("http://example.org/f2"), IRI("http://example.org/c"), Literal(2**63)),
        ]
        columnar_relation, row_relation = _paired_relations(rows)
        _assert_no_array_form(columnar_relation, aggregate)
        fast = group_aggregate(columnar_relation, ["d"], "v", aggregate)
        slow = group_aggregate(row_relation, ["d"], "v", aggregate)
        assert fast.bag_equal(slow)
        if aggregate == "sum":
            assert fast.rows[0][-1] == 12 * 10**18 + 2**63  # exact, not wrapped

    def test_bag_function_named_like_a_builtin_keeps_its_own_semantics(self):
        """The array states are the built-ins' (looked up by name): a custom
        bag function that shadows a built-in name must not be reduced as one."""
        from repro.algebra.aggregates import AggregateFunction

        columnar_relation, row_relation = _paired_relations(_sample_rows())
        shadow = AggregateFunction("sum", lambda values: -1, distributive=False)
        _assert_no_array_form(columnar_relation, shadow)
        fast = group_aggregate(columnar_relation, ["d"], "v", shadow)
        assert {row[-1] for row in fast.rows} == {-1}
        assert fast.bag_equal(group_aggregate(row_relation, ["d"], "v", shadow))

    def test_count_distinct_merges_equal_comparables(self):
        """Ids decoding to equal comparable values count once (28 vs 28.0)."""
        dictionary = TermDictionary()
        group = dictionary.encode(IRI("http://example.org/g"))
        ids = [
            dictionary.encode(Literal(28)),
            dictionary.encode(Literal(28.0)),
            dictionary.encode(Literal(29)),
        ]
        relation = ColumnarIdRelation.from_arrays(
            ("d", "v"),
            {
                "d": np.asarray([group] * 3, dtype=np.int64),
                "v": np.asarray(ids, dtype=np.int64),
            },
            dictionary,
        )
        row_relation = IdRelation(("d", "v"), relation.rows, dictionary=dictionary)
        fast = group_aggregate(relation, ["d"], "v", "count_distinct")
        assert fast.bag_equal(group_aggregate(row_relation, ["d"], "v", "count_distinct"))
        assert fast.rows[0][-1] == 2


class _DoubledSum(AggregateFunction):
    """SUM with a custom ``prepare``: only the row γ applies it."""

    def prepare(self, values):
        return [2 * value for value in super().prepare(values)]


_DOUBLED_SUM = _DoubledSum.from_states(
    "sum", sum, operator.add, lambda state, value=None: state, True, True, False
)


def _gamma_rows(values, aggregate):
    """γ_{d, aggregate(v)} of ``values`` (two groups) on both engines."""
    rows = [
        (IRI(f"http://example.org/f{index}"), IRI(f"http://example.org/g{index % 2}"), value)
        for index, value in enumerate(values)
    ]
    columnar_relation, row_relation = _paired_relations(rows)
    fast = group_aggregate(columnar_relation, ["d"], "v", aggregate)
    return columnar_relation, fast, group_aggregate(row_relation, ["d"], "v", aggregate)


class TestTypedValueColumn:
    """γ's measure conversion: one kind check over the distinct ids, one
    gather from the dictionary's typed column; anything else is the row γ's."""

    @pytest.mark.parametrize(
        "values",
        [
            [Literal(Decimal("1.5")), Literal(Decimal("2.25")), Literal(Decimal("4"))],
            [Literal(True), Literal(False), Literal(True)],
            [Literal("3"), Literal("4.5"), Literal("7")],
            [Literal(2**31), Literal(1), Literal(-(2**31))],
            [Literal(1), Literal(2.5), Literal(4)],
        ],
        ids=["decimal", "bool", "numeric-string", "int-2^31", "int-float-mix"],
    )
    @pytest.mark.parametrize("aggregate", ("sum", "avg", "min", "max"))
    def test_fallback_cases_give_the_row_engines_answer(self, values, aggregate):
        relation, fast, slow = _gamma_rows(values, aggregate)
        _assert_no_array_form(relation, aggregate)
        assert fast.bag_equal(slow)

    def test_custom_prepare_goes_to_the_row_gamma(self):
        relation, fast, slow = _gamma_rows([Literal(1), Literal(2), Literal(3)], _DOUBLED_SUM)
        _assert_no_array_form(relation, _DOUBLED_SUM)
        assert fast.bag_equal(slow)
        assert sorted(row[-1] for row in fast.rows) == [4, 8]

    @pytest.mark.parametrize("aggregate", ("sum", "avg", "min", "max"))
    def test_derived_ids_gather_from_the_columns_tail(self, aggregate):
        dictionary = TermDictionary()
        group = dictionary.encode(IRI("http://example.org/g"))
        ids = [dictionary.encode(Literal(5)), dictionary.encode_derived(Literal(40))]
        ids.append(dictionary.encode_derived(41))
        arrays = {"d": np.asarray([group] * 3), "v": np.asarray(ids)}
        relation = ColumnarIdRelation.from_arrays(("d", "v"), arrays, dictionary)
        assert isinstance(relation.group_states(["d"], "v", get_aggregate(aggregate)), ArrayGroupStates)
        slow = IdRelation(("d", "v"), relation.rows, dictionary=dictionary)
        assert group_aggregate(relation, ["d"], "v", aggregate).bag_equal(
            group_aggregate(slow, ["d"], "v", aggregate)
        )

    @pytest.mark.parametrize("values", [[Literal(3), Literal(-4), Literal(10)], [Literal(0.5), Literal(2.25)]])
    def test_ints_and_floats_gather_each_id_converted_once(self, values, monkeypatch):
        relation, fast, slow = _gamma_rows(values, "sum")
        assert fast.bag_equal(slow)
        asked = []
        value = relation.dictionary.value
        monkeypatch.setattr(relation.dictionary, "value", lambda term_id: asked.append(term_id) or value(term_id))
        for aggregate in ("sum", "avg", "min", "max"):
            states = relation.group_states(["d"], "v", get_aggregate(aggregate))
            assert isinstance(states, ArrayGroupStates)
        assert asked == []  # filled by the first γ, gathered ever since

    def test_a_dictionary_that_grows_after_the_column_was_built(self):
        dictionary = TermDictionary()
        group = dictionary.encode(IRI("http://example.org/g"))

        def summed(values):
            ids = [dictionary.encode(value) for value in values]
            arrays = {"d": np.asarray([group] * len(ids)), "v": np.asarray(ids)}
            relation = ColumnarIdRelation.from_arrays(("d", "v"), arrays, dictionary)
            (row,) = group_aggregate(relation, ["d"], "v", "sum").rows
            slow = IdRelation(("d", "v"), relation.rows, dictionary=dictionary)
            assert group_aggregate(slow, ["d"], "v", "sum").rows == [row]
            return row[-1]

        assert summed([Literal(1), Literal(2)]) == 3
        size = len(dictionary._typed[0])
        grown = [Literal(index) for index in range(3, 3 + 2 * size)]
        assert summed([Literal(1), *grown]) == 1 + sum(range(3, 3 + 2 * size))
        assert len(dictionary._typed[0]) > size
        assert summed([Literal(2), Literal(0.5)]) == 2.5  # a mix: the row γ
        assert summed([Literal(0.25), Literal(0.5)]) == 0.75

    def test_raw_number_columns_are_taken_as_they_are(self):
        dictionary = TermDictionary()
        arrays = {"d": np.asarray([0, 0, 1]), "v": np.asarray([1.5, 2.0, 4.0])}
        dictionary.encode(IRI("http://example.org/g0"))
        dictionary.encode(IRI("http://example.org/g1"))
        relation = ColumnarIdRelation.from_arrays(("d", "v"), arrays, dictionary, encoded=["d"])
        assert isinstance(relation.group_states(["d"], "v", get_aggregate("sum")), ArrayGroupStates)
        huge = ColumnarIdRelation.from_arrays(
            ("d", "v"), {"d": arrays["d"], "v": np.asarray([2**40, 1, 2])}, dictionary, encoded=["d"]
        )
        _assert_no_array_form(huge, "sum")
        assert sorted(group_aggregate(huge, ["d"], "v", "sum").rows) == [(0, 2**40 + 1), (1, 2)]


#: Measures for count_distinct: ``28`` / ``"28.0"^^xsd:decimal`` / ``28.0`` are
#: three ids of one comparable value, ``"28"`` (a string) is another value.
_DISTINCT_MEASURES = (
    Literal(28),
    Literal("28.0", XSD_DECIMAL),
    Literal(28.0),
    Literal("28"),
    Literal(5),
    IRI("http://example.org/m"),
)


class TestArrayGroupStates:
    @pytest.mark.parametrize("aggregate", ("count", "sum", "avg", "min", "max"))
    def test_states_match_dict_form(self, aggregate):
        columnar_relation, row_relation = _paired_relations(_sample_rows())
        array_states = group_partial_states(columnar_relation, ["d"], "v", aggregate)
        dict_states = group_partial_states(row_relation, ["d"], "v", aggregate)
        assert isinstance(array_states, ArrayGroupStates)
        assert array_states.to_dict() == dict_states

    def test_count_distinct_partition_states_come_from_the_arrays(self):
        """A partition's count_distinct state is the δ of its (group, id)
        pairs, read off the arrays with no row conversion: one row per
        distinct pair, boxing to the row engine's id sets."""
        columnar_relation, row_relation = _paired_relations(_sample_rows(30))
        before = ROW_CONVERSIONS.copy()
        states = group_partial_states(columnar_relation, ["d"], "v", "count_distinct")
        assert ROW_CONVERSIONS == before
        assert isinstance(states, ArrayGroupStates) and states.function == "count_distinct"
        pairs = list(zip(states.keys[0].tolist(), states.data[0].tolist()))
        distinct = {(d, v) for _, d, v in row_relation.rows}
        assert len(states) == len(pairs) == len(set(pairs)) == len(distinct) < len(row_relation)
        assert set(pairs) == distinct
        assert states.to_dict() == group_partial_states(row_relation, ["d"], "v", "count_distinct")

    @settings(max_examples=80, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, len(_DISTINCT_MEASURES) - 1)), max_size=40
        ),
        cuts=st.lists(st.integers(0, 40), max_size=3),
        shuffle=st.randoms(use_true_random=False),
    )
    def test_count_distinct_array_states_merge_to_the_serial_gamma(self, rows, cuts, shuffle):
        """1–4 partitions (empty ones included), merged in any order — all in
        array form, or one of them boxed by the row engine — equal the
        serial γ; ``28`` and ``28.0`` count once even across partitions."""
        dictionary = TermDictionary()
        groups = [dictionary.encode(IRI(f"http://example.org/g{index}")) for index in range(4)]
        measures = [dictionary.encode(term) for term in _DISTINCT_MEASURES]
        id_rows = [(groups[group], measures[measure]) for group, measure in rows]
        arrays = {
            name: np.asarray([row[index] for row in id_rows], dtype=np.int64)
            for index, name in enumerate(("d", "v"))
        }
        relation = ColumnarIdRelation.from_arrays(("d", "v"), arrays, dictionary)
        serial = group_aggregate(
            IdRelation(("d", "v"), id_rows, dictionary=dictionary), ["d"], "v", "count_distinct"
        )
        edges = [0, *sorted(min(cut, len(rows)) for cut in cuts), len(rows)]
        parts = [relation.take(np.arange(lo, hi)) for lo, hi in zip(edges, edges[1:])]
        states = [group_partial_states(part, ["d"], "v", "count_distinct") for part in parts]
        merged = merge_group_states(shuffle.sample(states, len(states)), "count_distinct")
        assert isinstance(merged, ArrayGroupStates)
        assert len(merged) == sum(map(len, states))
        finalized = finalize_group_states(
            merged, "count_distinct", ("d", "v"), dictionary, ("d",), dictionary.value
        )
        assert isinstance(finalized, ColumnarIdRelation)
        assert sorted(finalized.rows) == sorted(serial.rows)
        assert sorted(group_aggregate(relation, ["d"], "v", "count_distinct").rows) == sorted(serial.rows)
        boxed = IdRelation(("d", "v"), parts[0].rows, dictionary=dictionary)
        mixed = [group_partial_states(boxed, ["d"], "v", "count_distinct"), *states[1:]]
        merged = merge_group_states(shuffle.sample(mixed, len(mixed)), "count_distinct")
        finalized = finalize_group_states(
            merged, "count_distinct", ("d", "v"), dictionary, ("d",), dictionary.value
        )
        assert sorted(finalized.rows) == sorted(serial.rows)

    @pytest.mark.parametrize("aggregate", ("count", "sum", "avg", "min", "max"))
    def test_split_merge_equals_serial(self, aggregate):
        columnar_relation, row_relation = _paired_relations(_sample_rows())
        halves = [
            columnar_relation.take(np.arange(0, 4)),
            columnar_relation.take(np.arange(4, 9)),
        ]
        parts = [group_partial_states(half, ["d"], "v", aggregate) for half in halves]
        merged = merge_group_states(parts, aggregate)
        assert isinstance(merged, ArrayGroupStates)
        serial = group_aggregate(row_relation, ["d"], "v", aggregate)
        finalized = finalize_group_states(merged, aggregate, ("d", "v"), row_relation.dictionary, ("d",))
        assert isinstance(finalized, ColumnarIdRelation)
        assert sorted(finalized.rows) == sorted(serial.rows)

    def test_empty_partition_merges(self):
        columnar_relation, _ = _paired_relations(_sample_rows())
        dictionary = columnar_relation.dictionary
        empty = ColumnarIdRelation.from_arrays(
            ("x", "d", "v"),
            {name: np.empty(0, dtype=np.int64) for name in ("x", "d", "v")},
            dictionary,
        )
        full = group_partial_states(columnar_relation, ["d"], "v", "sum")
        nothing = group_partial_states(empty, ["d"], "v", "sum")
        assert len(nothing) == 0
        merged = merge_group_states([full, nothing], "sum")
        assert sorted(finalize_group_states(merged, "sum", ("d", "v"), dictionary, ("d",)).rows) == sorted(
            finalize_group_states(full, "sum", ("d", "v"), dictionary, ("d",)).rows
        )

    def test_mixed_array_and_dict_partitions(self):
        columnar_relation, row_relation = _paired_relations(_sample_rows())
        array_states = group_partial_states(columnar_relation, ["d"], "v", "avg")
        dict_states = group_partial_states(row_relation, ["d"], "v", "avg")
        merged = merge_group_states([array_states, dict_states], "avg")
        assert isinstance(merged, dict)
        doubled = {key: (total * 2, count * 2) for key, (total, count) in dict_states.items()}
        assert merged == doubled

    def test_states_pickle_across_processes(self):
        columnar_relation, _ = _paired_relations(_sample_rows())
        states = group_partial_states(columnar_relation, ["d"], "v", "avg")
        clone = pickle.loads(pickle.dumps(states))
        assert isinstance(clone, ArrayGroupStates)
        assert clone.to_dict() == states.to_dict()


class TestKeyColumn:
    def test_prepend_key_column(self):
        columnar_relation, _ = _paired_relations(_sample_rows(), columns=("x", "d", "v"))
        keyed = columnar_relation.prepend_keys("k", range(5, 5 + len(columnar_relation)))
        assert isinstance(keyed, ColumnarIdRelation)
        assert keyed.columns == ("k", "x", "d", "v")
        assert keyed.column_values("k") == list(range(5, 14))
        assert "k" not in keyed.encoded_columns

    def test_projection_shares_columns(self):
        columnar_relation, row_relation = _paired_relations(_sample_rows())
        projected = project(columnar_relation, ("d", "v"))
        assert isinstance(projected, ColumnarIdRelation)
        assert projected.bag_equal(project(row_relation, ("d", "v")))


class TestMapColumn:
    """ROLL-UP's substitution: once per distinct id, one gather, derived ids."""

    def test_substitutes_on_the_arrays_once_per_distinct_value(self):
        columnar_relation, row_relation = _paired_relations(_sample_rows())
        dictionary = columnar_relation.dictionary
        terms_before = len(dictionary)
        asked = []

        def region(city):
            asked.append(city)
            # city0's parent is a term of the dictionary, the other is not.
            return IRI("http://example.org/fact0") if city.value.endswith("0") else "elsewhere"

        mapped = columnar_relation.map_column("d", region)
        assert isinstance(mapped, ColumnarIdRelation) and mapped.dictionary is dictionary
        assert len(asked) == 3  # three distinct cities over nine rows
        assert mapped.bag_equal(row_relation.map_column("d", region))
        assert mapped.materialize().distinct_values("d") == {
            IRI("http://example.org/fact0"), "elsewhere",
        }
        ids = mapped.distinct_values("d")
        assert dictionary.lookup(IRI("http://example.org/fact0")) in ids
        assert min(ids) < 0 and len(dictionary) == terms_before
        # The other columns are the very same arrays.
        assert mapped.column_array("x") is columnar_relation.column_array("x")

    def test_plain_column_and_empty_relation(self):
        columnar_relation, row_relation = _paired_relations(
            _sample_rows(), encoded=("x", "d")
        )
        before = ROW_CONVERSIONS["map:plain-column"]
        mapped = columnar_relation.map_column("v", lambda value: f"#{value}")
        assert ROW_CONVERSIONS["map:plain-column"] == before + 1
        assert mapped.bag_equal(row_relation.map_column("v", lambda value: f"#{value}"))
        empty = columnar_relation.take(slice(0))
        assert len(empty.map_column("d", lambda city: "nowhere")) == 0


class TestEngineResolution:
    def test_explicit_choices(self):
        assert resolve_engine("rows") == "rows"
        assert resolve_engine("columnar") == "columnar"
        assert resolve_engine("auto") == "columnar"  # numpy importable here
        assert resolve_engine(None) == "columnar"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "rows")
        assert resolve_engine() == "rows"
        monkeypatch.setenv("REPRO_ENGINE", "columnar")
        assert resolve_engine() == "columnar"
        # Explicit arguments beat the environment.
        assert resolve_engine("rows") == "rows"

    def test_invalid_values_raise(self, monkeypatch):
        with pytest.raises(ConfigurationError):
            resolve_engine("vectorized")
        monkeypatch.setenv("REPRO_ENGINE", "nope")
        with pytest.raises(ConfigurationError):
            resolve_engine()

    def test_forced_columnar_without_numpy_raises(self, monkeypatch):
        """No silent degradation: the error names the [fast] extra."""
        monkeypatch.setattr(columnar, "HAVE_NUMPY", False)
        with pytest.raises(ConfigurationError, match=r"\[fast\]"):
            resolve_engine("columnar")
        monkeypatch.setenv("REPRO_ENGINE", "columnar")
        with pytest.raises(ConfigurationError, match=r"\[fast\]"):
            resolve_engine()
        # auto (no forcing) quietly falls back to rows.
        monkeypatch.delenv("REPRO_ENGINE")
        assert resolve_engine() == "rows"


class TestEngineWiring:
    def test_evaluator_and_session_expose_engine(self, example2_instance):
        from repro.analytics.evaluator import AnalyticalQueryEvaluator
        from repro.olap.session import OLAPSession

        assert AnalyticalQueryEvaluator(example2_instance).engine == "columnar"
        assert AnalyticalQueryEvaluator(example2_instance, engine="rows").engine == "rows"
        with OLAPSession(example2_instance, engine="rows") as session:
            assert session.engine == "rows"

    def test_bgp_emits_column_blocks_on_columnar_engine(self, example2_instance):
        from repro.bgp.evaluator import BGPEvaluator
        from tests.conftest import make_sites_query

        query = make_sites_query().classifier
        fast = BGPEvaluator(example2_instance, engine="columnar").evaluate_ids(query)
        slow = BGPEvaluator(example2_instance, engine="rows").evaluate_ids(query)
        assert isinstance(fast, ColumnarIdRelation)
        assert not isinstance(slow, ColumnarIdRelation)
        assert fast.bag_equal(slow)

    def test_process_worker_initializer_honours_engine_pin(self, example2_instance):
        """The pool initializer must not auto-resolve its own engine: a
        session pinned to rows runs its worker processes on rows too."""
        from repro.olap import parallel as parallel_module

        try:
            parallel_module._initialize_worker(example2_instance, "rows")
            assert parallel_module._WORKER_EVALUATOR.engine == "rows"
            parallel_module._initialize_worker(example2_instance, "columnar")
            assert parallel_module._WORKER_EVALUATOR.engine == "columnar"
        finally:
            parallel_module._WORKER_EVALUATOR = None

    def test_planner_prices_scratch_with_engine_multiplier(self, example2_instance):
        from repro.olap.calibration import CostModel
        from repro.olap.session import OLAPSession
        from repro.olap.operations import Slice
        from tests.conftest import make_sites_query

        def scratch_cost(engine):
            session = OLAPSession(example2_instance, engine=engine, cache_capacity=0)
            query = make_sites_query()
            session.execute(query)
            plan = session.planner.plan(query, Slice("dage", Literal(35)),
                                        Slice("dage", Literal(35)).apply(query))
            by_name = {candidate.strategy: candidate for candidate in plan.candidates}
            return by_name["scratch"].cost

        rows_cost = scratch_cost("rows")
        columnar_cost = scratch_cost("columnar")
        assert columnar_cost < rows_cost
        assert columnar_cost == pytest.approx(
            1.0 + CostModel().engine_multiplier("columnar") * (rows_cost - 1.0)
        )


class TestDistinctIdsFoundOnce:
    """A cached ``pres(Q)`` is immutable: each column's distinct ids are
    sorted out once, whatever σ, ROLL-UP's substitution or decode runs over
    it afterwards — also once it is read against a later dictionary."""

    def test_second_pass_over_a_cached_pres_calls_no_unique(self, example4_instance, monkeypatch):
        from repro.olap import OLAPSession
        from tests.conftest import make_words_query

        query = make_words_query()
        session = OLAPSession(example4_instance, engine="columnar")
        session.execute(query)
        pres = session.materialized(query).partial.storage
        assert isinstance(pres, ColumnarIdRelation)
        sigma = sigma_predicate(dage=DimensionRestriction.to_values([Literal(28)]))

        def passes():
            return (
                select(pres, sigma).rows,
                pres.with_dictionary(pres.dictionary).map_column("dcity", lambda city: "somewhere").rows,
                pres.decoded_columns(),
            )

        first = passes()
        calls = []
        unique = np.unique

        def counting(*args, **kwargs):
            calls.append(args)
            return unique(*args, **kwargs)

        monkeypatch.setattr(np, "unique", counting)
        assert passes() == first
        assert calls == []
        assert 0 < len(first[0]) < len(pres)


class TestSpliceRuns:
    """``splice_runs`` says how the splice spliced: replaying its runs on the
    old rows and the rows it returns gives the spliced and the removed rows,
    in both storages — what a refresh splices an answer's decoded columns by."""

    _KEYED = st.lists(st.tuples(*[st.integers(0, 5)] * 3), max_size=12)

    @given(rows=_KEYED, inserted=_KEYED, width=st.sampled_from([1, 2]), ordered=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_replaying_the_runs_gives_the_splice(self, rows, inserted, width, ordered):
        from repro.analytics.answer import _spliced

        columns, dictionary = ("a", "b", "v"), TermDictionary()
        if ordered:
            rows = sorted(rows)
        keys = {row[:width] for row in inserted}
        arrays = {name: np.array([row[i] for row in rows], dtype=np.int64) for i, name in enumerate(columns)}
        for relation in (
            ColumnarIdRelation.from_arrays(columns, arrays, dictionary, length=len(rows)),
            IdRelation(columns, rows, dictionary=dictionary),
        ):
            new = relation.with_rows(inserted)
            spliced, removed, runs, placed = relation.splice_runs(columns[:width], keys, new)
            assert spliced.rows == _spliced(relation.rows, placed.rows, runs)
            assert removed.rows == [relation.rows[i] for lo, hi, _, _ in zip(*runs) for i in range(lo, hi)]
            assert sorted(placed.rows) == sorted(inserted)
            assert spliced.rows == relation.splice(columns[:width], keys, new)[0].rows
