"""Unit tests for the γ group-and-aggregate operator."""

import pytest

from repro.errors import UnknownColumnError
from repro.algebra.grouping import group_aggregate
from repro.algebra.relation import Relation
from repro.rdf import Literal


@pytest.fixture()
def word_counts() -> Relation:
    """The projected pres(Q) of Example 4 (x, dage, dcity, vwords)."""
    return Relation(
        ["x", "dage", "dcity", "vwords"],
        [
            ("user1", 28, "Madrid", 100),
            ("user1", 28, "Madrid", 120),
            ("user3", 35, "NY", 570),
            ("user4", 28, "Madrid", 410),
        ],
    )


class TestGroupAggregate:
    def test_example4_average(self, word_counts):
        result = group_aggregate(word_counts, ["dage", "dcity"], "vwords", "avg", output_column="v")
        assert result.columns == ("dage", "dcity", "v")
        cells = {row[:2]: row[2] for row in result}
        assert cells[(28, "Madrid")] == pytest.approx(210.0)
        assert cells[(35, "NY")] == pytest.approx(570.0)

    def test_count_and_sum(self, word_counts):
        counts = group_aggregate(word_counts, ["dcity"], "vwords", "count")
        sums = group_aggregate(word_counts, ["dcity"], "vwords", "sum")
        assert dict((row[0], row[1]) for row in counts) == {"Madrid": 3, "NY": 1}
        assert dict((row[0], row[1]) for row in sums) == {"Madrid": 630, "NY": 570}

    def test_global_aggregation_with_empty_by(self, word_counts):
        result = group_aggregate(word_counts, [], "vwords", "sum")
        assert result.columns == ("v",)
        assert result.rows == [(1200,)]

    def test_none_measures_are_ignored(self):
        relation = Relation(["g", "v"], [("a", 1), ("a", None), ("b", None)])
        result = group_aggregate(relation, ["g"], "v", "count")
        assert dict(result.rows) == {"a": 1}

    def test_rdf_literal_measures(self):
        relation = Relation(["g", "v"], [("a", Literal(2)), ("a", Literal(3))])
        result = group_aggregate(relation, ["g"], "v", "sum")
        assert result.rows == [("a", 5)]

    def test_output_column_name_can_be_customized(self, word_counts):
        result = group_aggregate(word_counts, ["dage"], "vwords", "max", output_column="longest")
        assert result.columns == ("dage", "longest")

    def test_output_column_clash_with_grouping_column(self, word_counts):
        with pytest.raises(UnknownColumnError):
            group_aggregate(word_counts, ["dage"], "vwords", "max", output_column="dage")

    def test_empty_relation_produces_empty_result(self):
        relation = Relation(["g", "v"])
        assert len(group_aggregate(relation, ["g"], "v", "sum")) == 0


# ---------------------------------------------------------------------------
# the γ oracle: serial γ is the one-partition case of the state algebra
# ---------------------------------------------------------------------------

AGGREGATES = ("count", "count_distinct", "sum", "avg", "min", "max")
NUMERIC_ONLY = ("sum", "avg")

#: ``(group, measure value)`` pairs; each input is there for a branch γ keeps.
GAMMA_INPUTS = {
    "plain": [("a", 3), ("b", 1), ("a", 4), ("a", 1), ("b", 5), ("c", 9), ("a", 2), ("c", 6)],
    "floats": [("a", 0.5), ("a", 0.25), ("b", 2.0), ("a", 4), ("b", 0.125)],
    # None measures contribute nothing; a group of only None produces no cell.
    # (None has no term id, so such a relation is plain on either engine.)
    "none_measures": [("a", None), ("a", 3), ("b", None), ("c", 7), ("a", None), ("c", 1)],
    # One non-numeric value poisons group "a" under sum/avg — wherever the
    # partition boundaries fall, and in the one-partition case alike.
    "non_numeric": [("a", 1), ("a", "west"), ("b", 7), ("a", 2), ("b", 5), ("a", 4)],
    # ints >= 2^31: the columnar engine hands over to exact row arithmetic.
    "big_ints": [("a", 6 * 10**18), ("a", 6 * 10**18), ("b", 2**31), ("a", 2**63), ("b", 1)],
    # 28 and 28.0 are distinct terms but one comparable value.
    "equal_comparables": [("a", 28), ("a", 28.0), ("a", 29), ("b", 28.0), ("b", 28.0)],
    "empty": [],
}


def _reference_gamma(pairs, grouped, aggregate):
    """γ written against nothing but builtins: ``{group key: value}``."""
    bags = {}
    for group, value in pairs:
        if value is not None:
            bags.setdefault((group,) if grouped else (), []).append(value)
    functions = {
        "count": len,
        "count_distinct": lambda bag: len(set(bag)),
        "sum": sum,
        "avg": lambda bag: float(sum(bag)) / len(bag),
        "min": min,
        "max": max,
    }
    return {
        key: functions[aggregate](bag)
        for key, bag in bags.items()
        if aggregate not in NUMERIC_ONLY or not any(isinstance(value, str) for value in bag)
    }


def _engine_relation(engine, dictionary, pairs, plain):
    """The ``(d, v)`` relation the way ``engine`` would hold it (``plain``:
    decoded terms, the only form that can carry a None measure)."""
    from repro.algebra.columnar import ColumnarIdRelation
    from repro.algebra.relation import IdRelation
    from repro.rdf.terms import IRI

    terms = [
        (IRI(f"http://example.org/{group}"), None if value is None else Literal(value))
        for group, value in pairs
    ]
    if plain:
        return Relation(("d", "v"), terms)
    rows = [(dictionary.encode(group), dictionary.encode(value)) for group, value in terms]
    if engine == "columnar":
        arrays = {name: [row[index] for row in rows] for index, name in enumerate(("d", "v"))}
        return ColumnarIdRelation.from_arrays(("d", "v"), arrays, dictionary)
    return IdRelation(("d", "v"), rows, dictionary=dictionary)


def _cells(rows, dictionary, grouped):
    """``key + (value,)`` rows as ``{(group name,) or (): value}``."""
    if not grouped:
        return {(): row[0] for row in rows}
    return {
        ((dictionary.decode(key) if isinstance(key, int) else key).local_name(),): value
        for key, value in rows
    }


def _gamma_cases():
    for name in GAMMA_INPUTS:
        for aggregate in AGGREGATES:
            if name == "non_numeric" and aggregate in ("min", "max"):
                continue  # str vs int does not order: a TypeError on any path
            yield pytest.param(name, aggregate, id=f"{name}-{aggregate}")


@pytest.mark.parametrize("engine", ["rows", "columnar"])
@pytest.mark.parametrize("grouped", [True, False], ids=["by-d", "by-nothing"])
@pytest.mark.parametrize("name,aggregate", _gamma_cases())
def test_gamma_oracle(name, aggregate, grouped, engine):
    """``finalize(merge(states(parts))) == group_aggregate(whole) == oracle``
    for every split of the rows into 1, 2 and 5 partitions."""
    import random

    from repro.algebra.grouping import finalize_group_states, group_partial_states, merge_group_states
    from repro.rdf.dictionary import TermDictionary

    from tests.naive_oracle import naive_group_aggregate

    if engine == "columnar":
        pytest.importorskip("numpy")
    pairs = GAMMA_INPUTS[name]
    by = ["d"] if grouped else []
    dictionary = TermDictionary()
    plain = any(value is None for _, value in pairs)
    whole = _engine_relation(engine, dictionary, pairs, plain)
    expected = _reference_gamma(pairs, grouped, aggregate)

    serial = group_aggregate(whole, by, "v", aggregate)
    assert serial.columns == (*by, "v")
    assert _cells(serial.rows, dictionary, grouped) == expected

    if not (name == "non_numeric" and aggregate in NUMERIC_ONLY):  # the naive γ raises there
        naive = naive_group_aggregate(whole.materialize(), by, "v", aggregate, "v")
        assert sorted(naive.rows, key=repr) == sorted(serial.materialize().rows, key=repr)

    rng = random.Random(f"{name}-{aggregate}-{grouped}")
    for part_count in (1, 2, 5):
        for _ in range(4):
            parts = [[] for _ in range(part_count)]
            for pair in pairs:
                rng.choice(parts).append(pair)
            states = merge_group_states(
                (
                    group_partial_states(
                        _engine_relation(engine, dictionary, part, plain), by, "v", aggregate
                    )
                    for part in parts
                ),
                aggregate,
            )
            merged = finalize_group_states(
                states, aggregate, (*by, "v"), dictionary, () if plain else by,
                value=None if plain else dictionary.value,
            )
            assert merged.columns == (*by, "v")
            assert _cells(merged.rows, dictionary, grouped) == expected, parts


class TestBagFunctionAggregate:
    """A custom aggregate that supplies only a bag function stays supported,
    as *non-mergeable*: it answers through serial γ and is never partitioned."""

    @pytest.fixture()
    def median_query(self):
        from repro.algebra.aggregates import AggregateFunction, default_registry

        from tests.conftest import make_words_query

        name = "median_test_grouping_contract"
        if name not in default_registry():
            default_registry().register(
                AggregateFunction(name, lambda values: sorted(values)[len(values) // 2], distributive=False)
            )
        return make_words_query(name)

    @pytest.mark.parametrize("engine", ["rows", "columnar"])
    def test_answers_serially_and_is_never_partitioned(self, engine, median_query, example4_instance):
        from repro.olap.cube import Cube
        from repro.olap.session import OLAPSession

        from tests.naive_oracle import NaiveAnalyticalEvaluator

        if engine == "columnar":
            pytest.importorskip("numpy")
        expected = Cube(NaiveAnalyticalEvaluator(example4_instance).answer(median_query), median_query)
        assert sorted(expected.cells().values()) == [120, 570]
        with OLAPSession(
            example4_instance, workers=2, parallel_backend="thread", engine=engine
        ) as session:
            assert not median_query.aggregate.mergeable
            assert not session.planner.parallel.supports(median_query)
            plan = session.planner.plan_query(median_query)
            assert [c.strategy for c in plan.candidates] == ["scratch"]
            assert session.execute(median_query).same_cells(expected)
