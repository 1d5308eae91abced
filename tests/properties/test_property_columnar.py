"""Differential oracle: the columnar engine against the row engine.

Hypothesis generates chains of up to six OLAP operations over blogger,
video and generic (multi-valued dimensions) instances across all five
aggregates (plus count_distinct); at the
root and after every transformation the columnar engine's from-scratch
``ans(Q)`` must be cell-for-cell equal to the row engine's, and ``pres(Q)``
bag-equal once the opaque ``newk()`` keys are projected away.  This mirrors
the maintenance and parallel differential suites: whatever the engines'
internals, the cube is the contract.

The second half holds every operator of the algebra to the same oracle one
relation at a time: equal as bags (δ in first-occurrence order) whichever
storage the input has, and — per operator — whether it keeps the columnar
storage or leaves it through ``to_rows``, and under which reason.  That
table is the tested form of the guide's *Fallback rules*.  The ids the
relations hold include *derived* (negative) ones — ROLL-UP parents that are
no terms of the graph — and one case holds nothing else: no kernel may index
by id.
"""

import pytest

np = pytest.importorskip("numpy")  # the suite forces engine="columnar" explicitly

from hypothesis import given, settings, strategies as st

from repro.analytics.evaluator import AnalyticalQueryEvaluator
from repro.analytics.query import KEY_COLUMN
from repro.algebra.aggregates import AggregateFunction
from repro.algebra.columnar import ROW_CONVERSIONS, ColumnarIdRelation
from repro.algebra.expressions import comparable, is_in
from repro.algebra.grouping import group_aggregate
from repro.algebra.operators import (
    cross_product,
    dedup,
    difference_all,
    extend_column,
    join_on,
    project,
    rename,
    select,
    union_all,
)
from repro.algebra.relation import IdRelation
from repro.rdf.dictionary import TermDictionary
from repro.rdf.terms import Literal
from repro.olap.cube import Cube

from tests.properties.test_property_parallel import (
    AGGREGATES,
    _DATASETS,
    _blogger,
    _draw_operation,
    _root_query,
    _value_pool,
)

_SETTINGS = dict(max_examples=8, deadline=None, print_blob=True)


def _assert_engines_agree(columnar_engine, row_engine, query):
    fast = columnar_engine.evaluate(query)
    slow = row_engine.evaluate(query)
    assert Cube(fast.answer, query).same_cells(Cube(slow.answer, query)), (
        f"columnar diverged from the row oracle on {query.name}"
    )
    keyless = [name for name in slow.partial.columns if name != KEY_COLUMN]
    assert project(fast.partial.storage, keyless).bag_equal(
        project(slow.partial.storage, keyless)
    ), f"pres(Q) diverged modulo keys on {query.name}"


@given(
    data=st.data(),
    seed=st.integers(min_value=0, max_value=15),
    scenario=st.sampled_from(sorted(_DATASETS)),
    aggregate=st.sampled_from(AGGREGATES),
    chain_length=st.integers(min_value=1, max_value=6),
)
@settings(**_SETTINGS)
def test_columnar_chain_matches_row_oracle(data, seed, scenario, aggregate, chain_length):
    dataset = _DATASETS[scenario](seed)
    columnar_engine = AnalyticalQueryEvaluator(dataset.instance, engine="columnar")
    row_engine = AnalyticalQueryEvaluator(dataset.instance, engine="rows")
    query = _root_query(scenario, dataset, aggregate)
    pools = _value_pool(row_engine, query)

    _assert_engines_agree(columnar_engine, row_engine, query)
    current = query
    for _ in range(chain_length):
        operation = _draw_operation(data.draw, current, pools)
        if operation is None:
            break
        current = operation.apply(current)
        _assert_engines_agree(columnar_engine, row_engine, current)


@given(
    seed=st.integers(min_value=0, max_value=15),
    aggregate=st.sampled_from(AGGREGATES),
    shards=st.sampled_from((1, 3, 7)),
)
@settings(**_SETTINGS)
def test_columnar_shard_evaluation_matches_row_oracle(seed, aggregate, shards):
    """The batched fact-range prune: per-shard columnar evaluation merges to
    the serial row answer across shard counts (array-form γ states)."""
    from repro.olap.parallel import ParallelExecutor

    dataset = _blogger(seed)
    query = _root_query("blogger", dataset, aggregate)
    row_engine = AnalyticalQueryEvaluator(dataset.instance, engine="rows")
    executor = ParallelExecutor(
        AnalyticalQueryEvaluator(dataset.instance, engine="columnar"),
        workers=1,
        shard_count=shards,
        backend="serial",
    )
    try:
        merged = executor.evaluate(query)
        oracle = row_engine.evaluate(query)
        assert Cube(merged.answer, query).same_cells(Cube(oracle.answer, query))
        keyless = [name for name in oracle.partial.columns if name != KEY_COLUMN]
        assert project(merged.partial.storage, keyless).bag_equal(
            project(oracle.partial.storage, keyless)
        )
    finally:
        executor.close()


# ---------------------------------------------------------------------------
# Operator by operator: same bag on either storage; storage kept or converted
# ---------------------------------------------------------------------------

_TERMS = TermDictionary()
_DERIVED_IDS = [_TERMS.encode_derived(value) for value in (Literal(40), 41, Literal(42))]
_IDS = [_TERMS.encode(Literal(value)) for value in range(5)] + _DERIVED_IDS
_COLUMNS = ("a", "b", "c")


def _both_storages(rows):
    arrays = {
        name: np.asarray([row[index] for row in rows], dtype=np.int64)
        for index, name in enumerate(_COLUMNS)
    }
    return (
        ColumnarIdRelation.from_arrays(_COLUMNS, arrays, _TERMS, length=len(rows)),
        IdRelation(_COLUMNS, rows, dictionary=_TERMS),
    )


def _as_rows(relation):
    return IdRelation(relation.columns, relation.rows, dictionary=_TERMS)


def _plain_column(relation, name):
    """``relation`` with one column declared plain (not holding term ids)."""
    encoded = set(relation.columns) - {name}
    if isinstance(relation, ColumnarIdRelation):
        arrays = {column: relation.column_array(column) for column in relation.columns}
        return ColumnarIdRelation.from_arrays(relation.columns, arrays, _TERMS, encoded, len(relation))
    return IdRelation(relation.columns, relation.rows, dictionary=_TERMS, encoded=encoded)


_APART = {"a": "ra", "b": "rb", "c": "rc"}
_SHADOW_SUM = AggregateFunction("sum", lambda values: len(values), distributive=False)

#: operator → (application to (left, right), keeps columnar storage, ``to_rows`` reasons)
_OPERATORS = {
    "σ": (lambda l, r: select(l, is_in("a", [Literal(0), Literal(3)])), True, set()),
    "σ derived": (lambda l, r: select(l, is_in("a", [Literal(40), 41, Literal(2)])), True, set()),
    "σ opaque": (
        lambda l, r: select(l, lambda row: row["a"] == Literal(1)),
        False,
        {"sigma:opaque-predicate"},
    ),
    "π": (lambda l, r: project(l, ("c", "a")), True, set()),
    "π onto no column": (lambda l, r: project(l, ()), True, set()),
    "δ": (lambda l, r: dedup(l), True, set()),
    "δ∘π": (lambda l, r: dedup(project(l, ("b",))), True, set()),
    "ρ": (lambda l, r: rename(l, {"a": "z"}), True, set()),
    "reorder": (lambda l, r: l.reorder(("c", "a", "b")), True, set()),
    "take": (lambda l, r: l.take(slice(0, None, 2)), True, set()),
    "mᵏ": (lambda l, r: l.prepend_keys("k", range(7, 7 + len(l))), True, set()),
    # ROLL-UP's substitution: images are a graph term, a derived term, a derived label.
    "map_column": (
        lambda l, r: l.map_column(
            "b", lambda v: (Literal(1), Literal(77), "other")[comparable(v) % 3]
        ),
        True,
        set(),
    ),
    "⋈": (lambda l, r: join_on(l, rename(r, {"b": "rb", "c": "rc"}), [("a", "a")]), True, set()),
    "⋈ multi-pair": (
        lambda l, r: join_on(l, rename(r, {"c": "rc"}), [("a", "a"), ("b", "b")]),
        False,
        {"join:multi-pair", "join:mixed-storage"},
    ),
    "⋈ mixed storage": (
        lambda l, r: join_on(l, _as_rows(rename(r, {"b": "rb", "c": "rc"})), [("a", "a")]),
        False,
        {"join:mixed-storage"},
    ),
    "∪": (lambda l, r: union_all(l, r, l), True, set()),
    "∪ reordered columns": (lambda l, r: union_all(l, r.reorder(("c", "a", "b"))), True, set()),
    "∪ mixed storage": (lambda l, r: union_all(l, _as_rows(r)), False, {"union:no-array-form"}),
    "∪ misaligned encoding": (
        lambda l, r: union_all(l, _plain_column(r, "c")), False, {"union:no-array-form"}
    ),
    "−": (lambda l, r: difference_all(l, r), False, {"difference:no-array-form"}),
    "×": (lambda l, r: cross_product(l, rename(r, _APART)), False, {"product:no-array-form"}),
    "extend_column": (
        lambda l, r: extend_column(l, "s", lambda row: str(row["a"])),
        False,
        {"extend:opaque-function"},
    ),
    # γ's output is always a (small) row relation; its *input* stays in the arrays.
    "γ": (lambda l, r: group_aggregate(l, ["a"], "c", "sum"), False, set()),
    "γ count_distinct": (lambda l, r: group_aggregate(l, ["a", "b"], "c", "count_distinct"), False, set()),
    "γ min": (lambda l, r: group_aggregate(l, ["b"], "c", "min"), False, set()),
    "γ max": (lambda l, r: group_aggregate(l, ["b"], "c", "max"), False, set()),
    "γ no array form": (
        lambda l, r: group_aggregate(l, ["a"], "c", _SHADOW_SUM),
        False,
        {"gamma:no-array-form"},
    ),
}

_rows = st.lists(st.tuples(*[st.sampled_from(_IDS)] * 3), max_size=10)


@pytest.mark.parametrize("operator", list(_OPERATORS))
@given(left=_rows, right=_rows)
@settings(max_examples=20, deadline=None, print_blob=True)
def test_operator_matches_row_engine_and_keeps_or_names_its_storage(operator, left, right):
    _assert_operator(operator, left, right)


@pytest.mark.parametrize(
    "operator",
    ["σ derived", "π", "δ", "δ∘π", "⋈", "∪", "map_column", "γ", "γ count_distinct", "γ min", "γ max"],
)
def test_operator_over_derived_ids_only(operator):
    """Every id negative: a kernel that indexed an array by id would read the
    wrong slot (or wrap around) instead of failing."""
    x, y, z = _DERIVED_IDS
    assert max(_DERIVED_IDS) < 0
    left = [(x, y, z), (y, y, x), (x, y, z), (z, x, y), (y, z, z)]
    right = [(y, x, x), (x, x, z), (x, z, y)]
    _assert_operator(operator, left, right)


def _assert_operator(operator, left, right):
    apply, keeps_storage, reasons = _OPERATORS[operator]
    fast_left, slow_left = _both_storages(left)
    fast_right, slow_right = _both_storages(right)
    slow = apply(slow_left, slow_right)
    before = ROW_CONVERSIONS.copy()
    fast = apply(fast_left, fast_right)
    converted = set(ROW_CONVERSIONS - before) - {"api:rows"}  # _as_rows reads .rows
    assert isinstance(fast, ColumnarIdRelation) == keeps_storage
    assert converted == reasons
    assert not isinstance(slow, ColumnarIdRelation)
    assert fast.columns == slow.columns and len(fast) == len(slow)
    assert fast.bag_equal(slow)
    if operator.startswith("δ"):
        assert fast.rows == slow.rows  # first-occurrence order


# ``split_on``: the id-tuple (anti-)semi-join a delta refresh splices with.

_ABSENT = [10_000, -10_000]  # ids no generated row holds


def _keys_over(width):
    return st.sets(st.tuples(*[st.sampled_from(_IDS + _ABSENT)] * width), max_size=5)


@pytest.mark.parametrize("key_columns", [("a",), ("c", "a"), ("a", "b", "c"), ()])
@given(rows=_rows, data=st.data())
@settings(max_examples=25, deadline=None, print_blob=True)
def test_split_on_matches_row_engine_and_stays_in_the_arrays(key_columns, rows, data):
    """``(⋉, ▷)`` against a key set — empty, partly absent from the relation,
    holding derived (negative) ids — is the row engine's pair, row order
    included, and never leaves the columnar storage."""
    keys = data.draw(_keys_over(len(key_columns)))
    fast, slow = _both_storages(rows)
    before = ROW_CONVERSIONS.copy()
    fast_pair = fast.split_on(key_columns, keys)
    assert not set(ROW_CONVERSIONS - before)
    for fast_part, slow_part in zip(fast_pair, slow.split_on(key_columns, keys)):
        assert isinstance(fast_part, ColumnarIdRelation)
        assert not isinstance(slow_part, ColumnarIdRelation)
        assert fast_part.columns == slow_part.columns == _COLUMNS
        assert fast_part.rows == slow_part.rows
    matching, rest = fast_pair
    assert len(matching) + len(rest) == len(rows)
    assert all(tuple(row[_COLUMNS.index(name)] for name in key_columns) in keys for row in matching.rows)
    # ⋉ alone: the ▷ half is not built when the caller has no use for it.
    for relation in (fast, slow):
        only, nothing = relation.split_on(key_columns, keys, rest=False)
        assert nothing is None and only.rows == matching.rows
