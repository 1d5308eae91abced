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
by id.  σ's one structured predicate, Σ, is then held to itself: its three
evaluators (``Sigma.allows_row`` on mappings, ``SigmaPredicate.compile`` on
positional rows, the columnar mask) keep the same rows.  Last, the BGP
solver's column blocks are held to the row solver on random graphs and
connected patterns, before and after the graph moves.
"""

from collections import Counter

import pytest

np = pytest.importorskip("numpy")  # the suite forces engine="columnar" explicitly

from hypothesis import given, reject, settings, strategies as st

from repro.analytics.evaluator import AnalyticalQueryEvaluator
from repro.analytics.query import KEY_COLUMN, AnalyticalQuery
from repro.algebra.aggregates import AggregateFunction, default_registry
from repro.algebra.columnar import ROW_CONVERSIONS, ColumnarIdRelation, _group_boundaries
from repro.bgp.evaluator import BGPEvaluator
from repro.bgp.parser import parse_query
from repro.bgp.query import BGPQuery
from repro.algebra.expressions import comparable
from repro.algebra.grouping import group_aggregate
from repro.algebra.operators import (
    cross_product,
    dedup,
    join_on,
    project,
    rename,
    select,
    union_all,
)
from repro.algebra.relation import IdRelation, Relation
from repro.errors import SigmaError
from repro.analytics.sigma import DimensionRestriction, Sigma
from repro.rdf import EX, RDF, Graph, Triple, TriplePattern, Variable
from repro.rdf.dictionary import TermDictionary
from repro.rdf.terms import Literal
from repro.olap import DimensionHierarchy, OLAPSession, RollUp, Slice
from repro.olap.cube import Cube
from tests.conftest import sigma_predicate

from tests.properties.test_property_parallel import (
    AGGREGATES,
    _DATASETS,
    _blogger,
    _draw_operation,
    _root_query,
    _value_pool,
)

_SETTINGS = dict(max_examples=8, deadline=None, print_blob=True)


def _measure_types(answer):
    return {key: type(value) for key, value in answer.decoded_cells().items()}


def _assert_engines_agree(columnar_engine, row_engine, query):
    fast = columnar_engine.evaluate(query)
    slow = row_engine.evaluate(query)
    assert Cube(fast.answer, query).same_cells(Cube(slow.answer, query)), (
        f"columnar diverged from the row oracle on {query.name}"
    )
    assert _measure_types(fast.answer) == _measure_types(slow.answer)
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
# ans(Q) itself: the columnar answer holds the row answer's cells, each
# measure of the same Python type — a count of 3 never becomes 3.0
# ---------------------------------------------------------------------------

_MEDIAN = AggregateFunction("median_columnar_oracle", lambda bag: sorted(bag)[len(bag) // 2], False)
if _MEDIAN.name not in default_registry():
    default_registry().register(_MEDIAN)

_HALVES = DimensionHierarchy.from_pairs(
    [(EX.term(f"d0/{index}"), "low" if index < 2 else "high") for index in range(4)], name="d0_half"
)

#: case → (measures of fact i, aggregate, columnar ans(Q)?, ROLL-UP of d0?)
_ANSWER_CASES = {
    "sum of ints": (lambda i: (i % 5 + 1, i % 3 + 7), "sum", True, False),
    "avg": (lambda i: (i % 5 + 1, i % 3 + 7), "avg", True, False),
    "sum of floats": (lambda i: (0.5 * (i % 4), 0.25 + i % 3), "sum", True, False),
    "sum of ints and floats": (lambda i: (i % 5 + 1,) if i % 3 else (0.5,), "sum", False, False),
    "count_distinct": (lambda i: (i % 4, (i + 1) % 4), "count_distinct", True, False),
    "custom aggregate": (lambda i: (i % 5 + 1, i % 3 + 7), _MEDIAN.name, False, False),
    "ints of 2^31 and more": (lambda i: (2**31 + i, 2**40), "sum", False, False),
    "roll-up to derived ids": (lambda i: (i % 5 + 1, i % 3 + 7), "sum", True, True),
}


def _answer_case(measures):
    """Facts over two dimensions — ``d0`` multi-valued for every third fact —
    with ``measures(i)`` as fact ``i``'s measure values."""
    graph = Graph()
    for index in range(24):
        fact = EX.term(f"fact/{index}")
        graph.add(Triple(fact, RDF.term("type"), EX.term("Fact")))
        graph.add(Triple(fact, EX.term("dim0"), EX.term(f"d0/{index % 4}")))
        if index % 3 == 0:
            graph.add(Triple(fact, EX.term("dim0"), EX.term(f"d0/{(index + 1) % 4}")))
        graph.add(Triple(fact, EX.term("dim1"), EX.term(f"d1/{index % 2}")))
        for value in measures(index):
            graph.add(Triple(fact, EX.term("measure"), Literal(value)))
    return graph


@pytest.mark.parametrize("case", list(_ANSWER_CASES))
def test_answer_cells_and_measure_types_match_the_row_oracle(case):
    measures, aggregate, columnar_answer, rolled = _ANSWER_CASES[case]
    graph = _answer_case(measures)
    query = AnalyticalQuery(
        parse_query("c(?x, ?d0, ?d1) :- ?x rdf:type ex:Fact, ?x ex:dim0 ?d0, ?x ex:dim1 ?d1"),
        parse_query("m(?x, ?v) :- ?x ex:measure ?v"),
        aggregate,
        name="answer_case",
    )
    if rolled:
        query = RollUp("d0", _HALVES).apply(query)
    fast = AnalyticalQueryEvaluator(graph, engine="columnar").answer(query)
    slow = AnalyticalQueryEvaluator(graph, engine="rows").answer(query)
    assert isinstance(fast.storage, ColumnarIdRelation) == columnar_answer
    assert fast.decoded_cells() == slow.decoded_cells()
    assert _measure_types(fast) == _measure_types(slow)
    if rolled:
        assert min(fast.storage.column_values("d0")) < 0  # parents are no graph terms
    # Proposition 1 over each answer: σ on the arrays, same cells and types.
    operation = Slice("d1", EX.term("d1/1"))
    cubes = []
    for engine in ("columnar", "rows"):
        with OLAPSession(graph, engine=engine) as session:
            session.execute(query)
            cubes.append(session.transform(query, operation, strategy="rewrite"))
    assert cubes[0].record.strategy == "rewrite[slice-dice/ans]"
    assert dict(cubes[0].cells()) == dict(cubes[1].cells()) != {}
    assert _measure_types(cubes[0].answer) == _measure_types(cubes[1].answer)


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
    "σ": (
        lambda l, r: select(l, sigma_predicate(a=DimensionRestriction.to_values([Literal(0), Literal(3)]))),
        True,
        set(),
    ),
    "σ derived": (
        lambda l, r: select(
            l, sigma_predicate(a=DimensionRestriction.to_values([Literal(40), 41, Literal(2)]))
        ),
        True,
        set(),
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
    "×": (lambda l, r: cross_product(l, rename(r, _APART)), False, {"product:no-array-form"}),
    # γ's array states finalize in the arrays: ans(Q) is columnar too.
    "γ": (lambda l, r: group_aggregate(l, ["a"], "c", "sum"), True, set()),
    "γ count_distinct": (lambda l, r: group_aggregate(l, ["a", "b"], "c", "count_distinct"), True, set()),
    "γ min": (lambda l, r: group_aggregate(l, ["b"], "c", "min"), True, set()),
    "γ max": (lambda l, r: group_aggregate(l, ["b"], "c", "max"), True, set()),
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


# Σ's three evaluators: mappings, positional rows, arrays.

_SIGMA_TERMS = TermDictionary()
_GRAPH_IDS = [
    _SIGMA_TERMS.encode(term)
    for term in (Literal(0), Literal(2), Literal(3.5), Literal("x"), EX.term("a"))
]
_LABEL_IDS = [_SIGMA_TERMS.encode_derived(value) for value in (Literal(40), 41, "label")]
#: Plain-column pools: int64, float64 and (mixed) object arrays.
_PLAIN_POOLS = ((0, 1, 3, -1), (0.5, 2.5, -1.5), (0, 2.5, 3, -1.5))
_SIGMA_VALUES = [
    Literal(0), 2, Literal(3.5), Literal("x"), EX.term("a"), Literal(40), 41, "label",
    0.5, 2.5, -1, Literal(99),
]
_drawn_restrictions = st.one_of(
    st.just(DimensionRestriction.full()),
    st.lists(st.sampled_from(_SIGMA_VALUES), min_size=1, max_size=4).map(
        DimensionRestriction.to_values
    ),
    # Bounds in order; an open range needs two distinct ones.
    st.tuples(
        st.sampled_from([-2, 0, 1, 2.5, Literal(40)]),
        st.sampled_from([0, 2, 3.5, 41, Literal(100)]),
        st.booleans(),
    )
    .filter(lambda drawn: drawn[2] or comparable(drawn[0]) != comparable(drawn[1]))
    .map(lambda drawn: DimensionRestriction.to_range(*sorted(drawn[:2], key=comparable), drawn[2])),
)


@st.composite
def _intersections(draw):
    """The conjunction of two drawn restrictions (an already-diced dimension
    diced again); conjunctions that allow nothing are not restrictions."""
    left, right = draw(_drawn_restrictions), draw(_drawn_restrictions)
    try:
        return left.intersect(right)
    except SigmaError:
        reject()


_restrictions = st.one_of(_drawn_restrictions, _intersections())


@given(data=st.data(), pool=st.sampled_from(_PLAIN_POOLS))
@settings(max_examples=60, deadline=None, print_blob=True)
def test_sigma_evaluators_agree(data, pool):
    """An encoded column of graph terms (``e``), a plain one (``p``), one of
    derived (negative) ids (``g``), and a Σ dimension the relation lacks:
    ``select`` on either engine keeps, as a bag, exactly the rows
    ``Sigma.allows_row`` keeps, and the columnar side never leaves its arrays."""
    columns = ("e", "p", "g")
    rows = data.draw(st.lists(
        st.tuples(st.sampled_from(_GRAPH_IDS), st.sampled_from(pool), st.sampled_from(_LABEL_IDS)),
        max_size=12,
    ))
    dimensions = ("g", "absent", "e", "p")
    sigma = Sigma(dimensions, {name: data.draw(_restrictions) for name in dimensions})
    plain = [row[1] for row in rows]
    arrays = {
        name: np.asarray([row[index] for row in rows], dtype=np.int64)
        for index, name in ((0, "e"), (2, "g"))
    }
    arrays["p"] = np.asarray(plain, dtype=object if len(set(map(type, plain))) > 1 else None)
    fast = ColumnarIdRelation.from_arrays(columns, arrays, _SIGMA_TERMS, {"e", "g"}, len(rows))
    slow = IdRelation(columns, rows, dictionary=_SIGMA_TERMS, encoded={"e", "g"})

    kept = Counter(
        row for row, decoded in zip(rows, slow.iter_decoded()) if sigma.allows_row(dict(zip(columns, decoded)))
    )
    before = ROW_CONVERSIONS.copy()
    fast_kept = select(fast, sigma.predicate())
    assert ROW_CONVERSIONS == before and isinstance(fast_kept, ColumnarIdRelation)
    assert Counter(fast_kept.rows) == kept
    assert Counter(select(slow, sigma.predicate()).rows) == kept


# γ and δ's one grouping key against the k-key lexsort it replaced.

_INT64 = (-(2**63), 2**63 - 1)


@st.composite
def _grouping_columns(draw):
    """1–5 int64 key columns whose packed widths plus the row-index bits
    reach 62, 63, 64 or more (or anything), int64 extremes included, plus
    optionally one float64 and one object column, over 1…40 rows."""
    length = draw(st.integers(min_value=1, max_value=40))
    count = draw(st.integers(min_value=1, max_value=5))
    remaining = draw(st.sampled_from([None, 62, 63, 64, 90]))
    remaining = None if remaining is None else remaining - (length - 1).bit_length()
    columns = []
    for index in range(count):
        if index == 0 and draw(st.booleans()):
            pool = [*_INT64, -1, 0]  # spans all 64 bits
        else:
            if remaining is None:
                width = draw(st.integers(min_value=0, max_value=63))
            else:
                most = min(63, max(remaining, 0))
                width = most if index == count - 1 else draw(st.integers(0, most))
                remaining -= width
            low = min(draw(st.sampled_from([_INT64[0], -(2**40), -3, 0, 5])), _INT64[1] - 2**width + 1)
            inner = draw(st.lists(st.integers(0, 2**width - 1), max_size=3))
            pool = [low, low + 2**width - 1, *(low + value for value in inner)]
        values = pool[: min(2, length)]  # the column's min and max
        rest = length - len(values)
        values += draw(st.lists(st.sampled_from(pool), min_size=rest, max_size=rest))
        columns.append(np.asarray(values, dtype=np.int64))
    for kind, pool in ((np.float64, [0.5, -2.25, 1e300, 3.0]), (object, [2**70, -5, 2.5, 7])):
        if draw(st.booleans()):
            values = draw(st.lists(st.sampled_from(pool), min_size=length, max_size=length))
            column = np.empty(length, dtype=kind)
            column[:] = values
            columns.insert(draw(st.integers(0, len(columns))), column)
    return columns


def _lexsort_groups(arrays, length):
    """The reference: one stable lexsort over the columns (the first most
    significant), a new group wherever any column changes."""
    order = np.lexsort(tuple(reversed(arrays)))
    is_new = np.zeros(length, dtype=bool)
    is_new[0] = True
    for array in arrays:
        ordered = array[order]
        is_new[1:] |= ordered[1:] != ordered[:-1]
    return order, np.flatnonzero(is_new)


@given(arrays=_grouping_columns(), measures=st.data())
@settings(max_examples=200, deadline=None, print_blob=True)
def test_one_grouping_key_is_the_stable_lexsort(arrays, measures):
    """One sorted int64 key per row gives the lexsort's ``order`` and
    ``starts``; δ keeps first occurrences, and float SUM/AVG are bit-identical
    to the row engine (the sums run in row order within each group)."""
    length = len(arrays[0])
    order, starts = _group_boundaries(arrays, length)
    expected_order, expected_starts = _lexsort_groups(arrays, length)
    assert order.tolist() == expected_order.tolist()
    assert starts.tolist() == expected_starts.tolist()

    names = [f"k{index}" for index in range(len(arrays))]
    floats = measures.draw(st.lists(
        st.sampled_from([1e16, 1.0, -1e16, 0.1, 0.2, 3.5]), min_size=length, max_size=length
    ))
    columns = dict(zip(names, arrays), m=np.asarray(floats, dtype=np.float64))
    fast = ColumnarIdRelation.from_arrays((*names, "m"), columns, _TERMS, encoded=())
    slow = Relation((*names, "m"), fast.rows)
    assert dedup(fast).rows == dedup(slow).rows
    assert dedup(project(fast, names)).rows == dedup(project(slow, names)).rows
    for function in ("sum", "avg"):
        cells = [
            {row[:-1]: repr(row[-1]) for row in group_aggregate(relation, names, "m", function).rows}
            for relation in (fast, slow)
        ]
        assert cells[0] == cells[1]


# The BGP solver: column blocks against the row solver, on graphs that move.

_NODES = [EX.term(f"n{index}") for index in range(5)]
_PREDICATES = [EX.term(f"p{index}") for index in range(3)]
_TRIPLES = st.builds(
    Triple, st.sampled_from(_NODES), st.sampled_from(_PREDICATES), st.sampled_from(_NODES)
)


@st.composite
def _connected_bgps(draw):
    """2–4 patterns, each sharing a variable with the ones before it: a new
    variable (an expansion join), two bound ones (the cycle check), a
    constant end (candidate membership) or no variable at all."""
    variables, patterns = [Variable("v0")], []
    for index in range(draw(st.integers(2, 4))):
        anchor, predicate = draw(st.sampled_from(variables)), draw(st.sampled_from(_PREDICATES))
        kind = draw(st.sampled_from(["extend", "constant"] + ["cycle", "ground"] * bool(index)))
        if kind == "cycle" and len(variables) > 1:
            other = draw(st.sampled_from([variable for variable in variables if variable != anchor]))
        elif kind in ("constant", "ground"):
            other = draw(st.sampled_from(_NODES))
            anchor = draw(st.sampled_from(_NODES)) if kind == "ground" else anchor
        else:
            other = Variable(f"v{len(variables)}")
            variables.append(other)
        subject, object_ = (anchor, other) if draw(st.booleans()) else (other, anchor)
        patterns.append(TriplePattern(subject, predicate, object_))
    head = draw(st.lists(st.sampled_from(variables), min_size=1, max_size=len(variables), unique=True))
    return BGPQuery(head, patterns)


@given(
    triples=st.lists(_TRIPLES, max_size=24),
    query=_connected_bgps(),
    added=_TRIPLES,
    removed=st.integers(0, 23),
)
@settings(max_examples=150, deadline=None, print_blob=True)
def test_column_block_solver_equals_the_row_solver(triples, query, added, removed):
    """``evaluate_ids`` on either engine gives one bag, under set and bag
    semantics, and again after the graph moved under both evaluators."""
    graph = Graph()
    graph.add_all(triples)
    columnar = BGPEvaluator(graph, engine="columnar")
    rows = BGPEvaluator(graph, engine="rows")
    for step in ("before", "after"):
        for semantics in ("set", "bag"):
            fast = columnar.evaluate_ids(query, semantics=semantics)
            slow = rows.evaluate_ids(query, semantics=semantics)
            assert Counter(fast.rows) == Counter(slow.rows), (step, semantics, query)
        graph.add(added)
        if triples:
            graph.remove(triples[removed % len(triples)])
