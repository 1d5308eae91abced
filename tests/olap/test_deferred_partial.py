"""SLICE/DICE keep ``pres(Q_T)`` as a deferred σ over ``pres(Q)``.

Proposition 1 answers a SLICE/DICE from ``ans(Q)``; the ``pres(Q_T)`` the
result carries is ``σ_Σ′(pres(Q))``, run the first time its ``storage`` is
read.  These tests hold, on both engines, that an unread one shares its
parent's relation and owns no array, that a read one is the eager selection
row for row, and that every consumer reading one it did not realize itself —
a later rewriting, the ``compat`` route, a refresh, a disk write-through, a
generation change, concurrent readers, pickling, the planner — gets what the
eager selection would have given it.
"""

import asyncio
import pickle
import sys
import threading

import pytest

from repro.algebra.operators import project, select
from repro.analytics import AnalyticalQueryEvaluator
from repro.datagen.generic import GenericConfig, generic_dataset, generic_query
from repro.olap import Cube, Dice, DimensionHierarchy, DrillOut, OLAPSession, RollUp, Slice
from repro.olap.rewriting import OLAPRewriter
from repro.rdf import EX, RDF, Literal, Triple
from repro.serving import OLAPService

_CONFIG = GenericConfig(
    facts=80, dimensions=3, values_per_dimension=1.4, measures_per_fact=2.0,
    with_detail=True, seed=5,
)


@pytest.fixture(scope="module")
def dataset():
    return generic_dataset(_CONFIG)


@pytest.fixture(params=["rows", "columnar"])
def engine(request):
    if request.param == "columnar":
        pytest.importorskip("numpy")
    return request.param


def _value(dimension, index):
    return EX.term(f"dimvalue/{dimension}/{index}")


def _root():
    return generic_query(_CONFIG, aggregate="sum", include_detail_in_classifier=True, name="root")


_SLICE = Slice("d0", _value(0, 1))
_DICE = Dice({"d1": [_value(1, index) for index in range(4)]})


def _rows(relation):
    """The relation's rows in order, read column by column (either storage)."""
    return list(zip(*(relation.column_values(name) for name in relation.columns)))


def _eager(partial, *queries):
    """The σ chain over ``partial`` that SLICE/DICE ran eagerly before: one
    selection per transformed query, in turn."""
    storage = partial.storage
    for query in queries:
        storage = select(storage, query.sigma.predicate())
    return storage


def _held(partial):
    """The relation ``partial`` holds: its own, or the one its pending σ reads."""
    return vars(partial)["_state"][0]


def _pending(partial):
    """The σ passes still to run before ``partial`` exists (0 once read)."""
    return partial.row_bound()[1]


def _assert_scratch_equal(session, cube):
    assert Cube(session.evaluator.answer(cube.query), cube.query).same_cells(cube)


def _fresh_fact(tag):
    """A fact landing in the ``_SLICE`` cell, with every dimension and a detail."""
    fact = EX.term(f"fact/deferred-{tag}")
    return [
        Triple(fact, RDF.term("type"), EX.term("Fact")),
        Triple(fact, EX.term("dim0"), _value(0, 1)),
        Triple(fact, EX.term("dim1"), _value(1, 2)),
        Triple(fact, EX.term("dim2"), _value(2, 3)),
        Triple(fact, EX.measure, Literal(41)),
        Triple(fact, EX.hasDetail, EX.term("detail/1")),
    ]


# ---------------------------------------------------------------------------
# Realized: the eager selection, row for row
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("operation", [_SLICE, _DICE], ids=["slice", "dice"])
def test_a_realized_pres_is_the_eager_selection_row_for_row(dataset, engine, operation):
    evaluator = AnalyticalQueryEvaluator(dataset.instance, engine=engine)
    root = _root()
    materialized = evaluator.evaluate(root)
    transformed = operation.apply(root)
    result = OLAPRewriter(evaluator.bgp_evaluator).answer(materialized, operation, transformed)
    eager = _eager(materialized.partial, transformed)
    assert 0 < len(eager) < len(materialized.partial)
    assert _pending(result.partial)
    assert result.partial.columns == tuple(eager.columns)
    realized = result.partial.storage
    assert type(realized) is type(eager)
    assert _rows(realized) == _rows(eager)
    assert result.partial.storage is realized and result.partial.row_bound() == (len(eager), 0)
    assert Cube(evaluator.answer_from_partial(transformed, result.partial), transformed).same_cells(
        Cube(result.answer, transformed)
    )


# ---------------------------------------------------------------------------
# Unread: no array of its own
# ---------------------------------------------------------------------------


def test_an_unread_pres_shares_its_parents_relation(dataset, engine):
    """A SLICE, and a DICE of that SLICE, stored unread: both hold the root's
    ``pres`` relation itself (the DICE chains its σ on the SLICE's), so no
    column of theirs is an array of their own.  Reading one drops the
    reference."""
    root = _root()
    with OLAPSession(dataset.instance, dataset.schema, engine=engine) as session:
        session.execute(root)
        parent = session.materialized(root).partial.storage
        sliced = session.transform(root, _SLICE, strategy="rewrite")
        diced = session.transform(sliced.query, _DICE, strategy="rewrite")
        partials = [session.materialized(cube.query).partial for cube in (sliced, diced)]
        for pending, partial in enumerate(partials, start=1):
            assert _pending(partial)
            assert _held(partial) is parent
            assert partial.row_bound() == (len(parent), pending)
        diced_partial = partials[1]
        eager = _eager(session.materialized(root).partial, sliced.query, diced.query)
        assert _rows(diced_partial.storage) == _rows(eager)
        assert not _pending(diced_partial) and _held(diced_partial) is not parent
        assert _pending(partials[0])  # the chain read the root, not the SLICE


# ---------------------------------------------------------------------------
# Derived from an unrealized entry: equal to scratch
# ---------------------------------------------------------------------------


_BUCKETS = DimensionHierarchy.from_pairs(
    [(_value(0, v), EX.term(f"d0bucket/{v // 3}")) for v in range(_CONFIG.dimension_cardinality)],
    name="d0_bucket",
)


@pytest.mark.parametrize(
    "operation", [DrillOut("d2"), RollUp("d0", _BUCKETS)], ids=["drill-out", "roll-up"]
)
def test_navigating_on_from_an_unread_slice_equals_scratch(dataset, engine, operation):
    root = _root()
    with OLAPSession(dataset.instance, dataset.schema, engine=engine) as session:
        session.execute(root)
        sliced = session.transform(root, Slice("d1", _value(1, 0)), strategy="rewrite")
        assert _pending(session.materialized(sliced.query).partial)
        cube = session.transform(sliced.query, operation, strategy="rewrite")
        assert cube.record.strategy in ("rewrite[drill-out/pres]", "rewrite[roll-up/pres]")
        _assert_scratch_equal(session, cube)


def test_compat_dice_over_an_unread_slice_chains_two_deferred_sigmas(dataset, engine):
    """The DICE is answered from the cached SLICE's ``ans`` (``compat``); its
    ``pres`` is a second σ chained on the SLICE's pending one, over the root's
    relation.  Realized, it is the two eager selections; navigating on from
    it equals scratch."""
    root = _root()
    both = Dice({"d0": [_value(0, 1)], "d1": [_value(1, index) for index in range(4)]})
    with OLAPSession(dataset.instance, dataset.schema, engine=engine) as session:
        session.execute(root)
        sliced = session.transform(root, _SLICE)
        diced = session.transform(root, both)
        assert diced.record.strategy == "plan[compat[slice-dice/ans]]"
        _assert_scratch_equal(session, diced)
        partial = session.materialized(diced.query).partial
        parent = session.materialized(root).partial
        assert _pending(partial) and _held(partial) is parent.storage
        assert partial.row_bound() == (len(parent), 2)
        assert _rows(partial.storage) == _rows(_eager(parent, sliced.query, diced.query))
        assert _pending(session.materialized(sliced.query).partial)
        drilled = session.transform(diced.query, DrillOut("d2"), strategy="rewrite")
        _assert_scratch_equal(session, drilled)


def test_refresh_of_an_unread_slice_equals_scratch(dataset, engine):
    """``Graph.apply`` after the SLICE: the refresh realizes the entry's σ
    from the root relation it captured (stamped at the entry's version),
    then patches it."""
    graph = dataset.instance.copy()
    root = _root()
    with OLAPSession(graph, dataset.schema, engine=engine) as session:
        session.execute(root)
        sliced = session.transform(root, _SLICE)
        graph.apply(add=_fresh_fact("refresh"))
        stale, _ = session.cache.stale_entry(sliced.query, graph)
        assert _pending(stale.materialized.partial)
        refreshed = session.cache.refresh(sliced.query, graph, session.planner.maintainer)
        assert refreshed is stale and not _pending(stale.materialized.partial)
        cube = session.execute(sliced.query)
        assert cube.record.strategy == "cache"
        _assert_scratch_equal(session, cube)
        partial = stale.materialized.partial
        scratch = session.evaluator.partial_result(sliced.query)
        keyless = [name for name in partial.columns if name != partial.key_column]
        assert project(partial.storage.materialize(), keyless).bag_equal(
            project(scratch.storage.materialize(), keyless)
        )


def test_write_through_and_reload_of_a_slice_equal_scratch(dataset, engine, tmp_path):
    root = _root()
    store = str(tmp_path / "cache")
    with OLAPSession(dataset.instance, dataset.schema, engine=engine, cache_dir=store) as session:
        session.execute(root)
        expected = _eager(session.materialized(root).partial, _SLICE.apply(root))
        sliced = session.transform(root, _SLICE)
    with OLAPSession(dataset.instance, dataset.schema, engine=engine, cache_dir=store) as warm:
        cube = warm.execute(sliced.query)
        assert cube.record.strategy == "cache[disk]"
        _assert_scratch_equal(warm, cube)
        reloaded = warm.materialized(sliced.query).partial
        assert _rows(reloaded.storage) == _rows(expected)
        _assert_scratch_equal(warm, warm.transform(sliced.query, DrillOut("d2"), strategy="rewrite"))


def test_an_unread_slice_crosses_a_publish_deferred(dataset, engine):
    """Across an ``OLAPService`` publish a tenant's entries move to the new
    generation's dictionary (``with_dictionary``): the SLICE's σ stays
    pending over the root's view there, and refreshing the carried entry on
    the new generation equals scratch on it."""
    root = _root()

    async def main():
        async with OLAPService(dataset.instance.copy(), dataset.schema, engine=engine) as service:
            await service.query("t", root)
            sliced = service.tenant("t").sessions[service.current_version].transform(root, _SLICE)
            await service.update(add=_fresh_fact("publish"))
            await service.query("t", root)  # the new generation's session adopts the entries
            session = service.tenant("t").sessions[service.current_version]
            (carried,) = [
                entry for entry in session.cache.entries() if entry.key == sliced.query.canonical_key
            ]
            partial = carried.materialized.partial
            assert _pending(partial)
            assert _held(partial).dictionary is session.instance.dictionary
            refreshed = session.cache.refresh(sliced.query, session.instance, session.planner.maintainer)
            assert refreshed is carried and partial.storage.dictionary is session.instance.dictionary
            result = await service.query("t", sliced.query)
            assert result.strategy == "cache"
            oracle = AnalyticalQueryEvaluator(result.generation.graph).answer(sliced.query)
            assert result.cube.same_cells(Cube(oracle, sliced.query))

    asyncio.run(main())


# ---------------------------------------------------------------------------
# Readers: threads, pickling, the planner
# ---------------------------------------------------------------------------


def test_eight_threads_reading_one_unread_pres_get_equal_relations(dataset, engine):
    """Eight threads (more than the cores) released at once onto one unread
    partial, switching threads as often as the interpreter allows: each gets
    the eager selection, whichever thread's σ is the one kept."""
    evaluator = AnalyticalQueryEvaluator(dataset.instance, engine=engine)
    root = _root()
    materialized = evaluator.evaluate(root)
    partial = OLAPRewriter(evaluator.bgp_evaluator).answer(materialized, _SLICE).partial
    expected = _rows(_eager(materialized.partial, _SLICE.apply(root)))
    barrier = threading.Barrier(8, timeout=30)
    seen = [None] * 8

    def read(index):
        barrier.wait()
        seen[index] = _rows(partial.storage)

    threads = [threading.Thread(target=read, args=(index,)) for index in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert seen == [expected] * 8
    assert not _pending(partial) and _rows(partial.storage) == expected


def test_an_unread_pres_pickles_unread(dataset, engine):
    evaluator = AnalyticalQueryEvaluator(dataset.instance, engine=engine)
    root = _root()
    materialized = evaluator.evaluate(root)
    partial = OLAPRewriter(evaluator.bgp_evaluator).answer(materialized, _DICE).partial
    clone = pickle.loads(pickle.dumps(partial))
    assert _pending(clone) and _pending(partial)
    assert clone.row_bound() == partial.row_bound()
    assert _rows(clone.storage) == _rows(partial.storage)


def test_the_planner_prices_an_unread_pres_without_realizing_it(dataset, engine):
    """A DRILL-OUT from an unread SLICE is priced at the root's row count plus
    one σ pass over it, and planning leaves the σ pending."""
    root = _root()
    with OLAPSession(dataset.instance, dataset.schema, engine=engine) as session:
        session.execute(root)
        sliced = session.transform(root, _SLICE)
        origin = session.materialized(sliced.query)
        operation = DrillOut("d2")
        planner = session.planner
        plan = planner.plan(
            sliced.query, operation, operation.apply(sliced.query), origin, families=("rewrite",)
        )
        assert _pending(origin.partial)
        rows = len(session.materialized(root).partial)
        (candidate,) = plan.candidates
        assert candidate.input_rows == rows
        deferred_cost = candidate.cost
        origin.partial.storage  # realize: the same plan, priced at the selected rows
        realized = planner.plan(
            sliced.query, operation, operation.apply(sliced.query), origin, families=("rewrite",)
        ).chosen
        assert realized.input_rows == len(origin.partial) < rows
        assert deferred_cost - realized.cost == pytest.approx(
            (rows - realized.input_rows) * planner.cost_model.group_row_cost
            + rows * planner.cost_model.select_row_cost
        )


def test_a_stale_unread_pres_prices_its_refresh_scan_at_the_rows_sigma_keeps(dataset, engine):
    """Refreshing a stale unread SLICE realizes its σ (one pass over the root's
    rows, priced as such) and then scans only the rows σ kept: the scan is
    priced at the root's rows times the slice's selectivity, a tenth for one
    value, not at the root's rows."""
    graph = dataset.instance.copy()
    root = _root()
    with OLAPSession(graph, dataset.schema, engine=engine) as session:
        session.execute(root)
        rows = len(session.materialized(root).partial)
        sliced = session.transform(root, _SLICE)
        graph.add(Triple(EX.term("unrelated"), EX.term("nothing"), Literal(1)))
        model = session.planner.cost_model

        def refresh_cost():
            plan = session.planner.plan_query(sliced.query)
            return next(c.cost for c in plan.candidates if c.strategy == "refresh-cached")

        deferred_cost = refresh_cost()
        partial = session.cache.stale_entry(sliced.query, graph)[0].materialized.partial
        assert _pending(partial) and partial.row_bound()[0] == rows
        partial.storage  # realize: the same entry, its scan priced at the kept rows
        kept = len(partial)
        assert kept < rows
        assert deferred_cost - refresh_cost() == pytest.approx(
            rows * model.select_row_cost + (rows * 0.1 - kept) * model.pres_scan_cost
        )
