"""The decoded forms belong to the ``CubeAnswer``: decoded once, never stale.

A cube is handed over with its answer's decoded *columns*; the keyed cell
map is built from them on the first keyed lookup.  A cache entry holds its
``CubeAnswer`` and a hit hands it back, so a repeated ``execute`` decodes
nothing; refresh and every rewriting build a *new* answer, so the memos have
nothing to invalidate — a refresh hands the untouched decoded cells of the
old answer on to the new one.  These tests hold both halves: the saving (one
decode per answer, a cube's columns decoded when handed over, no map until a
keyed lookup) and the safety (no stale, aliased, racy or leaked cells).
"""

import asyncio
import gc
import sys
import threading
import weakref
from contextlib import contextmanager

import pytest

from repro.algebra.columnar import ROW_CONVERSIONS
from repro.analytics import AnalyticalQueryEvaluator
from repro.analytics.answer import CubeAnswer
from repro.datagen.generic import GenericConfig, generic_dataset, generic_query
from repro.ingest import RefreshScheduler, StreamIngestor
from repro.olap import Cube, DrillOut, OLAPSession, Slice
from repro.olap.parallel import ParallelExecutor
from repro.rdf import EX, RDF, Literal, Triple
from repro.serving import OLAPService

_CONFIG = GenericConfig(facts=80, dimensions=2, measures_per_fact=2.0, seed=21)


@pytest.fixture(scope="module")
def dataset():
    return generic_dataset(_CONFIG)


@pytest.fixture(params=["rows", "columnar"])
def engine(request):
    if request.param == "columnar":
        pytest.importorskip("numpy")
    return request.param


def _query(aggregate="sum"):
    return generic_query(_CONFIG, aggregate=aggregate, name=f"memo_{aggregate}")


def _columns(cube):
    """The cube's decoded columns, read without calling any accessor."""
    return vars(cube)["_columns"]


def _cell_map(cube):
    """The keyed cell map of the cube's answer (None until a keyed lookup),
    read without calling any accessor."""
    return vars(cube.answer)["_cells"]


@contextmanager
def _decoded_ids(dictionary):
    """The ids ``dictionary`` decodes meanwhile, one by one or gathered."""
    ids = []
    decode, gather = dictionary.decode, dictionary.decode_many
    dictionary.decode = lambda term_id: ids.append(term_id) or decode(term_id)
    dictionary.decode_many = lambda column: ids.extend(column.tolist()) or gather(column)
    try:
        yield ids
    finally:
        del dictionary.decode, dictionary.decode_many


def test_a_cube_is_fully_decoded_when_it_is_handed_over(dataset, engine):
    query = _query()
    with OLAPSession(dataset.instance.copy(), dataset.schema, engine=engine) as session:
        executed = session.execute(query)
        transformed = session.transform(query, DrillOut("d1"))
        for cube in (executed, transformed):
            assert len(_columns(cube)[-1]) == len(cube.answer) > 0
            assert _columns(cube) is vars(cube.answer)["_columns"]
            assert all(not isinstance(value, int) for column in _columns(cube)[:-1] for value in column)


def test_a_served_cube_is_fully_decoded_when_it_is_handed_over(dataset):
    async def serve():
        async with OLAPService(dataset.instance.copy(), dataset.schema) as service:
            return await service.query("tenant", _query())

    served = asyncio.run(serve())
    assert len(_columns(served.cube)[-1]) == len(served.cube.answer) > 0


def test_a_hit_decodes_nothing_and_converts_nothing(dataset, engine):
    query = _query()
    with OLAPSession(dataset.instance.copy(), dataset.schema, engine=engine) as session:
        first = session.execute(query)
        before = dict(ROW_CONVERSIONS)
        with _decoded_ids(session.instance.dictionary) as decodes:
            hits = [session.execute(query) for _ in range(3)]
            for cube in hits:
                cube.dimension_values("d0")
                cube.get(*next(iter(cube.cells())))
        assert [cube.record.strategy for cube in hits] == ["cache"] * 3
        assert decodes == []
        assert dict(ROW_CONVERSIONS) == before
        assert all(_columns(cube) is _columns(first) for cube in hits)


def test_the_refreshed_entry_serves_the_refreshed_cells(dataset, engine):
    """execute → ingest + pump → execute: the patched entry carries a new
    ``CubeAnswer``, so the memo of the old one cannot be what is served."""
    query = _query("count")
    graph = dataset.instance.copy()
    with OLAPSession(graph, dataset.schema, engine=engine) as session:
        before = session.execute(query)
        stale_cells = dict(before.cells())  # a snapshot: cells() is a live view
        session.execute(query)
        session.execute(query)  # hot: the scheduler patches it after the batch
        ingestor = StreamIngestor(
            graph, batch_size=4, scheduler=RefreshScheduler([session])
        )
        fact = EX.term("fact/memo-extra")
        ingestor.ingest(add=[
            Triple(fact, RDF.term("type"), EX.term("Fact")),
            Triple(fact, EX.term("dim0"), EX.term("dimvalue/0/0")),
            Triple(fact, EX.term("dim1"), EX.term("dimvalue/1/1")),
            Triple(fact, EX.term("measure"), Literal(7)),
        ])
        assert ingestor.pump() is not None
        after = session.execute(query)
        assert after.record.strategy in ("cache", "refresh")
        assert after.answer is not before.answer
        oracle = Cube(AnalyticalQueryEvaluator(graph, engine=engine).answer(query), query)
        assert after.same_cells(oracle)
        key = (EX.term("dimvalue/0/0"), EX.term("dimvalue/1/1"))
        assert after.cell(*key) == stale_cells.get(key, 0) + 1
        assert before.cells() == stale_cells  # the old cube still reads its own version


def test_cells_is_a_read_only_view_of_the_shared_map(dataset):
    """``cells()`` copies nothing and cannot be written through: the map is
    the answer's, shared by this cube and the next hit."""
    query = _query()
    with OLAPSession(dataset.instance.copy(), dataset.schema) as session:
        cube = session.execute(query)
        pristine = dict(cube)
        handed_out = cube.cells()
        with pytest.raises(TypeError):
            handed_out[("bogus",)] = -1
        with pytest.raises(AttributeError):
            handed_out.clear()
        assert handed_out == pristine
        hit = session.execute(query)
        assert hit.record.strategy == "cache"
        assert hit.cells() == pristine
        assert hit.cells() == cube.cells() and _cell_map(hit) is _cell_map(cube)


def test_two_threads_building_cubes_over_one_cached_answer_agree(dataset):
    query = _query()
    with OLAPSession(dataset.instance.copy(), dataset.schema) as session:
        expected = session.execute(query).cells()
        answer = session.materialized(query).answer
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                vars(answer)["_columns"] = vars(answer)["_cells"] = None  # a cold answer, as after a rewriting
                barrier = threading.Barrier(4)
                cubes = []

                def build():
                    barrier.wait(timeout=10)
                    cubes.append(Cube(answer, query))

                threads = [threading.Thread(target=build) for _ in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                assert not any(thread.is_alive() for thread in threads)
                assert len(cubes) == 4
                assert all(cube.cells() == expected for cube in cubes)
        finally:
            sys.setswitchinterval(interval)


@pytest.mark.parametrize("drop", ["forget", "evict"])
def test_the_decoded_map_goes_away_with_its_entry(dataset, drop):
    query = _query()
    other = Slice("d0", EX.term("dimvalue/0/0")).apply(query)
    with OLAPSession(dataset.instance.copy(), dataset.schema, cache_capacity=1) as session:
        cube = session.execute(query)
        answer = weakref.ref(cube.answer)
        columns = _columns(cube)
        del cube
        assert answer() is not None and vars(answer())["_columns"] is columns
        del columns
        if drop == "forget":
            session.forget(query)
        else:
            session.execute(other)  # capacity 1: evicts the first entry
        gc.collect()
        assert answer() is None


# ---------------------------------------------------------------------------
# A delta refresh carries the decoded cells over to the patched answer
# ---------------------------------------------------------------------------

_TOUCHED = (EX.term("dimvalue/0/0"), EX.term("dimvalue/1/1"))


def _extra_fact(tag):
    fact = EX.term(f"fact/memo-{tag}")
    return [
        Triple(fact, RDF.term("type"), EX.term("Fact")),
        Triple(fact, EX.term("dim0"), _TOUCHED[0]),
        Triple(fact, EX.term("dim1"), _TOUCHED[1]),
        Triple(fact, EX.term("measure"), Literal(7)),
    ]


def _fresh(answer):
    """A new, memo-less wrapper of ``answer``'s storage: what decoding it from nothing gives."""
    return CubeAnswer(answer.storage, answer.dimension_columns, answer.measure_column)


def _fresh_cells(answer):
    return _fresh(answer).decoded_cells()


def test_a_refresh_carries_the_untouched_cells_and_decodes_only_the_touched(dataset, engine):
    query = _query("count")
    graph = dataset.instance.copy()
    with OLAPSession(graph, dataset.schema, engine=engine) as session:
        before = session.execute(query)
        graph.apply(add=_extra_fact("carried"))
        dictionary = graph.dictionary
        with _decoded_ids(dictionary) as decodes:
            after = session.execute(query)
        assert after.record.strategy == "refresh"
        carried = _columns(after)
        assert carried is vars(after.answer)["_columns"] and carried is not _columns(before)
        assert _cell_map(after) is None  # the old answer had no map: none is carried
        # Equal to decoding the patched answer from nothing — row order included.
        assert list(map(list, carried)) == list(map(list, _fresh(after.answer).decoded_columns()))
        assert after.cell(*_TOUCHED) == before.cells().get(_TOUCHED, 0) + 1
        # Only the touched group was decoded: no dimension value of another cell.
        touched_ids = {dictionary.lookup(term) for term in _TOUCHED}
        foreign = {
            term_id
            for name in after.answer.dimension_columns
            for term_id in after.answer.storage.column_values(name)
        } - touched_ids
        assert len(foreign) > 4 and decodes and not foreign & set(decodes)


def test_an_answer_never_decoded_carries_nothing(dataset, engine):
    query = _query("sum")
    graph = dataset.instance.copy()
    with OLAPSession(graph, dataset.schema, engine=engine) as session:
        session.execute(query)
        (entry,) = session.cache.entries()
        answer = entry.materialized.answer
        cold = CubeAnswer(answer.storage, answer.dimension_columns, answer.measure_column)
        entry.materialized = type(entry.materialized)(query, cold, entry.materialized.partial)
        graph.apply(add=_extra_fact("cold"))
        refreshed = session.cache.refresh(query, graph, session.planner.maintainer)
        assert refreshed is not None
        assert vars(refreshed.materialized.answer)["_columns"] is None
        assert vars(cold)["_columns"] is None
        oracle = Cube(AnalyticalQueryEvaluator(graph, engine=engine).answer(query), query)
        assert session.execute(query).same_cells(oracle)


def test_a_refresh_that_empties_a_group_drops_its_cell(dataset, engine):
    query = _query("count")
    graph = dataset.instance.copy()
    lonely = (EX.term("dimvalue/0/lonely"), EX.term("dimvalue/1/lonely"))
    fact = EX.term("fact/memo-lonely")
    membership = Triple(fact, EX.term("dim0"), lonely[0])
    graph.apply(add=[
        Triple(fact, RDF.term("type"), EX.term("Fact")),
        membership,
        Triple(fact, EX.term("dim1"), lonely[1]),
        Triple(fact, EX.term("measure"), Literal(3)),
    ])
    with OLAPSession(graph, dataset.schema, engine=engine) as session:
        before = session.execute(query)
        assert before.cell(*lonely) == 1
        graph.apply(remove=[membership])
        after = session.execute(query)
        assert after.record.strategy == "refresh"
        carried = _cell_map(after)
        assert lonely not in carried and len(carried) == len(before) - 1
        assert list(carried.items()) == list(_fresh_cells(after.answer).items())
        assert lonely in _cell_map(before)


@pytest.mark.parametrize("keyed", [False, True], ids=["columns-only", "map-built"])
def test_a_refresh_that_empties_a_group_decodes_none_of_its_ids(dataset, engine, keyed):
    """The replaced rows leave the carried columns (and map) by position:
    the emptied cell's ids are never decoded, with or without a built map."""
    query = _query("count")
    graph = dataset.instance.copy()
    lonely = (EX.term("dimvalue/0/lonely-ids"), EX.term("dimvalue/1/lonely-ids"))
    fact = EX.term("fact/memo-lonely-ids")
    membership = Triple(fact, EX.term("dim0"), lonely[0])
    graph.apply(add=[
        Triple(fact, RDF.term("type"), EX.term("Fact")),
        membership,
        Triple(fact, EX.term("dim1"), lonely[1]),
        Triple(fact, EX.term("measure"), Literal(3)),
    ])
    lonely_ids = {graph.dictionary.lookup(term) for term in lonely}
    with OLAPSession(graph, dataset.schema, engine=engine) as session:
        before = session.execute(query)
        if keyed:
            before.cells()
        graph.apply(remove=[membership])
        with _decoded_ids(graph.dictionary) as decodes:
            after = session.execute(query)
        assert after.record.strategy == "refresh"
        assert lonely not in dict(after) and len(after) == len(before) - 1
        assert (_cell_map(after) is not None) == keyed
        assert not lonely_ids & set(decodes)


# ---------------------------------------------------------------------------
# The keyed cell map is built on the first keyed lookup
# ---------------------------------------------------------------------------


def _map_builds(monkeypatch):
    """The list each ``CubeAnswer.iter_cells`` call (what a map build reads) appends its answer to."""
    builds = []
    iterate = CubeAnswer.iter_cells
    monkeypatch.setattr(CubeAnswer, "iter_cells", lambda answer: builds.append(answer) or iterate(answer))
    return builds


def test_execute_with_the_cache_off_and_transform_build_no_cell_map(dataset, engine, monkeypatch):
    query = _query()
    builds = _map_builds(monkeypatch)
    with OLAPSession(dataset.instance.copy(), dataset.schema, engine=engine, cache_capacity=0) as session:
        executed = session.execute(query)
    with OLAPSession(dataset.instance.copy(), dataset.schema, engine=engine) as session:
        session.execute(query)
        transformed = session.transform(query, DrillOut("d1"))
    assert executed.record.strategy == "scratch"
    assert transformed.record.strategy.startswith("plan[rewrite")
    assert builds == []
    for cube in (executed, transformed):
        assert cube.answer.decoded and len(_columns(cube)[-1]) == len(cube.answer) > 0
        assert _cell_map(cube) is None


@pytest.mark.parametrize("lookup", ["cells", "cell", "get"])
def test_the_first_keyed_lookup_builds_the_map_once_and_later_cubes_share_it(
    dataset, engine, lookup, monkeypatch
):
    query = _query()
    with OLAPSession(dataset.instance.copy(), dataset.schema, engine=engine) as session:
        cube = session.execute(query)
        key, measure = next(iter(cube))
        builds = _map_builds(monkeypatch)
        read = {
            "cells": lambda c: c.cells()[key],
            "cell": lambda c: c.cell(*key),
            "get": lambda c: c.get(*key),
        }
        assert read[lookup](cube) == measure
        assert builds == [cube.answer]
        built = _cell_map(cube)
        hits = [session.execute(query) for _ in range(3)]
        assert [hit.record.strategy for hit in hits] == ["cache"] * 3
        for each in (cube, *hits):
            assert each.cells()[key] == each.cell(*key) == each.get(*key) == measure
            assert _cell_map(each) is built
        assert builds == [cube.answer]


def test_length_order_and_dimension_values_read_the_columns_as_the_map_gives_them(dataset, engine):
    query = _query()
    with OLAPSession(dataset.instance.copy(), dataset.schema, engine=engine) as session:
        for cube in (session.execute(query), session.transform(query, DrillOut("d1"))):
            pairs = list(cube)
            values = {name: cube.dimension_values(name) for name in cube.dimensions}
            assert len(cube) == len(pairs) > 0 and _cell_map(cube) is None
            cells = cube.cells()
            assert pairs == list(cells.items()) and len(cube) == len(cells)
            for index, name in enumerate(cube.dimensions):
                assert values[name] == {key[index] for key in cells}


def test_four_threads_racing_the_first_keyed_lookup_agree(dataset, engine):
    query = _query()
    with OLAPSession(dataset.instance.copy(), dataset.schema, engine=engine) as session:
        expected = list(session.execute(query))
        answer = session.materialized(query).answer
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                vars(answer)["_cells"] = None  # the columns in hand, no map yet
                cube = Cube(answer, query)
                barrier = threading.Barrier(4)
                maps = []

                def look():
                    barrier.wait(timeout=10)
                    maps.append(cube.cells())

                threads = [threading.Thread(target=look) for _ in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                assert not any(thread.is_alive() for thread in threads)
                assert len(maps) == 4
                assert all(list(cells.items()) == expected for cells in maps)
                assert list(vars(answer)["_cells"].items()) == expected
        finally:
            sys.setswitchinterval(interval)


@pytest.mark.parametrize("keyed", [False, True], ids=["columns-only", "map-built"])
def test_a_refreshed_one_dimension_cube_reads_as_a_fresh_decode(dataset, engine, keyed):
    """On the columnar engine a one-dimension ``ans`` is ordered by its
    column, so the regrouped cell goes back in place, not last: the carried
    columns follow it there."""
    query = _query("count")
    graph = dataset.instance.copy()
    with OLAPSession(graph, dataset.schema, engine=engine) as session:
        session.execute(query)
        before = session.transform(query, DrillOut("d1"))
        if keyed:
            before.cells()
        graph.apply(add=_extra_fact("one-dimension"))
        after = session.execute(before.query)
        assert after.record.strategy == "refresh"
        fresh = Cube(_fresh(after.answer), before.query)
        assert list(after) == list(fresh)
        assert list(map(list, _columns(after))) == list(map(list, _columns(fresh)))
        assert (_cell_map(after) is not None) == keyed
        assert after.cells() == fresh.cells()
        assert after.cell(_TOUCHED[0]) == before.cell(_TOUCHED[0]) + 1


# ---------------------------------------------------------------------------
# A term id is converted to its comparable value once per dictionary
# ---------------------------------------------------------------------------


def _conversions(monkeypatch):
    """The list each ``Literal.to_python`` call appends its literal to."""
    calls = []
    convert = Literal.to_python
    monkeypatch.setattr(Literal, "to_python", lambda literal: calls.append(literal) or convert(literal))
    return calls


def _second_round(calls, run):
    """The conversions of a second ``run`` after a first that made some."""
    run()
    first = len(calls)
    assert first > 0
    run()
    return calls[first:]


def _sum_and_count_distinct(session):
    def run():
        for aggregate in ("sum", "count_distinct"):
            session.execute(_query(aggregate))

    return run


def test_an_id_is_converted_once_per_dictionary(dataset, engine, monkeypatch):
    """With the cache off every ``execute`` evaluates again, yet the second
    round converts no literal: γ and count_distinct's finalize read
    ``TermDictionary.value``, which the dictionary keeps."""
    calls = _conversions(monkeypatch)
    graph = dataset.instance.copy()
    with OLAPSession(graph, dataset.schema, engine=engine, cache_capacity=0) as session:
        assert _second_round(calls, _sum_and_count_distinct(session)) == []


def test_an_id_is_converted_once_per_snapshot_dictionary(dataset, tmp_path, monkeypatch):
    pytest.importorskip("numpy")
    from repro.storage import save_snapshot

    path = str(tmp_path / "instance.snap")
    save_snapshot(dataset.instance.copy(), path)
    calls = _conversions(monkeypatch)
    with OLAPSession(snapshot=path, schema=dataset.schema, cache_capacity=0) as session:
        assert _second_round(calls, _sum_and_count_distinct(session)) == []


def test_the_shard_merge_converts_an_id_once(dataset, engine, monkeypatch):
    """count_distinct's merge finalize reads the dictionary's values too."""
    calls = _conversions(monkeypatch)
    evaluator = AnalyticalQueryEvaluator(dataset.instance.copy(), engine=engine)
    with ParallelExecutor(evaluator, workers=1, shard_count=3) as executor:
        query = _query("count_distinct")
        assert _second_round(calls, lambda: executor.evaluate(query)) == []
