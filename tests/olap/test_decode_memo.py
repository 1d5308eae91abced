"""The decoded cell map belongs to the ``CubeAnswer``: decoded once, never stale.

A cache entry holds its ``CubeAnswer`` and a hit hands it back, so a repeated
``execute`` decodes nothing; refresh and every rewriting build a *new*
answer, so the memo has nothing to invalidate — a refresh hands the untouched
cells of the old map on to the new answer.  These tests hold both halves:
the saving (one decode per answer, a cube fully decoded when handed over) and
the safety (no stale, aliased, racy or leaked cells).
"""

import asyncio
import gc
import sys
import threading
import weakref

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


def _cell_map(cube):
    """The cube's decoded map, read without calling any accessor."""
    return vars(cube)["_cells"]


def test_a_cube_is_fully_decoded_when_it_is_handed_over(dataset, engine):
    query = _query()
    with OLAPSession(dataset.instance.copy(), dataset.schema, engine=engine) as session:
        executed = session.execute(query)
        transformed = session.transform(query, DrillOut("d1"))
        for cube in (executed, transformed):
            assert len(_cell_map(cube)) == len(cube.answer) > 0
            assert _cell_map(cube) is vars(cube.answer)["_cells"]
            assert all(not isinstance(value, int) for key in _cell_map(cube) for value in key)


def test_a_served_cube_is_fully_decoded_when_it_is_handed_over(dataset):
    async def serve():
        async with OLAPService(dataset.instance.copy(), dataset.schema) as service:
            return await service.query("tenant", _query())

    served = asyncio.run(serve())
    assert len(_cell_map(served.cube)) == len(served.cube.answer) > 0


def test_a_hit_decodes_nothing_and_converts_nothing(dataset, engine):
    query = _query()
    with OLAPSession(dataset.instance.copy(), dataset.schema, engine=engine) as session:
        first = session.execute(query)
        dictionary = session.instance.dictionary
        decodes = []
        original = dictionary.decode
        dictionary.decode = lambda term_id: decodes.append(term_id) or original(term_id)
        before = dict(ROW_CONVERSIONS)
        try:
            hits = [session.execute(query) for _ in range(3)]
            for cube in hits:
                cube.dimension_values("d0")
                cube.get(*next(iter(cube.cells())))
        finally:
            del dictionary.decode
        assert [cube.record.strategy for cube in hits] == ["cache"] * 3
        assert decodes == []
        assert dict(ROW_CONVERSIONS) == before
        assert all(_cell_map(cube) is _cell_map(first) for cube in hits)


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
        pristine = dict(_cell_map(cube))
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
                vars(answer)["_cells"] = None  # a cold answer, as after a rewriting
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
        cells = _cell_map(cube)
        del cube
        assert answer() is not None and vars(answer())["_cells"] is cells
        del cells
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


def _fresh_cells(answer):
    """What decoding ``answer`` from nothing gives (a new, memo-less wrapper)."""
    return CubeAnswer(answer.storage, answer.dimension_columns, answer.measure_column).decoded_cells()


def test_a_refresh_carries_the_untouched_cells_and_decodes_only_the_touched(dataset, engine):
    query = _query("count")
    graph = dataset.instance.copy()
    with OLAPSession(graph, dataset.schema, engine=engine) as session:
        before = session.execute(query)
        graph.apply(add=_extra_fact("carried"))
        dictionary = graph.dictionary
        decodes = []
        original = dictionary.decode
        dictionary.decode = lambda term_id: decodes.append(term_id) or original(term_id)
        try:
            after = session.execute(query)
        finally:
            del dictionary.decode
        assert after.record.strategy == "refresh"
        carried = _cell_map(after)
        assert carried is vars(after.answer)["_cells"] and carried is not _cell_map(before)
        # Equal to decoding the patched answer from nothing — key order included.
        assert list(carried.items()) == list(_fresh_cells(after.answer).items())
        assert after.cell(*_TOUCHED) == before.cells().get(_TOUCHED, 0) + 1
        # Only the touched group was decoded: no dimension value of another cell.
        touched_ids = {dictionary.lookup(term) for term in _TOUCHED}
        foreign = {
            term_id
            for name in after.answer.dimension_columns
            for term_id in after.answer.storage.column_values(name)
        } - touched_ids
        assert len(foreign) > 4 and not foreign & set(decodes)


def test_an_answer_never_decoded_carries_nothing(dataset, engine):
    query = _query("sum")
    graph = dataset.instance.copy()
    with OLAPSession(graph, dataset.schema, engine=engine) as session:
        session.execute(query)
        entry = session.cache.peek(query, graph)
        answer = entry.materialized.answer
        cold = CubeAnswer(answer.storage, answer.dimension_columns, answer.measure_column)
        entry.materialized = type(entry.materialized)(query, cold, entry.materialized.partial)
        graph.apply(add=_extra_fact("cold"))
        refreshed = session.cache.refresh(query, graph, session.maintainer)
        assert refreshed is not None
        assert vars(refreshed.materialized.answer)["_cells"] is None
        assert vars(cold)["_cells"] is None
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
