"""Cache lineage across MVCC generations: a publish is not a cold start.

A tenant's new per-generation session adopts its predecessor's cache entries
stale-stamped — from the tenant's newest older live session, or from what a
retired one bequeathed — and the generation's graph carries the writer's
change-log tail, so the first read of each cube after a publish is a delta
refresh.  The differential oracle here holds the contract under seeded
interleavings of reads and every kind of write, in both publish modes and on
both engines: every served cube equals scratch evaluation on the generation it
was served from, a stale stamp is never served, and no retired generation
stays reachable through what was carried over.
"""

import asyncio
import gc
import os
import random
import threading
import weakref

import pytest

from repro.algebra.columnar import ROW_CONVERSIONS, ColumnarIdRelation
from repro.datagen.generic import GenericConfig, generic_dataset, generic_query
from repro.olap import Dice, DimensionHierarchy, DrillIn, RollUp
from repro.rdf import EX, RDF, Graph, Literal, Triple
from repro.serving import OLAPService
from repro.serving.generations import resolve_publish_mode

from tests.serving.conftest import scratch_cube

_CONFIG = GenericConfig(
    facts=70, dimensions=3, values_per_dimension=1.4, measures_per_fact=2.0,
    with_detail=True, seed=7,
)
_TENANTS = ("tenant-a", "tenant-b")


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


def _cubes():
    """The three ``served_variants``-shaped cubes (small with a Σ, medium,
    large with a drilled-in dimension) and a rolled-up one."""
    detailed = generic_query(_CONFIG, aggregate="avg", include_detail_in_classifier=True, name="avg_detail")
    buckets = DimensionHierarchy.from_pairs(
        [(_value(0, v), EX.term(f"d0bucket/{v // 3}")) for v in range(_CONFIG.dimension_cardinality)],
        name="d0_bucket",
    )
    return [
        Dice({"d0": [_value(0, v) for v in range(6)]}).apply(
            generic_query(_CONFIG, aggregate="count", name="s_count")
        ),
        generic_query(_CONFIG, aggregate="sum", include_detail_in_classifier=True, name="s_sum_detail"),
        DrillIn("da").apply(detailed),
        RollUp("d0", buckets).apply(generic_query(_CONFIG, aggregate="sum", name="r_sum")),
    ]


def _fact(tag, rng=None):
    """One fresh fact with every dimension, two measures and a detail (7 triples)."""
    rng = rng or random.Random(tag)
    fact = EX.term(f"fact/lineage-{tag}")
    return [
        Triple(fact, RDF.term("type"), EX.term("Fact")),
        *[
            Triple(fact, EX.term(f"dim{d}"), _value(d, rng.randrange(_CONFIG.dimension_cardinality)))
            for d in range(3)
        ],
        Triple(fact, EX.measure, Literal(rng.randrange(1, 50))),
        Triple(fact, EX.measure, Literal(rng.randrange(50, 99))),
        Triple(fact, EX.hasDetail, EX.term(f"detail/{rng.randrange(_CONFIG.detail_cardinality)}")),
    ]


def _service(dataset, publish_mode, engine, instance=None, **options):
    return OLAPService(
        instance if instance is not None else dataset.instance.copy(),
        dataset.schema,
        publish_mode=publish_mode,
        engine=engine,
        **options,
    )


def _decoded_columns(cube):
    """The cube's decoded columns, read without calling any accessor."""
    return vars(cube)["_columns"]


def _assert_served_right(result):
    assert result.generation.graph.version == result.graph_version
    oracle = scratch_cube(result.generation.graph, result.query)
    assert result.cube.same_cells(oracle), (
        f"{result.query.name} served by {result.strategy} at v{result.graph_version} "
        f"differs from scratch on its generation"
    )
    assert len(_decoded_columns(result.cube)[-1]) == len(oracle)


def _session(service, tenant):
    return service.tenant(tenant).sessions[service.current_version]


# ---------------------------------------------------------------------------
# The differential oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("pin_reader", [False, True], ids=["drained", "reader-pinned"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_cube_equals_scratch_on_its_generation(dataset, publish_mode, engine, seed, pin_reader):
    """Seeded interleavings of reads (2 tenants × 4 cubes) and writes — add,
    remove, ``mutate``, an unpublished batch followed by a publishing one —
    with or without a reader pinned on the superseded generation across each
    publish (the heir then adopts from a live session instead of a bequest)."""
    rng = random.Random(seed)
    cubes = _cubes()
    steps = ["query"] * 6 + ["add", "remove", "mutate", "deferred"]

    async def main():
        async with _service(dataset, publish_mode, engine) as service:
            manager = service.generations
            last_read = {}  # (tenant, cube index) -> generation version it was read at
            strategies = []
            added = []
            held = None
            for step in range(60):
                kind = rng.choice(steps)
                if kind == "query":
                    tenant, index = rng.choice(_TENANTS), rng.randrange(len(cubes))
                    result = await service.query(tenant, cubes[index])
                    _assert_served_right(result)
                    served_fresh = last_read.get((tenant, index)) == result.graph_version
                    # A stale stamp is never served; a fresh one always is.
                    assert (result.strategy == "cache") == served_fresh, (step, result.strategy)
                    if (tenant, index) in last_read and not served_fresh:
                        expected = ("scratch",) if cubes[index].rollup else ("refresh", "scratch")
                        assert result.strategy in expected, (step, result.strategy)
                    last_read[(tenant, index)] = result.graph_version
                    strategies.append(result.strategy)
                    continue
                if pin_reader and held is None:
                    held = manager.pin_current()
                if kind == "add":
                    batch = _fact(f"{seed}-{step}", rng)
                    added.append(batch)
                    await service.update(add=batch)
                elif kind == "remove" and added:
                    await service.update(remove=added.pop(rng.randrange(len(added)))[1:4])
                elif kind == "mutate":
                    batch = _fact(f"{seed}-{step}-m", rng)

                    def mutate(writer, batch=batch):
                        writer.add_all(batch)
                        writer.remove(batch[-1])

                    await service.update(mutate=mutate)
                elif kind == "deferred":
                    before = service.current_version
                    unpublished = await service.update(add=_fact(f"{seed}-{step}-d", rng), publish=False)
                    assert not unpublished.published and service.current_version == before
                    await service.update(add=_fact(f"{seed}-{step}-p", rng))
                if held is not None and rng.random() < 0.5:
                    manager.unpin(held)
                    held = None
            if held is not None:
                manager.unpin(held)
            assert manager.live_generations() == [manager.current]
            assert strategies.count("refresh") >= 5, strategies

    asyncio.run(main())


# ---------------------------------------------------------------------------
# The first read after a publish
# ---------------------------------------------------------------------------


def test_the_first_read_of_an_adopted_cube_is_a_refresh_and_fully_decoded(
    dataset, publish_mode, engine
):
    cubes = _cubes()[:3]

    async def main():
        async with _service(dataset, publish_mode, engine) as service:
            for cube in cubes:
                await service.query("tenant-a", cube)
            retired = service.generations.current.graph.dictionary
            await service.update(add=_fact("first-read"))
            splices = ROW_CONVERSIONS["refresh:splice"]
            for cube in cubes:
                result = await service.query("tenant-a", cube)
                assert result.strategy == "refresh"
                _assert_served_right(result)
                again = await service.query("tenant-a", cube)
                assert again.strategy == "cache"
                assert _decoded_columns(again.cube) is _decoded_columns(result.cube)
            assert ROW_CONVERSIONS["refresh:splice"] == splices == 0
            session = _session(service, "tenant-a")
            current = service.generations.current.graph.dictionary
            assert current is not retired
            for entry in session.cache.entries():
                for storage in (entry.materialized.partial.storage, entry.materialized.answer.storage):
                    assert storage.dictionary is current
                pres = entry.materialized.partial.storage
                assert isinstance(pres, ColumnarIdRelation) == (engine == "columnar")

    asyncio.run(main())


def test_auto_publish_mode_adopts_whichever_mode_it_resolves_to(dataset):
    """Without numpy ``auto`` is heap publish: the same adoption path."""
    cube = _cubes()[1]

    async def main():
        async with _service(dataset, "auto", None) as service:
            assert service.generations.mode == resolve_publish_mode("auto")
            await service.query("tenant-a", cube)
            await service.update(add=_fact("auto"))
            result = await service.query("tenant-a", cube)
            assert result.strategy == "refresh"
            _assert_served_right(result)

    asyncio.run(main())


@pytest.mark.parametrize("how", ["log-disabled", "log-overflow", "rolled-up"])
def test_what_cannot_be_brought_forward_is_recomputed(dataset, publish_mode, engine, how):
    """No adoption without a delta: ``change_log_limit=0``, a batch larger
    than the log window, and rolled-up cubes (their derived ids belong to the
    old dictionary; they are never patched) start cold, as before."""
    writer = Graph(change_log_limit=0 if how == "log-disabled" else 4096)
    writer.add_all(dataset.instance)
    cube = _cubes()[3 if how == "rolled-up" else 1]

    def flood(graph):
        graph.add_all(
            Triple(EX.term(f"noise/{index}"), EX.term("unrelated"), Literal(index))
            for index in range(4100)
        )

    async def main():
        async with _service(dataset, publish_mode, engine, instance=writer) as service:
            await service.query("tenant-a", cube)
            if how == "log-overflow":
                await service.update(add=_fact(how), mutate=flood)
            else:
                await service.update(add=_fact(how))
            result = await service.query("tenant-a", cube)
            assert result.strategy == "scratch"
            _assert_served_right(result)
            assert (await service.query("tenant-a", cube)).strategy == "cache"
            if how != "rolled-up":
                assert service.tenant("tenant-a").bequest is None

    asyncio.run(main())


def test_a_delta_that_misses_the_query_restamps_and_decodes_nothing(dataset, publish_mode, engine):
    cubes = _cubes()[:3]

    async def main():
        async with _service(dataset, publish_mode, engine) as service:
            first = [await service.query("tenant-a", cube) for cube in cubes]
            await service.update(
                add=[Triple(EX.term("noise/0"), EX.term("unrelated"), Literal(0))]
            )
            decoded = ROW_CONVERSIONS["decode:ans"]
            for cube, before in zip(cubes, first):
                result = await service.query("tenant-a", cube)
                assert result.strategy == "refresh"
                assert result.graph_version == before.graph_version + 1
                assert _decoded_columns(result.cube) is _decoded_columns(before.cube)
                _assert_served_right(result)
            assert ROW_CONVERSIONS["decode:ans"] == decoded

    asyncio.run(main())


@pytest.mark.parametrize("pin_reader", [False, True], ids=["bequest", "live-predecessor"])
def test_pins_survive_adoption(dataset, publish_mode, pin_reader):
    pinned, other = _cubes()[:2]

    async def main():
        async with _service(dataset, publish_mode, None, cache_capacity=1) as service:
            await service.query("tenant-a", pinned)
            _session(service, "tenant-a").cache.pin(pinned)
            held = service.generations.pin_current() if pin_reader else None
            await service.update(add=_fact("pins"))
            assert bool(service.tenant("tenant-a").sessions) == pin_reader
            await service.query("tenant-a", other)  # capacity 1: would evict an unpinned entry
            cache = _session(service, "tenant-a").cache
            assert pinned.canonical_key in cache.pinned_keys()
            result = await service.query("tenant-a", pinned)
            assert result.strategy == "refresh"
            _assert_served_right(result)
            if held is not None:
                service.generations.unpin(held)

    asyncio.run(main())


# ---------------------------------------------------------------------------
# Resources: what an idle tenant holds, and for how long
# ---------------------------------------------------------------------------


def test_an_idle_tenant_holds_one_bequest_and_no_retired_generation(
    dataset, publish_mode, engine, tmp_path
):
    cubes = _cubes()[:3]
    spool = str(tmp_path / "spool")

    async def main():
        async with _service(dataset, publish_mode, engine, spool_dir=spool) as service:
            manager = service.generations
            for cube in cubes:
                await service.query("idle", cube)
            stamped = service.current_version
            graphs = [weakref.ref(manager.current.graph)]
            for round_ in range(4):
                await service.update(add=_fact(f"idle-{round_}"))
                await service.query("busy", cubes[round_ % 3])
                graphs.append(weakref.ref(manager.current.graph))
                state = service.tenant("idle")
                assert not state.sessions
                assert state.bequest.version == stamped == state.bequest.oldest and len(state.bequest.entries()) == 3
                writer_dictionary = manager.writer_graph.dictionary
                for entry in state.bequest.entries():
                    assert entry.graph_version == stamped
                    assert entry.materialized.partial.storage.dictionary is writer_dictionary
                    assert entry.materialized.answer.storage.dictionary is writer_dictionary
                gc.collect()
                assert [ref() is not None for ref in graphs] == [False] * (round_ + 1) + [True]
                if manager.mode == "snapshot":
                    assert os.listdir(spool) == [os.path.basename(manager.current.path)]
            for cube in cubes:
                result = await service.query("idle", cube)
                assert result.strategy == "refresh"
                _assert_served_right(result)
            assert service.tenant("idle").bequest is None
            del result
        assert os.listdir(spool) == []

    asyncio.run(main())


def test_a_bequest_is_dropped_once_its_stamp_leaves_the_log_window(dataset, publish_mode):
    writer = Graph(change_log_limit=20)
    writer.add_all(dataset.instance)
    cube = _cubes()[1]

    async def main():
        async with _service(dataset, publish_mode, None, instance=writer) as service:
            await service.query("idle", cube)
            stamped = service.current_version
            await service.update(add=_fact("window-0"))
            state = service.tenant("idle")
            assert state.bequest is not None and state.bequest.version == stamped
            round_ = 0
            while writer.change_log_base <= stamped:
                assert state.bequest is not None
                round_ += 1
                await service.update(add=_fact(f"window-{round_}"))
            assert state.bequest is None and not state.sessions
            result = await service.query("idle", cube)
            assert result.strategy == "scratch"
            _assert_served_right(result)

    asyncio.run(main())


# ---------------------------------------------------------------------------
# The retire hook runs on whichever thread retired the generation
# ---------------------------------------------------------------------------


def test_the_retire_hook_does_not_race_a_tenant_insert(dataset):
    """A publish retires the old generation on the executor thread while the
    loop thread may be inserting a tenant (its first query): force that
    interleaving — the hook, mid-iteration, yields to a ``tenant()`` insert —
    and the update must still succeed, the new tenant must exist.  The insert
    must land *while* ``close()`` runs: the hook holds the tenants lock for its
    bookkeeping only, so a slow close (pool shutdown) never stalls admission."""
    cube = _cubes()[1]

    async def main():
        async with _service(dataset, "heap", None) as service:
            await service.query("tenant-a", cube)
            await service.query("tenant-b", cube)
            session = _session(service, "tenant-a")
            inserted = threading.Event()
            landed_during_close = []

            def insert():
                service.tenant("newcomer")
                inserted.set()

            def close_and_yield():
                # Runs inside the retire hook's walk over the tenant table.
                thread = threading.Thread(target=insert)
                thread.start()
                landed_during_close.append(inserted.wait(timeout=2))  # parent: the insert lands here
                type(session).close(session)

            session.close = close_and_yield
            result = await service.update(add=_fact("race"))
            assert result.published
            assert inserted.wait(timeout=5) and landed_during_close == [True]
            assert "newcomer" in service.tenants()
            served = await service.query("tenant-a", cube)
            assert served.strategy == "refresh"
            _assert_served_right(served)

    asyncio.run(main())


def test_adoption_runs_on_the_executor_and_counts_no_put(dataset, monkeypatch):
    """The loop thread only registers the new session; rebinding and inserting
    the predecessor's entries is executor work, like the read it precedes —
    and ``puts`` keeps meaning "results materialized"."""
    from repro.olap.cache import ResultCache

    cubes = _cubes()[:3]
    threads = []
    real_adopt = ResultCache.adopt

    def adopt(self, *args):
        threads.append(threading.current_thread())
        return real_adopt(self, *args)

    monkeypatch.setattr(ResultCache, "adopt", adopt)

    async def main():
        async with _service(dataset, "heap", None) as service:
            for cube in cubes:
                await service.query("tenant-a", cube)
            await service.update(add=_fact("executor"))
            assert not threads  # nothing is adopted until the tenant reads again
            result = await service.query("tenant-a", cubes[0])
            assert result.strategy == "refresh"
            assert len(threads) == 1 and threads[0] is not threading.main_thread()
            assert threads[0].name.startswith("repro-serving")
            stats = _session(service, "tenant-a").cache.stats
            assert (stats.adopted, stats.puts, stats.refreshes) == (3, 0, 1)

    asyncio.run(main())
