"""OLAPService: admission control, per-tenant sessions, writer updates."""

import asyncio
import threading

import pytest

from repro.errors import (
    QueueFullError,
    ServiceClosedError,
    ServingError,
    TenantBusyError,
)
from repro.serving import OLAPService

from tests.serving.conftest import fact_batch, scratch_cube


def run(coroutine):
    return asyncio.run(coroutine)


class TestBasics:
    def test_query_matches_scratch(self, dataset, query, publish_mode):
        async def main():
            async with OLAPService(
                dataset.instance, dataset.schema, publish_mode=publish_mode
            ) as service:
                result = await service.query("alice", query)
                assert result.tenant == "alice"
                assert result.graph_version == service.current_version
                assert result.cube.same_cells(
                    scratch_cube(result.generation.graph, query)
                )
                assert service.stats.served == 1
                assert service.stats.served_by_tenant == {"alice": 1}

        run(main())

    def test_tenants_get_private_sessions_over_shared_graph(
        self, dataset, query, publish_mode
    ):
        async def main():
            async with OLAPService(
                dataset.instance, dataset.schema, publish_mode=publish_mode
            ) as service:
                first = await service.query("alice", query)
                second = await service.query("alice", query)
                other = await service.query("bob", query)
                # Same tenant, same generation: the second answer is a cache
                # hit in that tenant's private session.
                assert second.strategy in ("cache", "cache[disk]")
                # Another tenant shares the graph but not the cache.
                assert other.strategy == "scratch"
                assert first.cube.same_cells(other.cube)
                alice = service.tenant("alice")
                bob = service.tenant("bob")
                assert alice.sessions != bob.sessions
                assert service.tenants() == ["alice", "bob"]

        run(main())

    def test_strategy_is_the_served_querys_own_record(self, dataset, query, monkeypatch):
        """Regression: ``history[-1]`` of the shared per-generation session
        may belong to the tenant's *other* in-flight query (the decoy stands
        in for it); the result must name the route its own cube took."""
        from repro.olap.session import TransformationRecord

        def execute_then_decoy(session, served_query):
            cube = session.execute(served_query)
            session.history.append(
                TransformationRecord("other", "execute", "decoy", 0.0, 0, 0)
            )
            return cube

        monkeypatch.setattr(OLAPService, "_execute", staticmethod(execute_then_decoy))

        async def main():
            async with OLAPService(dataset.instance, dataset.schema) as service:
                first = await service.query("alice", query)
                second = await service.query("alice", query)
                assert first.strategy == "scratch"
                assert second.strategy in ("cache", "cache[disk]")

        run(main())

    def test_constructor_validation(self, dataset):
        with pytest.raises(ServingError):
            OLAPService(dataset.instance, max_concurrency=0)
        with pytest.raises(ServingError):
            OLAPService(dataset.instance, max_queue_depth=-1)
        with pytest.raises(ServingError):
            OLAPService(dataset.instance, per_tenant_limit=0)


class TestAdmission:
    """Typed rejections: nothing queues unboundedly, every refusal counted."""

    @staticmethod
    def _blocking_execute(gate: threading.Event, started: "asyncio.Queue"):
        """An execute that signals ``started`` and then blocks on ``gate``.  It
        runs on an executor thread, so the signal goes through the loop: a
        ``put_nowait`` from the thread would not wake a loop asleep in ``get``."""
        loop = asyncio.get_running_loop()

        def execute(session, query):
            loop.call_soon_threadsafe(started.put_nowait, None)
            gate.wait(timeout=10)
            return session.execute(query)

        return execute

    def test_tenant_cap_rejects_with_tenant_busy(self, dataset, query):
        async def main():
            gate = threading.Event()
            async with OLAPService(
                dataset.instance,
                dataset.schema,
                max_concurrency=4,
                per_tenant_limit=2,
                publish_mode="heap",
            ) as service:
                started = asyncio.Queue()
                service._execute = self._blocking_execute(gate, started)
                inflight = [
                    asyncio.ensure_future(service.query("alice", query))
                    for _ in range(2)
                ]
                await started.get()
                await started.get()
                with pytest.raises(TenantBusyError) as info:
                    await service.query("alice", query)
                assert info.value.tenant == "alice"
                assert info.value.limit == 2
                # Another tenant is not affected by alice's cap.
                bob_future = asyncio.ensure_future(service.query("bob", query))
                await started.get()
                gate.set()
                results = await asyncio.gather(*inflight, bob_future)
                assert all(r.cube is not None for r in results)
                assert service.stats.rejected_tenant_busy == 1
                assert service.stats.served == 3

        run(main())

    def test_queue_depth_rejects_with_queue_full(self, dataset, query):
        async def main():
            gate = threading.Event()
            async with OLAPService(
                dataset.instance,
                dataset.schema,
                max_concurrency=1,
                max_queue_depth=1,
                per_tenant_limit=16,
                publish_mode="heap",
            ) as service:
                started = asyncio.Queue()
                service._execute = self._blocking_execute(gate, started)
                # One running (holds the slot), one waiting (fills the queue).
                running = asyncio.ensure_future(service.query("alice", query))
                await started.get()
                waiting = asyncio.ensure_future(service.query("alice", query))
                await asyncio.sleep(0.02)  # let it block on the semaphore
                with pytest.raises(QueueFullError) as info:
                    await service.query("alice", query)
                assert info.value.bound == 1  # the configured queue depth
                gate.set()
                await asyncio.gather(running, waiting)
                assert service.stats.rejected_queue_full == 1
                assert service.stats.served == 2

        run(main())

    def test_rejected_queries_do_not_leak_pins_or_counters(self, dataset, query):
        async def main():
            gate = threading.Event()
            async with OLAPService(
                dataset.instance,
                dataset.schema,
                max_concurrency=1,
                max_queue_depth=0,
                per_tenant_limit=1,
                publish_mode="heap",
            ) as service:
                started = asyncio.Queue()
                service._execute = self._blocking_execute(gate, started)
                running = asyncio.ensure_future(service.query("alice", query))
                await started.get()
                with pytest.raises(TenantBusyError):
                    await service.query("alice", query)
                with pytest.raises(QueueFullError):
                    await service.query("bob", query)
                gate.set()
                await running
                assert service.inflight == 0
                assert service.tenant("alice").inflight == 0
                assert service.tenant("bob").inflight == 0
                # Only the running query's pin remains accounted: one manager
                # currency pin on the current generation, nothing leaked.
                assert service.generations.current.pins == 1

        run(main())


class TestUpdates:
    def test_update_publishes_new_generation(self, dataset, query, publish_mode):
        async def main():
            async with OLAPService(
                dataset.instance, dataset.schema, publish_mode=publish_mode
            ) as service:
                before = await service.query("alice", query)
                result = await service.update(add=fact_batch("upd"))
                assert result.published
                assert result.mutations == len(fact_batch("upd"))
                assert service.current_version == result.version
                after = await service.query("alice", query)
                assert after.graph_version > before.graph_version
                assert not after.cube.same_cells(before.cube)
                assert after.cube.same_cells(
                    scratch_cube(after.generation.graph, query)
                )
                assert service.stats.publishes == 1

        run(main())

    def test_unpublished_update_stays_invisible(self, dataset, query, publish_mode):
        async def main():
            async with OLAPService(
                dataset.instance, dataset.schema, publish_mode=publish_mode
            ) as service:
                before = await service.query("alice", query)
                result = await service.update(
                    add=fact_batch("hidden"), publish=False
                )
                assert not result.published
                mid = await service.query("alice", query)
                assert mid.graph_version == before.graph_version
                # The next published update carries the deferred delta too.
                await service.update(add=fact_batch("visible"))
                after = await service.query("alice", query)
                assert after.graph_version == service.current_version
                assert after.cube.same_cells(
                    scratch_cube(after.generation.graph, query)
                )

        run(main())

    def test_remove_and_mutate_batches(self, dataset, query, publish_mode):
        async def main():
            async with OLAPService(
                dataset.instance, dataset.schema, publish_mode=publish_mode
            ) as service:
                added = fact_batch("gone")
                await service.update(add=added)
                removal = await service.update(remove=added)
                assert removal.mutations == len(added)

                def add_more(graph):
                    for triple in fact_batch("cb"):
                        graph.add(triple)

                mutated = await service.update(mutate=add_more)
                assert mutated.mutations == len(fact_batch("cb"))
                result = await service.query("alice", query)
                assert result.cube.same_cells(
                    scratch_cube(result.generation.graph, query)
                )

        run(main())

    def test_noop_update_does_not_publish(self, dataset, publish_mode):
        async def main():
            async with OLAPService(
                dataset.instance, dataset.schema, publish_mode=publish_mode
            ) as service:
                duplicate = next(iter(dataset.instance))
                result = await service.update(add=[duplicate])
                assert result.mutations == 0
                assert not result.published
                assert service.stats.publishes == 0

        run(main())


class TestHitOnTheLoop:
    """A fresh cache hit whose answer is already decoded is answered on the
    event loop and dispatches nothing to the executor; every other read
    goes to the pool, and the loop never plans, evaluates, refreshes or
    decodes."""

    @pytest.fixture()
    def watched(self, monkeypatch):
        from repro.algebra.columnar import ColumnarIdRelation
        from repro.algebra.relation import IdRelation, Relation
        from repro.analytics.evaluator import AnalyticalQueryEvaluator
        from repro.olap.maintenance import DeltaMaintainer
        from repro.olap.planner import OLAPPlanner

        on_loop, dispatched = [], []
        for owner, name in (
            (OLAPPlanner, "plan_query"),
            (AnalyticalQueryEvaluator, "partial_result"),
            (DeltaMaintainer, "refresh"),
            (Relation, "decoded_columns"),
            (IdRelation, "decoded_columns"),
            (ColumnarIdRelation, "decoded_columns"),
        ):
            def spy(*args, _original=getattr(owner, name), _name=f"{owner.__name__}.{name}", **kwargs):
                if threading.current_thread() is threading.main_thread():
                    on_loop.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, spy)
        for name in ("_adopt", "_execute"):
            def dispatch(*args, _original=getattr(OLAPService, name), _name=name):
                dispatched.append(_name)
                return _original(*args)

            monkeypatch.setattr(OLAPService, name, staticmethod(dispatch))
        return on_loop, dispatched

    def test_fresh_decoded_hit_dispatches_nothing(self, dataset, query, watched):
        on_loop, dispatched = watched

        async def main():
            async with OLAPService(dataset.instance, dataset.schema) as service:
                first = await service.query("alice", query)
                assert dispatched == ["_execute"] and first.strategy == "scratch"
                pins = service.generations.current.pins
                second = await service.query("alice", query)
                assert dispatched == ["_execute"] and second.strategy == "cache"
                assert second.cube.cells() == first.cube.cells()
                assert service.stats.served == 2 and service.stats.served_by_tenant == {"alice": 2}
                assert service.inflight == 0 and service.tenant("alice").inflight == 0
                assert service.generations.current.pins == pins
                return second

        second = run(main())
        assert not on_loop
        assert second.cube.same_cells(scratch_cube(second.generation.graph, query))

    def test_a_hit_is_admitted_and_cancelled_like_any_read(self, dataset, query):
        """A loop hit still takes a slot: with the only one held it waits,
        and cancelled there it leaves no count, pin or slot behind."""
        entered, gate = threading.Event(), threading.Event()

        def blocking(session, served_query):
            entered.set()
            gate.wait(timeout=10)
            return session.execute(served_query)

        async def main():
            async with OLAPService(
                dataset.instance, dataset.schema, max_concurrency=1, publish_mode="heap"
            ) as service:
                await service.query("alice", query)
                pins = service.generations.current.pins
                service._execute = blocking
                running = asyncio.ensure_future(service.query("bob", query))
                # Waited for off the loop: a thread's wake-up must reach it.
                assert await asyncio.get_running_loop().run_in_executor(None, entered.wait, 10)
                hit = asyncio.ensure_future(service.query("alice", query))
                await asyncio.sleep(0.02)  # let it block on the semaphore
                assert not hit.done() and service.inflight == 2
                hit.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await hit
                gate.set()
                await running
                assert service.inflight == 0 and service.tenant("alice").inflight == 0
                assert service.generations.current.pins == pins
                assert (await service.query("alice", query)).strategy == "cache"
                assert service.stats.served == 3

        run(main())

    def test_every_other_read_goes_to_the_pool(self, dataset, query, publish_mode, watched):
        from repro.analytics.evaluator import AnalyticalQueryEvaluator
        from repro.datagen.generic import generic_query
        from repro.olap.cache import ResultCache

        on_loop, dispatched = watched
        summed = generic_query(dataset.config, aggregate="sum", name="Q_sum")
        coarse = generic_query(dataset.config, dimensions=[0], name="Q_d0")

        async def read(service, served_query, strategy, dispatches):
            before = len(dispatched)
            result = await service.query("alice", served_query)
            assert (result.strategy, dispatched[before:]) == (strategy, dispatches)
            return result

        async def main():
            async with OLAPService(
                dataset.instance, dataset.schema, publish_mode=publish_mode
            ) as service:
                served = [await read(service, each, "scratch", ["_execute"]) for each in (query, summed)]
                await service.update(add=fact_batch("loop"))
                # The first read of the new generation's session adopts, then
                # refreshes; the other adopted entry is stale until read.
                served.append(await read(service, query, "refresh", ["_adopt", "_execute"]))
                served.append(await read(service, summed, "refresh", ["_execute"]))
                served.append(await read(service, query, "cache", []))
                # An entry whose answer was never decoded is decoded on the pool.
                session = service.tenant("alice").sessions[service.current_version]
                undecoded = AnalyticalQueryEvaluator(session.instance).evaluate(coarse)
                on_loop.clear()  # the test's own evaluation, not the service's
                session.cache.put(coarse, undecoded, session.instance)
                served.append(await read(service, coarse, "cache", ["_execute"]))
                # An entry evicted as the loop looks it up is evaluated on the pool.
                hit = ResultCache.hit

                def evicting(cache, looked_up, graph, ready=None):
                    cache.invalidate(looked_up.canonical_key)
                    return hit(cache, looked_up, graph, ready)

                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(ResultCache, "hit", evicting)
                    served.append(await read(service, summed, "scratch", ["_execute"]))
                assert service.inflight == 0 and service.stats.served == len(served)
                return served

        served = run(main())
        assert not on_loop
        for result in served:
            assert result.cube.same_cells(scratch_cube(result.generation.graph, result.query))


class TestLifecycle:
    def test_closed_service_rejects_reads_and_writes(self, dataset, query):
        async def main():
            service = OLAPService(dataset.instance, dataset.schema, publish_mode="heap")
            async with service:
                await service.query("alice", query)
            with pytest.raises(ServiceClosedError):
                await service.query("alice", query)
            with pytest.raises(ServiceClosedError):
                await service.update(add=fact_batch("late"))
            assert service.stats.rejected_closed == 2
            await service.aclose()  # idempotent

        run(main())

    def test_close_drains_inflight_queries(self, dataset, query):
        async def main():
            gate = threading.Event()
            service = OLAPService(dataset.instance, dataset.schema, publish_mode="heap")
            async with service:
                started = asyncio.Queue()
                real_execute = service._execute
                loop = asyncio.get_running_loop()

                def slow_execute(session, q):
                    loop.call_soon_threadsafe(started.put_nowait, None)
                    gate.wait(timeout=10)
                    return real_execute(session, q)

                service._execute = slow_execute
                inflight = asyncio.ensure_future(service.query("alice", query))
                await started.get()
                closer = asyncio.ensure_future(service.aclose())
                await asyncio.sleep(0.02)
                assert service.closed  # admissions stop immediately...
                assert not closer.done()  # ...but close waits for the reader
                gate.set()
                result = await inflight  # the admitted query still answers
                await closer
                assert result.cube.same_cells(
                    scratch_cube(result.generation.graph, query)
                )

        run(main())

    def test_close_releases_generations_and_sessions(self, dataset, query):
        async def main():
            service = OLAPService(dataset.instance, dataset.schema, publish_mode="heap")
            async with service:
                await service.query("alice", query)
                await service.update(add=fact_batch("final"))
                await service.query("bob", query)
            assert service.generations.live_generations() == []
            for state in service._tenants.values():
                assert state.sessions == {}

        run(main())

    def test_service_survives_consecutive_event_loops(self, dataset, query):
        service = OLAPService(dataset.instance, dataset.schema, publish_mode="heap")

        async def one_query(tenant):
            return await service.query(tenant, query)

        first = asyncio.run(one_query("alice"))
        second = asyncio.run(one_query("alice"))
        assert first.cube.same_cells(second.cube)
        asyncio.run(service.aclose())
