"""Write-path regressions: atomic batches, honest stats, prompt drain.

Each test here pins one of the write-path bugs the streaming-ingestion
work exposed: a failed update batch used to leave the writer graph
partially mutated (and still counted as an update), and ``aclose()`` used
to busy-poll the in-flight counter instead of being woken.
"""

import asyncio
import errno
import os
import threading
import time

import pytest

from repro.errors import InvalidTripleError, ServingError
from repro.rdf import Literal, RDF, Triple
from repro.rdf.namespaces import EX
from repro.serving import OLAPService

from tests.serving.conftest import fact_batch, scratch_cube

RDF_TYPE = RDF.term("type")


def run(coroutine):
    return asyncio.run(coroutine)


def graph_triples(graph):
    return set(graph)


class TestAtomicUpdate:
    """A failed batch must leave the writer exactly as it found it."""

    def test_failed_batch_leaves_the_writer_untouched(self, dataset):
        """The add/remove lists go through ``Graph.apply`` (whose prefix
        rollback cases live in ``tests/rdf/test_graph.py``): one batch with
        an applied remove prefix and an applied add prefix."""

        async def main():
            async with OLAPService(dataset.instance, dataset.schema) as service:
                writer = service.generations.writer_graph
                before = graph_triples(writer)
                batch = fact_batch("prefix", 2) + ["not a triple"] + fact_batch("suffix", 1)
                with pytest.raises(InvalidTripleError):
                    await service.update(remove=list(writer)[:3], add=batch)
                # Regression: the old writer kept the applied prefix.
                assert graph_triples(writer) == before

        run(main())

    def test_failed_batch_is_not_published_later(self, dataset, query):
        """A later successful update must not smuggle out the torn prefix."""

        async def main():
            async with OLAPService(dataset.instance, dataset.schema) as service:
                with pytest.raises(Exception):
                    await service.update(add=fact_batch("torn", 2) + [object()])
                result = await service.update(add=fact_batch("clean", 1))
                assert result.published
                served = await service.query("alice", query)
                assert served.cube.same_cells(
                    scratch_cube(served.generation.graph, query)
                )
                # Only the clean facts are visible.
                graph = service.generations.current.graph
                assert Triple(EX.term("fact/extra-clean-0"), RDF_TYPE, EX.term("Fact")) in graph
                assert (
                    Triple(EX.term("fact/extra-torn-0"), RDF_TYPE, EX.term("Fact"))
                    not in graph
                )

        run(main())

    def test_failed_mutate_is_rolled_back_from_the_change_log(self, dataset):
        async def main():
            async with OLAPService(dataset.instance, dataset.schema) as service:
                before = graph_triples(service.generations.writer_graph)

                def mutate(graph):
                    graph.add(Triple(EX.term("mutant"), RDF_TYPE, EX.term("Fact")))
                    graph.remove(next(iter(graph)))
                    raise RuntimeError("boom")

                # The applied add list is part of the batch the failed
                # callback takes down with it.
                with pytest.raises(RuntimeError):
                    await service.update(add=fact_batch("with-mutate", 1), mutate=mutate)
                assert graph_triples(service.generations.writer_graph) == before

        run(main())

    def test_unreconstructable_mutate_failure_is_loud(self, dataset):
        """When the change log cannot replay the batch, the failure says so."""

        async def main():
            async with OLAPService(dataset.instance, dataset.schema) as service:

                def mutate(graph):
                    graph.add(Triple(EX.term("mutant"), RDF_TYPE, EX.term("Fact")))
                    graph.clear()  # the log now cannot reconstruct the batch
                    raise RuntimeError("boom")

                with pytest.raises(ServingError, match="cannot be rolled back"):
                    await service.update(mutate=mutate)

        run(main())

    @pytest.mark.parametrize("failing", ["save_snapshot", "load_snapshot"])
    def test_failed_publish_takes_its_batch_down(
        self, dataset, query, tmp_path, monkeypatch, failing
    ):
        """Regression: a publish that raised (a full disk, a spool file that
        would not re-open) left its batch in the writer, so the next clean
        update published the failed facts — and its spool file stayed."""
        pytest.importorskip("numpy")
        from repro.storage import snapshot

        real = getattr(snapshot, failing)
        calls = []

        def fail_once(*args, **kwargs):
            calls.append(args)
            if len(calls) == 1:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return real(*args, **kwargs)

        def fact(tag):
            return Triple(EX.term(f"fact/extra-{tag}-0"), RDF_TYPE, EX.term("Fact"))

        async def main():
            spool = tmp_path / "spool"
            async with OLAPService(
                dataset.instance, dataset.schema, publish_mode="snapshot", spool_dir=str(spool)
            ) as service:
                generations = service.generations
                before = graph_triples(generations.writer_graph)
                monkeypatch.setattr(snapshot, failing, fail_once)
                with pytest.raises(OSError):
                    await service.update(add=fact_batch("failed", 1))
                assert service.stats.update_failures == 1
                assert graph_triples(generations.writer_graph) == before

                result = await service.update(add=fact_batch("clean", 1))
                assert result.published
                graph = generations.current.graph
                assert fact("clean") in graph and fact("failed") not in graph
                served = await service.query("alice", query)
                assert served.cube.same_cells(scratch_cube(served.generation.graph, query))
                live = {os.path.basename(g.path) for g in generations.live_generations()}
                assert set(os.listdir(spool)) == live

        run(main())

    def test_update_stats_stay_honest_on_failure(self, dataset):
        """Regression: a rolled-back batch used to count in ``updates``."""

        async def main():
            async with OLAPService(dataset.instance, dataset.schema) as service:
                assert service.stats.update_failures == 0
                with pytest.raises(Exception):
                    await service.update(add=["junk"])
                assert service.stats.updates == 0
                assert service.stats.update_failures == 1
                assert service.stats.publishes == 0
                await service.update(add=fact_batch("ok", 1))
                assert service.stats.updates == 1
                assert service.stats.update_failures == 1
                assert service.stats.as_dict()["update_failures"] == 1

        run(main())


class TestPromptDrain:
    """``aclose()`` waits on an event; the last query's exit wakes it."""

    def test_aclose_with_no_inflight_returns_immediately(self, dataset):
        async def main():
            service = OLAPService(dataset.instance, dataset.schema)
            async with service:
                pass  # no queries at all

        run(main())

    def test_aclose_wakes_when_the_last_query_finishes(self, dataset, query):
        async def main():
            gate = threading.Event()
            started = asyncio.Queue()
            service = OLAPService(dataset.instance, dataset.schema)

            real_execute = service._execute

            def blocking_execute(session, q):
                started.put_nowait(None)
                gate.wait(timeout=10)
                return real_execute(session, q)

            service._execute = blocking_execute
            task = asyncio.create_task(service.query("alice", query))
            await asyncio.wait_for(started.get(), timeout=5)

            closer = asyncio.create_task(service.aclose())
            await asyncio.sleep(0.05)
            assert not closer.done()  # still draining the in-flight query
            # The drain event exists and is armed (regression: the old
            # close path had nothing to wake and polled a counter instead).
            assert service._drained is not None
            assert not service._drained.is_set()

            gate.set()
            result = await asyncio.wait_for(task, timeout=5)
            released = time.perf_counter()
            await asyncio.wait_for(closer, timeout=5)
            woke_after = time.perf_counter() - released
            assert service._drained.is_set()
            assert result.cube is not None
            # Event wake, not a poll loop: closing completes essentially
            # together with the query (generous bound for slow CI).
            assert woke_after < 1.0

        run(main())

    def test_aclose_still_idempotent_after_event_drain(self, dataset, query):
        async def main():
            service = OLAPService(dataset.instance, dataset.schema)
            async with service:
                await service.query("alice", query)
            await service.aclose()
            await service.aclose()

        run(main())
