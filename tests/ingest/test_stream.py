"""StreamIngestor: buffering, coalescing, backpressure, cadence, sinks."""

import asyncio

import pytest

from repro.errors import (
    IngestBackpressureError,
    IngestClosedError,
    IngestError,
    IngestPumpError,
    InvalidTripleError,
)
from repro.ingest import StreamIngestor
from repro.rdf import RDF, Triple
from repro.rdf.graph import Graph
from repro.rdf.namespaces import EX

RDF_TYPE = RDF.term("type")


def triple(index: int) -> Triple:
    return Triple(EX.term(f"s{index}"), EX.p, EX.o)


@pytest.fixture()
def graph():
    return Graph()


def run(coroutine):
    return asyncio.run(coroutine)


class TestBuffering:
    def test_submissions_buffer_until_flush(self, graph):
        ingestor = StreamIngestor(graph, batch_size=10)
        for index in range(4):
            ingestor.add(triple(index))
        assert ingestor.pending == 4
        assert len(graph) == 0
        batch = ingestor.flush(force=True)
        assert len(graph) == 4
        assert batch.reason == "forced"
        assert len(batch.adds) == 4 and not batch.removes
        assert ingestor.pending == 0

    def test_tuples_are_normalized_at_the_boundary(self, graph):
        ingestor = StreamIngestor(graph)
        ingestor.add((EX.a, EX.p, EX.b))
        ingestor.flush(force=True)
        assert Triple(EX.a, EX.p, EX.b) in graph

    def test_malformed_input_fails_its_producer_not_the_batch(self, graph):
        ingestor = StreamIngestor(graph)
        ingestor.add(triple(0))
        with pytest.raises(InvalidTripleError):
            ingestor.add("junk")
        with pytest.raises(InvalidTripleError):
            # Bad arity is rejected at submit time too.
            ingestor.add((EX.a, EX.p))
        batch = ingestor.flush(force=True)
        assert len(batch) == 1  # the good triple was untouched

    def test_flush_without_due_batch_is_none(self, graph):
        ingestor = StreamIngestor(graph, batch_size=10, max_batch_age=100.0)
        ingestor.add(triple(0))
        assert ingestor.flush() is None
        assert ingestor.pump() is None
        assert ingestor.pending == 1

    def test_batches_are_cut_oldest_first_and_bounded(self, graph):
        ingestor = StreamIngestor(graph, batch_size=3, max_batch_age=100.0)
        for index in range(7):
            ingestor.add(triple(index))
        first = ingestor.flush(force=True)
        assert [t.subject for t in first.adds] == [triple(i).subject for i in range(3)]
        assert ingestor.pending == 4
        batches = ingestor.drain()
        assert [len(b) for b in batches] == [3, 1]
        assert len(graph) == 7


class TestCoalescing:
    def test_add_then_remove_coalesces_to_one_remove(self, graph):
        ingestor = StreamIngestor(graph)
        ingestor.add(triple(0))
        ingestor.remove(triple(0))
        assert ingestor.pending == 1  # the later mutation stands alone
        assert ingestor.stats.superseded == 1
        assert ingestor.stats.coalesced == 1
        batch = ingestor.flush(force=True)
        assert batch.removes == (triple(0),) and not batch.adds
        assert graph.version == 0  # the remove was a no-op on the graph

    def test_remove_then_add_coalesces_to_one_add(self, graph):
        graph.add(triple(0))
        version = graph.version
        ingestor = StreamIngestor(graph)
        ingestor.remove(triple(0))
        ingestor.add(triple(0))
        ingestor.drain()
        assert triple(0) in graph
        assert graph.version == version  # the add was a no-op, no churn

    def test_add_then_remove_of_existing_triple_removes_it(self, graph):
        """Regression: cancelling the pair outright left the triple behind.

        A pending add of a triple the graph *already holds* is a no-op;
        the chasing remove must still win and take the triple out, exactly
        as sequential application would.
        """
        graph.add(triple(0))
        ingestor = StreamIngestor(graph)
        ingestor.add(triple(0))
        ingestor.remove(triple(0))
        ingestor.drain()
        assert triple(0) not in graph

    def test_remove_then_add_of_absent_triple_inserts_it(self, graph):
        """Regression: cancelling the pair outright never inserted it.

        A pending remove of a triple the graph *never held* is a no-op;
        the chasing add must still win and insert the triple, exactly as
        sequential application would.
        """
        ingestor = StreamIngestor(graph)
        ingestor.remove(triple(0))
        ingestor.add(triple(0))
        ingestor.drain()
        assert triple(0) in graph

    def test_duplicate_pending_mutation_is_absorbed(self, graph):
        ingestor = StreamIngestor(graph, capacity=2)
        for _ in range(5):
            ingestor.add(triple(0))
        assert ingestor.pending == 1
        assert ingestor.stats.duplicates == 4

    def test_net_effect_spans_would_be_batches(self, graph):
        """Opposite mutations coalesce even past one batch_size of distance."""
        ingestor = StreamIngestor(graph, batch_size=2, max_batch_age=100.0)
        ingestor.add(triple(0))
        ingestor.add(triple(1))
        ingestor.add(triple(2))
        ingestor.remove(triple(0))  # supersedes a mutation already batch-deep
        batches = ingestor.drain()
        assert triple(0) not in graph
        assert triple(1) in graph and triple(2) in graph
        # Three mutations ship (the no-op remove of t0 and both adds); only
        # the superseded add of t0 never reaches the graph.
        assert sum(len(b) for b in batches) == 3
        assert ingestor.stats.superseded == 1


class TestBackpressure:
    def test_sync_full_buffer_raises_typed_error(self, graph):
        ingestor = StreamIngestor(graph, capacity=2, batch_size=10)
        ingestor.add(triple(0))
        ingestor.add(triple(1))
        with pytest.raises(IngestBackpressureError) as excinfo:
            ingestor.add(triple(2))
        assert excinfo.value.pending == 2
        assert excinfo.value.capacity == 2
        assert ingestor.stats.rejected == 1
        # Space frees after a flush; the retry is admitted.
        ingestor.flush(force=True)
        ingestor.add(triple(2))
        assert ingestor.stats.accepted == 3

    def test_async_error_mode_raises_like_sync(self, graph):
        async def main():
            ingestor = StreamIngestor(graph, capacity=1, batch_size=10, backpressure="error")
            await ingestor.aadd(triple(0))
            with pytest.raises(IngestBackpressureError):
                await ingestor.aadd(triple(1))

        run(main())

    def test_async_block_mode_flushes_and_admits(self, graph):
        async def main():
            ingestor = StreamIngestor(graph, capacity=2, batch_size=10, backpressure="block")
            for index in range(6):  # 3x capacity: must block (flush) twice
                await ingestor.aadd(triple(index))
            assert ingestor.stats.rejected == 0
            assert ingestor.stats.blocked >= 2
            await ingestor.adrain()
            assert len(graph) == 6

        run(main())

    def test_blocked_producer_waits_for_the_pump(self, graph):
        async def main():
            ingestor = StreamIngestor(
                graph, capacity=2, batch_size=2, max_batch_age=0.005, backpressure="block"
            )
            ingestor.start_pump(interval=0.005)
            for index in range(10):
                await ingestor.aadd(triple(index))
            await ingestor.aclose()
            assert len(graph) == 10
            assert ingestor.stats.rejected == 0

        run(main())

    def test_pump_failure_wakes_blocked_producers(self, graph):
        """Regression: a flush failure killed the pump silently and left
        blocked producers waiting forever for a flush that never comes."""

        async def main():
            original_add = graph.add
            broken = [True]

            def flaky_add(t):
                if broken[0]:
                    raise RuntimeError("sink down")
                return original_add(t)

            graph.add = flaky_add
            ingestor = StreamIngestor(
                graph, capacity=2, batch_size=2, max_batch_age=0.005, backpressure="block"
            )
            ingestor.start_pump(interval=0.005)
            await ingestor.aadd(triple(0))
            await ingestor.aadd(triple(1))
            # Buffer full: this producer blocks; the pump's flush fails.
            with pytest.raises(IngestPumpError) as excinfo:
                await asyncio.wait_for(ingestor.aadd(triple(2)), timeout=5.0)
            assert isinstance(excinfo.value.cause, RuntimeError)
            assert ingestor.pump_error is excinfo.value.cause
            assert ingestor.pending == 2  # the failed batch was re-queued
            # Restarting the pump clears the error and resumes delivery.
            graph.add = original_add
            broken[0] = False
            ingestor.start_pump(interval=0.005)
            assert ingestor.pump_error is None
            await ingestor.aadd(triple(2))
            await ingestor.aclose()
            assert len(graph) == 3

        run(main())

    def test_superseding_does_not_consume_capacity(self, graph):
        ingestor = StreamIngestor(graph, capacity=1, batch_size=10)
        ingestor.add(triple(0))
        # Buffer is full, but the opposite mutation replaces the pending
        # slot in place — admitted without growth.
        ingestor.remove(triple(0))
        assert ingestor.pending == 1
        with pytest.raises(IngestBackpressureError):
            ingestor.add(triple(1))  # a *distinct* triple still backpressures
        ingestor.flush(force=True)
        ingestor.add(triple(1))
        assert ingestor.pending == 1


class TestGroupAdmission:
    """A submitted group is buffered all or nothing: a refused group leaves
    no half of a fact behind for the next flush to apply."""

    def test_group_that_does_not_fit_buffers_none_of_it(self, graph):
        ingestor = StreamIngestor(graph, capacity=3, batch_size=10)
        ingestor.add(triple(0))
        ingestor.add(triple(1))
        with pytest.raises(IngestBackpressureError) as excinfo:
            ingestor.ingest(add=[triple(2), triple(3)])
        assert excinfo.value.pending == 2 and excinfo.value.capacity == 3
        assert ingestor.pending == 2
        assert ingestor.stats.rejected == 2
        assert ingestor.stats.submitted == ingestor.stats.accepted == 2
        batch = ingestor.flush(force=True)
        assert set(batch.adds) == {triple(0), triple(1)}
        assert triple(2) not in graph

    def test_malformed_triple_refuses_its_whole_group(self, graph):
        ingestor = StreamIngestor(graph)
        with pytest.raises(InvalidTripleError):
            ingestor.ingest(add=[triple(0), ("bad",)])
        with pytest.raises(InvalidTripleError):
            ingestor.ingest(add=[triple(1)], remove=["junk"])
        assert ingestor.pending == 0
        assert ingestor.flush(force=True) is None
        assert len(graph) == 0

    def test_coalescing_members_take_no_room(self, graph):
        ingestor = StreamIngestor(graph, capacity=3, batch_size=10)
        ingestor.add(triple(0))
        ingestor.add(triple(1))
        # t0 is pending, t2 repeats, t1's remove supersedes: the group grows by one.
        ingestor.ingest(add=[triple(0), triple(2), triple(2)], remove=[triple(1)])
        assert ingestor.pending == 3
        assert ingestor.stats.duplicates == 2 and ingestor.stats.superseded == 1
        # A refused group coalesces nothing either, not even its pending member.
        with pytest.raises(IngestBackpressureError):
            ingestor.ingest(add=[triple(2), triple(3)])
        assert ingestor.pending == 3
        assert ingestor.stats.duplicates == 2

    def test_async_group_that_does_not_fit_buffers_none_of_it(self, graph):
        async def main():
            ingestor = StreamIngestor(graph, capacity=3, batch_size=10, backpressure="error")
            await ingestor.aadd(triple(0))
            await ingestor.aadd(triple(1))
            with pytest.raises(IngestBackpressureError):
                await ingestor.aingest(add=[triple(2), triple(3)])
            assert ingestor.pending == 2
            assert ingestor.stats.rejected == 2
            await ingestor.adrain()
            assert set(graph) == {triple(0), triple(1)}

        run(main())

    def test_async_malformed_triple_refuses_its_whole_group(self, graph):
        async def main():
            ingestor = StreamIngestor(graph, backpressure="error")
            with pytest.raises(InvalidTripleError):
                await ingestor.aingest(add=[triple(0), ("bad",)])
            assert ingestor.pending == 0
            assert await ingestor.aflush(force=True) is None
            assert len(graph) == 0

        run(main())

    def test_blocked_group_waits_until_all_of_it_fits(self, graph):
        async def main():
            ingestor = StreamIngestor(graph, capacity=3, batch_size=10, backpressure="block")
            await ingestor.aadd(triple(0))
            await ingestor.aadd(triple(1))
            await ingestor.aingest(add=[triple(2), triple(3)])
            assert ingestor.stats.blocked == 1 and ingestor.stats.rejected == 0
            # The inline flush shipped the two older triples, not half the group.
            assert set(graph) == {triple(0), triple(1)}
            assert ingestor.pending == 2
            await ingestor.adrain()
            assert len(graph) == 4

        run(main())

    def test_blocked_group_larger_than_capacity_raises_at_once(self, graph):
        async def main():
            ingestor = StreamIngestor(graph, capacity=2, batch_size=10, backpressure="block")
            with pytest.raises(IngestBackpressureError):
                await asyncio.wait_for(
                    ingestor.aingest(add=[triple(0), triple(1), triple(2)]), timeout=5.0
                )
            assert ingestor.pending == 0 and ingestor.stats.blocked == 0
            assert ingestor.stats.rejected == 3

        run(main())

    def test_blocked_group_larger_than_capacity_raises_with_members_pending(self, graph):
        # The group grows the buffer by one only because two of its members
        # are pending; a flush would make it grow by three, so it never fits.
        async def main():
            ingestor = StreamIngestor(graph, capacity=2, batch_size=10, backpressure="block")
            await ingestor.aadd(triple(0))
            await ingestor.aadd(triple(1))
            with pytest.raises(IngestBackpressureError):
                await asyncio.wait_for(
                    ingestor.aingest(add=[triple(0), triple(1), triple(2)]), timeout=5.0
                )
            assert ingestor.pending == 2 and ingestor.stats.blocked == 0
            assert ingestor.stats.rejected == 3
            assert len(graph) == 0

        run(main())


class TestCadence:
    def test_size_threshold_marks_due(self, graph):
        ingestor = StreamIngestor(graph, batch_size=2, max_batch_age=100.0)
        ingestor.add(triple(0))
        assert not ingestor.due()
        ingestor.add(triple(1))
        assert ingestor.due()
        batch = ingestor.pump()
        assert batch.reason == "size"

    def test_age_threshold_marks_due(self, graph):
        clock = [0.0]
        ingestor = StreamIngestor(
            graph, batch_size=100, max_batch_age=1.0, clock=lambda: clock[0]
        )
        ingestor.add(triple(0))
        assert not ingestor.due()
        clock[0] = 1.5
        assert ingestor.due()
        batch = ingestor.pump()
        assert batch.reason == "age"
        assert ingestor.stats.flush_reasons == {"age": 1}

    def test_age_clock_resets_after_flush(self, graph):
        clock = [0.0]
        ingestor = StreamIngestor(
            graph, batch_size=100, max_batch_age=1.0, clock=lambda: clock[0]
        )
        ingestor.add(triple(0))
        clock[0] = 1.5
        ingestor.pump()
        ingestor.add(triple(1))
        assert not ingestor.due()  # the new mutation's age starts now

    def test_cut_survivors_keep_their_age(self, graph):
        """A size-cut batch must not restart the leftovers' age clock."""
        clock = [0.0]
        ingestor = StreamIngestor(
            graph, batch_size=2, max_batch_age=1.0, clock=lambda: clock[0]
        )
        for index in range(3):
            ingestor.add(triple(index))  # all arrive at t=0
        clock[0] = 0.6
        batch = ingestor.pump()  # size-due: cuts two, one survives
        assert batch.reason == "size"
        assert ingestor.pending == 1
        clock[0] = 1.1  # the survivor is 1.1s old — past max_batch_age
        assert ingestor.due()
        assert ingestor.pump().reason == "age"

    def test_async_pump_enforces_age_cadence(self, graph):
        async def main():
            async with StreamIngestor(graph, batch_size=100, max_batch_age=0.01) as ingestor:
                ingestor.add(triple(0))
                await asyncio.sleep(0.1)
                assert len(graph) == 1  # the pump flushed on age alone

        run(main())


class TestLifecycle:
    def test_closed_ingestor_rejects_submissions(self, graph):
        ingestor = StreamIngestor(graph)
        ingestor.add(triple(0))
        ingestor.close()
        assert len(graph) == 1  # close drains
        assert ingestor.closed
        with pytest.raises(IngestClosedError):
            ingestor.add(triple(1))

    def test_context_manager_drains_on_exit(self, graph):
        with StreamIngestor(graph, batch_size=100) as ingestor:
            ingestor.add(triple(0))
        assert len(graph) == 1

    def test_aclose_is_idempotent(self, graph):
        async def main():
            ingestor = StreamIngestor(graph)
            await ingestor.aadd(triple(0))
            await ingestor.aclose()
            await ingestor.aclose()
            assert len(graph) == 1

        run(main())

    def test_constructor_validation(self, graph):
        with pytest.raises(IngestError):
            StreamIngestor(graph, capacity=0)
        with pytest.raises(IngestError):
            StreamIngestor(graph, batch_size=0)
        with pytest.raises(IngestError):
            StreamIngestor(graph, max_batch_age=-1)
        with pytest.raises(IngestError):
            StreamIngestor(graph, backpressure="shout")
        with pytest.raises(IngestError):
            StreamIngestor(object())

    def test_failed_graph_batch_rolls_back_and_counts(self, graph):
        """The bare-graph sink applies batches through the atomic
        ``Graph.apply``; the ingestor owns the counting and the re-queue."""
        ingestor = StreamIngestor(graph, batch_size=100)
        ingestor.add(triple(0))
        ingestor.add(triple(1))
        before = set(graph)
        original_add = graph.add
        calls = []

        def failing_add(t):
            if calls:
                raise RuntimeError("disk full")
            calls.append(t)
            return original_add(t)

        graph.add = failing_add
        with pytest.raises(RuntimeError):
            ingestor.flush(force=True)
        graph.add = original_add
        assert set(graph) == before
        assert ingestor.stats.failed_batches == 1
        assert ingestor.stats.batches == 0
        # The failed batch was re-queued: a retry delivers everything.
        assert ingestor.pending == 2
        ingestor.drain()
        assert triple(0) in graph and triple(1) in graph

    def test_failed_batch_requeues_oldest_first_and_newer_wins(self, graph):
        """Re-queued mutations keep their order; in-flight supersession sticks."""
        clock = [0.0]
        ingestor = StreamIngestor(
            graph, batch_size=2, max_batch_age=100.0, clock=lambda: clock[0]
        )
        ingestor.add(triple(0))
        ingestor.add(triple(1))

        def broken_add(t):
            raise RuntimeError("sink down")

        original_add = graph.add
        graph.add = broken_add
        with pytest.raises(RuntimeError):
            ingestor.flush(force=True)
        graph.add = original_add
        # While "in flight" nothing else arrived: the batch re-queued in
        # submission order and a later mutation of t0 supersedes in place.
        ingestor.remove(triple(0))
        batch = ingestor.flush(force=True)
        assert batch.removes == (triple(0),)
        assert batch.adds == (triple(1),)
        assert triple(0) not in graph and triple(1) in graph


class TestServiceSink:
    def test_sync_flush_refuses_service_sink(self, graph):
        async def main():
            from repro.serving import OLAPService

            async with OLAPService(graph) as service:
                ingestor = service.stream_ingestor()
                ingestor.add(triple(0))
                with pytest.raises(IngestError):
                    ingestor.flush()
                with pytest.raises(IngestError):
                    ingestor.close()
                await ingestor.aclose()

        run(main())

    def test_batches_publish_generations(self):
        async def main():
            from repro.serving import OLAPService

            base = Graph()
            base.add(triple(999))
            async with OLAPService(base) as service:
                ingestor = service.stream_ingestor(batch_size=3, max_batch_age=100.0)
                first_version = service.current_version
                for index in range(6):
                    await ingestor.aadd(triple(index))
                    await ingestor.aflush()  # flushes only when size-due
                assert ingestor.stats.batches == 2
                # Generation versions track the writer graph: +3 per batch.
                assert [b.version for b in ingestor.applied] == [
                    first_version + 3,
                    first_version + 6,
                ]
                assert service.current_version == first_version + 6
                await ingestor.aclose()
                assert len(service.generations.writer_graph) == 7

        run(main())

    def test_failed_service_batch_stays_atomic(self):
        async def main():
            from repro.serving import OLAPService

            base = Graph()
            base.add(triple(999))
            async with OLAPService(base) as service:
                ingestor = service.stream_ingestor(batch_size=100)
                await ingestor.aadd(triple(0))
                # Force malformed input past submit-time validation.
                ingestor._pending["junk"] = (1, 0.0)
                before = set(service.generations.writer_graph)
                with pytest.raises(Exception):
                    await ingestor.aflush(force=True)
                assert set(service.generations.writer_graph) == before
                assert ingestor.stats.failed_batches == 1
                assert service.stats.update_failures == 1
                assert ingestor.pending == 2  # the failed batch re-queued

        run(main())
