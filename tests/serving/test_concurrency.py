"""Differential suite: concurrent readers vs. a republishing writer.

The serving layer's contract under concurrency, checked end to end:

* every answered cube equals a from-scratch evaluation over the *exact*
  graph generation it was served from (snapshot isolation — no torn reads,
  no answers mixing two versions);
* rejections are typed and counted, admitted queries always answer;
* superseded generations retire once their last reader drains.
"""

import asyncio

from repro.errors import AdmissionError
from repro.serving import OLAPService

from tests.serving.conftest import fact_batch, scratch_cube


async def _read(service, tenant, query, outcomes):
    try:
        result = await service.query(tenant, query)
    except AdmissionError as rejection:
        outcomes.append(("rejected", type(rejection).__name__))
    else:
        outcomes.append(("served", result))
    await asyncio.sleep(0)


async def _reader(service, tenant, query, rounds, outcomes, until=None):
    """``rounds`` reads; given ``until``, keeps reading until it is set and
    then once more — a fast reader cannot miss every publish of the writer."""
    done = 0
    while done < rounds or (until is not None and not until.is_set()):
        await _read(service, tenant, query, outcomes)
        done += 1
    if until is not None:
        await _read(service, tenant, query, outcomes)


async def _writer(service, updates, batch_tag):
    for index in range(updates):
        await service.update(add=fact_batch(f"{batch_tag}-{index}", count=2))
        await asyncio.sleep(0.001)


class TestReadersVersusWriter:
    def test_every_answer_matches_scratch_at_its_snapshot(
        self, dataset, query, publish_mode
    ):
        """Four readers race five publishes; every outcome is accounted for
        exactly (served + rejected == attempts) and every served cube equals
        scratch on the generation it pinned.

        The readers read *until the writer is done* (at least 6 rounds each),
        not a fixed 6 rounds: since a publish stopped being a cold start a
        read after one is a sub-millisecond refresh, and 24 fixed reads could
        all finish before the first publish — "updates never became visible"
        then failed about one run in three without any read being wrong.  The
        attempt count is therefore read off ``outcomes`` instead of 4 × 6.
        """

        async def main():
            async with OLAPService(
                dataset.instance,
                dataset.schema,
                max_concurrency=4,
                max_queue_depth=8,
                per_tenant_limit=4,
                publish_mode=publish_mode,
            ) as service:
                outcomes = []
                written = asyncio.Event()

                async def writer():
                    await _writer(service, updates=5, batch_tag="race")
                    written.set()

                readers = [
                    _reader(service, f"tenant-{index}", query, 6, outcomes, until=written)
                    for index in range(4)
                ]
                await asyncio.gather(writer(), *readers)
                served = [entry[1] for entry in outcomes if entry[0] == "served"]
                assert len(outcomes) >= 4 * 6
                assert len(served) + service.stats.rejected == len(outcomes)
                assert served, "no query was ever admitted"
                # The differential core: each cube equals scratch evaluation
                # over the generation it was pinned to at admission — even
                # though the writer republished five times underneath.
                for result in served:
                    assert result.generation.version == result.graph_version
                    assert result.cube.same_cells(
                        scratch_cube(result.generation.graph, query)
                    ), f"torn read at v{result.graph_version}"
                versions = {result.graph_version for result in served}
                assert len(versions) >= 2, "updates never became visible"
                assert service.stats.publishes == 5
                assert service.stats.served == len(served)

        asyncio.run(main())

    def test_superseded_generations_retire_when_readers_drain(
        self, dataset, query, publish_mode
    ):
        async def main():
            async with OLAPService(
                dataset.instance,
                dataset.schema,
                max_concurrency=2,
                publish_mode=publish_mode,
            ) as service:
                outcomes = []
                await asyncio.gather(
                    _reader(service, "tenant-a", query, rounds=5, outcomes=outcomes),
                    _writer(service, updates=4, batch_tag="retire"),
                )
                manager = service.generations
                # Quiescent: only the current generation is live, everything
                # superseded has been retired and its sessions dropped.
                live = manager.live_generations()
                assert live == [manager.current]
                assert manager.retired_count == manager.published_count - 1
                state = service.tenant("tenant-a")
                assert set(state.sessions) <= {manager.current.version}

        asyncio.run(main())

    def test_rejections_under_pressure_are_typed_and_complete(
        self, dataset, query
    ):
        async def main():
            async with OLAPService(
                dataset.instance,
                dataset.schema,
                max_concurrency=1,
                max_queue_depth=1,
                per_tenant_limit=2,
                publish_mode="heap",
            ) as service:
                attempts = 24
                results = await asyncio.gather(
                    *[
                        service.query(f"tenant-{index % 3}", query)
                        for index in range(attempts)
                    ],
                    return_exceptions=True,
                )
                served = [r for r in results if not isinstance(r, Exception)]
                rejected = [r for r in results if isinstance(r, Exception)]
                assert all(isinstance(r, AdmissionError) for r in rejected)
                assert len(served) == service.stats.served
                assert len(rejected) == service.stats.rejected
                assert len(served) + len(rejected) == attempts
                for result in served:
                    assert result.cube.same_cells(
                        scratch_cube(result.generation.graph, query)
                    )

        asyncio.run(main())
