"""MVCC generation lifecycle: publish, pin, drain, retire."""

import asyncio
import os

import pytest

from repro.datagen.generic import GenericConfig, generic_dataset
from repro.errors import ServingError
from repro.rdf import RDF, Graph, Triple
from repro.rdf.namespaces import EX
from repro.serving import OLAPService
from repro.serving.generations import GenerationManager, resolve_publish_mode

from tests.serving.conftest import fact_batch, scratch_cube


class TestResolvePublishMode:
    def test_explicit_modes_pass_through(self):
        assert resolve_publish_mode("heap") == "heap"
        assert resolve_publish_mode("snapshot") == "snapshot"

    def test_auto_picks_an_available_mode(self):
        assert resolve_publish_mode("auto") in ("snapshot", "heap")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ServingError, match="unknown publish mode"):
            resolve_publish_mode("carrier-pigeon")


class TestPublication:
    def test_initial_generation_matches_writer(self, dataset, publish_mode):
        manager = GenerationManager(dataset.instance, mode=publish_mode)
        try:
            current = manager.current
            assert current.version == dataset.instance.version
            assert len(current.graph) == len(dataset.instance)
        finally:
            manager.close()

    def test_publish_without_changes_is_noop(self, dataset, publish_mode):
        manager = GenerationManager(dataset.instance, mode=publish_mode)
        try:
            before = manager.current
            assert manager.publish() is before
            assert manager.published_count == 1
        finally:
            manager.close()

    def test_published_generation_is_isolated_from_writer(
        self, dataset, query, publish_mode
    ):
        manager = GenerationManager(dataset.instance, mode=publish_mode)
        try:
            generation = manager.pin_current()
            frozen = scratch_cube(generation.graph, query)
            for triple in fact_batch("iso"):
                dataset.instance.add(triple)
            # The pinned generation still answers the pre-mutation state.
            assert scratch_cube(generation.graph, query).same_cells(frozen)
            assert not scratch_cube(dataset.instance, query).same_cells(frozen)
            manager.unpin(generation)
        finally:
            manager.close()

    def test_generation_version_tracks_writer_version(
        self, dataset, publish_mode
    ):
        """Both modes must expose one consistent version axis: the published
        graph reports the writer's version at publish time (it adopts the
        writer's history — ``Graph.copy`` alone would restart the counter)."""
        manager = GenerationManager(dataset.instance, mode=publish_mode)
        try:
            for triple in fact_batch("stamp"):
                dataset.instance.add(triple)
            generation = manager.publish()
            assert generation.version == dataset.instance.version
            assert generation.graph.version == dataset.instance.version
        finally:
            manager.close()


class TestGenerationsShareTheWritersAxis:
    """A generation carries the writer's ids and the tail of its change log."""

    def test_every_term_keeps_the_writers_id(self, dataset, publish_mode):
        """Also for a writer whose insertion order differs from its set's
        iteration order and that holds ids no triple uses any more."""
        writer = dataset.instance
        batch = fact_batch("ids", count=30)
        writer.apply(add=batch)
        writer.apply(remove=batch[:8])  # two facts gone: their ids stay assigned
        manager = GenerationManager(writer, mode=publish_mode)
        try:
            graph = manager.current.graph
            assert len(graph.dictionary) == len(writer.dictionary)
            for term, term_id in writer.dictionary.items():
                assert graph.encode_term(term) == term_id
                assert graph.decode_id(term_id) == term
            assert set(graph.encoded_triples()) == set(writer.encoded_triples())
        finally:
            manager.close()

    def test_deltas_between_generations_are_the_writers(self, dataset, publish_mode):
        writer = dataset.instance
        manager = GenerationManager(writer, mode=publish_mode)
        try:
            first = manager.current
            writer.apply(add=fact_batch("delta-a"))
            second = manager.publish()
            writer.apply(add=fact_batch("delta-b"), remove=fact_batch("delta-a")[:1])
            third = manager.publish()
            for older in (first, second, third):
                ours = third.graph.deltas_since(older.version)
                theirs = writer.deltas_since(older.version)
                assert (set(ours.added), set(ours.removed)) == (set(theirs.added), set(theirs.removed))
            assert len(third.graph.deltas_since(first.version)) == len(fact_batch("x")) * 2 - 1
            # An older generation knows nothing of what came after it.
            assert second.graph.version == second.version
            assert second.graph.deltas_since(third.version) is None
        finally:
            manager.close()

    @pytest.mark.parametrize("how", ["disabled", "overflow"])
    def test_none_when_the_writers_log_cannot_answer(self, dataset, publish_mode, how):
        writer = dataset.instance.copy()
        if how == "disabled":
            plain = type(writer)(change_log_limit=0)
            plain.add_all(writer)
            writer = plain
        manager = GenerationManager(writer, mode=publish_mode)
        try:
            first = manager.current
            count = 2 if how == "disabled" else writer.change_log_limit // 4 + 10
            writer.apply(add=fact_batch(how, count=count))
            current = manager.publish()
            assert writer.deltas_since(first.version) is None
            assert current.graph.deltas_since(first.version) is None
            assert current.graph.deltas_since(current.version).is_empty()
        finally:
            manager.close()


class TestPinRetire:
    def test_pinned_generation_survives_publications(self, dataset, publish_mode):
        manager = GenerationManager(dataset.instance, mode=publish_mode)
        try:
            pinned = manager.pin_current()
            for round_index in range(3):
                for triple in fact_batch(f"r{round_index}", count=1):
                    dataset.instance.add(triple)
                manager.publish()
            assert not pinned.retired
            assert manager.current is not pinned
            manager.unpin(pinned)
            assert pinned.retired
        finally:
            manager.close()

    def test_superseded_unpinned_generation_retires_immediately(
        self, dataset, publish_mode
    ):
        manager = GenerationManager(dataset.instance, mode=publish_mode)
        try:
            first = manager.current
            for triple in fact_batch("now", count=1):
                dataset.instance.add(triple)
            manager.publish()
            assert first.retired
            assert manager.retired_count == 1
            assert manager.live_generations() == [manager.current]
        finally:
            manager.close()

    def test_current_generation_never_retires_on_unpin(self, dataset, publish_mode):
        manager = GenerationManager(dataset.instance, mode=publish_mode)
        try:
            generation = manager.pin_current()
            manager.unpin(generation)
            assert not generation.retired
            assert manager.current is generation
        finally:
            manager.close()

    def test_retire_callback_fires_once_per_generation(self, dataset, publish_mode):
        retired = []
        manager = GenerationManager(
            dataset.instance, mode=publish_mode, on_retire=retired.append
        )
        try:
            first = manager.current
            for triple in fact_batch("cb", count=1):
                dataset.instance.add(triple)
            manager.publish()
            assert retired == [first]
        finally:
            manager.close()
        assert len(retired) == 2  # close() retired the final generation too

    def test_pin_after_close_raises(self, dataset, publish_mode):
        manager = GenerationManager(dataset.instance, mode=publish_mode)
        manager.close()
        with pytest.raises(ServingError, match="closed"):
            manager.pin_current()
        manager.close()  # idempotent


class TestSnapshotSpool:
    """Snapshot-specific behaviour: spool files appear and are reclaimed."""

    @pytest.fixture(autouse=True)
    def _needs_numpy(self):
        pytest.importorskip("numpy")

    def test_spool_file_unlinked_on_retire(self, tmp_path, dataset, query):
        manager = GenerationManager(
            dataset.instance, spool_dir=str(tmp_path), mode="snapshot"
        )
        try:
            first = manager.pin_current()
            assert first.path is not None and os.path.exists(first.path)
            for triple in fact_batch("spool", count=1):
                dataset.instance.add(triple)
            manager.publish()
            assert os.path.exists(first.path)  # still pinned
            # A pinned reader can keep answering even after retirement
            # unlinks the file: the mmap stays valid.
            frozen = scratch_cube(first.graph, query)
            manager.unpin(first)
            assert not os.path.exists(first.path)
            assert scratch_cube(first.graph, query).same_cells(frozen)
        finally:
            manager.close()

    def test_owned_spool_directory_removed_on_close(self, dataset):
        manager = GenerationManager(dataset.instance, mode="snapshot")
        spool = manager._spool_dir
        assert spool is not None and os.path.isdir(spool)
        manager.close()
        assert not os.path.exists(spool)

    def test_mutating_a_published_snapshot_raises(self, dataset):
        from repro.errors import ReadOnlyGraphError

        manager = GenerationManager(dataset.instance, mode="snapshot")
        try:
            generation = manager.current
            with pytest.raises(ReadOnlyGraphError):
                generation.graph.add(next(iter(dataset.instance)))
        finally:
            manager.close()


def _read(path):
    with open(path, "rb") as handle:
        return handle.read()


def _swap(path, data):
    """Replace the file at ``path`` by rename, so a generation that still
    maps the old file keeps valid pages."""
    with open(f"{path}.swap", "wb") as handle:
        handle.write(data)
    os.replace(f"{path}.swap", path)


def _from_another_graph(manager):
    other = generic_dataset(GenericConfig(facts=60, dimensions=2, seed=12)).instance
    other.add(Triple(EX.term("elsewhere"), RDF.term("type"), EX.term("Fact")))
    other.adopt_history(manager.writer_graph)  # the writer's version, so its log answers
    from repro.storage import save_snapshot

    save_snapshot(other, f"{manager.current.path}.other")
    os.replace(f"{manager.current.path}.other", manager.current.path)


def _with_another_last_term(manager):
    """The current file with one byte of its last term flipped: version and
    counts still match, so only the last-term check refuses it."""
    from repro.storage.snapshot import term_record

    dictionary = manager.writer_graph.dictionary
    text = term_record(dictionary.decode(len(dictionary) - 1))[1].encode("utf-8")
    data = bytearray(_read(manager.current.path))
    data[data.rfind(text) + len(text) - 1] ^= 1
    _swap(manager.current.path, bytes(data))


_UNUSABLE = {
    "missing": lambda manager: os.unlink(manager.current.path),
    "truncated": lambda manager: _swap(
        manager.current.path, _read(manager.current.path)[: os.path.getsize(manager.current.path) // 2]
    ),
    "bad-magic": lambda manager: _swap(
        manager.current.path, b"NOTASNAP" + _read(manager.current.path)[8:]
    ),
    "another-graph": _from_another_graph,
    "another-last-term": _with_another_last_term,
    # More mutations than the change log keeps, published nowhere yet.
    "past-log-window": lambda manager: manager.writer_graph.apply(add=fact_batch("flood", 1100)),
}


class TestSnapshotWriter:
    """A snapshot publish merges the current generation's file with the
    writer's delta; a predecessor it cannot use gives a counted
    from-scratch write."""

    @pytest.fixture(autouse=True)
    def _needs_numpy(self):
        pytest.importorskip("numpy")

    @pytest.mark.parametrize("how", sorted(_UNUSABLE))
    def test_unusable_predecessor_degrades_counted(self, tmp_path, dataset, query, how):
        from repro.storage import save_snapshot

        async def main():
            spool = tmp_path / "spool"
            async with OLAPService(
                dataset.instance, dataset.schema, publish_mode="snapshot", spool_dir=str(spool)
            ) as service:
                manager = service.generations
                _UNUSABLE[how](manager)
                result = await service.update(add=fact_batch("after", 2))
                assert result.published
                assert manager.scratch_writes == 1
                scratch = str(tmp_path / "scratch.snap")
                save_snapshot(manager.writer_graph, scratch)
                assert _read(manager.current.path) == _read(scratch)
                served = await service.query("alice", query)
                assert served.cube.same_cells(scratch_cube(served.generation.graph, query))
                assert not [name for name in os.listdir(spool) if ".tmp" in name]

        asyncio.run(main())

class TestPublishIsDeltaSized:
    """A 2-fact publish on a serve-size writer encodes only the new terms'
    records and reads the writer through its delta, never its whole set of
    triples."""

    def test_two_fact_publish_encodes_and_reads_only_the_delta(self, tmp_path, monkeypatch):
        pytest.importorskip("numpy")
        from repro.storage import save_snapshot, snapshot

        writer = generic_dataset(
            GenericConfig(
                facts=2500,
                dimensions=3,
                values_per_dimension=1.4,
                measures_per_fact=2.0,
                with_detail=True,
                seed=7,
            )
        ).instance
        manager = GenerationManager(writer, spool_dir=str(tmp_path / "spool"), mode="snapshot")
        try:
            known = len(writer.dictionary)
            recorded = []
            term_record = snapshot.term_record

            def counting(term):
                recorded.append(term)
                return term_record(term)

            def whole_instance(self):
                raise AssertionError("a publish iterated the writer's encoded_triples()")

            monkeypatch.setattr(snapshot, "term_record", counting)
            monkeypatch.setattr(Graph, "encoded_triples", whole_instance)
            writer.apply(add=fact_batch("delta", 2))
            generation = manager.publish()
            monkeypatch.undo()

            new_terms = [writer.dictionary.decode(i) for i in range(known, len(writer.dictionary))]
            assert new_terms and recorded == new_terms
            assert manager.scratch_writes == 0
            save_snapshot(writer, str(tmp_path / "scratch.snap"))
            assert _read(generation.path) == _read(str(tmp_path / "scratch.snap"))
        finally:
            manager.close()
