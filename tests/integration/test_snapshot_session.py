"""End-to-end: OLAP sessions over on-disk snapshots, heap and mmap alike."""

import pytest

pytest.importorskip("numpy")

from repro.datagen.blogger import BloggerConfig, blogger_dataset, sites_per_blogger_query
from repro.errors import ConfigurationError
from repro.olap.operations import DrillOut, Slice
from repro.olap.session import OLAPSession
from repro.storage import load_snapshot, save_snapshot
from repro.storage.mapped import SnapshotGraph


@pytest.fixture(scope="module")
def dataset():
    return blogger_dataset(BloggerConfig(bloggers=60, seed=13))


@pytest.fixture(scope="module")
def snapshot_path(dataset, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("session-snapshots") / "blogger.snap")
    save_snapshot(dataset.instance, path)
    return path


def test_session_requires_exactly_one_source(dataset, snapshot_path):
    with pytest.raises(ValueError, match="exactly one"):
        OLAPSession()
    with pytest.raises(ValueError, match="exactly one"):
        OLAPSession(dataset.instance, snapshot=snapshot_path)


@pytest.mark.parametrize("mmap", [False, True])
def test_snapshot_session_matches_heap_session(dataset, snapshot_path, mmap):
    query = sites_per_blogger_query(dataset.schema)
    heap_session = OLAPSession(dataset.instance, dataset.schema)
    snapshot_session = OLAPSession(
        snapshot=snapshot_path, schema=dataset.schema, snapshot_mmap=mmap
    )
    assert isinstance(snapshot_session.instance, SnapshotGraph) == mmap

    oracle = heap_session.execute(query)
    cube = snapshot_session.execute(query)
    assert cube.same_cells(oracle)

    for operation in (DrillOut("dage"), Slice("dcity", next(iter(oracle.dimension_values("dcity"))))):
        transformed = snapshot_session.transform(query, operation)
        expected = heap_session.transform(query, operation)
        assert transformed.same_cells(expected)


def test_mmap_session_parallel_workers_attach_by_path(dataset, snapshot_path):
    query = sites_per_blogger_query(dataset.schema)
    oracle = OLAPSession(dataset.instance, dataset.schema).execute(query)
    with OLAPSession(
        snapshot=snapshot_path,
        schema=dataset.schema,
        workers=2,
        shard_count=3,
        parallel_backend="process",
    ) as session:
        assert session.parallel.attach_mode == "snapshot-mmap"
        materialized = session.parallel.evaluate(query)
        from repro.olap.cube import Cube

        assert Cube(materialized.answer, query).same_cells(oracle)
        assert session.parallel.last_backend == "process"
        assert session.parallel.stats.fallbacks == []


def test_snapshot_roundtrip_heap_and_mmap(dataset, tmp_path):
    path = str(tmp_path / "wrapped.snap")
    save_snapshot(dataset.instance, path)
    assert load_snapshot(path, mmap=False) == dataset.instance
    assert load_snapshot(path, mmap=True) == dataset.instance


def test_no_numpy_degrades_with_clear_error(monkeypatch, tmp_path, dataset):
    """Without the [fast] extra, snapshots fail fast naming the extra."""
    import repro.storage.snapshot as snapshot_module

    monkeypatch.setattr(snapshot_module, "_np", None)
    with pytest.raises(ConfigurationError, match=r"\[fast\]"):
        snapshot_module.save_snapshot(dataset.instance, str(tmp_path / "x.snap"))
    with pytest.raises(ConfigurationError, match=r"\[fast\]"):
        snapshot_module.load_snapshot(str(tmp_path / "x.snap"))
