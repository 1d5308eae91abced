"""Snapshot round-trips, error paths, and the mapped graph's read API."""

import pickle
import struct

import pytest

np = pytest.importorskip("numpy")

from repro.datagen.blogger import BloggerConfig, blogger_dataset
from repro.datagen.videos import VideoConfig, video_dataset
from repro.errors import (
    DictionaryError,
    ReadOnlyGraphError,
    SnapshotFormatError,
    SnapshotVersionError,
    StorageError,
)
from repro.rdf.statistics import GraphStatistics
from repro.rdf.terms import IRI, Literal
from repro.rdf.triples import Triple
from repro.storage import (
    SNAPSHOT_FORMAT_VERSION,
    SNAPSHOT_MAGIC,
    SnapshotGraph,
    load_snapshot,
    open_snapshot,
    save_snapshot,
)
from repro.storage.snapshot import _FIXED_HEADER

from tests.naive_oracle import RecountedStatistics, statistics_fields


@pytest.fixture(scope="module")
def blogger_instance():
    return blogger_dataset(BloggerConfig(bloggers=40, seed=5)).instance


@pytest.fixture(scope="module")
def video_instance():
    return video_dataset(VideoConfig(videos=40, seed=5)).instance


def _snapshot_of(graph, tmp_path, name="instance.snap"):
    path = str(tmp_path / name)
    save_snapshot(graph, path)
    return path


# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fixture", ["blogger_instance", "video_instance"])
@pytest.mark.parametrize("mmap", [False, True])
def test_roundtrip_equality(request, tmp_path, fixture, mmap):
    graph = request.getfixturevalue(fixture)
    loaded = load_snapshot(_snapshot_of(graph, tmp_path), mmap=mmap)
    assert len(loaded) == len(graph)
    assert loaded == graph
    assert graph == loaded
    assert loaded.version == graph.version
    assert loaded.name == graph.name


def test_roundtrip_preserves_term_ids(blogger_instance, tmp_path):
    mapped = load_snapshot(_snapshot_of(blogger_instance, tmp_path))
    heap = load_snapshot(_snapshot_of(blogger_instance, tmp_path), mmap=False)
    for term, term_id in list(blogger_instance.dictionary.items())[:50]:
        assert mapped.encode_term(term) == term_id
        assert heap.encode_term(term) == term_id
        assert mapped.decode_id(term_id) == term


def test_roundtrip_indexes_match(blogger_instance, tmp_path):
    mapped = load_snapshot(_snapshot_of(blogger_instance, tmp_path))
    assert sorted(mapped.encoded_triples()) == sorted(blogger_instance.encoded_triples())
    for _, p_id, _ in list(blogger_instance.encoded_triples())[:20]:
        assert mapped.count_ids(None, p_id, None) == blogger_instance.count_ids(
            None, p_id, None
        )
        subjects, objects = mapped.columnar_predicate_pairs(p_id)
        assert len(subjects) == blogger_instance.count_ids(None, p_id, None)
        keys, _ = mapped.columnar_sorted_pairs(p_id, 0)
        assert list(keys) == sorted(keys.tolist())
        keys, _ = mapped.columnar_sorted_pairs(p_id, 2)
        assert list(keys) == sorted(keys.tolist())


def test_mapped_id_apis_return_python_ints(blogger_instance, tmp_path):
    """np.int64 leaking out of id APIs would break isinstance(x, int) checks."""
    mapped = load_snapshot(_snapshot_of(blogger_instance, tmp_path))
    s, p, o = next(iter(mapped.encoded_triples()))
    assert all(type(value) is int for value in (s, p, o))
    for value in mapped.match_single_ids(s, p, None, 2):
        assert type(value) is int
    for triple in mapped.match_ids(None, p, None):
        assert all(type(value) is int for value in triple)
        break


def test_mapped_graph_is_read_only(blogger_instance, tmp_path):
    mapped = load_snapshot(_snapshot_of(blogger_instance, tmp_path))
    triple = Triple(IRI("http://example.org/x"), IRI("http://example.org/p"), Literal(1))
    with pytest.raises(ReadOnlyGraphError):
        mapped.add(triple)
    with pytest.raises(ReadOnlyGraphError):
        mapped.remove(triple)
    with pytest.raises(ReadOnlyGraphError):
        mapped.clear()
    assert isinstance(ReadOnlyGraphError("x"), StorageError)


def test_mapped_dictionary_is_read_only(blogger_instance, tmp_path):
    mapped = load_snapshot(_snapshot_of(blogger_instance, tmp_path))
    unseen = IRI("http://example.org/definitely-not-in-the-instance")
    assert mapped.encode_term(unseen) is None
    with pytest.raises(DictionaryError):
        mapped.dictionary.encode(unseen)


def test_mapped_lookup_of_a_value_with_no_record_form_is_none(blogger_instance, tmp_path, monkeypatch):
    """A value the snapshot cannot record (a tuple) is no term of it; any
    other error while looking a term up propagates."""
    dictionary = load_snapshot(_snapshot_of(blogger_instance, tmp_path)).dictionary
    assert dictionary.lookup(("a", 1)) is None

    def planted(term):
        raise RuntimeError("planted")

    monkeypatch.setattr("repro.storage.mapped.term_record", planted)
    with pytest.raises(RuntimeError, match="planted"):
        dictionary.lookup(IRI("http://example.org/not-cached-yet"))


def test_mapped_graph_pickles_as_path(blogger_instance, tmp_path):
    mapped = load_snapshot(_snapshot_of(blogger_instance, tmp_path))
    payload = pickle.dumps(mapped)
    assert len(payload) < 1024  # a path, not a graph
    clone = pickle.loads(payload)
    assert isinstance(clone, SnapshotGraph)
    assert clone == mapped


def test_mapped_deltas_degrade_to_full_invalidation(blogger_instance, tmp_path):
    mapped = load_snapshot(_snapshot_of(blogger_instance, tmp_path))
    assert mapped.deltas_since(mapped.version).is_empty()
    if mapped.version > 0:
        assert mapped.deltas_since(mapped.version - 1) is None


def test_mapped_statistics_match_scan(blogger_instance, tmp_path):
    """Header summary (``_summarize``) and heap-maintained summary vs a recount."""
    mapped = load_snapshot(_snapshot_of(blogger_instance, tmp_path))
    from_scan = statistics_fields(RecountedStatistics(blogger_instance))
    assert from_scan["class_counts"] and from_scan["predicate_counts"]
    assert statistics_fields(GraphStatistics(mapped)) == from_scan
    assert statistics_fields(GraphStatistics(blogger_instance)) == from_scan


def test_heap_load_is_mutable(blogger_instance, tmp_path):
    heap = load_snapshot(_snapshot_of(blogger_instance, tmp_path), mmap=False)
    triple = Triple(IRI("http://example.org/new"), IRI("http://example.org/p"), Literal(7))
    assert heap.add(triple)
    assert triple in heap
    assert len(heap) == len(blogger_instance) + 1


def test_empty_graph_roundtrip(tmp_path):
    from repro.rdf.graph import Graph

    path = str(tmp_path / "empty.snap")
    save_snapshot(Graph(name="empty"), path)
    for mmap in (False, True):
        loaded = load_snapshot(path, mmap=mmap)
        assert len(loaded) == 0
        assert not loaded


# ---------------------------------------------------------------------------
# error paths
# ---------------------------------------------------------------------------


def test_bad_magic_raises_format_error(tmp_path):
    path = str(tmp_path / "bad.snap")
    with open(path, "wb") as handle:
        handle.write(b"NOTASNAP" + b"\0" * 64)
    with pytest.raises(SnapshotFormatError, match="bad magic"):
        open_snapshot(path)


def test_truncated_fixed_header_raises(tmp_path):
    path = str(tmp_path / "short.snap")
    with open(path, "wb") as handle:
        handle.write(SNAPSHOT_MAGIC[:4])
    with pytest.raises(SnapshotFormatError, match="truncated"):
        open_snapshot(path)


def test_truncated_payload_raises(blogger_instance, tmp_path):
    path = _snapshot_of(blogger_instance, tmp_path)
    data = open(path, "rb").read()
    with open(path, "wb") as handle:
        handle.write(data[: len(data) // 2])
    with pytest.raises(SnapshotFormatError, match="truncated"):
        open_snapshot(path)


def test_version_mismatch_raises_version_error(blogger_instance, tmp_path):
    path = _snapshot_of(blogger_instance, tmp_path)
    data = bytearray(open(path, "rb").read())
    struct.pack_into("<I", data, len(SNAPSHOT_MAGIC), SNAPSHOT_FORMAT_VERSION + 1)
    with open(path, "wb") as handle:
        handle.write(bytes(data))
    with pytest.raises(SnapshotVersionError, match="format version"):
        open_snapshot(path)


def test_corrupt_header_json_raises(blogger_instance, tmp_path):
    path = _snapshot_of(blogger_instance, tmp_path)
    data = bytearray(open(path, "rb").read())
    # Overwrite the first JSON header byte with garbage.
    data[_FIXED_HEADER.size] = 0xFF
    with open(path, "wb") as handle:
        handle.write(bytes(data))
    with pytest.raises(SnapshotFormatError, match="corrupt header"):
        open_snapshot(path)


def test_missing_file_raises_format_error(tmp_path):
    with pytest.raises(SnapshotFormatError, match="cannot read"):
        open_snapshot(str(tmp_path / "does-not-exist.snap"))


# ---------------------------------------------------------------------------
# the container's two file kinds
# ---------------------------------------------------------------------------


def test_graph_snapshot_bytes_are_pinned(tmp_path):
    """Format version 1 is frozen: the container writer must lay a graph
    snapshot out byte for byte as it always has."""
    import hashlib

    from repro.rdf.graph import Graph
    from repro.rdf.namespaces import RDF
    from repro.rdf.terms import BlankNode

    graph = Graph(name="pinned")  # inserted in a fixed order: fixed term ids
    for index in range(6):
        fact = IRI(f"http://example.org/fact/{index}")
        graph.add(Triple(fact, RDF.term("type"), IRI("http://example.org/Fact")))
        graph.add(Triple(fact, IRI("http://example.org/value"), Literal(index * 1.5)))
        graph.add(Triple(fact, IRI("http://example.org/label"), Literal(f"f{index}", language="en")))
    graph.add(Triple(BlankNode("b0"), IRI("http://example.org/flag"), Literal(True)))
    data = open(_snapshot_of(graph, tmp_path), "rb").read()
    assert hashlib.sha256(data).hexdigest() == (
        "5b54c522e1cf0910b27c61e1d775847cd152c3ebc28242d9336865bf75df1fa0"
    )


def test_a_cache_entry_is_not_a_snapshot(example2_instance, sites_query, tmp_path):
    import os

    from repro.olap import OLAPSession

    store = str(tmp_path / "cache")
    OLAPSession(example2_instance, cache_dir=store).execute(sites_query)
    (name,) = os.listdir(store)
    with pytest.raises(SnapshotFormatError, match="cache-entry file, not a graph snapshot"):
        open_snapshot(os.path.join(store, name))
