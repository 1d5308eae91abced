"""Differential oracle: the mmap-backed snapshot graph against the heap.

Hypothesis generates chains of OLAP operations over blogger and video
instances; every query in the chain is answered twice — once on the live
heap instance, once on a memory-mapped snapshot of it — and the cubes must
be cell-for-cell equal, with ``pres(Q)`` bag-equal modulo the opaque
``newk()`` keys.  The mapped graph differs from the heap one in every
internal (binary-search matching over file-backed columns, lazy term
decoding, header-served statistics), so agreement here pins the storage
subsystem to the semantics of the in-memory engine it replaces.

A second oracle pins the writer: a generation's snapshot merged from its
predecessor's file and the writer's delta is, byte for byte, the file a
from-scratch save of the same graph writes.
"""

import os
import tempfile

import pytest

pytest.importorskip("numpy")  # snapshots require the [fast] extra

from hypothesis import example, given, settings, strategies as st

from repro.algebra.operators import project
from repro.analytics.evaluator import AnalyticalQueryEvaluator
from repro.analytics.query import KEY_COLUMN
from repro.datagen import BloggerConfig, VideoConfig, blogger_dataset, video_dataset
from repro.olap.cube import Cube
from repro.rdf import BlankNode, Graph, Literal, RDF, Triple
from repro.rdf.namespaces import EX
from repro.serving.generations import GenerationManager
from repro.storage import load_snapshot, save_snapshot

from tests.properties.test_property_parallel import (
    AGGREGATES,
    _blogger,
    _draw_operation,
    _root_query,
    _value_pool,
    _video,
)

_SETTINGS = dict(max_examples=8, deadline=None, print_blob=True)

_mapped_cache = {}


def _mapped_instance(scenario: str, seed: int, instance, tmp_path_factory):
    """One snapshot + mapped graph per (scenario, seed), reused across examples."""
    key = (scenario, seed)
    if key not in _mapped_cache:
        path = str(
            tmp_path_factory.mktemp("property-snapshots") / f"{scenario}_{seed}.snap"
        )
        save_snapshot(instance, path)
        _mapped_cache[key] = load_snapshot(path, mmap=True)
    return _mapped_cache[key]


def _assert_backends_agree(mapped_engine, heap_engine, query):
    mapped = mapped_engine.evaluate(query)
    heap = heap_engine.evaluate(query)
    assert Cube(mapped.answer, query).same_cells(Cube(heap.answer, query)), (
        f"mmap-backed evaluation diverged from the heap oracle on {query.name}"
    )
    keyless = [name for name in heap.partial.columns if name != KEY_COLUMN]
    assert project(mapped.partial.storage, keyless).bag_equal(
        project(heap.partial.storage, keyless)
    ), f"pres(Q) diverged modulo keys on {query.name}"


@given(
    data=st.data(),
    seed=st.integers(min_value=0, max_value=15),
    scenario=st.sampled_from(["blogger", "video"]),
    aggregate=st.sampled_from(AGGREGATES),
    chain_length=st.integers(min_value=1, max_value=5),
)
@settings(**_SETTINGS)
def test_mapped_chain_matches_heap_oracle(
    data, seed, scenario, aggregate, chain_length, tmp_path_factory
):
    dataset = _blogger(seed) if scenario == "blogger" else _video(seed)
    mapped_graph = _mapped_instance(scenario, seed, dataset.instance, tmp_path_factory)
    mapped_engine = AnalyticalQueryEvaluator(mapped_graph)
    heap_engine = AnalyticalQueryEvaluator(dataset.instance)
    query = _root_query(scenario, dataset, aggregate)
    pools = _value_pool(heap_engine, query)

    _assert_backends_agree(mapped_engine, heap_engine, query)
    current = query
    for _ in range(chain_length):
        operation = _draw_operation(data.draw, current, pools)
        if operation is None:
            break
        current = operation.apply(current)
        _assert_backends_agree(mapped_engine, heap_engine, current)


@given(
    seed=st.integers(min_value=0, max_value=15),
    aggregate=st.sampled_from(AGGREGATES),
    shards=st.sampled_from((1, 3, 7)),
)
@settings(**_SETTINGS)
def test_mapped_shard_evaluation_matches_heap_oracle(
    seed, aggregate, shards, tmp_path_factory
):
    """Partitioned evaluation over the mapped graph merges to the serial
    heap answer across shard counts — the zero-copy worker contract."""
    from repro.olap.parallel import ParallelExecutor

    dataset = _blogger(seed)
    mapped_graph = _mapped_instance("blogger", seed, dataset.instance, tmp_path_factory)
    query = _root_query("blogger", dataset, aggregate)
    heap_engine = AnalyticalQueryEvaluator(dataset.instance)
    executor = ParallelExecutor(
        AnalyticalQueryEvaluator(mapped_graph),
        workers=1,
        shard_count=shards,
    )
    try:
        merged = executor.evaluate(query)
        oracle = heap_engine.evaluate(query)
        assert Cube(merged.answer, query).same_cells(Cube(oracle.answer, query))
        keyless = [name for name in oracle.partial.columns if name != KEY_COLUMN]
        assert project(merged.partial.storage, keyless).bag_equal(
            project(oracle.partial.storage, keyless)
        )
    finally:
        executor.close()


# Pools whose first-seen order is the draw order, so a new term's sort key
# lands before, between or after the ones already in the file.
_SUBJECTS = [EX.term("m"), EX.term("a"), EX.term("z"), EX.term("mm"), BlankNode("b"), BlankNode("a")]
_PREDICATES = [RDF.term("type"), EX.term("p"), EX.term("q"), EX.term("0-first"), EX.term("~last")]
_OBJECTS = _SUBJECTS + [EX.term("Fact"), Literal(5), Literal("5"), Literal("x", language="en"), Literal("")]
_OPERATION = st.tuples(
    st.booleans(),
    st.builds(
        Triple,
        st.sampled_from(_SUBJECTS),
        st.sampled_from(_PREDICATES),
        st.sampled_from(_OBJECTS),
    ),
)


def _add(s, p, o):
    return True, Triple(EX.term(s), EX.term(p), EX.term(o))


def _remove(s, p, o):
    return False, Triple(EX.term(s), EX.term(p), EX.term(o))


def _read(path):
    with open(path, "rb") as handle:
        return handle.read()


@given(batches=st.lists(st.lists(_OPERATION, max_size=6), max_size=8), limit=st.sampled_from([3, 4096]))
@example(
    batches=[
        [_add("m", "p", "z")],
        [_add("a", "p", "mm")],  # new terms before and between the file's
        [_add("m", "q", "~z")],  # a new predicate, a new term after them all
        [_remove("m", "q", "~z")],  # the predicate's last triple
        [_remove("a", "p", "mm"), _add("a", "p", "mm")],  # an empty delta
        [_add("m", "q", "~z")],  # re-added
        [],
        [_remove("m", "p", "z"), _remove("a", "p", "mm"), _remove("m", "q", "~z")],  # to empty
        [_add("b", "p", "a")],  # from empty
    ],
    limit=4096,
)
@example(batches=[[_add("a", "p", str(index)) for index in range(5)], [_add("b", "p", "a")]], limit=3)
@settings(max_examples=40, deadline=None, print_blob=True)
def test_snapshot_merged_from_its_predecessor_is_the_scratch_file(batches, limit):
    """Replays add/remove batches through snapshot publication: every
    generation's file equals a from-scratch save of the writer, and only a
    predecessor past the change-log window is written from scratch."""
    graph = Graph(change_log_limit=limit)
    with tempfile.TemporaryDirectory() as spool:
        manager = GenerationManager(graph, spool_dir=spool, mode="snapshot")
        try:
            scratch_writes = 0
            for batch in batches:
                graph.apply(
                    remove=[triple for add, triple in batch if not add],
                    add=[triple for add, triple in batch if add],
                )
                previous = manager.current.version
                scratch_writes += previous != graph.version and graph.deltas_since(previous) is None
                generation = manager.publish()
                scratch = os.path.join(spool, "scratch.snap")
                save_snapshot(graph, scratch)
                assert _read(generation.path) == _read(scratch)
                assert manager.scratch_writes == scratch_writes
        finally:
            manager.close()
