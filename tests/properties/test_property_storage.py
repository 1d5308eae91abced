"""Differential oracle: the mmap-backed snapshot graph against the heap.

Hypothesis generates chains of OLAP operations over blogger and video
instances; every query in the chain is answered twice — once on the live
heap instance, once on a memory-mapped snapshot of it — and the cubes must
be cell-for-cell equal, with ``pres(Q)`` bag-equal modulo the opaque
``newk()`` keys.  The mapped graph differs from the heap one in every
internal (binary-search matching over file-backed columns, lazy term
decoding, header-served statistics), so agreement here pins the storage
subsystem to the semantics of the in-memory engine it replaces.
"""

import pytest

pytest.importorskip("numpy")  # snapshots require the [fast] extra

from hypothesis import given, settings, strategies as st

from repro.algebra.operators import project
from repro.analytics.evaluator import AnalyticalQueryEvaluator
from repro.analytics.query import KEY_COLUMN
from repro.datagen import BloggerConfig, VideoConfig, blogger_dataset, video_dataset
from repro.olap.cube import Cube
from repro.storage import load_snapshot, save_snapshot

from tests.properties.test_property_columnar import (
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
        backend="serial",
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
