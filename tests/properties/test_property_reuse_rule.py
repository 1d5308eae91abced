"""The planner's one reuse rule, held on random lattice navigations.

A ``rewrite[...]`` candidate is planned per *source*: the origin's cache
entry first, then every fresh entry sharing the transformed query's core key.
Hypothesis draws chains of SLICE, DICE, ROLL-UP and DRILL-DOWN over the
skewed retail workload (:mod:`repro.datagen.retail`) on both engines, and
after every step holds that

* a SLICE, DICE or ROLL-UP whose origin is cached has a ``rewrite``
  candidate that reads the origin (its detail names it);
* the forced ``rewrite`` cube equals the forced ``scratch`` cube, cell for
  cell;
* a forced ``rewrite`` raises only when no source qualifies: never for a
  SLICE, DICE or ROLL-UP with a cached origin, and for a DRILL-DOWN only
  when no finer lattice level of its target is cached.

The example tests pin the two edges: a DRILL-DOWN answered from a cached
finer level, and an origin that lives only on disk.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analytics.evaluator import AnalyticalQueryEvaluator
from repro.datagen import RetailConfig, retail_dataset
from repro.datagen.retail import (
    category_department_hierarchy,
    city_region_hierarchy,
    region_zone_hierarchy,
    revenue_query,
)
from repro.errors import MaterializationError, RewritingError
from repro.olap.cube import Cube
from repro.olap.operations import Dice, DrillDown, RollUp, Slice
from repro.olap.session import OLAPSession

_SETTINGS = dict(max_examples=12, deadline=None, print_blob=True)

try:  # the columnar engine is optional (numpy-backed)
    import numpy  # noqa: F401

    ENGINES = ("rows", "columnar")
except ImportError:  # pragma: no cover
    ENGINES = ("rows",)

_dataset_cache = {}


def _retail(seed: int):
    if seed not in _dataset_cache:
        _dataset_cache[seed] = retail_dataset(
            RetailConfig(sales=60 + seed % 20, stores=6, products=12, cities=6,
                         regions=3, categories=6, departments=2, seed=seed)
        )
    return _dataset_cache[seed]


def _stacks(config):
    return {
        "dcity": [city_region_hierarchy(config), region_zone_hierarchy(config)],
        "dcat": [category_department_hierarchy(config)],
    }


def _draw_operation(draw, query, cube, stacks):
    """One SLICE, DICE, ROLL-UP or DRILL-DOWN applicable to ``query``, whose
    cube is ``cube`` (None when stuck).  SLICE/DICE values are cells of the
    cube, so Σ never intersects to the empty set."""
    values = {
        dimension: sorted(
            (value for value in cube.dimension_values(dimension) if query.sigma[dimension].allows(value)),
            key=repr,
        )
        for dimension in query.dimension_names
    }
    sliceable = sorted(dimension for dimension, found in values.items() if found)
    rollable = [
        dimension
        for dimension, stack in sorted(stacks.items())
        if sum(stage.dimension == dimension for stage in query.rollup) < len(stack)
    ]
    kinds = (["slice", "dice"] if sliceable else []) + (["roll-up"] if rollable else [])
    kinds += ["drill-down"] if query.rollup else []
    if not kinds:
        return None
    kind = draw(st.sampled_from(kinds), label="operation")
    if kind == "roll-up":
        dimension = draw(st.sampled_from(rollable), label="rolled dimension")
        level = sum(stage.dimension == dimension for stage in query.rollup)
        return RollUp(dimension, stacks[dimension][level])
    if kind == "drill-down":
        return DrillDown()
    dimension = draw(st.sampled_from(sliceable), label="restricted dimension")
    if kind == "slice":
        return Slice(dimension, draw(st.sampled_from(values[dimension]), label="value"))
    chosen = draw(
        st.lists(st.sampled_from(values[dimension]), min_size=1, max_size=3, unique_by=repr),
        label="values",
    )
    return Dice({dimension: chosen})


def _reads(candidate, query, materialized) -> bool:
    """True for a ``rewrite`` candidate over ``query``'s materialized results."""
    return (
        candidate.strategy.startswith("rewrite[")
        and f"({query.name})" in candidate.detail
        and candidate.input_rows in (len(materialized.answer), materialized.partial.row_bound()[0])
    )


@given(
    data=st.data(),
    seed=st.integers(min_value=0, max_value=20),
    chain_length=st.integers(min_value=1, max_value=6),
    capacity=st.sampled_from([2, None]),
    engine=st.sampled_from(ENGINES),
)
@settings(**_SETTINGS)
def test_every_source_is_read_through_one_rule(data, seed, chain_length, capacity, engine):
    dataset = _retail(seed)
    stacks = _stacks(dataset.config)
    oracle = AnalyticalQueryEvaluator(dataset.instance)
    kwargs = {} if capacity is None else {"cache_capacity": capacity}
    session = OLAPSession(dataset.instance, dataset.schema, engine=engine, **kwargs)
    current = revenue_query(dataset.schema)
    cube = session.execute(current)
    for _ in range(chain_length):
        if data.draw(st.booleans(), label="drop the origin"):
            session.cache.discard(current)
        operation = _draw_operation(data.draw, current, cube, stacks)
        if operation is None:
            break
        transformed = operation.apply(current)
        # No instance update runs here: every in-memory entry is fresh.
        cached_origin = current.canonical_key in session.cache.keys()
        plan = session.planner.plan(current, operation, transformed, families=("rewrite", "scratch"))
        if cached_origin and not isinstance(operation, DrillDown):
            origin = session.materialized(current)
            assert any(_reads(candidate, current, origin) for candidate in plan.candidates), plan.explain()

        try:
            rewritten = session.transform(current, operation, strategy="rewrite")
        except (RewritingError, MaterializationError):
            assert isinstance(operation, DrillDown) or not cached_origin, plan.explain()
            keys = session.cache.keys()
            finer = [transformed.rollup_prefix(level) for level in range(len(transformed.rollup))]
            assert not any(query.canonical_key in keys for query in finer), plan.explain()
            rewritten = None
        cube = session.transform(current, operation, strategy="scratch")
        assert cube.same_cells(Cube(oracle.answer(transformed), transformed))
        if rewritten is not None:
            assert rewritten.same_cells(cube), (rewritten.record.strategy, plan.explain())
        current = cube.query


@pytest.mark.parametrize("engine", ENGINES)
def test_forced_rewrite_drill_down_reads_a_cached_finer_level(engine):
    """A forced-rewrite DRILL-DOWN rolls its target from a cached finer level;
    with none cached (the target's own entry does not count) it raises."""
    dataset = _retail(3)
    config = dataset.config
    query = revenue_query(dataset.schema)
    session = OLAPSession(dataset.instance, dataset.schema, engine=engine)
    session.execute(query)
    region = session.transform(query, RollUp("dcity", city_region_hierarchy(config))).query
    zone = session.transform(region, RollUp("dcity", region_zone_hierarchy(config))).query
    back = session.transform(zone, DrillDown("dcity"), strategy="rewrite")
    assert back.record.strategy == "rewrite[roll-up/pres]"
    assert back.record.input_rows == session.materialized(query).partial.row_bound()[0]
    oracle = AnalyticalQueryEvaluator(dataset.instance)
    assert back.same_cells(Cube(oracle.answer(back.query), back.query))
    session.forget(query)
    assert region.canonical_key in session.cache.keys()
    with pytest.raises(RewritingError):
        session.transform(zone, DrillDown("dcity"), strategy="rewrite")


@pytest.mark.parametrize("engine", ENGINES)
def test_an_origin_read_off_disk_is_a_rewrite_source(engine, tmp_path):
    """With no room in memory the origin is read off disk on every plan and
    never enters the cache's entries, so no scan of them finds it: the
    planner lists it as a source itself."""
    dataset = _retail(5)
    config = dataset.config
    query = revenue_query(dataset.schema)
    session = OLAPSession(
        dataset.instance, dataset.schema, engine=engine, cache_capacity=0, cache_dir=str(tmp_path)
    )
    session.execute(query)
    oracle = AnalyticalQueryEvaluator(dataset.instance)
    city = sorted(Cube(oracle.answer(query), query).dimension_values("dcity"), key=repr)[0]
    for operation in (Slice("dcity", city), RollUp("dcity", city_region_hierarchy(config))):
        cube = session.transform(query, operation)
        assert cube.record.strategy.startswith("plan[rewrite[")
        assert f"({query.name})" in session.explain_last().splitlines()[1]
        assert cube.same_cells(Cube(oracle.answer(cube.query), cube.query))
        assert session.cache.keys() == ()
