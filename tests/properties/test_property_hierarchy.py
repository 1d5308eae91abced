"""Differential oracle for the hierarchy lattice under live graph updates.

Hypothesis generates chains of ≤6 operations interleaving ROLL-UP /
DRILL-DOWN moves over multi-level hierarchy stacks with instance updates
(fact additions, measure additions, triple removals), on the blogger
workload and on the skewed retail workload
(:mod:`repro.datagen.retail`).  After **every** navigation step the cube
the session serves — from cache, from a delta-patched refresh, rolled from
a cached finer lattice entry, rewritten from the origin's ``pres``, or
recomputed — must equal from-scratch evaluation of the *same rolled query*
on the *current* instance, cell for cell.  The matrix covers both
execution engines (``rows`` / ``columnar``), worker counts {1, 2} and
cache capacities 0 / 1 / default (0 disables every reuse path, so the
planner must degrade gracefully, never wrongly).
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.rdf import EX, Literal, RDF, Triple
from repro.analytics.evaluator import AnalyticalQueryEvaluator
from repro.datagen import BloggerConfig, RetailConfig, blogger_dataset, retail_dataset
from repro.datagen.blogger import sites_per_blogger_query
from repro.datagen.retail import (
    category_department_hierarchy,
    city_region_hierarchy,
    region_zone_hierarchy,
    revenue_query,
)
from repro.olap.cube import Cube
from repro.olap.hierarchy import DimensionHierarchy
from repro.olap.operations import DrillDown, RollUp
from repro.olap.session import OLAPSession

#: Pinned profile: no deadline, reproduction blob printed on failure.
_SETTINGS = dict(max_examples=8, deadline=None, print_blob=True)

RDF_TYPE = RDF.term("type")

try:  # the columnar engine is optional (numpy-backed)
    import numpy  # noqa: F401

    ENGINES = ("rows", "columnar")
except ImportError:  # pragma: no cover
    ENGINES = ("rows",)

_dataset_cache = {}


def _blogger(seed: int):
    if ("blogger", seed) not in _dataset_cache:
        _dataset_cache[("blogger", seed)] = blogger_dataset(
            BloggerConfig(bloggers=14 + seed % 6, seed=seed)
        )
    return _dataset_cache[("blogger", seed)]


def _retail(seed: int):
    if ("retail", seed) not in _dataset_cache:
        _dataset_cache[("retail", seed)] = retail_dataset(
            RetailConfig(sales=60 + seed % 20, stores=6, products=12, cities=6,
                         regions=3, categories=6, departments=2, seed=seed)
        )
    return _dataset_cache[("retail", seed)]


def _blogger_stacks(config):
    """Two-level stacks for both dimensions of the sites-per-blogger query."""
    bands = DimensionHierarchy.banded(
        [(0, 29, "young"), (30, 120, "senior")], name="age bands"
    )
    band_all = DimensionHierarchy.from_pairs(
        [("young", "anyone"), ("senior", "anyone")], name="bands->all"
    )
    cities = DimensionHierarchy(
        {EX.term(f"city/{label}"): f"country{index % 2}"
         for index, label in enumerate(_blogger_city_labels(config))},
        default="country-other",
        name="city->country",
    )
    countries = DimensionHierarchy.from_pairs(
        [("country0", "world"), ("country1", "world"), ("country-other", "world")],
        name="country->world",
    )
    return {"dage": [bands, band_all], "dcity": [cities, countries]}


def _blogger_city_labels(config):
    # Mirrors blogger_base_graph's city naming (EX.term(f"city/{label}")).
    from repro.datagen.blogger import _CITY_NAMES  # noqa: PLC0415

    return [
        _CITY_NAMES[index] if index < len(_CITY_NAMES) else f"City{index}"
        for index in range(config.cities)
    ]


def _retail_stacks(config):
    return {
        "dcity": [city_region_hierarchy(config), region_zone_hierarchy(config)],
        "dcat": [category_department_hierarchy(config)],
    }


# ---------------------------------------------------------------------------
# update generators
# ---------------------------------------------------------------------------


def _update_blogger(draw, instance, counter):
    kind = draw(st.sampled_from(["add_fact", "add_measure", "remove"]))
    if kind == "add_fact":
        tag = f"hier_user{next(counter)}"
        user = EX.term(tag)
        instance.add(Triple(user, RDF_TYPE, EX.Blogger))
        instance.add(Triple(user, EX.hasAge, Literal(draw(st.integers(18, 60)))))
        instance.add(Triple(user, EX.livesIn, EX.term("city/hier_city")))
        post = EX.term(f"{tag}_post")
        instance.add(Triple(user, EX.wrotePost, post))
        instance.add(Triple(post, EX.postedOn, EX.term("site/site0")))
        return
    triples = sorted(instance, key=repr)
    if not triples:
        return
    if kind == "add_measure":
        bloggers = sorted(
            {t.subject for t in triples if t.predicate == RDF_TYPE and t.object == EX.Blogger},
            key=repr,
        )
        if not bloggers:
            return
        author = draw(st.sampled_from(bloggers))
        post = EX.term(f"hier_post{next(counter)}")
        instance.add(Triple(author, EX.wrotePost, post))
        instance.add(Triple(post, EX.postedOn, EX.term("site/site1")))
        return
    victim = triples[draw(st.integers(0, len(triples) - 1))]
    instance.remove(victim)


def _update_retail(draw, instance, counter):
    """Add sales against *existing* stores/products, or remove a sale triple.

    New stores/cities are never introduced: the explicit hierarchies map the
    generated city/category terms only, and an unmapped member would
    (correctly) fail parent() in session and oracle alike — not the
    behaviour under test here.
    """
    kind = draw(st.sampled_from(["add_sale", "remove_sale_triple"]))
    if kind == "add_sale":
        sale = EX.term(f"sale/hier{next(counter)}")
        instance.add(Triple(sale, RDF_TYPE, EX.Sale))
        instance.add(Triple(sale, EX.atStore, EX.term(f"store/s{draw(st.integers(0, 5))}")))
        instance.add(Triple(sale, EX.ofProduct, EX.term(f"product/p{draw(st.integers(0, 11))}")))
        instance.add(Triple(sale, EX.hasAmount, Literal(draw(st.integers(1, 400)))))
        return
    sale_triples = sorted(
        (t for t in instance if t.predicate in (EX.hasAmount, EX.ofProduct, RDF_TYPE)
         and str(t.subject).startswith(str(EX.term("sale/")))),
        key=repr,
    )
    if not sale_triples:
        return
    victim = sale_triples[draw(st.integers(0, len(sale_triples) - 1))]
    instance.remove(victim)


# ---------------------------------------------------------------------------
# the chain driver
# ---------------------------------------------------------------------------


def _rollup_level(query, dimension):
    return sum(1 for stage in query.rollup if stage.dimension == dimension)


def _draw_move(draw, query, stacks):
    """One lattice move: ROLL-UP an eligible dimension or DRILL-DOWN."""
    choices = []
    for dimension, stack in sorted(stacks.items()):
        if dimension in query.dimension_names and _rollup_level(query, dimension) < len(stack):
            choices.append(("roll", dimension))
    if query.rollup:
        choices.append(("drill", None))
    if not choices:
        return None
    kind, dimension = draw(st.sampled_from(choices))
    if kind == "roll":
        return RollUp(dimension, stacks[dimension][_rollup_level(query, dimension)])
    return DrillDown()


def _run_chain(data, session, instance, query, stacks, update, chain_length):
    oracle = AnalyticalQueryEvaluator(instance)
    counter = itertools.count()
    session.execute(query)
    current = query
    for _ in range(chain_length):
        if data.draw(st.booleans(), label="update before move"):
            update(data.draw, instance, counter)
        move = _draw_move(data.draw, current, stacks)
        if move is None:
            break
        served = session.transform(current, move)
        transformed = served.query
        scratch = Cube(oracle.answer(transformed), transformed)
        assert served.same_cells(scratch), (
            f"lattice navigation diverged from scratch on {transformed.name} "
            f"(strategy {session.history[-1].strategy}, engine {session.engine}, "
            f"workers {session.workers})"
        )
        current = transformed


@given(
    data=st.data(),
    seed=st.integers(min_value=0, max_value=20),
    chain_length=st.integers(min_value=1, max_value=6),
    capacity=st.sampled_from([0, 1, None]),
    engine=st.sampled_from(ENGINES),
)
@settings(**_SETTINGS)
def test_blogger_lattice_chain_matches_scratch(data, seed, chain_length, capacity, engine):
    dataset = _blogger(seed)
    instance = dataset.instance.copy()
    query = sites_per_blogger_query(dataset.schema)
    stacks = _blogger_stacks(dataset.config)
    kwargs = {} if capacity is None else {"cache_capacity": capacity}
    session = OLAPSession(instance, dataset.schema, engine=engine, **kwargs)
    _run_chain(data, session, instance, query, stacks, _update_blogger, chain_length)


@given(
    data=st.data(),
    seed=st.integers(min_value=0, max_value=20),
    chain_length=st.integers(min_value=1, max_value=6),
    capacity=st.sampled_from([0, 1, None]),
    workers=st.sampled_from([1, 2]),
)
@settings(**_SETTINGS)
def test_retail_lattice_chain_matches_scratch(data, seed, chain_length, capacity, workers):
    dataset = _retail(seed)
    instance = dataset.instance.copy()
    query = revenue_query(dataset.schema)
    stacks = _retail_stacks(dataset.config)
    kwargs = {} if capacity is None else {"cache_capacity": capacity}
    session = OLAPSession(instance, dataset.schema, workers=workers, **kwargs)
    _run_chain(data, session, instance, query, stacks, _update_retail, chain_length)


@given(
    seed=st.integers(min_value=0, max_value=20),
    engine=st.sampled_from(ENGINES),
)
@settings(**_SETTINGS)
def test_evicted_level_rolls_from_a_cached_finer_level(seed, engine):
    """Evict a deep lattice level and its origin, then ask for it again: the
    planner must roll it from a cached finer level, and the cube must still
    equal scratch evaluation."""
    dataset = _retail(seed)
    config = dataset.config
    query = revenue_query(dataset.schema)
    session = OLAPSession(dataset.instance, dataset.schema, engine=engine)
    session.execute(query)
    region = session.transform(query, RollUp("dcity", city_region_hierarchy(config))).query
    zone = session.transform(region, RollUp("dcity", region_zone_hierarchy(config))).query
    to_departments = RollUp("dcat", category_department_hierarchy(config))
    session.forget(session.transform(zone, to_departments).query)
    session.forget(zone)
    served = session.transform(zone, to_departments)
    assert session.history[-1].strategy == "plan[rollup-from-cached]"
    oracle = Cube(AnalyticalQueryEvaluator(dataset.instance).answer(served.query), served.query)
    assert served.same_cells(oracle)


@given(
    seed=st.integers(min_value=0, max_value=20),
    engine=st.sampled_from(ENGINES),
)
@settings(**_SETTINGS)
def test_full_stack_roll_and_unroll_is_identity(seed, engine):
    """Rolling every stack level then drilling all the way back down serves
    the original cube again (through whatever strategies the planner picks)."""
    dataset = _retail(seed)
    query = revenue_query(dataset.schema)
    stacks = _retail_stacks(dataset.config)
    session = OLAPSession(dataset.instance, dataset.schema, engine=engine)
    base = session.execute(query)
    current = query
    depth = 0
    for dimension, stack in sorted(stacks.items()):
        for hierarchy in stack:
            current = session.transform(current, RollUp(dimension, hierarchy)).query
            depth += 1
    for _ in range(depth):
        current = session.transform(current, DrillDown()).query
    assert current.name != query.name  # a distinct navigation-derived query...
    unrolled = session.transform(current, RollUp("dcity", stacks["dcity"][0]))
    drilled = session.transform(unrolled.query, DrillDown())
    oracle = Cube(AnalyticalQueryEvaluator(dataset.instance).answer(drilled.query), drilled.query)
    assert drilled.same_cells(oracle)
    assert base.same_cells(
        Cube(AnalyticalQueryEvaluator(dataset.instance).answer(query), query)
    )
