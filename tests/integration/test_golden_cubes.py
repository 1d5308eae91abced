"""Golden-cube regression suite.

Every paper example and both datagen workloads have their expected cubes
serialized under ``tests/golden/*.json``; each case is answered through
**every** answering strategy the session offers (the cost-based planner,
the forced rewriting path and forced from-scratch evaluation) and must
reproduce the golden cells exactly — same cell keys,
same measures (numeric measures within 1e-9).

Regenerating the fixtures after an intended cube-semantics change::

    python -m pytest tests/integration/test_golden_cubes.py --update-golden

(Only the from-scratch strategy writes, so a broken rewrite can never
overwrite a golden file with its own wrong answer.)
"""

import json
import os

import pytest

from repro.rdf import EX, Literal, RDF, Triple
from repro.olap import Dice, DimensionHierarchy, DrillIn, DrillOut, OLAPSession, RollUp, Slice
from repro.rdf.ntriples import _parse_term
from repro.rdf.terms import Term

from tests.conftest import make_sites_query, make_views_query, make_words_query

RDF_TYPE = RDF.term("type")

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "golden")

#: Strategies every transform case must reproduce the golden cube under.
STRATEGIES = ("scratch", "rewrite", "plan")


# ---------------------------------------------------------------------------
# case definitions: name -> (fixture name, builder(session, strategy) -> Cube)
# ---------------------------------------------------------------------------


def _root(query_factory):
    def build(session, strategy):
        return session.execute(query_factory())

    build.query_factory = query_factory
    build.operation = None
    return build


def _transform(query_factory, operation):
    def build(session, strategy):
        query = query_factory()
        session.execute(query)
        return session.transform(query, operation, strategy=strategy)

    build.query_factory = query_factory
    build.operation = operation
    return build


def _blogger_query(dataset):
    from repro.datagen.blogger import sites_per_blogger_query

    return sites_per_blogger_query(dataset.schema)


def _video_query(dataset):
    from repro.datagen.videos import views_per_url_query

    return views_per_url_query(dataset.schema)


def _retail_query(dataset):
    from repro.datagen.retail import revenue_query

    return revenue_query(dataset.schema)


AGE_BANDS = DimensionHierarchy.banded(
    [(0, 29, "young"), (30, 120, "senior")], name="age bands"
)


def _retail_city_rollup(dataset):
    from repro.datagen.retail import city_region_hierarchy

    return RollUp("dcity", city_region_hierarchy(dataset.config))


CASES = {
    # paper worked examples -------------------------------------------------
    "example2_sites_root": ("example2_instance", _root(make_sites_query)),
    "example2_slice_age35": (
        "example2_instance",
        _transform(make_sites_query, Slice("dage", Literal(35))),
    ),
    "example2_dice_madrid": (
        "example2_instance",
        _transform(
            make_sites_query,
            Dice({"dage": [Literal(28)], "dcity": [EX.term("Madrid"), EX.term("Kyoto")]}),
        ),
    ),
    "example2_drillout_age": (
        "example2_instance",
        _transform(make_sites_query, DrillOut("dage")),
    ),
    "example4_words_root": ("example4_instance", _root(make_words_query)),
    "example4_dice_range": (
        "example4_instance",
        _transform(make_words_query, Dice({"dage": (20, 30)})),
    ),
    "figure3_views_root": ("figure3_instance", _root(make_views_query)),
    "figure3_drillin_browser": (
        "figure3_instance",
        _transform(make_views_query, DrillIn("d3")),
    ),
}

def _example2_update_batch(instance):
    """Scripted update: one new 35/NY blogger posting on s1, one post moves."""
    user5 = EX.term("user5")
    post = EX.term("p6")
    instance.add(Triple(user5, RDF_TYPE, EX.Blogger))
    instance.add(Triple(user5, EX.hasAge, Literal(35)))
    instance.add(Triple(user5, EX.livesIn, EX.term("NY")))
    instance.add(Triple(post, RDF_TYPE, EX.BlogPost))
    instance.add(Triple(user5, EX.wrotePost, post))
    instance.add(Triple(post, EX.postedOn, EX.term("s1")))
    instance.remove(Triple(EX.term("p4"), EX.postedOn, EX.term("s2")))
    instance.add(Triple(EX.term("p4"), EX.postedOn, EX.term("s3")))


def _blogger_workload_update_batch(instance):
    """Scripted update on the generated blogger instance: two new bloggers
    (one landing in an existing group, one opening a new city) and one
    removed authorship."""
    for tag, age, city, site in (
        ("upd_user1", 31, "Madrid", "site_0"),
        ("upd_user2", 77, "Reykjavik", "site_1"),
    ):
        user = EX.term(tag)
        post = EX.term(f"{tag}_post")
        instance.add(Triple(user, RDF_TYPE, EX.Blogger))
        instance.add(Triple(user, EX.hasAge, Literal(age)))
        instance.add(Triple(user, EX.livesIn, EX.term(city)))
        instance.add(Triple(post, RDF_TYPE, EX.BlogPost))
        instance.add(Triple(user, EX.wrotePost, post))
        instance.add(Triple(post, EX.postedOn, EX.term(site)))
    authorships = sorted(
        (triple for triple in instance if triple.predicate == EX.wrotePost),
        key=repr,
    )
    instance.remove(authorships[0])


#: Update cases: name -> (fixture, query builder, scripted update batch).
#: Each case executes the query, applies the batch, and re-answers; the
#: warmed session must take the refresh path and reproduce the golden cells.
UPDATE_CASES = {
    "example2_sites_after_update": (
        "example2_instance",
        lambda dataset: make_sites_query(),
        _example2_update_batch,
    ),
    "blogger_workload_after_update": (
        "small_blogger_dataset",
        _blogger_query,
        _blogger_workload_update_batch,
    ),
}


#: Hierarchy-lattice cases: name -> (fixture, query builder, operation builder).
#: Kept out of CASES because rolled queries are (by design) outside the
#: shard-parallel executor's supported fragment.
ROLLUP_CASES = {
    "example2_agebands_rollup": (
        "example2_instance",
        lambda fixture: make_sites_query(),
        lambda fixture: RollUp("dage", AGE_BANDS),
    ),
    "blogger_workload_agebands_rollup": (
        "small_blogger_dataset",
        _blogger_query,
        lambda fixture: RollUp("dage", AGE_BANDS),
    ),
    "retail_workload_region_rollup": (
        "small_retail_dataset",
        _retail_query,
        _retail_city_rollup,
    ),
}


def _retail_update_batch(instance):
    """Scripted retail update: two new sales at existing stores (one typed
    only via a subclass, so its effect differs between plain and entailed
    sessions), one new ρdf axiom, and one removed amount."""
    from repro.rdf import RDFS

    for tag, sale_type, store, product, amount in (
        ("upd_sale1", EX.Sale, "store/s0", "product/p1", 111),
        ("upd_sale2", EX.OnlineSale, "store/s2", "product/p3", 77),
    ):
        sale = EX.term(f"sale/{tag}")
        instance.add(Triple(sale, RDF_TYPE, sale_type))
        instance.add(Triple(sale, EX.atStore, EX.term(store)))
        instance.add(Triple(sale, EX.ofProduct, EX.term(product)))
        instance.add(Triple(sale, EX.hasAmount, Literal(amount)))
    # A schema-triple delta: re-saturation must pick the new rule up.
    instance.add(Triple(EX.FlashSale, RDFS.term("subClassOf"), EX.OnlineSale))
    flash = EX.term("sale/upd_flash")
    instance.add(Triple(flash, RDF_TYPE, EX.FlashSale))
    instance.add(Triple(flash, EX.atStore, EX.term("store/s1")))
    instance.add(Triple(flash, EX.ofProduct, EX.term("product/p0")))
    instance.add(Triple(flash, EX.hasAmount, Literal(55)))
    amounts = sorted(
        (triple for triple in instance if triple.predicate == EX.hasAmount),
        key=repr,
    )
    instance.remove(amounts[0])


#: Entailment cases: every mode must reproduce cells written by the
#: *pre-saturated plain scratch* oracle — a broken saturation sync or a
#: wrong rewrite expansion can never canonize its own answer.
ENTAILED_CASES = {
    "retail_workload_root_entailed": ("small_retail_dataset", _retail_query, None),
    "retail_workload_region_rollup_entailed": (
        "small_retail_dataset",
        _retail_query,
        _retail_city_rollup,
    ),
}

ENTAILMENT_MODES = ("saturate",)


def _presaturated_oracle_cube(instance, query):
    from repro.rdf import Graph
    from repro.rdf.reasoning import saturate
    from repro.analytics.evaluator import AnalyticalQueryEvaluator
    from repro.olap import Cube

    closure = Graph(name="golden+rdfs")
    closure.add_all(instance)
    saturate(closure, in_place=True)
    return Cube(AnalyticalQueryEvaluator(closure).answer(query), query)


#: Datagen workload cases: name -> (dataset fixture, query builder, operation or None)
WORKLOAD_CASES = {
    "blogger_workload_root": ("small_blogger_dataset", _blogger_query, None),
    "blogger_workload_dice": (
        "small_blogger_dataset",
        _blogger_query,
        Dice({"dage": (20, 40)}),
    ),
    "blogger_workload_drillout": (
        "small_blogger_dataset",
        _blogger_query,
        DrillOut("dage"),
    ),
    "video_workload_root": ("small_video_dataset", _video_query, None),
    "video_workload_drillin": ("small_video_dataset", _video_query, DrillIn("d3")),
}


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _encode_cell(value):
    """A cell value as fixture text: a term's N-Triples form, ``json:`` plus
    a number or bool, ``str:`` plus a string, the empty string for None."""
    if value is None:
        return ""
    if isinstance(value, Term):
        return value.n3()
    if isinstance(value, (bool, int, float)):
        return f"json:{json.dumps(value)}"
    if isinstance(value, str):
        return "str:" + value
    raise TypeError(f"no fixture form for {value!r} of type {type(value).__name__}")


def _decode_cell(text):
    """The value :func:`_encode_cell` wrote as ``text``."""
    if text == "":
        return None
    if text.startswith("json:"):
        return json.loads(text[len("json:") :])
    if text.startswith("str:"):
        return text[len("str:") :]
    term, _ = _parse_term(text, 0, 0)
    return term


def _cube_payload(cube):
    cells = [
        {"key": [_encode_cell(value) for value in key], "value": _encode_cell(measure)}
        for key, measure in cube.cells().items()
    ]
    cells.sort(key=lambda cell: cell["key"])
    return {
        "dimensions": list(cube.dimensions),
        "measure": cube.measure_column,
        "cells": cells,
    }


def _golden_path(name):
    return os.path.join(GOLDEN_DIR, f"{name}.json")


def _write_golden(name, cube):
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    with open(_golden_path(name), "w", encoding="utf-8") as handle:
        json.dump(_cube_payload(cube), handle, indent=2, sort_keys=True)
        handle.write("\n")


def _check_against_golden(name, cube):
    path = _golden_path(name)
    assert os.path.exists(path), (
        f"golden fixture {path} is missing; run pytest with --update-golden to create it"
    )
    with open(path, "r", encoding="utf-8") as handle:
        golden = json.load(handle)
    assert list(cube.dimensions) == golden["dimensions"]
    assert cube.measure_column == golden["measure"]

    actual = _cube_payload(cube)
    golden_cells = {tuple(cell["key"]): cell["value"] for cell in golden["cells"]}
    actual_cells = {tuple(cell["key"]): cell["value"] for cell in actual["cells"]}
    assert set(actual_cells) == set(golden_cells), (
        f"{name}: cell keys diverge from golden "
        f"(missing: {sorted(set(golden_cells) - set(actual_cells))[:5]}, "
        f"extra: {sorted(set(actual_cells) - set(golden_cells))[:5]})"
    )
    for key, encoded in golden_cells.items():
        expected = _decode_cell(encoded)
        observed = _decode_cell(actual_cells[key])
        if isinstance(expected, (int, float)) and isinstance(observed, (int, float)):
            assert observed == pytest.approx(expected, abs=1e-9), f"{name}: cell {key}"
        else:
            assert observed == expected, f"{name}: cell {key}"


# ---------------------------------------------------------------------------
# the tests
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("name", sorted(CASES))
def test_paper_example_golden_cubes(name, strategy, request, update_golden):
    fixture_name, build = CASES[name]
    instance = request.getfixturevalue(fixture_name)
    session = OLAPSession(instance)
    cube = build(session, strategy)
    if update_golden:
        if strategy == "scratch":
            _write_golden(name, cube)
        return
    _check_against_golden(name, cube)


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("name", sorted(WORKLOAD_CASES))
def test_workload_golden_cubes(name, strategy, request, update_golden):
    fixture_name, query_builder, operation = WORKLOAD_CASES[name]
    dataset = request.getfixturevalue(fixture_name)
    session = OLAPSession(dataset.instance, dataset.schema)
    query = query_builder(dataset)
    if operation is None:
        cube = session.execute(query)
    else:
        session.execute(query)
        cube = session.transform(query, operation, strategy=strategy)
    if update_golden:
        if strategy == "scratch":
            _write_golden(name, cube)
        return
    _check_against_golden(name, cube)


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("name", sorted(ROLLUP_CASES))
def test_rollup_golden_cubes(name, strategy, request, update_golden):
    """Every answering strategy reproduces the golden *rolled* cube."""
    fixture_name, query_builder, operation_builder = ROLLUP_CASES[name]
    fixture = request.getfixturevalue(fixture_name)
    if hasattr(fixture, "instance"):
        instance, schema = fixture.instance, fixture.schema
    else:
        instance, schema = fixture, None
    session = OLAPSession(instance, schema)
    query = query_builder(fixture)
    session.execute(query)
    cube = session.transform(query, operation_builder(fixture), strategy=strategy)
    if update_golden:
        if strategy == "scratch":
            _write_golden(name, cube)
        return
    _check_against_golden(name, cube)


@pytest.mark.parametrize("mode", ["warm", "scratch"])
def test_rollup_after_update_golden_cubes(mode, small_retail_dataset, update_golden):
    """A rolled cache entry survives an instance update correctly: whether
    the session invalidates it or patches it, the re-served rolled cube
    must equal a cold evaluation on the updated instance."""
    name = "retail_workload_rollup_after_update"
    instance = small_retail_dataset.instance.copy()
    query = _retail_query(small_retail_dataset)
    operation = _retail_city_rollup(small_retail_dataset)

    if mode == "scratch":
        _retail_update_batch(instance)
        session = OLAPSession(instance, small_retail_dataset.schema)
        session.execute(query)
        cube = session.transform(query, operation, strategy="scratch")
    else:
        session = OLAPSession(instance, small_retail_dataset.schema)
        session.execute(query)
        stale = session.transform(query, operation)
        _retail_update_batch(instance)
        cube = session.transform(query, operation)
        assert cube.query.name == stale.query.name
    if update_golden:
        if mode == "scratch":
            _write_golden(name, cube)
        return
    _check_against_golden(name, cube)


@pytest.mark.parametrize("mode", ENTAILMENT_MODES)
@pytest.mark.parametrize("name", sorted(ENTAILED_CASES))
def test_entailed_golden_cubes(name, mode, request, update_golden):
    """Both entailment regimes reproduce cells written by the pre-saturated
    plain scratch oracle (which is also the only writer)."""
    fixture_name, query_builder, operation_builder = ENTAILED_CASES[name]
    dataset = request.getfixturevalue(fixture_name)
    query = query_builder(dataset)
    target_query = query
    if operation_builder is not None:
        target_query = operation_builder(dataset).apply(query)
    if update_golden:
        if mode == ENTAILMENT_MODES[0]:
            _write_golden(name, _presaturated_oracle_cube(dataset.instance, target_query))
        return
    session = OLAPSession(dataset.instance, dataset.schema, entailment=mode)
    if operation_builder is None:
        cube = session.execute(query)
    else:
        session.execute(query)
        cube = session.transform(query, operation_builder(dataset))
    _check_against_golden(name, cube)


@pytest.mark.parametrize("mode", ENTAILMENT_MODES)
def test_entailed_after_update_golden_cubes(mode, small_retail_dataset, update_golden):
    """A warmed entailed session absorbs an update batch that includes a
    schema-triple delta (new ``rdfs:subClassOf`` axiom) and reproduces the
    oracle's cells on the updated graph — the saturate mode through its
    closure sync, the rewrite mode through re-expansion."""
    name = "retail_workload_after_update_entailed"
    source = small_retail_dataset.instance.copy()
    query = _retail_query(small_retail_dataset)
    if update_golden:
        if mode == ENTAILMENT_MODES[0]:
            _retail_update_batch(source)
            _write_golden(name, _presaturated_oracle_cube(source, query))
        return
    session = OLAPSession(source, small_retail_dataset.schema, entailment=mode)
    session.execute(query)
    _retail_update_batch(source)
    cube = session.execute(query)
    _check_against_golden(name, cube)


@pytest.mark.parametrize("mode", ["refresh", "scratch"])
@pytest.mark.parametrize("name", sorted(UPDATE_CASES))
def test_after_update_golden_cubes(name, mode, request, update_golden):
    """Apply a scripted update batch; the refreshed cube must equal golden.

    ``scratch`` answers the query on the updated instance with a cold
    session (and is the only mode that writes fixtures, so a broken refresh
    can never canonize its own wrong cells); ``refresh`` warms a session
    first, applies the batch, and re-answers — asserting the session really
    took the delta-patching path rather than recomputing.
    """
    fixture_name, query_builder, update_batch = UPDATE_CASES[name]
    fixture = request.getfixturevalue(fixture_name)
    if hasattr(fixture, "instance"):
        instance, schema = fixture.instance.copy(), fixture.schema
    else:
        instance, schema = fixture.copy(), None
    query = query_builder(fixture)

    if mode == "scratch":
        update_batch(instance)
        cube = OLAPSession(instance, schema).execute(query)
    else:
        # Row engine: this mode must *exercise the delta-patching path*;
        # the columnar engine's cheaper scratch pricing legitimately
        # recomputes at this fixture scale (row/columnar agreement is
        # covered by the columnar differential oracle).
        session = OLAPSession(instance, schema, engine="rows")
        session.execute(query)
        update_batch(instance)
        cube = session.execute(query)
        assert session.history[-1].strategy == "refresh"
        assert session.cache.stats.refreshes == 1
    if update_golden:
        if mode == "scratch":
            _write_golden(name, cube)
        return
    _check_against_golden(name, cube)


@pytest.mark.parametrize("workers,shards", [(1, 3), (2, 3), (2, 7)])
@pytest.mark.parametrize("name", sorted(CASES))
def test_paper_example_golden_cubes_parallel(name, workers, shards, request, update_golden):
    """The partitioned engine reproduces every golden cube cell for cell.

    The final (transformed) query of each case is answered directly by the
    shard-parallel executor — per-shard evaluation plus partial-aggregate
    merge — and must match the committed fixture, at several worker/shard
    configurations including the workers=1 merge-only degenerate.
    """
    if update_golden:
        return  # fixtures are written by the scratch strategy only
    from repro.analytics.evaluator import AnalyticalQueryEvaluator
    from repro.olap import Cube, ParallelExecutor

    fixture_name, build = CASES[name]
    instance = request.getfixturevalue(fixture_name)
    query = build.query_factory()
    if build.operation is not None:
        query = build.operation.apply(query)
    with ParallelExecutor(
        AnalyticalQueryEvaluator(instance),
        workers=workers,
        shard_count=shards,
        backend="thread" if workers > 1 else "serial",
    ) as executor:
        cube = Cube(executor.evaluate(query).answer, query)
    _check_against_golden(name, cube)


@pytest.mark.parametrize("name", sorted(WORKLOAD_CASES))
def test_workload_golden_cubes_parallel(name, request, update_golden):
    """Same as above for the datagen workload cases (one configuration)."""
    if update_golden:
        return
    from repro.analytics.evaluator import AnalyticalQueryEvaluator
    from repro.olap import Cube, ParallelExecutor

    fixture_name, query_builder, operation = WORKLOAD_CASES[name]
    dataset = request.getfixturevalue(fixture_name)
    query = query_builder(dataset)
    if operation is not None:
        query = operation.apply(query)
    with ParallelExecutor(
        AnalyticalQueryEvaluator(dataset.instance), workers=2, shard_count=5, backend="thread"
    ) as executor:
        cube = Cube(executor.evaluate(query).answer, query)
    _check_against_golden(name, cube)


def test_golden_fixtures_exist():
    """Every case has its committed fixture (catches forgotten --update-golden)."""
    names = (
        list(CASES)
        + list(WORKLOAD_CASES)
        + list(UPDATE_CASES)
        + list(ROLLUP_CASES)
        + list(ENTAILED_CASES)
        + ["retail_workload_rollup_after_update", "retail_workload_after_update_entailed"]
    )
    for name in names:
        assert os.path.exists(_golden_path(name)), f"missing golden fixture for {name}"
