"""Deriving pres(Q_T) from pres(Q): one derivation per operation, one γ for all.

The derivations are what lets OLAP chains stay on the rewriting path; the
matrix at the end holds every operation × aggregate × engine to scratch
evaluation and to the naive oracle, and the call-count tests pin that a
materializing rewrite builds its table once.
"""

import pytest

from repro.errors import RewritingError
from repro.rdf import EX, RDF, Graph, Literal, Triple
from repro.algebra.relation import Relation
from repro.analytics import AnalyticalQueryEvaluator
from repro.analytics.answer import CubeAnswer
from repro.olap import (
    Cube,
    Dice,
    DimensionHierarchy,
    DrillIn,
    DrillOut,
    OLAPPlanner,
    OLAPSession,
    ResultCache,
    RollUp,
    Slice,
)
from repro.olap.rewriting import OLAPRewriter, drill_in_partial, drill_out_partial, select_partial

from tests.conftest import make_words_query
from tests.naive_oracle import NaiveAnalyticalEvaluator, naive_group_aggregate


class TestSliceDicePartial:
    def test_sliced_partial_is_the_sigma_selection(self, example2_instance, sites_query):
        evaluator = AnalyticalQueryEvaluator(example2_instance)
        partial = evaluator.partial_result(sites_query)
        operation = Slice("dage", Literal(35))
        transformed = operation.apply(sites_query)
        derived = select_partial(partial, transformed)
        # Exactly the rows of pres(Q) whose dage is 35, same layout.
        assert derived.columns == partial.columns
        assert all(row[1] == Literal(35) for row in derived.relation)
        assert len(derived) == 2  # user3 and user4 each contribute one measure tuple

    def test_derived_partial_matches_direct_materialization(self, example2_instance, sites_query):
        """pres(Q_DICE) derived from pres(Q) aggregates to the same cube as scratch."""
        evaluator = AnalyticalQueryEvaluator(example2_instance)
        partial = evaluator.partial_result(sites_query)
        operation = Dice({"dcity": [EX.term("NY")]})
        transformed = operation.apply(sites_query)
        derived = select_partial(partial, transformed)
        aggregated = evaluator.answer_from_partial(transformed, derived)
        assert Cube(aggregated).same_cells(Cube(evaluator.answer(transformed)))


class TestDrillOutPartial:
    def test_drilled_partial_is_projected_and_deduplicated(self, example2_instance, sites_query):
        evaluator = AnalyticalQueryEvaluator(example2_instance)
        partial = evaluator.partial_result(sites_query)
        operation = DrillOut("dage")
        transformed = operation.apply(sites_query)
        derived = drill_out_partial(partial, sites_query, transformed)
        assert derived.dimension_columns == ("dcity",)
        assert derived.columns == ("x", "dcity", "k", "vsite")
        # Keys are unique per (fact, remaining dims): duplicates introduced by
        # the removed dimension were eliminated.
        key_pairs = [(row[0], row[2]) for row in derived.relation]
        assert len(key_pairs) == len(set(key_pairs))
        aggregated = evaluator.answer_from_partial(transformed, derived)
        assert Cube(aggregated).same_cells(Cube(evaluator.answer(transformed)))


class TestDrillInPartial:
    def test_drilled_in_partial_matches_figure3(self, figure3_instance, views_query):
        evaluator = AnalyticalQueryEvaluator(figure3_instance)
        partial = evaluator.partial_result(views_query)
        operation = DrillIn("d3")
        transformed = operation.apply(views_query)
        derived = drill_in_partial(partial, views_query, transformed, evaluator.bgp_evaluator)
        assert derived.columns == ("x", "d2", "d3", "k", "v")
        rows = {(row[1], row[2]) for row in derived.relation}
        assert rows == {
            (Literal("URL1"), Literal("firefox")),
            (Literal("URL2"), Literal("chrome")),
        }

    def test_drill_in_partial_requires_instance_access(self, figure3_instance, views_query):
        evaluator = AnalyticalQueryEvaluator(figure3_instance)
        partial = evaluator.partial_result(views_query)
        operation = DrillIn("d3")
        transformed = operation.apply(views_query)
        with pytest.raises(RewritingError):
            drill_in_partial(partial, views_query, transformed, None)


class TestRewriterAndSessionChaining:
    def test_rewriter_returns_the_table_it_aggregated(self, example2_instance, sites_query):
        evaluator = AnalyticalQueryEvaluator(example2_instance)
        materialized = evaluator.evaluate(sites_query)
        rewriter = OLAPRewriter(evaluator.bgp_evaluator)
        result = rewriter.answer(materialized, DrillOut("dage"))
        assert result.partial.dimension_columns == ("dcity",)
        regrouped = evaluator.answer_from_partial(DrillOut("dage").apply(sites_query), result.partial)
        assert Cube(regrouped).same_cells(Cube(result.answer))

    def test_slice_sigma_over_pres_runs_on_first_read(self, monkeypatch, example2_instance, sites_query):
        """Proposition 1 answers from ans(Q); σ over pres(Q) runs when the
        result's ``partial.storage`` is first read, and only then, once."""
        from repro.analytics import answer as answer_module

        evaluator = AnalyticalQueryEvaluator(example2_instance)
        materialized = evaluator.evaluate(sites_query)
        selections = _count_calls(monkeypatch, answer_module, "select")
        result = OLAPRewriter(evaluator.bgp_evaluator).answer(materialized, Slice("dage", Literal(35)))
        assert result.partial.columns == materialized.partial.columns
        assert result.partial.row_bound() == (5, 1)  # the parent's rows, one σ pending
        assert selections == [] and result.partial.row_bound()[1] == 1
        assert len(result.partial) == 2 and result.partial.row_bound() == (2, 0)
        result.partial.storage
        assert selections == ["select"]

    def test_session_chains_three_rewritten_steps(self, small_video_dataset):
        from repro.datagen.videos import views_per_url_query

        session = OLAPSession(small_video_dataset.instance, small_video_dataset.schema)
        query = views_per_url_query(small_video_dataset.schema)
        session.execute(query)

        refined = session.transform(query, DrillIn("d3"), strategy="rewrite")
        browsers = sorted(refined.dimension_values("d3"), key=repr)
        diced = session.transform(refined.query.name, Dice({"d3": browsers[:2]}), strategy="rewrite")
        rolled = session.transform(diced.query.name, DrillOut("d2"), strategy="rewrite")

        # Every step after the initial execute stayed on the rewriting path.
        strategies = [record.strategy for record in session.history[1:]]
        assert all(strategy.startswith("rewrite") for strategy in strategies)

        # And the final cube agrees with evaluating the composed query from scratch.
        from repro.olap import compose

        composed = compose(query, [DrillIn("d3"), Dice({"d3": browsers[:2]}), DrillOut("d2")])
        evaluator = AnalyticalQueryEvaluator(small_video_dataset.instance)
        assert rolled.same_cells(Cube(evaluator.answer(composed), composed))


# ---------------------------------------------------------------------------
# One derivation + one γ per operation, held to every oracle
# ---------------------------------------------------------------------------

_AGGREGATES = ("count", "count_distinct", "sum", "avg", "min", "max")
_RDF_TYPE = RDF.term("type")
_CITY_TO_COUNTRY = DimensionHierarchy(
    {EX.term("Madrid"): "Spain", EX.term("Sevilla"): "Spain", EX.term("NY"): "USA"},
    name="city->country",
)


def _multivalued_instance() -> Graph:
    """Bloggers with word-count posts; ``u2`` lives in two cities of one country
    (Example 5: multi-valued along the dimension DRILL-OUT / ROLL-UP coarsen)."""
    graph = Graph()
    bloggers = {
        "u1": (28, ("Madrid",), (100, 120)),
        "u2": (28, ("Madrid", "Sevilla"), (50, 50, 70)),
        "u3": (35, ("NY",), (570,)),
        "u4": (35, ("NY", "Madrid"), (10,)),
    }
    for name, (age, cities, words) in bloggers.items():
        user = EX.term(name)
        graph.add(Triple(user, _RDF_TYPE, EX.Blogger))
        graph.add(Triple(user, EX.hasAge, Literal(age)))
        for city in cities:
            graph.add(Triple(user, EX.livesIn, EX.term(city)))
        for index, count in enumerate(words):
            post = EX.term(f"{name}_p{index}")
            graph.add(Triple(user, EX.wrotePost, post))
            graph.add(Triple(post, EX.hasWordCount, Literal(count)))
    return graph


def _naive_cube(graph: Graph, query) -> Cube:
    """``ans(query)`` by the naive oracle; a rolled query maps the oracle's base
    ``pres`` through each stage's hierarchy, keeps the rows the Σ after the
    stage allows and δ-deduplicates, all in plain Python."""
    oracle = NaiveAnalyticalEvaluator(graph)
    if not query.rollup:
        return Cube(oracle.answer(query), query)
    partial = oracle.partial_result(query.base_query())
    rolled = set(partial.relation)
    for level, stage in enumerate(query.rollup):
        index = partial.columns.index(stage.dimension)
        after = query.rollup[level + 1].sigma_before if level + 1 < len(query.rollup) else query.sigma
        rolled = {
            row[:index] + (stage.hierarchy.parent(row[index]),) + row[index + 1 :]
            for row in rolled
        }
        rolled = {row for row in rolled if after.allows_row(dict(zip(partial.columns, row)))}
    aggregated = naive_group_aggregate(
        Relation(partial.columns, sorted(rolled, key=repr)),
        by=partial.dimension_columns,
        measure=partial.measure_column,
        function=query.aggregate,
        output_column=partial.measure_column,
    )
    return Cube(CubeAnswer(aggregated, partial.dimension_columns, partial.measure_column), query)


def _operation_cases(aggregate):
    """(origin query, operation) per rewritable operation class."""
    root = make_words_query(aggregate)
    return {
        "slice": (root, Slice("dage", Literal(28))),
        "dice": (root, Dice({"dcity": [EX.term("Madrid"), EX.term("NY")]})),
        "drill-out": (root, DrillOut("dcity")),
        "drill-in": (DrillOut("dcity").apply(root), DrillIn("dcity")),
        "roll-up": (root, RollUp("dcity", _CITY_TO_COUNTRY)),
    }


@pytest.mark.parametrize("engine", ["rows", "columnar"])
@pytest.mark.parametrize("aggregate", _AGGREGATES)
@pytest.mark.parametrize("case", ["slice", "dice", "drill-out", "drill-in", "roll-up"])
def test_rewriting_is_one_derivation_then_the_shared_gamma(case, aggregate, engine):
    """γ(result.partial) ≡ result.answer ≡ scratch ≡ the naive oracle."""
    if engine == "columnar":
        pytest.importorskip("numpy")
    graph = _multivalued_instance()
    origin, operation = _operation_cases(aggregate)[case]
    transformed = operation.apply(origin)
    evaluator = AnalyticalQueryEvaluator(graph, engine=engine)
    result = OLAPRewriter(evaluator.bgp_evaluator).answer(
        evaluator.evaluate(origin), operation, transformed
    )
    rewritten = Cube(result.answer, transformed)
    assert len(rewritten) > 0
    assert result.partial.columns == ("x", *transformed.dimension_names, "k", "vwords")
    regrouped = Cube(evaluator.answer_from_partial(transformed, result.partial), transformed)
    assert regrouped.same_cells(rewritten)
    assert Cube(evaluator.answer(transformed), transformed).same_cells(rewritten)
    assert _naive_cube(graph, transformed).same_cells(rewritten)


def test_multivalued_fact_is_counted_once_per_coarser_group():
    """Example 5 on the instance above: u2's three posts count once for Spain."""
    graph = _multivalued_instance()
    root = make_words_query("count")
    evaluator = AnalyticalQueryEvaluator(graph)
    rewriter = OLAPRewriter(evaluator.bgp_evaluator)
    materialized = evaluator.evaluate(root)
    drilled = Cube(rewriter.answer(materialized, DrillOut("dcity")).answer)
    assert drilled.cell(Literal(28)) == 5  # u1: 2 posts, u2: 3 — not 2 + 3·2
    rolled = Cube(rewriter.answer(materialized, RollUp("dcity", _CITY_TO_COUNTRY)).answer)
    assert rolled.cell(Literal(28), "Spain") == 5


@pytest.mark.parametrize("engine", ["rows", "columnar"])
def test_restricted_removed_dimension_still_refuses(engine):
    if engine == "columnar":
        pytest.importorskip("numpy")
    evaluator = AnalyticalQueryEvaluator(_multivalued_instance(), engine=engine)
    sliced = Slice("dcity", EX.term("Madrid")).apply(make_words_query("sum"))
    materialized = evaluator.evaluate(sliced)
    drilled = DrillOut("dcity").apply(sliced)
    cache = ResultCache()
    cache.put(sliced, materialized, evaluator.instance)
    planner = OLAPPlanner(evaluator, cache)
    with pytest.raises(RewritingError, match="cannot be answered by rewriting"):
        planner.plan(sliced, DrillOut("dcity"), drilled, families=("rewrite",))
    rewriter = OLAPRewriter(evaluator.bgp_evaluator)
    with pytest.raises(RewritingError, match="restricts"):
        rewriter.answer(materialized, DrillOut("dcity"))
    with pytest.raises(RewritingError, match="restricts"):
        drill_out_partial(materialized.partial, sliced, drilled)


# ---------------------------------------------------------------------------
# Each table is built once
# ---------------------------------------------------------------------------


def _count_calls(monkeypatch, module, name):
    """Count calls of ``module.name`` (the attribute its callers look up)."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_materializing_drill_in_evaluates_q_aux_and_joins_once(monkeypatch, small_video_dataset):
    from repro.datagen.videos import views_per_url_query
    from repro.olap import rewriting

    session = OLAPSession(small_video_dataset.instance, small_video_dataset.schema)
    query = views_per_url_query(small_video_dataset.schema)
    session.execute(query)
    # q_aux is the one BGP the rewriting evaluates on the instance.
    auxiliary = _count_calls(monkeypatch, session.evaluator.bgp_evaluator, "evaluate_ids")
    joins = _count_calls(monkeypatch, rewriting, "join_on")
    cube = session.transform(query, DrillIn("d3"), strategy="rewrite")
    assert (len(auxiliary), len(joins)) == (1, 1)
    # ... and the one table built is what the session stored as pres(Q_T).
    stored = session.materialized(cube.query)
    regrouped = session.evaluator.answer_from_partial(cube.query, stored.partial)
    assert Cube(regrouped, cube.query).same_cells(cube)


def test_materializing_drill_out_deduplicates_once(monkeypatch, example2_instance, sites_query):
    from repro.olap import rewriting

    session = OLAPSession(example2_instance)
    session.execute(sites_query)
    dedups = _count_calls(monkeypatch, rewriting, "dedup")
    cube = session.transform(sites_query, DrillOut("dage"), strategy="rewrite")
    assert len(dedups) == 1
    assert session.materialized(cube.query).partial.dimension_columns == ("dcity",)


# ---------------------------------------------------------------------------
# Engine closure: a rewriting chain never leaves the storage it was given
# ---------------------------------------------------------------------------


def test_rewriting_chain_is_closed_over_the_engine(monkeypatch):
    """execute → SLICE → DICE → DRILL-OUT → DRILL-OUT → DRILL-IN under forced
    ``rewrite`` with the one arrays → rows conversion patched to raise: every
    derivation and its γ run on the storage of the ``pres`` they read (on the
    columnar engine every stored ``pres`` and ``ans`` is columnar; on the row
    engine the protocol's other implementation makes this trivially true), the
    cube of every step decodes without leaving it, and every cube equals
    scratch and the naive oracle."""
    from repro.algebra.columnar import ColumnarIdRelation
    from repro.datagen.generic import GenericConfig, generic_dataset, generic_query

    config = GenericConfig(
        facts=60, dimensions=3, values_per_dimension=1.4, measures_per_fact=2.0,
        with_detail=True, seed=5,
    )
    dataset = generic_dataset(config)
    root = generic_query(config, aggregate="sum", include_detail_in_classifier=True, name="root")

    def refuse(self, reason):
        raise AssertionError(f"a rewriting left the columnar engine: to_rows({reason!r})")

    def value(dimension, index):
        return EX.term(f"dimvalue/{dimension}/{index}")

    with OLAPSession(dataset.instance, dataset.schema) as session:
        chain = [
            lambda: session.execute(root),
            lambda: session.transform(root, Slice("d0", value(0, 0)), strategy="rewrite"),
            lambda: session.transform(
                root, Dice({"d1": [value(1, index) for index in range(4)]}), strategy="rewrite"
            ),
            lambda: session.transform(root, DrillOut("d2"), strategy="rewrite"),
            lambda: session.transform(cubes[-1].query, DrillOut("d1"), strategy="rewrite"),
            lambda: session.transform(cubes[-1].query, DrillIn("da"), strategy="rewrite"),
        ]
        cubes = []
        for step in chain:
            with monkeypatch.context() as patch:
                patch.setattr(ColumnarIdRelation, "to_rows", refuse)
                cubes.append(step())
                _assert_cube_decodes_in_its_storage(cubes[-1], session)
            cube = cubes[-1]
            stored = session.materialized(cube.query).partial.storage
            assert isinstance(stored, ColumnarIdRelation) == (session.engine == "columnar")
            assert Cube(session.evaluator.answer(cube.query), cube.query).same_cells(cube)
            assert _naive_cube(dataset.instance, cube.query).same_cells(cube)
        assert [cube.record.strategy.split("[")[0] for cube in cubes[1:]] == ["rewrite"] * 5
        assert cubes[-1].dimensions == ("d0", "da")


def _assert_cube_decodes_in_its_storage(cube, session):
    """The step's ``ans(Q)`` is in the engine's storage, and a cube built
    over it from nothing (a cold decode: cells, then the decoded relation)
    equals the served one — run where ``to_rows`` raises, so the decode
    never leaves the arrays."""
    from repro.algebra.columnar import ColumnarIdRelation

    answer = session.materialized(cube.query).answer
    assert isinstance(answer.storage, ColumnarIdRelation) == (session.engine == "columnar")
    cold = CubeAnswer(answer.storage, answer.dimension_columns, answer.measure_column)
    rebuilt = Cube(cold, cube.query)
    assert dict(rebuilt.cells()) == dict(cube.cells())
    assert len(cold.relation) == len(cube)


def test_roll_up_chain_is_closed_over_the_engine(monkeypatch):
    """ROLL-UP → SLICE → ROLL-UP → DRILL-DOWN → DRILL-IN with the arrays → rows
    conversion patched to raise, the cube of every step built and decoded
    under the patch: the parent substitution, the σ / δ around it, the γ
    after it and the decode of its answer run on the storage of the ``pres``
    they read.  Every step that has a rewriting is
    forced onto it; DRILL-DOWN has none (the planner serves the finer cube it
    materialized on the way up) and a rolled query cannot change dimensions,
    so DRILL-IN starts from the root.  Parents are no terms of the graph."""
    from repro.algebra.columnar import ROW_CONVERSIONS, ColumnarIdRelation
    from repro.datagen.generic import GenericConfig, generic_dataset, generic_query
    from repro.olap import DrillDown

    config = GenericConfig(
        facts=60, dimensions=3, values_per_dimension=1.4, measures_per_fact=2.0,
        with_detail=True, seed=5,
    )
    dataset = generic_dataset(config)
    root = generic_query(config, aggregate="sum", include_detail_in_classifier=True, name="root")
    values = range(config.dimension_cardinality)
    buckets = DimensionHierarchy.from_pairs(
        [(EX.term(f"dimvalue/0/{v}"), EX.term(f"d0bucket/{v // 3}")) for v in values],
        name="d0_bucket",
    )
    halves = DimensionHierarchy.from_pairs(
        [(EX.term(f"d0bucket/{v // 3}"), "low" if v // 3 < 2 else "high") for v in values],
        name="d0_half",
    )
    def refuse(self, reason):
        raise AssertionError(f"a rewriting left the columnar engine: to_rows({reason!r})")

    with OLAPSession(dataset.instance, dataset.schema) as session:
        chain = [
            lambda: session.execute(root),
            lambda: session.roll_up(root, "d0", buckets, strategy="rewrite"),
            lambda: session.transform(
                cubes[-1].query, Slice("d1", EX.term("dimvalue/1/0")), strategy="rewrite"
            ),
            lambda: session.roll_up(cubes[-1].query, "d0", halves, strategy="rewrite"),
            lambda: session.transform(cubes[-1].query, DrillDown("d0")),
            lambda: session.transform(root, DrillIn("da"), strategy="rewrite"),
        ]
        cubes = []
        decoded_pres = ROW_CONVERSIONS["decode:pres"]
        for step in chain:
            with monkeypatch.context() as patch:
                patch.setattr(ColumnarIdRelation, "to_rows", refuse)
                cubes.append(step())
                _assert_cube_decodes_in_its_storage(cubes[-1], session)
            cube = cubes[-1]
            stored = session.materialized(cube.query).partial.storage
            assert isinstance(stored, ColumnarIdRelation) == (session.engine == "columnar")
            assert Cube(session.evaluator.answer(cube.query), cube.query).same_cells(cube)
            assert _naive_cube(dataset.instance, cube.query).same_cells(cube)
        assert ROW_CONVERSIONS["decode:pres"] == decoded_pres
        assert ROW_CONVERSIONS["decode:ans"] == 0
        assert [cube.record.strategy for cube in cubes[1:]] == [
            "rewrite[roll-up/pres]", "rewrite[slice-dice/ans]", "rewrite[roll-up/pres]",
            "plan[cached]", "rewrite[drill-in/pres+aux]",
        ]
        assert cubes[3].dimension_values("d0") <= {"low", "high"}
        assert cubes[4].same_cells(cubes[2])


def test_delta_refresh_is_closed_over_the_engine(monkeypatch):
    """execute → ``Graph.apply`` → execute, twice (an insertion, then a
    retraction), with the arrays → rows conversion patched to raise while the
    refreshed cube is built and decoded: the splice of a refresh — σ, ⋉, ∪ —
    runs on the storage of the ``pres`` and the ``ans`` it patches, so both
    are still columnar afterwards."""
    from repro.algebra.columnar import ROW_CONVERSIONS, ColumnarIdRelation
    from repro.datagen.generic import GenericConfig, generic_dataset, generic_query

    config = GenericConfig(
        facts=60, dimensions=3, values_per_dimension=1.4, measures_per_fact=2.0,
        with_detail=True, seed=5,
    )
    dataset = generic_dataset(config)
    graph = dataset.instance.copy()
    queries = [
        generic_query(config, aggregate="sum", include_detail_in_classifier=True, name="sum_detail"),
        DrillIn("da").apply(
            generic_query(config, aggregate="avg", include_detail_in_classifier=True, name="avg_detail")
        ),
        generic_query(config, aggregate="count_distinct", name="distinct"),
    ]
    fact = EX.term("fact/closure-extra")
    extra = [
        Triple(fact, RDF.term("type"), EX.term("Fact")),
        *[Triple(fact, EX.term(f"dim{d}"), EX.term(f"dimvalue/{d}/{d}")) for d in range(3)],
        Triple(fact, EX.measure, Literal(5)),
        Triple(fact, EX.measure, Literal(9)),
        Triple(fact, EX.hasDetail, EX.term("detail/1")),
    ]
    def refuse(self, reason):
        raise AssertionError(f"a refresh left the columnar engine: to_rows({reason!r})")

    with OLAPSession(graph, dataset.schema) as session:
        for query in queries:
            session.execute(query)
        for delta in ({"add": extra}, {"remove": extra[1:3]}):
            graph.apply(**delta)
            for query in queries:
                with monkeypatch.context() as patch:
                    patch.setattr(ColumnarIdRelation, "to_rows", refuse)
                    cube = session.execute(query)
                    _assert_cube_decodes_in_its_storage(cube, session)
                assert cube.record.strategy == "refresh"
                stored = session.materialized(query).partial.storage
                assert isinstance(stored, ColumnarIdRelation) == (session.engine == "columnar")
                assert Cube(session.evaluator.answer(query), query).same_cells(cube)
                assert _naive_cube(graph, query).same_cells(cube)
        assert ROW_CONVERSIONS["refresh:splice"] == ROW_CONVERSIONS["decode:ans"] == 0
