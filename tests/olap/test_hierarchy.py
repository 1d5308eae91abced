"""Tests for ROLL-UP along dimension hierarchies (extension beyond the paper)."""

import pytest

from repro.errors import OLAPError
from repro.rdf import EX, Literal, RDF, Triple
from repro.analytics import AnalyticalQueryEvaluator
from repro.analytics.rolling import roll_partial
from repro.olap import Cube, DimensionHierarchy, OLAPSession, RollUp, answer_from_rolled_partial

from tests.conftest import make_sites_query

RDF_TYPE = RDF.term("type")

CITY_TO_COUNTRY = DimensionHierarchy(
    {
        EX.term("Madrid"): "Spain",
        EX.term("NY"): "USA",
        EX.term("Kyoto"): "Japan",
    },
    name="city->country",
)

AGE_BANDS = DimensionHierarchy.banded(
    [(0, 29, "young"), (30, 120, "senior")], name="age bands"
)


class TestDimensionHierarchy:
    def test_explicit_mapping(self):
        assert CITY_TO_COUNTRY.parent(EX.term("Madrid")) == "Spain"

    def test_mapping_matches_via_comparable_values(self):
        hierarchy = DimensionHierarchy({28: "young"})
        assert hierarchy.parent(Literal(28)) == "young"

    def test_banded_hierarchy(self):
        assert AGE_BANDS.parent(Literal(28)) == "young"
        assert AGE_BANDS.parent(Literal(35)) == "senior"

    def test_banded_hierarchy_out_of_range(self):
        with pytest.raises(OLAPError):
            AGE_BANDS.parent(Literal(-5))

    def test_default_parent(self):
        hierarchy = DimensionHierarchy({EX.term("Madrid"): "Spain"}, default="Other")
        assert hierarchy.parent(EX.term("Lima")) == "Other"

    def test_missing_value_without_default_raises(self):
        with pytest.raises(OLAPError):
            CITY_TO_COUNTRY.parent(EX.term("Lima"))

    def test_from_pairs(self):
        hierarchy = DimensionHierarchy.from_pairs([("a", "letter"), ("1", "digit")])
        assert hierarchy.parent("1") == "digit"


def _rolled_answer(instance, query, dimension, hierarchy):
    """``ans`` of ``query`` rolled up from its from-scratch ``pres``."""
    rolled_query = RollUp(dimension, hierarchy).apply(query)
    partial = AnalyticalQueryEvaluator(instance).partial_result(query)
    return answer_from_rolled_partial(roll_partial(partial, rolled_query), rolled_query)


class TestRollUpCorrectness:
    def test_roll_up_ages_to_bands_on_example2(self, example2_instance, sites_query):
        rolled = _rolled_answer(example2_instance, sites_query, "dage", AGE_BANDS)
        cells = {(str(row[0]), row[1].local_name()): row[2] for row in rolled.relation}
        # user1 (28, Madrid, 3 sites measures) -> young; user3+user4 (35, NY) -> senior.
        assert cells == {("young", "Madrid"): 3, ("senior", "NY"): 2}

    def test_roll_up_does_not_double_count_multivalued_dimensions(self):
        """A blogger living in two cities of the same country is counted once."""
        graph = self._two_city_instance()
        query = make_sites_query("count")
        hierarchy = DimensionHierarchy(
            {EX.term("Madrid"): "Spain", EX.term("Barcelona"): "Spain"}, name="city->country"
        )
        rolled = _rolled_answer(graph, query, "dcity", hierarchy)
        cells = {(row[0], row[1]): row[2] for row in rolled.relation}
        # user1 wrote 2 posts; living in Madrid AND Barcelona must not double it.
        assert cells == {(Literal(28), "Spain"): 2}

        # The relational shortcut — combining already-aggregated ans(Q) cells
        # per parent — double-counts the multi-valued fact.
        naive_cells = {}
        for age, city, count in AnalyticalQueryEvaluator(graph).answer(query).relation:
            key = (age, hierarchy.parent(city))
            naive_cells[key] = naive_cells.get(key, 0) + count
        assert naive_cells == {(Literal(28), "Spain"): 4}

    @staticmethod
    def _two_city_instance():
        from repro.rdf import Graph

        graph = Graph()
        user = EX.term("user1")
        graph.add(Triple(user, RDF_TYPE, EX.Blogger))
        graph.add(Triple(user, EX.hasAge, Literal(28)))
        graph.add(Triple(user, EX.livesIn, EX.term("Madrid")))
        graph.add(Triple(user, EX.livesIn, EX.term("Barcelona")))
        for name, site in (("p1", "s1"), ("p2", "s2")):
            post = EX.term(name)
            graph.add(Triple(user, EX.wrotePost, post))
            graph.add(Triple(post, EX.postedOn, EX.term(site)))
        return graph

    def test_roll_up_with_average_recomputes_from_details(self, example4_instance):
        from tests.conftest import make_words_query

        rolled = _rolled_answer(example4_instance, make_words_query(), "dage", AGE_BANDS)
        cells = {(str(row[0]), row[1].local_name()): row[2] for row in rolled.relation}
        assert cells[("young", "Madrid")] == pytest.approx((100 + 120 + 410) / 3)
        assert cells[("senior", "NY")] == pytest.approx(570.0)

    def test_roll_up_unknown_dimension(self, example2_instance, sites_query):
        session = OLAPSession(example2_instance)
        session.execute(sites_query)
        with pytest.raises(OLAPError):
            session.roll_up(sites_query, "dbrowser", AGE_BANDS)

    def test_roll_up_with_another_aggregate_points_at_the_building_blocks(
        self, example2_instance, sites_query
    ):
        session = OLAPSession(example2_instance)
        session.execute(sites_query)
        with pytest.raises(OLAPError) as raised:
            session.roll_up(sites_query, "dage", AGE_BANDS, aggregate="sum")
        message = str(raised.value)
        assert f"{roll_partial.__module__}.{roll_partial.__name__}" in message
        assert (
            f"{answer_from_rolled_partial.__module__}.{answer_from_rolled_partial.__name__}"
            in message
        )


class TestSessionRollUp:
    def test_session_roll_up_and_history(self, example2_instance, sites_query):
        session = OLAPSession(example2_instance)
        session.execute(sites_query)
        rolled = session.roll_up(sites_query, "dage", AGE_BANDS)
        assert isinstance(rolled, Cube)
        assert rolled.cell("young", EX.term("Madrid")) == 3
        # Roll-up goes through the standard transform/history path: the
        # record is a planned one (with the plan/execute split and the
        # estimated cost that feeds calibration), not a side channel.
        record = session.history[-1]
        assert record.strategy.startswith("plan[")
        assert "roll-up dage" in record.operation
        assert record.details.get("estimated_cost") is not None
        assert record.details.get("plan") is not None
        assert record.execute_seconds <= record.seconds
        # The rolled cube is materialized under its own canonical key, so it
        # can be served from cache and drilled back down.
        assert rolled.query.is_rolled()
        assert session.materialized(rolled.query) is not None

    def test_roll_up_records_feed_calibration_and_advisor(self, example2_instance, sites_query):
        """Roll-ups ride the planned history path, so their (estimated cost,
        execute seconds) pairs are calibration samples like any other
        transformation — the regression this guards: the legacy side-channel
        roll_up produced records the fit silently dropped."""
        from repro.olap.calibration import samples_from_history, strategy_family

        session = OLAPSession(example2_instance)
        session.execute(sites_query)
        session.roll_up(sites_query, "dage", AGE_BANDS)
        rolled = session.history[-1]
        samples = samples_from_history(session.history)
        assert any(sample.strategy == rolled.strategy for sample in samples)
        assert strategy_family(rolled.strategy) in ("instance", "reuse", "cached")
        fitted = session.fit_cost_model()
        assert fitted.source == "fitted"
        assert fitted.samples >= len(samples) > 0
        # The advisor mines the same history without choking on rolled records.
        report = session.advise()
        assert report.cost_model.source == "fitted"

    def test_session_drill_down_restores_finer_cube(self, example2_instance, sites_query):
        session = OLAPSession(example2_instance)
        session.execute(sites_query)
        rolled = session.roll_up(sites_query, "dage", AGE_BANDS)
        drilled = session.drill_down(rolled.query)
        assert not drilled.query.is_rolled()
        base = Cube(session.materialized(sites_query).answer, sites_query)
        assert drilled.same_cells(base)
        assert session.history[-1].strategy.startswith("plan[")
        with pytest.raises(OLAPError):
            session.drill_down(sites_query)  # nothing to drill down from

    def test_session_roll_up_on_generated_dataset(self, small_blogger_dataset):
        from repro.datagen.blogger import sites_per_blogger_query

        session = OLAPSession(small_blogger_dataset.instance, small_blogger_dataset.schema)
        query = sites_per_blogger_query(small_blogger_dataset.schema)
        session.execute(query)
        hierarchy = DimensionHierarchy.banded(
            [(0, 29, "under-30"), (30, 49, "30-49"), (50, 200, "50+")], name="age bands"
        )
        rolled = session.roll_up(query, "dage", hierarchy)
        assert set(rolled.dimension_values("dage")) <= {"under-30", "30-49", "50+"}
        # Total mass is preserved for count: sum over rolled cube equals sum over original.
        original = Cube(session.materialized(query).answer, query)
        assert sum(rolled.cells().values()) == sum(original.cells().values())


# ---------------------------------------------------------------------------
# ROLL-UP in id space: derived ids for parents the graph does not hold
# ---------------------------------------------------------------------------


def _words_instance():
    """Four bloggers over Madrid / Sevilla / NY / Lima with word-count posts."""
    from repro.rdf import Graph

    graph = Graph()
    bloggers = {
        "u1": (28, ("Madrid",), (100, 120)),
        "u2": (28, ("Madrid", "Sevilla"), (50, 70)),
        "u3": (35, ("NY",), (570,)),
        "u4": (61, ("Lima",), (10,)),
    }
    for name, (age, cities, words) in bloggers.items():
        user = EX.term(name)
        graph.add(Triple(user, RDF_TYPE, EX.Blogger))
        graph.add(Triple(user, EX.hasAge, Literal(age)))
        for city in cities:
            graph.add(Triple(user, EX.livesIn, EX.term(city)))
        for index, count in enumerate(words):
            post = EX.term(f"{name}_p{index}")
            graph.add(Triple(user, EX.wrotePost, post))
            graph.add(Triple(post, EX.hasWordCount, Literal(count)))
    return graph


#: Sevilla's parent *is* a term of the graph (Madrid); the others are not.
_CITY_TO_REGION = DimensionHierarchy(
    {
        EX.term("Madrid"): EX.term("region/Iberia"),
        EX.term("Sevilla"): EX.term("region/Iberia"),
        EX.term("NY"): EX.term("Madrid"),
        EX.term("Lima"): EX.term("region/Andes"),
    },
    name="city->region",
)


def _dictionary_state(graph, tmp_path):
    from repro.algebra.columnar import HAVE_NUMPY
    from repro.olap.cache import graph_fingerprint
    from repro.storage.snapshot import open_snapshot, save_snapshot

    dictionary = graph.dictionary
    state = {
        "len": len(dictionary),
        "items": list(dictionary.items()),
        "fingerprint": graph_fingerprint(graph),
    }
    if HAVE_NUMPY and not graph.snapshot_path:  # snapshots need the [fast] extra
        path = str(tmp_path / f"state-{len(list(tmp_path.iterdir()))}.snap")
        save_snapshot(graph, path)
        state["term_count"] = open_snapshot(path).header["term_count"]
    return state


class TestDerivedIds:
    @pytest.fixture(params=["heap", "snapshot"])
    def graph(self, request, tmp_path):
        graph = _words_instance()
        if request.param == "heap":
            return graph
        pytest.importorskip("numpy")
        from repro.storage.snapshot import load_snapshot, save_snapshot

        path = str(tmp_path / "instance.snap")
        save_snapshot(graph, path)
        return load_snapshot(path)

    @pytest.fixture(params=["rows", "columnar"])
    def engine(self, request):
        if request.param == "columnar":
            pytest.importorskip("numpy")
        return request.param

    def test_parents_absent_from_the_graph_roll_in_id_space(self, graph, engine, tmp_path):
        from repro.algebra.relation import IdRelation
        from tests.conftest import make_words_query

        query = make_words_query("sum")
        before = _dictionary_state(graph, tmp_path)
        with OLAPSession(graph, engine=engine) as session:
            session.execute(query)
            rolled = session.roll_up(query, "dcity", _CITY_TO_REGION, strategy="rewrite")
            banded = session.roll_up(rolled.query, "dage", AGE_BANDS, strategy="rewrite")
            storage = session.materialized(banded.query).partial.storage
        assert rolled.cells() == {
            (Literal(28), EX.term("region/Iberia")): 340,  # u2's two cities are one region
            (Literal(35), EX.term("Madrid")): 570,
            (Literal(61), EX.term("region/Andes")): 10,
        }
        assert banded.cells() == {
            ("young", EX.term("region/Iberia")): 340,
            ("senior", EX.term("Madrid")): 570,
            ("senior", EX.term("region/Andes")): 10,
        }
        # The rolled pres kept the graph's own dictionary object and ids.
        dictionary = graph.dictionary
        assert isinstance(storage, IdRelation) and storage.dictionary is dictionary
        assert {"dage", "dcity"} <= storage.encoded_columns
        city_ids = storage.distinct_values("dcity")
        assert dictionary.lookup(EX.term("Madrid")) in city_ids  # a graph term keeps its id
        assert sorted(dictionary.decode(i) for i in city_ids if i < 0) == [
            EX.term("region/Andes"), EX.term("region/Iberia"),
        ]
        assert all(i < 0 for i in storage.distinct_values("dage"))  # "young" / "senior"
        assert _dictionary_state(graph, tmp_path) == before
        from repro.errors import DictionaryError

        with pytest.raises(DictionaryError):
            dictionary.decode(min(city_ids | storage.distinct_values("dage")) - 1)

    def test_default_parent_round_trips(self, engine):
        from tests.conftest import make_words_query

        hierarchy = DimensionHierarchy({EX.term("Madrid"): "Spain"}, default="Elsewhere")
        with OLAPSession(_words_instance(), engine=engine) as session:
            query = make_words_query("count")
            session.execute(query)
            rolled = session.roll_up(query, "dcity", hierarchy, strategy="rewrite")
        assert rolled.dimension_values("dcity") == {"Spain", "Elsewhere"}
        assert rolled.cell(28, "Spain") == 4

    def test_a_value_sigma_excluded_needs_no_parent(self, engine, monkeypatch):
        """σ(sigma_before) runs before the substitution: ``parent()`` is never
        asked about a value the finer Σ removed — and is asked once per
        distinct child, not once per row."""
        from repro.olap import Dice
        from tests.conftest import make_words_query

        asked = []
        # No default: asking about NY or Lima would raise.
        hierarchy = DimensionHierarchy(
            {EX.term("Madrid"): "Iberia", EX.term("Sevilla"): "Iberia"}, name="iberia-only"
        )
        parent = DimensionHierarchy.parent

        def asking_parent(self, city):
            if self is hierarchy:
                asked.append(city)
            return parent(self, city)

        monkeypatch.setattr(DimensionHierarchy, "parent", asking_parent)
        diced = Dice({"dcity": [EX.term("Madrid"), EX.term("Sevilla")]}).apply(
            make_words_query("count")
        )
        with OLAPSession(_words_instance(), engine=engine) as session:
            session.execute(diced)
            rolled = session.roll_up(diced, "dcity", hierarchy, strategy="rewrite")
        assert rolled.cells() == {(Literal(28), "Iberia"): 4}
        assert sorted(asked) == [EX.term("Madrid"), EX.term("Sevilla")]

    def test_a_rolled_entry_with_derived_ids_round_trips_in_id_space(self, graph, engine, tmp_path):
        """A rolled entry on disk holds its derived parents as values; a new
        session over a fresh copy of the graph — whose dictionary has never
        seen them — reads them back as *its* negative derived ids."""
        from repro.algebra.relation import IdRelation
        from repro.storage.snapshot import load_snapshot
        from tests.conftest import make_words_query

        query = make_words_query("sum")
        store = str(tmp_path / "cache")
        with OLAPSession(graph, cache_dir=store, engine=engine) as session:
            session.execute(query)
            rolled = session.roll_up(query, "dcity", _CITY_TO_REGION, strategy="rewrite")
            banded = session.roll_up(rolled.query, "dage", AGE_BANDS, strategy="rewrite")
        fresh = load_snapshot(graph.snapshot_path) if graph.snapshot_path else _words_instance()
        with OLAPSession(fresh, cache_dir=store, engine=engine) as session:
            cube = session.execute(banded.query)
            assert session.history[-1].strategy == "cache[disk]"
            restored = session.materialized(banded.query)
        assert cube.cells() == banded.cells()
        for storage in (restored.partial.storage, restored.answer.storage):
            assert isinstance(storage, IdRelation) and storage.dictionary is fresh.dictionary
            assert {"dage", "dcity"} <= storage.encoded_columns
            bands = storage.distinct_values("dage")
            assert all(i < 0 for i in bands)  # "young" / "senior"
            assert {fresh.dictionary.decode(i) for i in bands} == {"young", "senior"}
