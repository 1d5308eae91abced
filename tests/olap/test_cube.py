"""Unit tests for the Cube result abstraction."""

import pytest

from repro.errors import OLAPError
from repro.rdf import EX, Literal
from repro.algebra.relation import Relation
from repro.analytics.answer import CubeAnswer
from repro.olap.cube import Cube


@pytest.fixture()
def two_dim_cube() -> Cube:
    relation = Relation(
        ["dage", "dcity", "v"],
        [
            (Literal(28), EX.term("Madrid"), 3),
            (Literal(35), EX.term("NY"), 2),
        ],
    )
    return Cube(CubeAnswer(relation, ("dage", "dcity"), "v"))


class TestStructure:
    def test_dimensions_and_size(self, two_dim_cube):
        assert two_dim_cube.dimensions == ("dage", "dcity")
        assert two_dim_cube.measure_column == "v"
        assert two_dim_cube.arity == 2
        assert len(two_dim_cube) == 2

    def test_dimension_values(self, two_dim_cube):
        assert two_dim_cube.dimension_values("dage") == {Literal(28), Literal(35)}
        with pytest.raises(OLAPError):
            two_dim_cube.dimension_values("nope")

    def test_cells_mapping(self, two_dim_cube):
        cells = two_dim_cube.cells()
        assert cells[(Literal(28), EX.term("Madrid"))] == 3

    def test_iteration(self, two_dim_cube):
        assert len(list(two_dim_cube)) == 2


class TestCellAccess:
    def test_positional_access_with_terms(self, two_dim_cube):
        assert two_dim_cube.cell(Literal(28), EX.term("Madrid")) == 3

    def test_positional_access_with_python_values(self, two_dim_cube):
        # Python values are matched through the literal conversion.
        assert two_dim_cube.cell(28, "http://example.org/Madrid") == 3

    def test_named_access(self, two_dim_cube):
        assert two_dim_cube.cell(dage=Literal(35), dcity=EX.term("NY")) == 2

    def test_missing_cell_raises_and_get_defaults(self, two_dim_cube):
        with pytest.raises(OLAPError):
            two_dim_cube.cell(Literal(99), EX.term("Madrid"))
        assert two_dim_cube.get(Literal(99), EX.term("Madrid"), default=0) == 0

    def test_wrong_arity(self, two_dim_cube):
        with pytest.raises(OLAPError):
            two_dim_cube.cell(Literal(28))

    def test_mixed_positional_and_named_rejected(self, two_dim_cube):
        with pytest.raises(OLAPError):
            two_dim_cube.cell(Literal(28), dcity=EX.term("Madrid"))

    def test_unknown_or_missing_named_dimension(self, two_dim_cube):
        with pytest.raises(OLAPError):
            two_dim_cube.cell(dage=Literal(28), nope=1)
        with pytest.raises(OLAPError):
            two_dim_cube.cell(dage=Literal(28))


class TestDecodeOnce:
    """The decoded forms live on the ``CubeAnswer``: cubes, ``dimension_values``
    and ``cell`` lookups over one answer share one decode and one index."""

    def test_one_columnwise_decode_per_answer_however_many_cubes(self):
        """A columnar answer decodes in its arrays — one gather per column,
        no row conversion — and only the first cube over it pays."""
        np = pytest.importorskip("numpy")
        from repro.algebra.columnar import ROW_CONVERSIONS, ColumnarIdRelation
        from repro.rdf.dictionary import TermDictionary

        dictionary = TermDictionary()
        ages = [dictionary.encode(Literal(age)) for age in (28, 35, 28)]
        cities = [dictionary.encode(EX.term(city)) for city in ("Madrid", "NY", "NY")]
        relation = ColumnarIdRelation.from_arrays(
            ("dage", "dcity", "v"),
            {"dage": np.array(ages), "dcity": np.array(cities), "v": np.array([3, 2, 9])},
            dictionary,
            encoded=("dage", "dcity"),
        )
        answer = CubeAnswer(relation, ("dage", "dcity"), "v")
        decoded = []
        original, gather = dictionary.decode, dictionary.decode_many
        dictionary.decode = lambda term_id: decoded.append(term_id) or original(term_id)
        dictionary.decode_many = lambda ids: decoded.extend(ids.tolist()) or gather(ids)
        before = ROW_CONVERSIONS.copy()
        try:
            for _ in range(3):
                cube = Cube(answer)
                assert cube.dimension_values("dcity") == {EX.term("Madrid"), EX.term("NY")}
                assert cube.cell(28, "http://example.org/NY") == 9
                assert cube.cell(Literal(35), EX.term("NY")) == 2
            assert answer.relation.rows == [
                (Literal(28), EX.term("Madrid"), 3),
                (Literal(35), EX.term("NY"), 2),
                (Literal(28), EX.term("NY"), 9),
            ]
        finally:
            del dictionary.decode, dictionary.decode_many
        assert ROW_CONVERSIONS == before
        # Each distinct id decoded once into the fresh dictionary's term table,
        # then one gather per column, which the cells and the decoded relation share.
        assert sorted(decoded) == sorted(list(set(ages) | set(cities)) + ages + cities)

    def test_second_chance_lookup_converts_the_cells_once(self, monkeypatch):
        from repro.algebra import expressions
        from repro.analytics import answer as answer_module
        from repro.olap import cube as cube_module

        calls = []

        def counting(value):
            calls.append(value)
            return expressions.comparable(value)

        monkeypatch.setattr(answer_module, "comparable", counting)
        monkeypatch.setattr(cube_module, "comparable", counting)
        rows = [(Literal(age), EX.term(f"city{age}"), age) for age in range(200)]
        cube = Cube(CubeAnswer(Relation(["dage", "dcity", "v"], rows), ("dage", "dcity"), "v"))
        assert cube.cell(28, "http://example.org/city28") == 28
        assert len(calls) == 2 * 200 + 2  # every key once, plus the wanted key
        assert cube.cell(150, "http://example.org/city150") == 150
        assert cube.get(150, "http://example.org/city28", default=-1) == -1
        assert Cube(cube.answer).cell(7, "http://example.org/city7") == 7
        assert len(calls) == 2 * 200 + 2 + 3 * 2  # only the wanted keys since

    def test_facts_decodes_the_distinct_facts_not_the_rows(self, small_generic_dataset):
        pytest.importorskip("numpy")
        from repro.algebra.columnar import ROW_CONVERSIONS
        from repro.analytics import AnalyticalQueryEvaluator
        from repro.datagen.generic import generic_query

        dataset = small_generic_dataset
        evaluator = AnalyticalQueryEvaluator(dataset.instance, engine="columnar")
        partial = evaluator.partial_result(generic_query(dataset.config, aggregate="count"))
        before = ROW_CONVERSIONS["decode:pres"]
        facts = partial.facts()
        assert ROW_CONVERSIONS["decode:pres"] == before
        assert facts == partial.relation.distinct_values(partial.fact_column)
        assert ROW_CONVERSIONS["decode:pres"] == before + 1


@pytest.fixture(params=["rows", "columnar"])
def encoded_answer(request):
    """A two-dimension answer in id space on either engine, and its dictionary."""
    from repro.algebra.relation import IdRelation
    from repro.rdf.dictionary import TermDictionary

    dictionary = TermDictionary()
    ages = [dictionary.encode(Literal(age)) for age in (28, 35, 28)]
    cities = [dictionary.encode(EX.term(city)) for city in ("Madrid", "NY", "NY")]
    columns, encoded = ("dage", "dcity", "v"), ("dage", "dcity")
    if request.param == "columnar":
        np = pytest.importorskip("numpy")
        from repro.algebra.columnar import ColumnarIdRelation

        arrays = {"dage": np.array(ages), "dcity": np.array(cities), "v": np.array([3, 2, 9])}
        relation = ColumnarIdRelation.from_arrays(columns, arrays, dictionary, encoded=encoded)
    else:
        relation = IdRelation(columns, zip(ages, cities, [3, 2, 9]), dictionary=dictionary, encoded=encoded)
    return CubeAnswer(relation, ("dage", "dcity"), "v"), dictionary


_ENCODED_CELLS = [
    ((Literal(28), EX.term("Madrid")), 3),
    ((Literal(35), EX.term("NY")), 2),
    ((Literal(28), EX.term("NY")), 9),
]


class TestLazyCellMap:
    """A cube holds its answer's decoded columns; the keyed map is built
    from them on the first keyed lookup, once per answer."""

    def test_a_cube_reads_the_columns_and_builds_no_map(self, encoded_answer):
        answer, _ = encoded_answer
        cube = Cube(answer)
        assert answer.decoded and vars(answer)["_cells"] is None
        assert len(cube) == 3 and list(cube) == _ENCODED_CELLS
        assert cube.dimension_values("dage") == {Literal(28), Literal(35)}
        assert "Madrid" in cube.to_text() and "Cube(" in repr(cube)
        assert cube.relation.rows == [(*key, measure) for key, measure in _ENCODED_CELLS]
        assert vars(answer)["_cells"] is None

    def test_the_first_keyed_lookup_builds_the_map_once_per_answer(self, encoded_answer, monkeypatch):
        answer, _ = encoded_answer
        builds = []
        iterate = CubeAnswer.iter_cells
        monkeypatch.setattr(CubeAnswer, "iter_cells", lambda each: builds.append(each) or iterate(each))
        first, second = Cube(answer), Cube(answer)
        assert first.cell(Literal(35), EX.term("NY")) == 2 and len(builds) == 1
        built = vars(answer)["_cells"]
        assert list(built.items()) == _ENCODED_CELLS
        assert second.get(Literal(28), EX.term("NY")) == 9 and dict(second.cells()) == built
        assert Cube(answer).cells()[(Literal(28), EX.term("Madrid"))] == 3
        assert len(builds) == 1 and vars(answer)["_cells"] is built

    def test_cells_relation_and_text_share_one_decode(self, encoded_answer):
        """The keyed map, the decoded relation and the text rendering all read
        the one decode: on the columnar engine one ``decode_many`` per encoded
        column, on the row engine one ``decode`` per distinct id."""
        answer, dictionary = encoded_answer
        decoded, gathers = [], []
        decode, gather = dictionary.decode, dictionary.decode_many
        dictionary.decode = lambda term_id: decoded.append(term_id) or decode(term_id)
        dictionary.decode_many = lambda ids: gathers.append(ids.tolist()) or gather(ids)
        try:
            cube = Cube(answer)
            cube.cells()
            assert cube.relation.rows == [(*key, measure) for key, measure in _ENCODED_CELLS]
            assert "Madrid" in cube.to_text()
        finally:
            del dictionary.decode, dictionary.decode_many
        assert sorted(decoded) == sorted(set(decoded))  # each distinct id once
        columnar = type(answer.storage).__name__ == "ColumnarIdRelation"
        assert len(gathers) == (2 if columnar else 0)


class TestComparison:
    def test_same_cells_across_value_representations(self, two_dim_cube):
        # The same cube with literal dimension values replaced by raw Python values.
        relation = Relation(
            ["dage", "dcity", "v"],
            [(28, "http://example.org/Madrid", 3), (35, "http://example.org/NY", 2)],
        )
        other = Cube(CubeAnswer(relation, ("dage", "dcity"), "v"))
        assert two_dim_cube.same_cells(other)

    def test_same_cells_tolerates_float_noise(self):
        a = Cube(CubeAnswer(Relation(["d", "v"], [("x", 1.0)]), ("d",), "v"))
        b = Cube(CubeAnswer(Relation(["d", "v"], [("x", 1.0 + 1e-12)]), ("d",), "v"))
        assert a.same_cells(b)

    def test_different_measures_not_equal(self, two_dim_cube):
        relation = Relation(
            ["dage", "dcity", "v"],
            [(Literal(28), EX.term("Madrid"), 4), (Literal(35), EX.term("NY"), 2)],
        )
        other = Cube(CubeAnswer(relation, ("dage", "dcity"), "v"))
        assert not two_dim_cube.same_cells(other)

    def test_different_dimensions_not_equal(self, two_dim_cube):
        relation = Relation(["dcity", "v"], [(EX.term("Madrid"), 3)])
        other = Cube(CubeAnswer(relation, ("dcity",), "v"))
        assert not two_dim_cube.same_cells(other)

    def test_cells_sharing_a_comparable_key_are_all_compared(self):
        """``"28"^^xsd:integer`` and ``"28.0"^^xsd:double`` convert to one key:
        every cell under it counts, not only the first."""

        def cube(*rows):
            return Cube(CubeAnswer(Relation(["d", "v"], list(rows)), ("d",), "v"))

        both = cube((Literal(28), 5), (Literal(28.0), 7))
        first_only = cube((Literal(28), 5))
        assert not both.same_cells(first_only) and not first_only.same_cells(both)
        assert not both.same_cells(cube((Literal(28), 5), (Literal(28.0), 8)))
        assert not both.same_cells(cube((Literal(28), 5), (Literal("x"), 7)))
        assert both.same_cells(cube((Literal(28.0), 7), (Literal(28), 5 + 1e-12)))
        # Paired in sorted order: 0 with -0.9e-9 and 1.8e-9 with 0.9e-9 are each
        # within the tolerance, though pairing 0 with 0.9e-9 first is not.
        spread = cube((Literal(28), 0.0), (Literal(28.0), 1.8e-9))
        assert spread.same_cells(cube((Literal(28), 0.9e-9), (Literal(28.0), -0.9e-9)))
        assert both.cell(28) == 5  # lookup: the first such cell

    def test_missing_cell_not_equal(self, two_dim_cube):
        relation = Relation(["dage", "dcity", "v"], [(Literal(28), EX.term("Madrid"), 3)])
        other = Cube(CubeAnswer(relation, ("dage", "dcity"), "v"))
        assert not two_dim_cube.same_cells(other)


class TestDisplay:
    def test_to_text(self, two_dim_cube):
        text = two_dim_cube.to_text()
        assert "dage" in text and "Madrid" in text and "3" in text
