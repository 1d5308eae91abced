"""Unit tests for Σ (dimension restrictions of extended analytical queries)."""

import pickle
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SigmaError
from repro.rdf import EX, Literal
from repro.rdf.namespaces import XSD
from repro.analytics.sigma import DimensionRestriction, Sigma


class TestDimensionRestriction:
    def test_full_restriction_allows_everything(self):
        full = DimensionRestriction.full()
        assert full.is_full
        assert full.allows(Literal(28))
        assert full.allows("anything")

    def test_value_set_restriction(self):
        restriction = DimensionRestriction.to_values([Literal(28), Literal(35)])
        assert not restriction.is_full
        assert restriction.allows(Literal(28))
        assert restriction.allows(28)  # via comparable conversion
        assert not restriction.allows(Literal(40))

    def test_single_value_restriction(self):
        restriction = DimensionRestriction.to_value(EX.Madrid)
        assert restriction.allows(EX.Madrid)
        assert not restriction.allows(EX.Kyoto)
        assert restriction.values == (EX.Madrid,)

    def test_empty_value_set_rejected(self):
        with pytest.raises(SigmaError):
            DimensionRestriction.to_values([])

    def test_range_restriction(self):
        restriction = DimensionRestriction.to_range(20, 30)
        assert restriction.allows(Literal(20)) and restriction.allows(Literal(30))
        assert not restriction.allows(Literal(31))
        exclusive = DimensionRestriction.to_range(20, 30, inclusive=False)
        assert not exclusive.allows(Literal(20))

    @pytest.mark.parametrize("inclusive", [True, False])
    def test_range_survives_a_pickle_round_trip(self, inclusive):
        restriction = DimensionRestriction.to_range(Literal(20), Literal(30), inclusive)
        copy = pickle.loads(pickle.dumps(restriction))
        assert not copy.is_full
        assert copy.canonical_token() == restriction.canonical_token()
        assert copy.description == restriction.description
        for age in (19, 20, 25, 30, 31, "Madrid"):
            assert copy.allows(Literal(age)) is restriction.allows(Literal(age))

    def test_range_fails_closed_on_non_comparable(self):
        restriction = DimensionRestriction.to_range(20, 30)
        assert not restriction.allows(Literal("Madrid"))

    def test_intersection_of_value_sets(self):
        a = DimensionRestriction.to_values([1, 2, 3])
        b = DimensionRestriction.to_values([2, 3, 4])
        both = a.intersect(b)
        assert both.allows(2) and both.allows(3)
        assert not both.allows(1) and not both.allows(4)

    def test_intersection_with_full_is_identity(self):
        values = DimensionRestriction.to_values([1])
        assert values.intersect(DimensionRestriction.full()) is values
        assert DimensionRestriction.full().intersect(values) is values

    def test_empty_intersection_rejected(self):
        with pytest.raises(SigmaError):
            DimensionRestriction.to_values([1]).intersect(DimensionRestriction.to_values([2]))

    def test_intersection_with_predicate(self):
        values = DimensionRestriction.to_values([1, 25, 40])
        in_range = DimensionRestriction.to_range(20, 30)
        both = values.intersect(in_range)
        assert both.allows(25)
        assert not both.allows(1) and not both.allows(40)
        # Either order gives the values the range allows: a value set, as data.
        assert both.values == (25,) and in_range.intersect(values).values == (25,)

    def test_intersection_of_ranges_is_the_tighter_range(self):
        both = DimensionRestriction.to_range(20, 40).intersect(DimensionRestriction.to_range(25, 60))
        assert both == DimensionRestriction.to_range(25, 40)
        assert both.bounds == (25, True, 40, True)

    def test_intersection_of_ranges_keeps_the_open_end_at_a_tie(self):
        closed = DimensionRestriction.to_range(20, 30)
        both = closed.intersect(DimensionRestriction.to_range(20, 30, inclusive=False))
        assert both == DimensionRestriction.to_range(20, 30, inclusive=False)
        half_open = closed.intersect(DimensionRestriction.to_range(10, 30, inclusive=False))
        assert half_open.bounds == (20, True, 30, False)
        assert half_open.description == "range [20, 30)"
        assert half_open.allows(20) and not half_open.allows(30)

    @pytest.mark.parametrize(
        "left, right",
        [
            (DimensionRestriction.to_range(20, 30), DimensionRestriction.to_range(31, 40)),
            (DimensionRestriction.to_range(20, 30), DimensionRestriction.to_range(30, 40, inclusive=False)),
            (DimensionRestriction.to_range(20, 30), DimensionRestriction.to_range("a", "m")),
            (DimensionRestriction.to_range(20, 30), DimensionRestriction.to_values([Literal(31)])),
        ],
        ids=["disjoint", "touching-open", "unordered-types", "values-outside"],
    )
    def test_an_empty_intersection_is_rejected(self, left, right):
        with pytest.raises(SigmaError):
            left.intersect(right)
        with pytest.raises(SigmaError):
            right.intersect(left)

    @pytest.mark.parametrize(
        "low, high, inclusive",
        [(30, 20, True), (20, 20, False), (float("nan"), 30, True), (20, "a", True)],
        ids=["inverted", "open-point", "nan-bound", "unordered-types"],
    )
    def test_a_range_that_allows_nothing_is_rejected(self, low, high, inclusive):
        """Definition 2 wants Σ(dᵢ) non-empty: a range no value lies in is
        refused when it is built, by DICE's range form too."""
        from repro.olap import Dice

        with pytest.raises(SigmaError):
            DimensionRestriction.to_range(low, high, inclusive)
        if inclusive:
            with pytest.raises(SigmaError):
                Dice({"dage": (low, high)})
        assert DimensionRestriction.to_range(20, 20).allows(20)  # a closed point is one value

    def test_value_matches_on_the_raw_value_or_its_comparable_form(self):
        typed_28 = Literal("28", datatype=XSD.integer)
        assert DimensionRestriction.to_value(28).allows(typed_28)
        assert DimensionRestriction.to_value(typed_28).allows(28)
        assert DimensionRestriction.to_value(typed_28).allows(Literal(28))
        assert not DimensionRestriction.to_value(28).allows(Literal(29))
        assert not DimensionRestriction.to_value(28).allows(Literal("28"))  # a string
        cities = DimensionRestriction.to_values([EX.Madrid, EX.Kyoto])
        assert cities.allows(EX.Madrid) and cities.allows("http://example.org/Kyoto")
        assert not cities.allows(EX.term("NY"))

    def test_range_over_literals(self):
        restriction = DimensionRestriction.to_range(Literal(20), Literal(30))
        assert restriction.allows(Literal(20)) and restriction.allows(25.5)
        assert restriction.allows(Literal("30", datatype=XSD.integer))
        assert not restriction.allows(Literal(30.5))
        exclusive = DimensionRestriction.to_range(Literal(20), Literal(30), inclusive=False)
        assert not exclusive.allows(20) and exclusive.allows(Literal(29))

    def test_incomparable_values_are_not_allowed(self):
        assert not DimensionRestriction.to_range(10, 20).allows(Literal("abc"))
        assert not DimensionRestriction.to_range("a", "z").allows(Literal(5))
        assert not DimensionRestriction.to_values([28]).allows([28])  # unhashable
        assert not DimensionRestriction.to_value(EX.Madrid).allows(None)

    @pytest.mark.parametrize(
        "restriction, expected",
        [
            (DimensionRestriction.to_value(28), True),
            (DimensionRestriction.to_values([27, 29]), False),
            (DimensionRestriction.to_range(float("-inf"), 30, inclusive=False), True),
            (DimensionRestriction.to_range(float("-inf"), 28), True),
            (DimensionRestriction.to_range(28, float("inf"), inclusive=False), False),
            (DimensionRestriction.to_range(29, float("inf")), False),
        ],
        ids=["==", "!=", "<", "<=", ">", ">="],
    )
    def test_comparisons_against_a_literal(self, restriction, expected):
        assert restriction.allows(Literal(28)) is expected

    def test_equality(self):
        assert DimensionRestriction.full() == DimensionRestriction.full()
        assert DimensionRestriction.to_values([1, 2]) == DimensionRestriction.to_values([2, 1])
        assert DimensionRestriction.to_values([1]) != DimensionRestriction.full()

    def test_equal_ranges_are_equal(self):
        assert DimensionRestriction.to_range(20, 30) == DimensionRestriction.to_range(20, 30)
        assert DimensionRestriction.to_range(Literal(20), 30) == DimensionRestriction.to_range(20, 30)
        assert DimensionRestriction.to_range(20, 30) != DimensionRestriction.to_range(20, 30, inclusive=False)
        assert DimensionRestriction.to_range(20, 30) != DimensionRestriction.to_range(20, 31)

    def test_numbers_that_compare_equal_give_equal_restrictions(self):
        """``20``, ``20.0`` and ``Decimal("20")`` are one value to ``allows``,
        so restrictions over them are equal and share a token."""
        from decimal import Decimal

        assert DimensionRestriction.to_values([20]) == DimensionRestriction.to_values([20.0])
        assert DimensionRestriction.to_values([Literal(20)]) == DimensionRestriction.to_values([Decimal(20)])
        assert DimensionRestriction.to_range(20.0, 30) == DimensionRestriction.to_range(20, Literal(30))
        assert DimensionRestriction.to_values([20.5]) != DimensionRestriction.to_values([20])
        assert DimensionRestriction.to_values(["20"]) != DimensionRestriction.to_values([20])


_BOUNDS = st.integers(-4, 12)
_VALUES = st.lists(st.one_of(_BOUNDS, _BOUNDS.map(Literal)), min_size=1, max_size=4)
#: Ranges with ordered bounds; an open range needs two distinct ones.
_RANGES = st.tuples(st.lists(_BOUNDS, min_size=2, max_size=2).map(sorted), st.booleans()).filter(
    lambda drawn: drawn[1] or drawn[0][0] < drawn[0][1]
)
_RESTRICTIONS = st.one_of(
    st.just(DimensionRestriction.full()),
    _VALUES.map(DimensionRestriction.to_values),
    _RANGES.map(lambda drawn: DimensionRestriction.to_range(*drawn[0], drawn[1])),
)
#: Every integer bound and value, and every midpoint between two of them.
_PROBES = [k / 2 for k in range(-10, 27)] + [Literal(k) for k in range(-5, 14)]


class TestIntersectionIsData:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_RESTRICTIONS, min_size=1, max_size=4))
    def test_any_chain_pickles_compares_and_allows_what_every_operand_allows(self, operands):
        try:
            restriction = reduce(DimensionRestriction.intersect, operands)
        except SigmaError:
            # Only a conjunction that allows nothing may be refused.
            assert not any(all(op.allows(value) for op in operands) for value in _PROBES)
            return
        copy = pickle.loads(pickle.dumps(restriction))
        assert copy == restriction
        assert copy.canonical_token() == restriction.canonical_token()
        for value in _PROBES:
            expected = all(op.allows(value) for op in operands)
            assert restriction.allows(value) is expected
            assert copy.allows(value) is expected


class TestSigma:
    def test_default_is_unrestricted(self):
        sigma = Sigma(["dage", "dcity"])
        assert sigma.is_unrestricted()
        assert sigma.dimensions == ("dage", "dcity")
        assert sigma["dage"].is_full

    def test_duplicate_dimensions_rejected(self):
        with pytest.raises(SigmaError):
            Sigma(["d", "d"])

    def test_restrict_returns_new_sigma(self):
        sigma = Sigma(["dage", "dcity"])
        restricted = sigma.restrict("dage", DimensionRestriction.to_value(35))
        assert sigma.is_unrestricted()
        assert not restricted.is_unrestricted()
        assert restricted.restricted_dimensions() == ("dage",)

    def test_restrict_unknown_dimension(self):
        with pytest.raises(SigmaError):
            Sigma(["dage"]).restrict("nope", DimensionRestriction.full())

    def test_restrictions_must_be_dimension_restrictions(self):
        with pytest.raises(SigmaError):
            Sigma(["d"], {"d": [1, 2, 3]})  # type: ignore[dict-item]

    def test_allows_row_implements_sigma_dice(self):
        sigma = Sigma(["dage", "dcity"]).restrict_many(
            {
                "dage": DimensionRestriction.to_range(20, 30),
                "dcity": DimensionRestriction.to_values([EX.Madrid, EX.Kyoto]),
            }
        )
        assert sigma.allows_row({"dage": Literal(28), "dcity": EX.Madrid, "v": 7})
        assert not sigma.allows_row({"dage": Literal(35), "dcity": EX.Madrid})
        assert not sigma.allows_row({"dage": Literal(28), "dcity": EX.term("NY")})

    def test_allows_row_ignores_absent_dimensions(self):
        sigma = Sigma(["dage", "dcity"]).restrict("dage", DimensionRestriction.to_value(28))
        assert sigma.allows_row({"dcity": EX.Madrid})

    def test_without_drops_dimensions(self):
        sigma = Sigma(["dage", "dcity"]).restrict("dage", DimensionRestriction.to_value(28))
        reduced = sigma.without(["dage"])
        assert reduced.dimensions == ("dcity",)
        with pytest.raises(SigmaError):
            sigma.without(["nope"])

    def test_with_new_adds_full_dimensions(self):
        sigma = Sigma(["dage"]).with_new(["dcity"])
        assert sigma.dimensions == ("dage", "dcity")
        assert sigma["dcity"].is_full
        with pytest.raises(SigmaError):
            sigma.with_new(["dage"])

    def test_reorder(self):
        sigma = Sigma(["dage", "dcity"]).restrict("dage", DimensionRestriction.to_value(28))
        reordered = sigma.reorder(["dcity", "dage"])
        assert reordered.dimensions == ("dcity", "dage")
        assert not reordered["dage"].is_full
        with pytest.raises(SigmaError):
            sigma.reorder(["dage"])

    def test_equality_and_describe(self):
        a = Sigma(["dage"]).restrict("dage", DimensionRestriction.to_values([28]))
        b = Sigma(["dage"]).restrict("dage", DimensionRestriction.to_values([28]))
        assert a == b
        assert "dage" in a.describe()


class TestCanonicalTokens:
    def test_full_token(self):
        assert DimensionRestriction.full().canonical_token() == "*"

    def test_value_sets_canonicalize_order_insensitively(self):
        a = DimensionRestriction.to_values([Literal(28), Literal(35)])
        b = DimensionRestriction.to_values([Literal(35), Literal(28)])
        assert a.canonical_token() == b.canonical_token()

    def test_value_sets_distinguish_contents(self):
        a = DimensionRestriction.to_values([Literal(28)])
        b = DimensionRestriction.to_values([Literal(29)])
        assert a.canonical_token() != b.canonical_token()

    def test_ranges_canonicalize_by_bounds(self):
        assert (
            DimensionRestriction.to_range(20, 30).canonical_token()
            == DimensionRestriction.to_range(20, 30).canonical_token()
        )
        assert (
            DimensionRestriction.to_range(20, 30).canonical_token()
            != DimensionRestriction.to_range(20, 31).canonical_token()
        )

    def test_sigma_tokens_follow_dimension_order(self):
        sigma = Sigma(["dage", "dcity"]).restrict(
            "dage", DimensionRestriction.to_value(Literal(28))
        )
        tokens = sigma.canonical_tokens()
        assert [name for name, _ in tokens] == ["dage", "dcity"]
        assert tokens[1][1] == "*"


class TestSubsumption:
    def test_full_subsumes_everything(self):
        full = DimensionRestriction.full()
        narrow = DimensionRestriction.to_value(Literal(28))
        assert full.subsumes(narrow)
        assert not narrow.subsumes(full)

    def test_value_set_superset_subsumes(self):
        wide = DimensionRestriction.to_values([Literal(28), Literal(35)])
        narrow = DimensionRestriction.to_values([Literal(35)])
        assert wide.subsumes(narrow)
        assert not narrow.subsumes(wide)

    def test_range_subsumes_contained_values(self):
        in_range = DimensionRestriction.to_range(20, 40)
        values = DimensionRestriction.to_values([Literal(25), Literal(30)])
        assert in_range.subsumes(values)
        assert not in_range.subsumes(DimensionRestriction.to_values([Literal(45)]))

    def test_range_subsumes_narrower_range(self):
        assert DimensionRestriction.to_range(20, 40).subsumes(
            DimensionRestriction.to_range(25, 30)
        )
        assert not DimensionRestriction.to_range(25, 30).subsumes(
            DimensionRestriction.to_range(20, 40)
        )

    def test_range_subsumes_a_range_sharing_an_end_of_another_number_type(self):
        assert DimensionRestriction.to_range(20.0, 40).subsumes(
            DimensionRestriction.to_range(20, 30)
        )
        assert not DimensionRestriction.to_range(20, 40, inclusive=False).subsumes(
            DimensionRestriction.to_range(20.0, 30)
        )

    def test_sigma_subsumption_is_pointwise(self):
        weaker = Sigma(["dage", "dcity"]).restrict(
            "dage", DimensionRestriction.to_values([Literal(28), Literal(35)])
        )
        stronger = weaker.restrict("dcity", DimensionRestriction.to_value(EX.term("NY"))).restrict(
            "dage", DimensionRestriction.to_value(Literal(35))
        )
        assert weaker.subsumes(stronger)
        assert not stronger.subsumes(weaker)

    def test_sigma_subsumption_requires_same_dimensions(self):
        assert not Sigma(["dage"]).subsumes(Sigma(["dcity"]))


@pytest.mark.parametrize("engine", ["rows", "columnar"])
def test_selection_tests_each_distinct_id_once_with_its_term(engine, monkeypatch):
    """σ_Σ over an id relation asks a restriction about each distinct id of
    its column once, as the decoded term, on either engine; the kept rows
    are those the decoded-row oracle keeps."""
    from collections import Counter

    from repro.algebra.columnar import ColumnarIdRelation
    from repro.algebra.operators import select
    from repro.algebra.relation import IdRelation
    from repro.rdf.dictionary import TermDictionary

    dictionary = TermDictionary()
    people = [(EX.Madrid, 28), (EX.Kyoto, 35), (EX.Madrid, 28), (EX.Lima, 41), (EX.Kyoto, 35)]
    columns = ("dcity", "dage")
    rows = [(dictionary.encode(city), dictionary.encode(Literal(age))) for city, age in people]
    if engine == "columnar":
        np = pytest.importorskip("numpy")
        arrays = {name: np.asarray([row[i] for row in rows]) for i, name in enumerate(columns)}
        relation = ColumnarIdRelation.from_arrays(columns, arrays, dictionary)
    else:
        relation = IdRelation(columns, rows, dictionary=dictionary)
    under_forty = DimensionRestriction.to_range(float("-inf"), 40, inclusive=False)
    seen = []
    allows = DimensionRestriction.allows

    def spying_allows(restriction, value):
        if restriction is under_forty:
            seen.append(value)
        return allows(restriction, value)

    sigma = Sigma(columns, {
        "dcity": DimensionRestriction.to_values([EX.Madrid, EX.Lima]),
        "dage": under_forty,
    })
    monkeypatch.setattr(DimensionRestriction, "allows", spying_allows)
    kept = select(relation, sigma.predicate())
    monkeypatch.undo()
    assert Counter(seen) == {Literal(28): 1, Literal(35): 1, Literal(41): 1}
    assert all(isinstance(age, Literal) for age in seen)
    decoded = relation.materialize()
    oracle = [row for row in decoded.rows if sigma.allows_row(dict(zip(decoded.columns, row)))]
    assert Counter(kept.materialize().rows) == Counter(oracle) == {
        (EX.Madrid, Literal(28)): 2
    }
