"""Differential oracle for entailment-aware cubes under schema evolution.

For random streams of instance updates **and schema-triple updates** (new
``rdfs:subClassOf`` / ``rdfs:subPropertyOf`` axioms arriving after session
construction, plus removals of data and schema triples) over the retail
workload, ``OLAPSession(..., entailment="saturate")`` — whose ρdf closure
follows the *source* graph's change log by support counts — must agree
cell for cell at every step with the pre-saturated scratch oracle: a plain
evaluator over a fresh :func:`~repro.rdf.reasoning.saturate` of the current
graph, rebuilt from nothing.  The maintained closure itself must equal that
saturation triple for triple.

The stream deliberately types some sales only via subclasses, records some
amounts only under a subproperty, and asserts some triples that are also
entailed, so plain (entailment-off) answers differ and any
de-synchronization is visible.  ROLL-UP steps ride along: rolled cubes
over entailed instances must match the oracle at the rolled granularity
too.
"""

import itertools

from hypothesis import given, settings, strategies as st

from repro.rdf import EX, Literal, RDF, RDFS, Triple
from repro.rdf.graph import Graph
from repro.rdf.reasoning import RDFSRules, saturate, schema_triples
from repro.analytics.evaluator import AnalyticalQueryEvaluator
from repro.datagen import RetailConfig, retail_dataset
from repro.datagen.retail import city_region_hierarchy, revenue_query
from repro.olap.cube import Cube
from repro.olap.operations import RollUp
from repro.olap.session import OLAPSession

#: Pinned profile: no deadline, reproduction blob printed on failure.
_SETTINGS = dict(max_examples=8, deadline=None, print_blob=True)

RDF_TYPE = RDF.term("type")
SUBCLASS = RDFS.term("subClassOf")
SUBPROPERTY = RDFS.term("subPropertyOf")

_dataset_cache = {}


def _retail(seed: int):
    if seed not in _dataset_cache:
        _dataset_cache[seed] = retail_dataset(
            RetailConfig(sales=50 + seed % 25, stores=5, products=10, cities=6,
                         regions=3, categories=4, departments=2,
                         subclass_only_fraction=0.4, promo_fraction=0.3, seed=seed)
        )
    return _dataset_cache[seed]


def _oracle_cube(source, query):
    """Plain evaluation over a fresh saturation of the current graph."""
    return Cube(AnalyticalQueryEvaluator(_oracle_closure(source)).answer(query), query)


def _oracle_closure(source):
    closure = Graph(name="oracle+rdfs")
    closure.add_all(source)
    return saturate(closure, in_place=True)


# ---------------------------------------------------------------------------
# update generator: instance triples AND schema triples
# ---------------------------------------------------------------------------


def _apply_update(draw, source, counter):
    kind = draw(
        st.sampled_from(
            [
                "add_plain_sale",
                "add_subclass_sale",
                "add_promo_sale",
                "add_schema_subclass",
                "add_schema_subproperty",
                "add_deep_subclass_sale",
                "add_redundant_sale",
                "remove",
                "remove_schema",
                "remove_entailed",
                "remove_entailing",
            ]
        )
    )
    if kind.startswith("add") and "schema" not in kind:
        sale = EX.term(f"ent_sale{next(counter)}")
        if kind == "add_redundant_sale":
            # Asserted *and* entailed: typed Sale and OnlineSale, with the
            # same amount under hasAmount and its subproperty.
            amount = Literal(draw(st.integers(1, 300)))
            source.add(Triple(sale, RDF_TYPE, EX.OnlineSale))
            source.add(Triple(sale, EX.hasPromoAmount, amount))
            source.add(Triple(sale, EX.hasAmount, amount))
            sale_type = EX.Sale
        elif kind == "add_subclass_sale":
            sale_type = draw(st.sampled_from([EX.OnlineSale, EX.StoreSale]))
        elif kind == "add_deep_subclass_sale":
            # Only entailed into Sale once FlashSale ⊑ OnlineSale has been
            # asserted by an earlier add_schema_subclass step; until then the
            # fact is (consistently) invisible to all three systems.
            sale_type = EX.FlashSale
        else:
            sale_type = EX.Sale
        source.add(Triple(sale, RDF_TYPE, sale_type))
        source.add(Triple(sale, EX.atStore, EX.term(f"store/s{draw(st.integers(0, 4))}")))
        source.add(Triple(sale, EX.ofProduct, EX.term(f"product/p{draw(st.integers(0, 9))}")))
        amount_predicate = EX.hasPromoAmount if kind == "add_promo_sale" else EX.hasAmount
        source.add(Triple(sale, amount_predicate, Literal(draw(st.integers(1, 300)))))
        return
    if kind == "add_schema_subclass":
        # A schema-triple delta that widens the closure: every FlashSale
        # (past and future) becomes a Sale.
        source.add(Triple(EX.FlashSale, SUBCLASS, EX.OnlineSale))
        return
    if kind == "add_schema_subproperty":
        source.add(Triple(EX.hasDiscountAmount, SUBPROPERTY, EX.hasAmount))
        sale = EX.term(f"ent_sale{next(counter)}")
        source.add(Triple(sale, RDF_TYPE, EX.Sale))
        source.add(Triple(sale, EX.atStore, EX.term("store/s0")))
        source.add(Triple(sale, EX.ofProduct, EX.term("product/p0")))
        source.add(Triple(sale, EX.hasDiscountAmount, Literal(draw(st.integers(1, 300)))))
        return
    if kind == "remove_schema":
        triples = sorted(schema_triples(source), key=repr)
    elif kind == "remove_entailed":
        # Asserted triples that another asserted triple entails too.
        rules = RDFSRules(source)
        entailed = set().union(*(rules.consequences(triple) for triple in source))
        triples = sorted((triple for triple in source if triple in entailed), key=repr)
    elif kind == "remove_entailing":
        # Asserted triples that entail another asserted triple.
        rules = RDFSRules(source)
        triples = sorted(
            (triple for triple in source if any(t in source for t in rules.consequences(triple))),
            key=repr,
        )
    else:
        triples = sorted(source, key=repr)
    if not triples:
        return
    source.remove(triples[draw(st.integers(0, len(triples) - 1))])


# ---------------------------------------------------------------------------
# the properties
# ---------------------------------------------------------------------------


@given(
    data=st.data(),
    seed=st.integers(min_value=0, max_value=15),
    steps=st.integers(min_value=1, max_value=5),
)
@settings(**_SETTINGS)
def test_saturate_and_presaturated_scratch_agree(data, seed, steps):
    dataset = _retail(seed)
    source = dataset.instance.copy()
    query = revenue_query(dataset.schema)

    saturated = OLAPSession(source, dataset.schema, entailment="saturate")

    for _ in range(steps):
        _apply_update(data.draw, source, itertools.count(data.draw(st.integers(0, 10**6))))
        from_saturated = saturated.execute(query)
        assert set(saturated.instance) == set(_oracle_closure(source)), (
            "the maintained closure diverged from a fresh saturation"
        )
        assert from_saturated.same_cells(_oracle_cube(source, query)), (
            f"saturate diverged from pre-saturated scratch "
            f"(strategy {saturated.history[-1].strategy})"
        )


@given(
    data=st.data(),
    seed=st.integers(min_value=0, max_value=15),
    steps=st.integers(min_value=1, max_value=4),
)
@settings(**_SETTINGS)
def test_entailed_rolled_cubes_match_oracle(data, seed, steps):
    """ROLL-UP over an entailed instance stays oracle-equal across updates."""
    dataset = _retail(seed)
    source = dataset.instance.copy()
    query = revenue_query(dataset.schema)
    operation = RollUp("dcity", city_region_hierarchy(dataset.config))

    session = OLAPSession(source, dataset.schema, entailment="saturate")
    session.execute(query)
    rolled_query = operation.apply(query)
    counter = itertools.count()
    for _ in range(steps):
        _apply_update(data.draw, source, counter)
        rolled = session.transform(query, operation)
        assert rolled.same_cells(_oracle_cube(source, rolled_query)), (
            f"rolled cube diverged (strategy {session.history[-1].strategy})"
        )


@given(seed=st.integers(min_value=0, max_value=15))
@settings(**_SETTINGS)
def test_entailment_changes_answers_on_retail(seed):
    """Sanity of the workload itself: the generated data contains facts only
    reachable through entailment, so mode=None genuinely undercounts — the
    differential above never compares two identical no-ops."""
    dataset = _retail(seed)
    query = revenue_query(dataset.schema)
    plain = OLAPSession(dataset.instance, dataset.schema).execute(query)
    entailed = OLAPSession(dataset.instance, dataset.schema, entailment="saturate").execute(query)
    assert sum(entailed.cells().values()) > sum(plain.cells().values())
