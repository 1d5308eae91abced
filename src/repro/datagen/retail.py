"""Synthetic retail-sales workload: skewed facts, deep hierarchies, RDFS schema.

The third large-scale generator (after :mod:`repro.datagen.blogger` and
:mod:`repro.datagen.videos`), built to exercise the two PR-10 subsystems:

* **multi-level dimension hierarchies** — every sale happens at a store in a
  city; cities roll up to regions and regions to zones (a *two-stage* stack
  over the same dimension), and product categories roll up to departments.
  All hierarchy levels ship as explicit child→parent mappings
  (:meth:`DimensionHierarchy.from_pairs`), so their canonical tokens are
  content-based and rolled cache entries stay persistable;
* **RDFS entailment** — the instance carries ρdf schema statements:
  ``OnlineSale ⊑ Sale`` and ``StoreSale ⊑ Sale`` (a configurable fraction of
  sales is typed *only* with a subclass), ``hasPromoAmount ⊑ hasAmount``
  (a fraction of amounts is recorded only under the subproperty), and
  ``rdfs:domain(hasCoupon) = Sale``.  A plain session undercounts; a
  session with ``entailment="saturate"`` agrees with plain evaluation over
  a pre-saturated instance — the differential the entailment test wall
  checks.

Skew: products and stores are drawn with a Zipf distribution, so a few
"blockbuster" products dominate the fact table — rolled-up cubes shrink
dramatically, which is what makes lattice reuse worth planning for.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.rdf.graph import Graph
from repro.rdf.namespaces import EX, RDF, RDFS, Namespace
from repro.rdf.terms import IRI, Literal, Variable
from repro.rdf.triples import Triple, TriplePattern
from repro.bgp.query import BGPQuery
from repro.analytics.instance import materialize_instance
from repro.analytics.query import AnalyticalQuery
from repro.analytics.schema import AnalyticalSchema
from repro.datagen.distributions import pick_uniform, pick_zipf
from repro.olap.hierarchy import DimensionHierarchy

__all__ = [
    "RetailConfig",
    "RetailDataset",
    "retail_base_graph",
    "retail_schema",
    "retail_rdfs_triples",
    "retail_dataset",
    "revenue_query",
    "city_region_hierarchy",
    "region_zone_hierarchy",
    "category_department_hierarchy",
]

_RDF_TYPE = RDF.term("type")
_SUBCLASS = RDFS.term("subClassOf")
_SUBPROPERTY = RDFS.term("subPropertyOf")
_DOMAIN = RDFS.term("domain")

_REGION_NAMES = [
    "Iberia", "Nordics", "DACH", "Benelux", "Balkans", "Baltics",
    "Isles", "Alps", "Levant", "Maghreb",
]
_ZONE_OF_REGION_INDEX = 3  # regions per zone in the geographic roll-up


@dataclass
class RetailConfig:
    """Parameters of the retail data generator."""

    sales: int = 300
    stores: int = 12
    products: int = 40
    cities: int = 9
    regions: int = 3
    categories: int = 8
    departments: int = 3
    #: Fraction of sales typed only with a subclass of ``Sale`` (their
    #: membership in the classifier is *entailed*, not asserted).
    subclass_only_fraction: float = 0.3
    #: Fraction of sales whose amount is recorded only under the
    #: subproperty ``hasPromoAmount`` (the measure match is entailed).
    promo_fraction: float = 0.2
    #: Fraction of sales carrying a coupon (``rdfs:domain`` typing).
    coupon_fraction: float = 0.1
    amount_max: int = 500
    zipf_exponent: float = 0.9
    seed: int = 11

    def validate(self) -> None:
        if self.sales <= 0:
            raise ValueError("sales must be positive")
        if min(self.stores, self.products, self.cities, self.categories) <= 0:
            raise ValueError("stores, products, cities and categories must be positive")
        if not 1 <= self.regions <= self.cities:
            raise ValueError("regions must be in [1, cities]")
        if not 1 <= self.departments <= self.categories:
            raise ValueError("departments must be in [1, categories]")
        for name in ("subclass_only_fraction", "promo_fraction", "coupon_fraction"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")


@dataclass
class RetailDataset:
    """A generated retail scenario: base graph, schema and AnS instance."""

    config: RetailConfig
    base_graph: Graph
    schema: AnalyticalSchema
    instance: Graph


def _city_terms(config: RetailConfig) -> List[IRI]:
    return [EX.term(f"city/c{index}") for index in range(config.cities)]


def _category_terms(config: RetailConfig) -> List[IRI]:
    return [EX.term(f"category/cat{index}") for index in range(config.categories)]


def _region_label(index: int) -> str:
    if index < len(_REGION_NAMES):
        return _REGION_NAMES[index]
    return f"Region{index}"


def retail_rdfs_triples() -> List[Triple]:
    """The ρdf schema statements of the retail vocabulary."""
    return [
        Triple(EX.OnlineSale, _SUBCLASS, EX.Sale),
        Triple(EX.StoreSale, _SUBCLASS, EX.Sale),
        Triple(EX.hasPromoAmount, _SUBPROPERTY, EX.hasAmount),
        Triple(EX.hasCoupon, _DOMAIN, EX.Sale),
    ]


def retail_base_graph(config: Optional[RetailConfig] = None) -> Graph:
    """Generate the base RDF graph of the retail scenario (schema included)."""
    config = config or RetailConfig()
    config.validate()
    rng = random.Random(config.seed)
    graph = Graph(name=f"retail_{config.sales}")
    for statement in retail_rdfs_triples():
        graph.add(statement)

    cities = _city_terms(config)
    categories = _category_terms(config)
    stores = [EX.term(f"store/s{index}") for index in range(config.stores)]
    products = [EX.term(f"product/p{index}") for index in range(config.products)]

    for index, store in enumerate(stores):
        graph.add(Triple(store, _RDF_TYPE, EX.Store))
        graph.add(Triple(store, EX.inCity, cities[index % config.cities]))
    for index, product in enumerate(products):
        graph.add(Triple(product, _RDF_TYPE, EX.Product))
        graph.add(Triple(product, EX.inCategory, categories[index % config.categories]))
    for city in cities:
        graph.add(Triple(city, _RDF_TYPE, EX.City))
    for category in categories:
        graph.add(Triple(category, _RDF_TYPE, EX.Category))

    sale_types = (EX.OnlineSale, EX.StoreSale)
    for index in range(config.sales):
        sale = EX.term(f"sale/t{index}")
        if rng.random() < config.subclass_only_fraction:
            graph.add(Triple(sale, _RDF_TYPE, pick_uniform(rng, sale_types)))
        else:
            graph.add(Triple(sale, _RDF_TYPE, EX.Sale))
        graph.add(Triple(sale, EX.atStore, pick_zipf(rng, stores, exponent=config.zipf_exponent)))
        graph.add(Triple(sale, EX.ofProduct, pick_zipf(rng, products, exponent=config.zipf_exponent)))
        amount = Literal(rng.randrange(1, config.amount_max))
        if rng.random() < config.promo_fraction:
            graph.add(Triple(sale, EX.hasPromoAmount, amount))
        else:
            graph.add(Triple(sale, EX.hasAmount, amount))
        if rng.random() < config.coupon_fraction:
            graph.add(Triple(sale, EX.hasCoupon, Literal(f"COUPON{index % 7}")))
    return graph


def retail_schema(namespace: Namespace = EX) -> AnalyticalSchema:
    """The analytical schema of the retail scenario (identity lens)."""
    schema = AnalyticalSchema(name="RetailAnS", namespace=namespace)
    for class_name in ("Sale", "OnlineSale", "StoreSale", "Store", "Product", "City", "Category"):
        schema.add_class_from_type(class_name)

    def object_class(class_name: str, predicate: IRI) -> None:
        subject = Variable("s")
        object_ = Variable("o")
        schema.add_class(
            class_name,
            BGPQuery(
                [object_], [TriplePattern(subject, predicate, object_)], name=f"def_{class_name}"
            ),
        )

    object_class("Amount", namespace.hasAmount)
    object_class("PromoAmount", namespace.hasPromoAmount)
    object_class("Coupon", namespace.hasCoupon)

    schema.add_property_from_predicate("atStore", "Sale", "Store")
    schema.add_property_from_predicate("ofProduct", "Sale", "Product")
    schema.add_property_from_predicate("inCity", "Store", "City")
    schema.add_property_from_predicate("inCategory", "Product", "Category")
    schema.add_property_from_predicate("hasAmount", "Sale", "Amount")
    schema.add_property_from_predicate("hasPromoAmount", "Sale", "PromoAmount")
    schema.add_property_from_predicate("hasCoupon", "Sale", "Coupon")
    return schema


def retail_dataset(config: Optional[RetailConfig] = None) -> RetailDataset:
    """Generate base graph + schema + materialized AnS instance in one call.

    The instance carries the ρdf schema statements too, so
    ``OLAPSession(dataset.instance, entailment="saturate")`` sees the same
    subclass/subproperty/domain axioms the base graph was generated with.
    """
    config = config or RetailConfig()
    base_graph = retail_base_graph(config)
    schema = retail_schema()
    instance = materialize_instance(schema, base_graph, name="retail_instance")
    for statement in retail_rdfs_triples():
        instance.add(statement)
    return RetailDataset(config=config, base_graph=base_graph, schema=schema, instance=instance)


# ---------------------------------------------------------------------------
# dimension hierarchies (explicit mappings: content-addressable cache keys)
# ---------------------------------------------------------------------------


def city_region_hierarchy(config: RetailConfig) -> DimensionHierarchy:
    """Level 1 of the geographic roll-up: city IRI → region name."""
    pairs: List[Tuple[IRI, str]] = []
    for index, city in enumerate(_city_terms(config)):
        pairs.append((city, _region_label(index % config.regions)))
    return DimensionHierarchy.from_pairs(pairs, name="city->region")


def region_zone_hierarchy(config: RetailConfig) -> DimensionHierarchy:
    """Level 2 of the geographic roll-up: region name → zone name."""
    pairs: List[Tuple[str, str]] = []
    for index in range(config.regions):
        pairs.append((_region_label(index), f"Zone{index // _ZONE_OF_REGION_INDEX}"))
    return DimensionHierarchy.from_pairs(pairs, name="region->zone")


def category_department_hierarchy(config: RetailConfig) -> DimensionHierarchy:
    """Product roll-up: category IRI → department name."""
    pairs: List[Tuple[IRI, str]] = []
    for index, category in enumerate(_category_terms(config)):
        pairs.append((category, f"Dept{index % config.departments}"))
    return DimensionHierarchy.from_pairs(pairs, name="category->department")


# ---------------------------------------------------------------------------
# the scenario's analytical query
# ---------------------------------------------------------------------------


def revenue_query(
    schema: Optional[AnalyticalSchema] = None,
    aggregate: str = "sum",
    name: str = "Q_revenue",
) -> AnalyticalQuery:
    """Revenue per sale, by store city and product category.

    ``Q :- ⟨c(x, dcity, dcat), m(x, vamount), sum⟩`` — both the classifier's
    ``rdf:type Sale`` pattern and the measure's ``hasAmount`` pattern have
    entailed matches in the generated data (subclass-only typed sales,
    promo-only amounts), so answers differ between plain and
    entailment-aware sessions by construction.
    """
    x = Variable("x")
    dcity = Variable("dcity")
    dcat = Variable("dcat")
    store = Variable("s")
    product = Variable("p")
    classifier = BGPQuery(
        [x, dcity, dcat],
        [
            TriplePattern(x, _RDF_TYPE, EX.Sale),
            TriplePattern(x, EX.atStore, store),
            TriplePattern(store, EX.inCity, dcity),
            TriplePattern(x, EX.ofProduct, product),
            TriplePattern(product, EX.inCategory, dcat),
        ],
        name="c",
    )
    vamount = Variable("vamount")
    measure = BGPQuery(
        [x, vamount],
        [
            TriplePattern(x, _RDF_TYPE, EX.Sale),
            TriplePattern(x, EX.hasAmount, vamount),
        ],
        name="m",
    )
    return AnalyticalQuery(classifier, measure, aggregate, schema=schema, name=name)
