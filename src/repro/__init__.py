"""repro — Efficient OLAP operations for RDF analytics.

A from-scratch Python implementation of the RDF analytics framework and its
optimized OLAP operations (Akbari-Azirani, Goasdoué, Manolescu, Roatiş —
DESWeb @ ICDE 2015):

* :mod:`repro.rdf` — RDF data model, in-memory triple store, Turtle /
  N-Triples I/O, RDFS saturation;
* :mod:`repro.algebra` — bag-relational algebra (σ, π, δ, ⋈, γ) and
  aggregation functions;
* :mod:`repro.bgp` — conjunctive (BGP) queries and their evaluation;
* :mod:`repro.analytics` — analytical schemas, analytical queries (RDF
  cubes), ``ans`` / ``pres`` / ``int`` materialization;
* :mod:`repro.olap` — SLICE / DICE / DRILL-OUT / DRILL-IN and their
  view-based rewritings (Proposition 1, Algorithms 1 and 2), cube
  navigation sessions;
* :mod:`repro.datagen` — synthetic dataset generators.

Quickstart::

    from repro import (
        BloggerConfig, blogger_dataset, sites_per_blogger_query,
        OLAPSession, Slice, DrillOut,
    )

    dataset = blogger_dataset(BloggerConfig(bloggers=200))
    session = OLAPSession(dataset.instance, dataset.schema)
    cube = session.execute(sites_per_blogger_query(dataset.schema))
    by_city = session.transform("Q_sites", DrillOut("dage"), strategy="rewrite")
    print(by_city.to_text())
"""

from repro.errors import ReproError
from repro.rdf import (
    ANS,
    EX,
    RDF,
    RDFS,
    XSD,
    BlankNode,
    Graph,
    IRI,
    Literal,
    Namespace,
    PrefixMap,
    Triple,
    TriplePattern,
    Variable,
    parse_ntriples,
    parse_turtle,
    serialize_ntriples,
    serialize_turtle,
)
from repro.algebra import Relation
from repro.bgp import BGPEvaluator, BGPQuery, evaluate_query, parse_query
from repro.analytics import (
    AnalyticalQuery,
    AnalyticalQueryEvaluator,
    AnalyticalSchema,
    DimensionRestriction,
    InstanceBuilder,
    MaterializedQueryResults,
    Sigma,
    materialize_instance,
)
from repro.olap import (
    Cube,
    Dice,
    DrillIn,
    DrillOut,
    OLAPRewriter,
    OLAPSession,
    Slice,
    compose,
)
from repro.datagen import (
    BloggerConfig,
    GenericConfig,
    VideoConfig,
    blogger_dataset,
    generic_dataset,
    sites_per_blogger_query,
    video_dataset,
    views_per_url_query,
    words_per_blogger_query,
)
from repro.persistence import (
    load_materialized_results,
    load_relation,
    save_materialized_results,
    save_relation,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ReproError",
    # RDF layer
    "IRI",
    "Literal",
    "BlankNode",
    "Variable",
    "Triple",
    "TriplePattern",
    "Graph",
    "Namespace",
    "PrefixMap",
    "RDF",
    "RDFS",
    "XSD",
    "EX",
    "ANS",
    "parse_ntriples",
    "serialize_ntriples",
    "parse_turtle",
    "serialize_turtle",
    # algebra / BGP
    "Relation",
    "BGPQuery",
    "BGPEvaluator",
    "evaluate_query",
    "parse_query",
    # analytics
    "AnalyticalSchema",
    "AnalyticalQuery",
    "AnalyticalQueryEvaluator",
    "InstanceBuilder",
    "materialize_instance",
    "Sigma",
    "DimensionRestriction",
    "MaterializedQueryResults",
    # OLAP
    "Slice",
    "Dice",
    "DrillOut",
    "DrillIn",
    "compose",
    "OLAPRewriter",
    "OLAPSession",
    "Cube",
    # data generators
    "BloggerConfig",
    "VideoConfig",
    "GenericConfig",
    "blogger_dataset",
    "video_dataset",
    "generic_dataset",
    "sites_per_blogger_query",
    "words_per_blogger_query",
    "views_per_url_query",
    # persistence
    "save_relation",
    "load_relation",
    "save_materialized_results",
    "load_materialized_results",
]
