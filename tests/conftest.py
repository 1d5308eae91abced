"""Shared fixtures: small paper-faithful instances and generated datasets.

The fixtures fall into two groups:

* **hand-built instances** reproducing the concrete data of the paper's
  worked examples (Example 2, Example 4/5, Figure 3), used to check exact
  numbers;
* **generated datasets** (blogger, video, generic) at small sizes, used by
  integration and property-style tests.

Dataset fixtures are session-scoped: generation and instance
materialization dominate test runtime otherwise.
"""

from __future__ import annotations

import pytest

from repro.rdf import EX, Graph, IRI, Literal, RDF, Triple
from repro.rdf.terms import Variable
from repro.rdf.triples import TriplePattern
from repro.bgp.query import BGPQuery
from repro.analytics import AnalyticalQuery, AnalyticalSchema
from repro.analytics.sigma import Sigma
from repro.datagen import (
    BloggerConfig,
    GenericConfig,
    RetailConfig,
    VideoConfig,
    blogger_dataset,
    generic_dataset,
    retail_dataset,
    video_dataset,
)

RDF_TYPE = RDF.term("type")


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite the tests/golden/*.json cube fixtures from current results",
    )


@pytest.fixture()
def update_golden(request) -> bool:
    """True when the run should rewrite golden cube fixtures instead of checking them."""
    return request.config.getoption("--update-golden")


# ---------------------------------------------------------------------------
# hand-built paper examples
# ---------------------------------------------------------------------------


def _blogger_instance_core() -> Graph:
    """Bloggers/cities/ages shared by the Example-2 and Example-4 instances."""
    graph = Graph(name="paper_example")
    user1 = EX.term("user1")
    user3 = EX.term("user3")
    user4 = EX.term("user4")
    madrid = EX.term("Madrid")
    ny = EX.term("NY")
    for user in (user1, user3, user4):
        graph.add(Triple(user, RDF_TYPE, EX.Blogger))
    graph.add(Triple(user1, EX.hasAge, Literal(28)))
    graph.add(Triple(user3, EX.hasAge, Literal(35)))
    graph.add(Triple(user1, EX.livesIn, madrid))
    graph.add(Triple(user3, EX.livesIn, ny))
    return graph


@pytest.fixture()
def example2_instance() -> Graph:
    """The AnS instance behind Example 2 (count of sites by age and city).

    Classifier answer: {⟨user1, 28, Madrid⟩, ⟨user3, 35, NY⟩, ⟨user4, 35, NY⟩};
    measure bags: user1 ↦ {|s1, s1, s2|}, user3 ↦ {|s2|}, user4 ↦ {|s3|};
    answer: {⟨28, Madrid, 3⟩, ⟨35, NY, 2⟩}.
    """
    graph = _blogger_instance_core()
    user1 = EX.term("user1")
    user3 = EX.term("user3")
    user4 = EX.term("user4")
    graph.add(Triple(user4, EX.hasAge, Literal(35)))
    graph.add(Triple(user4, EX.livesIn, EX.term("NY")))

    posts = {
        "p1": (user1, "s1"),
        "p2": (user1, "s1"),
        "p3": (user1, "s2"),
        "p4": (user3, "s2"),
        "p5": (user4, "s3"),
    }
    for post_name, (author, site_name) in posts.items():
        post = EX.term(post_name)
        site = EX.term(site_name)
        graph.add(Triple(post, RDF_TYPE, EX.BlogPost))
        graph.add(Triple(author, EX.wrotePost, post))
        graph.add(Triple(post, EX.postedOn, site))
        graph.add(Triple(site, RDF_TYPE, EX.Site))
    return graph


@pytest.fixture()
def example4_instance() -> Graph:
    """The AnS instance behind Example 4 (average word count by age and city).

    Classifier answer: {⟨user1, 28, Madrid⟩, ⟨user3, 35, NY⟩, ⟨user4, 28, Madrid⟩};
    measure: {|⟨user1, 100⟩, ⟨user1, 120⟩, ⟨user3, 570⟩, ⟨user4, 410⟩|};
    answer: {⟨28, Madrid, 210⟩, ⟨35, NY, 570⟩}.
    """
    graph = _blogger_instance_core()
    user1 = EX.term("user1")
    user3 = EX.term("user3")
    user4 = EX.term("user4")
    graph.add(Triple(user4, EX.hasAge, Literal(28)))
    graph.add(Triple(user4, EX.livesIn, EX.term("Madrid")))

    posts = {
        "p1": (user1, 100),
        "p2": (user1, 120),
        "p3": (user3, 570),
        "p4": (user4, 410),
    }
    for post_name, (author, words) in posts.items():
        post = EX.term(post_name)
        graph.add(Triple(post, RDF_TYPE, EX.BlogPost))
        graph.add(Triple(author, EX.wrotePost, post))
        graph.add(Triple(post, EX.hasWordCount, Literal(words)))
    return graph


@pytest.fixture()
def figure3_instance() -> Graph:
    """The instance of Figure 3 (drill-in example): one video, two websites."""
    graph = Graph(name="figure3")
    video1 = EX.term("video1")
    website1 = EX.term("website1")
    website2 = EX.term("website2")
    graph.add(Triple(video1, RDF_TYPE, EX.Video))
    graph.add(Triple(video1, EX.viewNum, Literal(100)))
    graph.add(Triple(video1, EX.postedOn, website1))
    graph.add(Triple(video1, EX.postedOn, website2))
    graph.add(Triple(website1, RDF_TYPE, EX.Website))
    graph.add(Triple(website2, RDF_TYPE, EX.Website))
    graph.add(Triple(website1, EX.hasUrl, Literal("URL1")))
    graph.add(Triple(website2, EX.hasUrl, Literal("URL2")))
    graph.add(Triple(website1, EX.supportsBrowser, Literal("firefox")))
    graph.add(Triple(website2, EX.supportsBrowser, Literal("chrome")))
    return graph


# ---------------------------------------------------------------------------
# the paper's analytical queries (built directly, no schema required)
# ---------------------------------------------------------------------------


def make_sites_query(aggregate: str = "count") -> AnalyticalQuery:
    """Example 1's AnQ: number of posting sites per blogger, by age and city."""
    x, dage, dcity = Variable("x"), Variable("dage"), Variable("dcity")
    classifier = BGPQuery(
        [x, dage, dcity],
        [
            TriplePattern(x, RDF_TYPE, EX.Blogger),
            TriplePattern(x, EX.hasAge, dage),
            TriplePattern(x, EX.livesIn, dcity),
        ],
        name="c",
    )
    post, vsite = Variable("p"), Variable("vsite")
    measure = BGPQuery(
        [x, vsite],
        [
            TriplePattern(x, RDF_TYPE, EX.Blogger),
            TriplePattern(x, EX.wrotePost, post),
            TriplePattern(post, EX.postedOn, vsite),
        ],
        name="m",
    )
    return AnalyticalQuery(classifier, measure, aggregate, name="Q_sites")


def make_words_query(aggregate: str = "avg") -> AnalyticalQuery:
    """Example 4's AnQ: average word count per blogger, by age and city."""
    x, dage, dcity = Variable("x"), Variable("dage"), Variable("dcity")
    classifier = BGPQuery(
        [x, dage, dcity],
        [
            TriplePattern(x, RDF_TYPE, EX.Blogger),
            TriplePattern(x, EX.hasAge, dage),
            TriplePattern(x, EX.livesIn, dcity),
        ],
        name="c",
    )
    post, vwords = Variable("p"), Variable("vwords")
    measure = BGPQuery(
        [x, vwords],
        [
            TriplePattern(x, RDF_TYPE, EX.Blogger),
            TriplePattern(x, EX.wrotePost, post),
            TriplePattern(post, EX.hasWordCount, vwords),
        ],
        name="m",
    )
    return AnalyticalQuery(classifier, measure, aggregate, name="Q_words")


def make_views_query(aggregate: str = "sum") -> AnalyticalQuery:
    """Example 6's AnQ: views per URL, with the browser available for drill-in."""
    x, website, url, browser = Variable("x"), Variable("d1"), Variable("d2"), Variable("d3")
    classifier = BGPQuery(
        [x, url],
        [
            TriplePattern(x, RDF_TYPE, EX.Video),
            TriplePattern(x, EX.postedOn, website),
            TriplePattern(website, EX.hasUrl, url),
            TriplePattern(website, EX.supportsBrowser, browser),
        ],
        name="c",
    )
    views = Variable("v")
    measure = BGPQuery(
        [x, views],
        [TriplePattern(x, RDF_TYPE, EX.Video), TriplePattern(x, EX.viewNum, views)],
        name="m",
    )
    return AnalyticalQuery(classifier, measure, aggregate, name="Q_views")


def sigma_predicate(**restrictions):
    """The σ predicate of a Σ restricting the named columns."""
    return Sigma(tuple(restrictions), restrictions).predicate()


@pytest.fixture()
def sites_query() -> AnalyticalQuery:
    return make_sites_query()


@pytest.fixture()
def words_query() -> AnalyticalQuery:
    return make_words_query()


@pytest.fixture()
def views_query() -> AnalyticalQuery:
    return make_views_query()


# ---------------------------------------------------------------------------
# generated datasets (session-scoped: expensive to build)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def small_blogger_dataset():
    return blogger_dataset(BloggerConfig(bloggers=80, seed=3))


@pytest.fixture(scope="session")
def small_video_dataset():
    return video_dataset(VideoConfig(videos=60, websites=15, seed=5))


@pytest.fixture(scope="session")
def small_retail_dataset():
    return retail_dataset(
        RetailConfig(sales=90, stores=8, products=16, cities=6, regions=3,
                     categories=6, departments=2, seed=17)
    )


@pytest.fixture(scope="session")
def small_generic_dataset():
    return generic_dataset(
        GenericConfig(facts=150, dimensions=3, values_per_dimension=1.5, measures_per_fact=2.0, seed=13)
    )
