"""Differential oracle for streaming ingestion and refresh scheduling.

Hypothesis generates random interleaved add/remove streams and feeds every
mutation twice: directly into a shadow graph (the oracle) and through a
:class:`~repro.ingest.stream.StreamIngestor` — with varying micro-batch
sizes, so coalescing and batch boundaries land differently on every run —
into the live graph a warmed :class:`~repro.olap.session.OLAPSession`
serves.  Reads are interleaved at random points.  The invariants:

* after a drain the live graph equals the shadow graph, triple for triple
  (coalescing and micro-batching change *work*, never *state*);
* every cube the session serves mid-stream equals a from-scratch
  recomputation over the live graph at that moment, cell for cell — with no
  :class:`~repro.ingest.scheduler.RefreshScheduler`, or with one and the
  cached entry hot (refreshed or dropped after each batch) or cold (left to
  the read path), and at cache capacities 0, 1 and the default.

The hypothesis profile matches the other differential suites:
``deadline=None`` and ``print_blob=True``.
"""

import itertools

from hypothesis import given, settings, strategies as st

from repro.analytics.evaluator import AnalyticalQueryEvaluator
from repro.datagen import BloggerConfig, blogger_dataset
from repro.datagen.blogger import words_per_blogger_query
from repro.ingest import RefreshScheduler, StreamIngestor
from repro.ingest.scheduler import HOT_HITS
from repro.olap.cube import Cube
from repro.olap.session import OLAPSession
from repro.rdf import EX, Literal, RDF, Triple

_SETTINGS = dict(max_examples=8, deadline=None, print_blob=True)

RDF_TYPE = RDF.term("type")

_dataset_cache = {}


def _blogger(seed: int):
    if seed not in _dataset_cache:
        _dataset_cache[seed] = blogger_dataset(BloggerConfig(bloggers=10 + seed % 5, seed=seed))
    return _dataset_cache[seed]


def _fresh_fact(draw, counter):
    """Triples for one new blogger with one post (lands in the cube)."""
    tag = f"stream_user{next(counter)}"
    user = EX.term(tag)
    post = EX.term(f"{tag}_post")
    return [
        Triple(user, RDF_TYPE, EX.Blogger),
        Triple(user, EX.hasAge, Literal(draw(st.integers(18, 60)))),
        Triple(user, EX.livesIn, EX.term(draw(st.sampled_from(["Madrid", "NY", "Kyoto"])))),
        Triple(post, RDF_TYPE, EX.BlogPost),
        Triple(user, EX.wrotePost, post),
        Triple(post, EX.hasWordCount, Literal(draw(st.integers(1, 900)))),
    ]


def _draw_mutations(draw, shadow, counter):
    """One stream step: ``(sign, triple)`` pairs for both destinations."""
    kind = draw(
        st.sampled_from(
            ["add_fact", "remove", "flicker", "noop_pair", "readd_remove", "ghost_flicker"]
        )
    )
    if kind == "add_fact":
        return [(1, triple) for triple in _fresh_fact(draw, counter)]
    if kind == "ghost_flicker":
        # Remove a triple that was never present, then add it: the no-op
        # remove must not swallow the add (last-writer-wins, not
        # pair-cancellation — a regression case for the coalescer).
        ghost = Triple(EX.term(f"ghost{next(counter)}"), EX.hasAge, Literal(2))
        return [(-1, ghost), (1, ghost)]
    triples = sorted(shadow, key=repr)
    if not triples:
        return [(1, triple) for triple in _fresh_fact(draw, counter)]
    victim = triples[draw(st.integers(0, len(triples) - 1))]
    if kind == "remove":
        return [(-1, victim)]
    if kind == "flicker":
        # Remove and immediately re-add: nets to (at most) a no-op add.
        return [(-1, victim), (1, victim)]
    if kind == "readd_remove":
        # Add a triple that (per the shadow) already exists, then remove
        # it: the no-op add must not cancel the remove — the mirror
        # regression case for the coalescer.
        return [(1, victim), (-1, victim)]
    # noop_pair: add a fresh triple then retract it before it ever lands.
    phantom = Triple(EX.term(f"phantom{next(counter)}"), EX.hasAge, Literal(1))
    return [(1, phantom), (-1, phantom)]


def _check_cube(session, query, live):
    cube = session.execute(query)
    scratch = Cube(AnalyticalQueryEvaluator(live).answer(query), query)
    assert cube.same_cells(scratch), (
        f"served cube diverged from scratch at version {live.version} "
        f"(strategy {session.history[-1].strategy}): "
        f"{cube.cells()} != {scratch.cells()}"
    )


@given(
    data=st.data(),
    seed=st.integers(min_value=0, max_value=10),
    scheduling=st.sampled_from([None, "hot", "cold"]),
    capacity=st.sampled_from([0, 1, None]),
    batch_size=st.integers(min_value=1, max_value=8),
    steps=st.integers(min_value=2, max_value=10),
)
@settings(**_SETTINGS)
def test_ingested_streams_match_direct_application(
    data, seed, scheduling, capacity, batch_size, steps
):
    dataset = _blogger(seed)
    live = dataset.instance.copy()
    shadow = dataset.instance.copy()
    query = words_per_blogger_query(dataset.schema)
    kwargs = {} if capacity is None else {"cache_capacity": capacity}
    session = OLAPSession(live, dataset.schema, **kwargs)
    scheduler = None if scheduling is None else RefreshScheduler([session])
    ingestor = StreamIngestor(
        live, batch_size=batch_size, max_batch_age=1000.0, scheduler=scheduler
    )
    counter = itertools.count()
    # Warm the cache so refreshes have a target; a hot entry is read again.
    for _ in range(1 + (HOT_HITS if scheduling == "hot" else 0)):
        session.execute(query)

    for _ in range(steps):
        action = data.draw(st.sampled_from(["mutate", "mutate", "pump", "read"]))
        if action == "mutate":
            for sign, triple in _draw_mutations(data.draw, shadow, counter):
                if sign > 0:
                    shadow.add(triple)
                    ingestor.add(triple)
                else:
                    shadow.remove(triple)
                    ingestor.remove(triple)
            ingestor.pump()  # applies only when the size threshold tripped
        elif action == "pump":
            ingestor.drain()
            assert set(live) == set(shadow)
        else:
            _check_cube(session, query, live)

    ingestor.drain()
    assert set(live) == set(shadow), (
        f"ingested graph diverged from direct application "
        f"(batch_size={batch_size}, scheduling={scheduling}, "
        f"stats={ingestor.stats})"
    )
    _check_cube(session, query, live)
    # Micro-batching may only reduce the mutations that hit the graph.
    assert ingestor.stats.applied_adds + ingestor.stats.applied_removes <= (
        ingestor.stats.submitted
    )


@given(
    seed=st.integers(min_value=0, max_value=6),
    hot=st.booleans(),
)
@settings(**_SETTINGS)
def test_hot_and_cold_entries_converge_to_the_same_cube(seed, hot):
    """Hot and cold entries serve identical cubes; only the *timing* of the
    patch work differs (a hot one is patched before the read, a cold one on
    it)."""
    dataset = _blogger(seed)
    live = dataset.instance.copy()
    query = words_per_blogger_query(dataset.schema)
    session = OLAPSession(live, dataset.schema)
    scheduler = RefreshScheduler([session])
    ingestor = StreamIngestor(live, batch_size=6, max_batch_age=1000.0, scheduler=scheduler)
    counter = itertools.count()
    for _ in range(1 + (HOT_HITS if hot else 0)):
        session.execute(query)

    # Deterministic mutations: hypothesis varies only seed and policy here.
    tag = EX.term(f"conv_user{seed}")
    post = EX.term(f"conv_user{seed}_post")
    for triple in (
        Triple(tag, RDF_TYPE, EX.Blogger),
        Triple(tag, EX.hasAge, Literal(33)),
        Triple(tag, EX.livesIn, EX.term("Madrid")),
        Triple(post, RDF_TYPE, EX.BlogPost),
        Triple(tag, EX.wrotePost, post),
        Triple(post, EX.hasWordCount, Literal(next(counter) + 100)),
    ):
        ingestor.add(triple)
    ingestor.drain()

    stats = scheduler.stats
    if hot:
        assert stats.eager_refreshes + stats.invalidations == 1 and stats.lazy_marks == 0
    else:
        assert stats.lazy_marks == 1 and stats.eager_refreshes + stats.invalidations == 0
    _check_cube(session, query, live)
    if stats.eager_refreshes:
        # The patch already ran after the batch; the read was a plain cache hit.
        assert session.history[-1].strategy == "cache"
