"""Tests for batched multi-query processing (G-Grid vs G-Grid (L))."""

import random

import pytest

from repro.config import GGridConfig
from repro.core.ggrid import GGridIndex
from repro.core.messages import Message
from repro.errors import QueryError
from repro.roadnet.location import NetworkLocation

from tests.conftest import rereports_in_place


def _populated_index(graph, seed=3, objects=50):
    rng = random.Random(seed)
    index = GGridIndex(graph, GGridConfig(eta=3, delta_b=8))
    for obj in range(objects):
        e = rng.randrange(graph.num_edges)
        index.ingest(Message(obj, e, rng.uniform(0, graph.edge(e).weight), 1.0))
    for t in range(2, 6):
        for obj in rng.sample(range(objects), objects // 3):
            e = rng.randrange(graph.num_edges)
            index.ingest(
                Message(obj, e, rng.uniform(0, graph.edge(e).weight), float(t))
            )
    return index, rng


def _random_queries(graph, rng, count, ks=(1, 4, 8)):
    queries = []
    for _ in range(count):
        e = rng.randrange(graph.num_edges)
        loc = NetworkLocation(e, rng.uniform(0, graph.edge(e).weight))
        queries.append((loc, rng.choice(ks)))
    return queries


def test_batch_matches_individual_queries(medium_graph):
    index, rng = _populated_index(medium_graph)
    queries = _random_queries(medium_graph, rng, count=6)
    batch = index.knn_batch(queries, t_now=6.0)
    for (loc, k), answer in zip(queries, batch):
        single = index.knn(loc, k, t_now=6.0)
        assert [round(d, 9) for d in answer.distances()] == [
            round(d, 9) for d in single.distances()
        ]


def test_batch_shares_cleaning_work(medium_graph):
    """Nearby queries in one batch must clean fewer cells (and ship
    fewer bytes) than the same queries issued individually, when each
    individual query finds its cells dirty (fed the same messages)."""
    index_a, rng = _populated_index(medium_graph, seed=7)
    index_b, _ = _populated_index(medium_graph, seed=7)
    # co-located queries: same edge, different k
    queries = [(NetworkLocation(0, 0.1), 4), (NetworkLocation(0, 0.3), 4),
               (NetworkLocation(1, 0.2), 4)]

    fed = []
    before = index_b.stats.snapshot()
    for loc, k in queries:
        messages = rereports_in_place(index_b)
        fed.extend(messages)
        for m in messages:
            index_b.ingest(m)
        index_b.knn(loc, k, t_now=6.0)
    individual = index_b.stats.diff(before)

    for m in fed:
        index_a.ingest(m)
    before = index_a.stats.snapshot()
    index_a.knn_batch(queries, t_now=6.0)
    batched = index_a.stats.diff(before)

    assert batched.bytes_h2d < individual.bytes_h2d
    assert batched.kernel_launches < individual.kernel_launches


def test_batch_of_one_equals_single(medium_graph):
    index, rng = _populated_index(medium_graph, seed=9)
    loc = NetworkLocation(2, 0.1)
    [batch] = index.knn_batch([(loc, 5)], t_now=6.0)
    single = index.knn(loc, 5, t_now=6.0)
    assert batch.distances() == pytest.approx(single.distances())


def test_empty_batch(medium_graph):
    index, _ = _populated_index(medium_graph)
    assert index.knn_batch([], t_now=6.0) == []


def test_batch_validates_inputs(medium_graph):
    index, _ = _populated_index(medium_graph)
    with pytest.raises(QueryError):
        index.knn_batch([(NetworkLocation(0, 0.0), 0)], t_now=6.0)


def test_batch_with_fallback_query(medium_graph):
    """A query needing more neighbours than objects falls back inside a
    batch without disturbing the others."""
    index, rng = _populated_index(medium_graph, objects=5)
    queries = [(NetworkLocation(0, 0.1), 3), (NetworkLocation(1, 0.1), 100)]
    answers = index.knn_batch(queries, t_now=6.0)
    assert len(answers[0].entries) == 3
    assert answers[1].used_fallback
    assert len(answers[1].entries) == 5
