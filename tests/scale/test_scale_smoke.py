"""Paper-scale smoke suite (``-m scale``; excluded from the default run).

Drives the array-native data plane at the paper's order of magnitude —
a >=100k-vertex network carrying >=100k moving objects — through the
full ingest -> kNN -> update -> re-query cycle, with Dijkstra-oracle
spot checks on sampled queries and a generous wall-clock budget that
exists to catch accidental O(n^2) reintroductions, not to benchmark.

Run with::

    PYTHONPATH=src python -m pytest -m scale -q
"""

from __future__ import annotations

import random
import time

import pytest

from repro.config import GGridConfig
from repro.core import GGridIndex
from repro.core.messages import Message
from repro.roadnet.generators import grid_road_network
from repro.roadnet.location import NetworkLocation

from tests.conformance.oracle import oracle_knn
from tests.conformance.test_oracle_conformance import (
    assert_matches_oracle,
    entries_of,
)

pytestmark = pytest.mark.scale

#: paper-order scale floors the suite must exercise
MIN_VERTICES = 100_000
MIN_OBJECTS = 100_000

#: whole-suite wall budget (seconds); the measured cycle runs in well
#: under a minute — tripping this means a per-item hot path came back
WALL_BUDGET_S = 300.0

_ORACLE_QUERIES = 4
_UPDATE_ROUNDS = 2


@pytest.fixture(scope="module")
def scale_world():
    """Build the 100k/100k world once for the whole module."""
    started = time.perf_counter()
    graph = grid_road_network(317, 317, seed=7)
    assert graph.num_vertices >= MIN_VERTICES
    config = GGridConfig(delta_c=64, partitioner="geometric")
    index = GGridIndex(graph, config)
    rng = random.Random(11)
    placements: dict[int, NetworkLocation] = {}
    for obj in range(MIN_OBJECTS):
        e = rng.randrange(graph.num_edges)
        loc = NetworkLocation(e, rng.random() * graph.edge(e).weight * 0.99)
        placements[obj] = loc
        index.ingest(Message(obj, loc.edge_id, loc.offset, t=1.0))
    return graph, index, placements, rng, started


def test_build_and_ingest_at_scale(scale_world):
    graph, index, placements, _, _ = scale_world
    assert index.num_objects == MIN_OBJECTS
    assert len(placements) == MIN_OBJECTS
    assert index.grid.num_cells >= graph.num_vertices // 64


def test_knn_matches_oracle_at_scale(scale_world):
    """Sampled queries answer byte-for-byte like the brute-force oracle
    (ties compared as id sets, the conformance convention)."""
    graph, index, placements, _, _ = scale_world
    qrng = random.Random(23)
    for _ in range(_ORACLE_QUERIES):
        e = qrng.randrange(graph.num_edges)
        loc = NetworkLocation(e, qrng.random() * graph.edge(e).weight * 0.99)
        k = qrng.choice((1, 5, 10))
        answer = index.knn(loc, k, t_now=2.0)
        assert len(answer.entries) == k
        assert_matches_oracle(
            entries_of(answer), oracle_knn(graph, placements, loc, k)
        )


def test_update_rounds_then_requery(scale_world):
    """Re-report a slice of the fleet (forcing cross-cell moves and
    re-cleaning), then verify a fresh query against the oracle."""
    graph, index, placements, rng, _ = scale_world
    t = 2.0
    for _ in range(_UPDATE_ROUNDS):
        t += 1.0
        for obj in rng.sample(range(MIN_OBJECTS), 10_000):
            e = rng.randrange(graph.num_edges)
            loc = NetworkLocation(e, rng.random() * graph.edge(e).weight * 0.99)
            placements[obj] = loc
            index.ingest(Message(obj, loc.edge_id, loc.offset, t=t))
    qrng = random.Random(41)
    for _ in range(2):
        e = qrng.randrange(graph.num_edges)
        loc = NetworkLocation(e, qrng.random() * graph.edge(e).weight * 0.99)
        answer = index.knn(loc, 10, t_now=t)
        assert len(answer.entries) == 10
        assert_matches_oracle(
            entries_of(answer), oracle_knn(graph, placements, loc, 10)
        )


def test_wall_clock_budget(scale_world):
    """Runs last: the whole module (build + ingest + queries + updates +
    oracle Dijkstras) must fit the budget."""
    *_, started = scale_world
    elapsed = time.perf_counter() - started
    assert elapsed < WALL_BUDGET_S, (
        f"scale suite took {elapsed:.1f}s (budget {WALL_BUDGET_S:.0f}s); "
        f"a per-item hot path likely regressed"
    )
