"""The TEN materialized top-k-neighbor index: laziness, exactness, expiry.

The index's whole value is deferral — new objects take a pruned
incremental insert, moves coalesce into one rebuild at the next query —
so these tests pin both the *answers* (always the oracle's) and the
*accounting* (when a rebuild actually happened), because the planner
prices TEN by those counters.
"""

from __future__ import annotations

import random

import pytest

from repro.core.messages import Message
from repro.errors import QueryError, UnknownObjectError
from repro.plan import TenIndex
from repro.roadnet.generators import grid_road_network
from repro.roadnet.location import NetworkLocation

from tests.conformance.oracle import oracle_knn
from tests.conformance.test_oracle_conformance import (
    assert_matches_oracle,
    entries_of,
)
from tests.conftest import random_location

pytestmark = pytest.mark.plan


@pytest.fixture(scope="module")
def graph():
    return grid_road_network(6, 6, seed=21)


def place(rng, graph, objects, index, t=1.0):
    placements = {}
    for obj in objects:
        placements[obj] = random_location(graph, rng)
        index.ingest(Message(obj, placements[obj].edge_id, placements[obj].offset, t))
    return placements


def test_first_query_pays_one_build_then_lists_are_reused(graph):
    rng = random.Random(1)
    index = TenIndex(graph, k_max=8)
    placements = place(rng, graph, range(20), index)
    assert index.rebuilds_full == 0  # ingest is pure bookkeeping
    queries = [random_location(graph, rng) for _ in range(6)]
    for loc in queries:
        assert_matches_oracle(
            entries_of(index.knn(loc, 5)), oracle_knn(graph, placements, loc, 5)
        )
    assert index.rebuilds_full == 1


def test_new_object_takes_incremental_insert(graph):
    rng = random.Random(2)
    index = TenIndex(graph, k_max=8)
    placements = place(rng, graph, range(15), index)
    index.knn(random_location(graph, rng), 4)  # force the build
    # a brand-new object must not trigger a full rebuild
    loc = random_location(graph, rng)
    placements[99] = loc
    index.ingest(Message(99, loc.edge_id, loc.offset, 2.0))
    query = random_location(graph, rng)
    assert_matches_oracle(
        entries_of(index.knn(query, 6)), oracle_knn(graph, placements, query, 6)
    )
    assert index.rebuilds_full == 1
    assert index.inserts_incremental == 1


def test_moves_coalesce_into_one_rebuild(graph):
    rng = random.Random(3)
    index = TenIndex(graph, k_max=8)
    placements = place(rng, graph, range(15), index)
    index.knn(random_location(graph, rng), 4)
    for t in (2.0, 3.0, 4.0):  # one object thrashing: three moves
        loc = random_location(graph, rng)
        placements[0] = loc
        index.ingest(Message(0, loc.edge_id, loc.offset, t))
    assert index.rebuilds_full == 1  # still lazy
    query = random_location(graph, rng)
    assert_matches_oracle(
        entries_of(index.knn(query, 6)), oracle_knn(graph, placements, query, 6)
    )
    assert index.rebuilds_full == 2  # the burst cost exactly one rebuild


def test_k_beyond_k_max_falls_back_exactly(graph):
    rng = random.Random(4)
    index = TenIndex(graph, k_max=3)
    placements = place(rng, graph, range(12), index)
    query = random_location(graph, rng)
    answer = index.knn(query, 8)
    assert answer.used_fallback
    assert index.fallback_scans == 1
    assert_matches_oracle(
        entries_of(answer), oracle_knn(graph, placements, query, 8)
    )


def test_expiry_hides_stale_reports(graph):
    rng = random.Random(5)
    index = TenIndex(graph, k_max=8, t_delta=10.0)
    stale = place(rng, graph, range(5), index, t=1.0)
    fresh = place(rng, graph, range(100, 110), index, t=20.0)
    query = random_location(graph, rng)
    # at t=25 the t=1 reports are older than t_delta: invisible
    got = entries_of(index.knn(query, 6, t_now=25.0))
    assert_matches_oracle(got, oracle_knn(graph, fresh, query, 6))
    assert not {obj for obj, _ in got} & set(stale)


def test_expiry_mid_lists_forces_rebuild(graph):
    rng = random.Random(6)
    index = TenIndex(graph, k_max=8, t_delta=10.0)
    placements = place(rng, graph, range(8), index, t=1.0)
    index.knn(random_location(graph, rng), 4, t_now=2.0)
    assert index.rebuilds_full == 1
    assert not index.needs_rebuild(t_now=5.0)
    # past the oldest report's horizon the truncated lists go stale
    assert index.needs_rebuild(t_now=11.5)
    index.knn(random_location(graph, rng), 4, t_now=11.5)
    assert index.rebuilds_full == 2
    assert entries_of(index.knn(random_location(graph, rng), 4, t_now=11.5)) == []
    del placements


def test_remove_object_and_resync(graph):
    rng = random.Random(7)
    index = TenIndex(graph, k_max=8)
    placements = place(rng, graph, range(10), index, t=1.0)
    index.knn(random_location(graph, rng), 4)
    index.remove_object(3, t=2.0)
    del placements[3]
    query = random_location(graph, rng)
    got = entries_of(index.knn(query, 8, t_now=2.0))
    assert_matches_oracle(got, oracle_knn(graph, placements, query, 8))
    assert 3 not in {obj for obj, _ in got}
    with pytest.raises(UnknownObjectError):
        index.remove_object(777, t=2.0)

    rows = [
        (obj, loc.edge_id, loc.offset, 2.0) for obj, loc in placements.items()
    ]
    revived = TenIndex(graph, k_max=8)
    revived.resync(rows, t=2.0)
    assert entries_of(revived.knn(query, 8, t_now=2.0)) == got


def test_constructor_and_ingest_guards(graph):
    with pytest.raises(QueryError):
        TenIndex(graph, k_max=0)
    index = TenIndex(graph, k_max=4)
    with pytest.raises(QueryError):
        index.ingest(Message(1, None, None, 1.0))  # a removal marker


def test_lists_expire_by_the_visibility_comparison(line_graph):
    """Rebuild exactly when a labeled report stops being visible.

    At ``t = 0.1 + 0.2`` the report from 0.1 is expired by the
    ``report < t - t_delta`` rule, yet ``0.1 + t_delta`` is not below
    that ``t``: a "past min(report) + t_delta" staleness test keeps the
    truncated lists, whose top-2 then loses object 2 to the expired 0.
    """
    t_delta = 0.2
    # the query sits on vertex 0; objects ahead at distances 0.5, 1.5, 2.5
    reports = [(0, 0, 0.1), (1, 2, 0.2), (2, 4, 0.2)]  # (obj, edge, t)
    query, t_query = NetworkLocation(0, 0.0), 0.1 + 0.2

    def loaded():
        index = TenIndex(line_graph, k_max=2, t_delta=t_delta)
        for obj, edge, t in reports:
            index.ingest(Message(obj, edge, 0.5, t))
        return index

    reused = loaded()
    assert entries_of(reused.knn(query, 2, t_now=0.2)) == [(0, 0.5), (1, 1.5)]
    assert reused.needs_rebuild(t_now=t_query)
    fresh = entries_of(loaded().knn(query, 2, t_now=t_query))
    assert fresh == [(1, 1.5), (2, 2.5)]
    assert entries_of(reused.knn(query, 2, t_now=t_query)) == fresh


def test_an_inserted_label_expires_like_a_rebuilt_one(line_graph):
    """A new object reported before every labeled one is the oldest label."""
    query = NetworkLocation(0, 0.0)

    def answer(reuse):
        index = TenIndex(line_graph, k_max=2, t_delta=0.2)
        for obj, edge in [(1, 2), (2, 4)]:
            index.ingest(Message(obj, edge, 0.5, 0.3))
        if reuse:
            index.knn(query, 2, t_now=0.3)
        index.ingest(Message(0, 0, 0.5, 0.15))  # out of order: older than both
        if reuse:
            index.knn(query, 2, t_now=0.3)
            assert index.inserts_incremental == 1
        return entries_of(index.knn(query, 2, t_now=0.4))

    assert answer(reuse=True) == answer(reuse=False) == [(1, 1.5), (2, 2.5)]
