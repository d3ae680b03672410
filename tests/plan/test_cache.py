"""The delta-invalidated result cache: no stale answer, ever.

The central property, mirrored from the subscription manager's
dirty-marking rules: at any point in a randomized interleaving of moves,
removals and queries, a cache *hit* is byte-identical (same floats, same
order) to what a cold query against the live index would return right
now.  Hypothesis drives the interleavings; the deterministic tests pin
the individual invalidation rules (member move, nearby move, far move,
non-member removal, expiry, time buckets, FIFO capacity).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import GGridConfig
from repro.core.ggrid import GGridIndex
from repro.core.messages import Message
from repro.errors import PlanError
from repro.plan import ResultCache
from repro.roadnet.generators import grid_road_network

from tests.conftest import random_location

pytestmark = pytest.mark.plan

CONFIG = GGridConfig(eta=3, delta_b=8)


def entries_exact(answer):
    return [(e.obj, e.distance) for e in answer.entries]


def build_scene(seed, num_objects=18, t_delta=float("inf")):
    rng = random.Random(seed)
    graph = grid_road_network(6, 6, seed=seed + 50)
    index = GGridIndex(graph, GGridConfig(eta=3, delta_b=8, t_delta=t_delta))
    cache = ResultCache(index.grid, t_delta=t_delta)
    placements = {}
    for obj in range(num_objects):
        loc = random_location(graph, rng)
        placements[obj] = loc
        message = Message(obj, loc.edge_id, loc.offset, 1.0)
        index.ingest(message)
        cache.observe(message)
    return rng, graph, index, cache


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 10**6))
def test_hit_is_byte_identical_to_cold_query(seed):
    """Randomized interleaving: every hit equals a cold re-query exactly."""
    rng, graph, index, cache = build_scene(seed)
    t = 2.0
    hits = 0
    for _ in range(40):
        t += 0.25
        if rng.random() < 0.4:  # a move
            obj = rng.randrange(18)
            loc = random_location(graph, rng)
            message = Message(obj, loc.edge_id, loc.offset, t)
            index.ingest(message)
            cache.observe(message)
        else:  # a query from a small repeated pool (cacheable traffic)
            pool_rng = random.Random(seed + 1)
            pool = [random_location(graph, pool_rng) for _ in range(4)]
            location = rng.choice(pool)
            k = rng.choice((2, 5))
            cold = index.knn(location, k, t_now=t)
            cached = cache.lookup(location, k, t)
            if cached is not None:
                hits += 1
                assert entries_exact(cached) == entries_exact(cold)
            else:
                cache.store(location, k, t, cold)
    assert cache.hits == hits
    assert cache.misses > 0


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10**6))
def test_no_entry_survives_a_message_in_its_expansion(seed):
    """Any move the pruning bound cannot exclude drops the entry.

    Stronger than the serving-path property above: after every single
    message, every entry still cached is *proven* consistent by
    recomputing it cold.
    """
    rng, graph, index, cache = build_scene(seed, num_objects=12)
    queries = [(random_location(graph, rng), rng.choice((2, 4))) for _ in range(5)]
    t = 2.0
    for location, k in queries:
        cache.store(location, k, t, index.knn(location, k, t_now=t))
    for _ in range(15):
        t += 0.5
        obj = rng.randrange(12)
        loc = random_location(graph, rng)
        message = Message(obj, loc.edge_id, loc.offset, t)
        index.ingest(message)
        cache.observe(message)
        for location, k in queries:
            cached = cache.lookup(location, k, t)
            if cached is not None:
                cold = index.knn(location, k, t_now=t)
                assert entries_exact(cached) == entries_exact(cold)
                cache.store(location, k, t, cold)


def test_member_move_invalidates():
    rng, graph, index, cache = build_scene(3)
    location = random_location(graph, rng)
    answer = index.knn(location, 3, t_now=2.0)
    cache.store(location, 3, 2.0, answer)
    member = answer.entries[0].obj
    loc = random_location(graph, rng)
    cache.observe(Message(member, loc.edge_id, loc.offset, 2.5))
    assert len(cache) == 0
    assert cache.invalidations == 1


def test_nonmember_removal_is_provably_safe():
    rng, graph, index, cache = build_scene(4)
    location = random_location(graph, rng)
    answer = index.knn(location, 3, t_now=2.0)
    cache.store(location, 3, 2.0, answer)
    members = {e.obj for e in answer.entries}
    outsider = next(o for o in range(18) if o not in members)
    cache.observe_remove(outsider, 2.5)
    assert len(cache) == 1  # a removal can only grow distances
    cache.observe_remove(answer.entries[0].obj, 3.0)
    assert len(cache) == 0  # a member removal always invalidates


def test_short_answer_has_infinite_radius():
    """k objects weren't found: any move anywhere could complete the
    answer, so the entry must never survive one."""
    rng, graph, index, cache = build_scene(5, num_objects=2)
    location = random_location(graph, rng)
    cache.store(location, 5, 2.0, index.knn(location, 5, t_now=2.0))
    loc = random_location(graph, rng)
    cache.observe(Message(7, loc.edge_id, loc.offset, 2.5))
    assert len(cache) == 0


def test_expiry_horizon_and_time_buckets():
    rng, graph, index, cache = build_scene(6, t_delta=10.0)
    location = random_location(graph, rng)
    answer = index.knn(location, 3, t_now=2.0)
    cache.store(location, 3, 2.0, answer)
    assert cache.lookup(location, 3, 2.5) is not None
    # bucket_s defaults to t_delta: t=11.5 is a new bucket, a plain miss
    assert cache.lookup(location, 3, 11.5) is None
    assert cache.invalidations == 0

    # a wide bucket isolates the expiry rule itself: same key, but all
    # members reported at t=1, so past t=11 lazy cleaning drops them
    wide = ResultCache(index.grid, t_delta=10.0, bucket_s=100.0)
    for obj, entry in index.object_table.objects().items():
        wide.observe(Message(obj, entry.edge, entry.offset, entry.t))
    wide.store(location, 3, 2.0, answer)
    assert wide.lookup(location, 3, 2.5) is not None
    assert wide.lookup(location, 3, 11.5) is None
    assert wide.invalidations == 1 and len(wide) == 0


def test_entry_expires_when_the_index_drops_its_member():
    """Expiry uses the index's own comparison ``t_report < t_now -
    t_delta``.  At ``t_now = 0.1 + 0.2`` the sum form ``t_now > t_report
    + t_delta`` still reads live, yet one ulp of rounding makes ``0.1 <
    t_now - 0.2`` true: the index has dropped the member, so the entry
    must miss rather than serve it."""
    rng = random.Random(9)
    graph = grid_road_network(6, 6, seed=59)
    index = GGridIndex(graph, GGridConfig(eta=3, delta_b=8, t_delta=0.2))
    cache = ResultCache(index.grid, t_delta=0.2)
    loc = random_location(graph, rng)
    message = Message(0, loc.edge_id, loc.offset, 0.1)
    index.ingest(message)
    cache.observe(message)
    location = random_location(graph, rng)
    answer = index.knn(location, 1, t_now=0.25)
    assert [e.obj for e in answer.entries] == [0]
    cache.store(location, 1, 0.25, answer)
    t = 0.1 + 0.2  # 0.30000000000000004, same time bucket as 0.25
    assert index.knn(location, 1, t_now=t).entries == []
    assert cache.lookup(location, 1, t) is None
    assert cache.invalidations == 1 and len(cache) == 0


@pytest.mark.xfail(
    strict=True,
    reason="a cached and a cold answer differ by 1 ulp: the object is "
    "reached along a different candidate path; exact distances "
    "(ROADMAP item 6) mend it",
)
def test_seed_87_of_the_expansion_property():
    test_no_entry_survives_a_message_in_its_expansion.hypothesis.inner_test(87)


def test_earlier_time_never_served_from_later_store():
    rng, graph, index, cache = build_scene(7)
    location = random_location(graph, rng)
    cache.store(location, 3, 30.0, index.knn(location, 3, t_now=30.0))
    # same bucket, earlier t: visibility is monotone, the answer may differ
    assert cache.lookup(location, 3, 29.0) is None


def test_fifo_capacity_and_constructor_guards():
    rng, graph, index, _ = build_scene(8)
    cache = ResultCache(index.grid, max_entries=2)
    for k in (1, 2, 3):
        location = random_location(graph, rng)
        cache.store(location, k, 2.0, index.knn(location, k, t_now=2.0))
    assert len(cache) == 2
    with pytest.raises(PlanError):
        ResultCache(index.grid, max_entries=0)
    with pytest.raises(PlanError):
        ResultCache(index.grid, bucket_s=0.0)
