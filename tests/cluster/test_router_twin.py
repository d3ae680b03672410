"""A routed query is an epoch of one.

``ShardRouter.query(q)`` and ``ShardRouter.query_batch([q])`` share one
epoch executor: on twin routers fed the same stream they must return
identical entries and record identical deterministic ``QueryRecord``
fields, with and without per-shard planners.  Only ``n_batches`` tells
the two calls apart, and a traced query has the epoch's tree shape.
"""

from __future__ import annotations

import pytest

from repro.cluster import ShardRouter
from repro.config import GGridConfig
from repro.core.messages import Message
from repro.mobility.workload import Query, make_workload, random_locations
from repro.obs.hub import Observability
from repro.plan import QueryPlanner
from repro.server.metrics import ReplayReport

from tests.server.test_server_twin import DETERMINISTIC

pytestmark = [pytest.mark.cluster, pytest.mark.conformance]

CONFIG = GGridConfig(eta=3, delta_b=8)


def _workload(graph):
    # query-dominant over a small repeated location pool with a k large
    # enough to fan out, so planners serve cache hits and shards probe
    workload = make_workload(
        graph,
        num_objects=40,
        duration=12.0,
        num_queries=30,
        k=12,
        update_frequency=0.05,
        seed=5,
    )
    pool = random_locations(graph, 5, seed=9)
    workload.queries = [
        Query(t=q.t, location=pool[i % len(pool)], k=q.k)
        for i, q in enumerate(workload.queries)
    ]
    return workload


def _router(graph, planned: bool, obs=None) -> ShardRouter:
    factory = (lambda: QueryPlanner(k_max=16)) if planned else None
    return ShardRouter(
        graph, CONFIG, num_shards=4, obs=obs, planner_factory=factory
    )


def _load(router: ShardRouter, workload) -> None:
    report = ReplayReport(index_name=router.name, timing=router.timing)
    for obj, loc in workload.initial.items():
        router.update(Message(obj, loc.edge_id, loc.offset, 0.0), report)


def _drive(router: ShardRouter, workload, single: bool):
    """Replay ``workload`` one query per call, via query or query_batch."""
    report = ReplayReport(index_name=router.name, timing=router.timing)
    answers = []
    for kind, event in workload.events():
        if kind == "update":
            router.update(event, report)
        elif single:
            answers.append(router.query(event, report))
        else:
            answers.extend(router.query_batch([event], report))
    return report, answers


@pytest.mark.parametrize("planned", [False, True], ids=["plain", "planned"])
def test_query_equals_batch_of_one(small_graph, planned):
    workload = _workload(small_graph)
    twins = [_router(small_graph, planned) for _ in range(2)]
    try:
        for router in twins:
            _load(router, workload)
        (r_single, a_single), (r_batch, a_batch) = (
            _drive(twins[0], workload, single=True),
            _drive(twins[1], workload, single=False),
        )
        shards = [[r.shards[sid] for sid in sorted(r.shards)] for r in twins]
        stats = [[s.index.gpu.stats for s in group] for group in shards]
        summaries = [
            [s.server.planner.summary() if planned else None for s in group]
            for group in shards
        ]
    finally:
        for router in twins:
            router.close()

    assert len(a_single) == len(a_batch) == workload.num_queries
    for got, want in zip(a_batch, a_single):
        assert [(e.obj, e.distance) for e in got.entries] == [
            (e.obj, e.distance) for e in want.entries
        ]
    assert len(r_single.query_records) == len(r_batch.query_records)
    for got, want in zip(r_batch.query_records, r_single.query_records):
        for name in DETERMINISTIC:
            assert getattr(got, name) == getattr(want, name), name
    assert max(r.fanout for r in r_single.query_records) > 1

    # only query_batch counts its (one) home-shard batch
    assert r_single.n_batches == 0
    assert r_batch.n_batches == workload.num_queries
    assert r_single.n_queries == r_batch.n_queries == workload.num_queries
    assert r_single.batch_cells_deduped == r_batch.batch_cells_deduped == 0
    assert stats[0] == stats[1]
    assert summaries[0] == summaries[1]
    if planned:
        assert sum(s["cache_hits"] for s in summaries[0]) > 0


@pytest.mark.parametrize("single", [True, False], ids=["query", "batch_of_one"])
def test_traced_single_query_roots_at_router_epoch(small_graph, single):
    workload = _workload(small_graph)
    obs = Observability.with_tracing()
    with _router(small_graph, planned=False, obs=obs) as router:
        _load(router, workload)
        obs.tracer.clear()
        report = ReplayReport(index_name=router.name, timing=router.timing)
        q = workload.queries[0]
        if single:
            router.query(q, report)
        else:
            router.query_batch([q], report)
    roots = [s for s in obs.tracer.spans if s.parent is None]
    assert [s.name for s in roots] == ["router.epoch"]
    assert roots[0].attrs == {"queries": 1, "t": q.t}
    children = [s.name for s in obs.tracer.spans if s.parent is roots[0]]
    assert children == ["shard.batch", "router.fanout"]
    assert report.query_records[0].trace_id == roots[0].trace_id_hex
