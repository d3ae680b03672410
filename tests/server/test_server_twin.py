"""A query is an epoch of one at the server too.

``QueryServer.query(q)`` and ``QueryServer.query_batch([q])`` share one
execution path: on twin servers fed the same stream they must return
identical entries and record identical deterministic ``QueryRecord``
fields, with and without an attached planner.  Only the batch counters
tell the two calls apart.
"""

from __future__ import annotations

import pytest

from repro.config import GGridConfig
from repro.core.ggrid import GGridIndex
from repro.core.messages import Message
from repro.mobility.workload import Query, make_workload, random_locations
from repro.obs.hub import Observability
from repro.plan import QueryPlanner
from repro.server.metrics import ReplayReport
from repro.server.server import QueryServer

pytestmark = pytest.mark.conformance

CONFIG = GGridConfig(eta=3, delta_b=8)

#: QueryRecord fields that depend only on the modelled execution, not
#: on the host's wall clock
DETERMINISTIC = (
    "gpu_s",
    "transfer_bytes",
    "used_fallback",
    "degraded_rung",
    "retries",
    "backoff_s",
    "t",
    "fanout",
    "shards",
)


def _workload(graph):
    # query-dominant over a small repeated location pool, so a planner
    # both routes to TEN and serves result-cache hits
    workload = make_workload(
        graph,
        num_objects=30,
        duration=12.0,
        num_queries=40,
        k=4,
        update_frequency=0.05,
        seed=5,
    )
    pool = random_locations(graph, 5, seed=9)
    workload.queries = [
        Query(t=q.t, location=pool[i % len(pool)], k=q.k)
        for i, q in enumerate(workload.queries)
    ]
    return workload


def _server(graph, planned: bool, obs=None) -> QueryServer:
    planner = QueryPlanner(k_max=16) if planned else None
    return QueryServer(GGridIndex(graph, CONFIG), obs=obs, planner=planner)


def _drive(server: QueryServer, workload, single: bool):
    """Replay ``workload`` one query per call, via query or query_batch."""
    report = ReplayReport(index_name=server.index.name, timing=server.timing)
    answers = []
    for kind, event in workload.events():
        if kind == "update":
            server.update(event, report)
        elif single:
            answers.append(server.query(event, report))
        else:
            answers.extend(server.query_batch([event], report))
    return report, answers


def _load(server: QueryServer, workload) -> None:
    """Initial placements through the server, so a planner sees them."""
    report = ReplayReport(index_name=server.index.name, timing=server.timing)
    for obj, loc in workload.initial.items():
        server.update(Message(obj, loc.edge_id, loc.offset, 0.0), report)


@pytest.mark.parametrize("planned", [False, True], ids=["plain", "planned"])
def test_query_equals_batch_of_one(small_graph, planned):
    workload = _workload(small_graph)
    twins = [_server(small_graph, planned) for _ in range(2)]
    for server in twins:
        _load(server, workload)
    (r_single, a_single), (r_batch, a_batch) = (
        _drive(twins[0], workload, single=True),
        _drive(twins[1], workload, single=False),
    )

    assert len(a_single) == len(a_batch) == workload.num_queries
    for got, want in zip(a_batch, a_single):
        assert [(e.obj, e.distance) for e in got.entries] == [
            (e.obj, e.distance) for e in want.entries
        ]
    assert len(r_single.query_records) == len(r_batch.query_records)
    for got, want in zip(r_batch.query_records, r_single.query_records):
        for name in DETERMINISTIC:
            assert getattr(got, name) == getattr(want, name), name

    # only query_batch counts as a batch
    assert r_single.n_batches == 0
    assert r_batch.n_batches == workload.num_queries
    assert r_single.n_queries == r_batch.n_queries == workload.num_queries
    assert r_single.batch_cells_deduped == r_batch.batch_cells_deduped == 0
    assert twins[0].index.gpu.stats == twins[1].index.gpu.stats
    if planned:
        summaries = [server.planner.summary() for server in twins]
        assert summaries[0] == summaries[1]
        assert summaries[0]["cache_hits"] > 0
        assert summaries[0]["decisions_ten"] > 0


def test_batch_metrics_count_only_query_batch(small_graph):
    workload = _workload(small_graph)
    counts = []
    for single in (True, False):
        obs = Observability.with_tracing()
        server = _server(small_graph, planned=False, obs=obs)
        _load(server, workload)
        _drive(server, workload, single)
        registry = obs.registry
        counts.append(
            (
                registry.counter("repro_batches_total").default().value,
                registry.counter("repro_queries_total").default().value,
            )
        )
    assert counts == [(0, workload.num_queries), (workload.num_queries,) * 2]


@pytest.mark.parametrize("single", [True, False], ids=["query", "batch_of_one"])
def test_traced_single_query_root_span_is_query(small_graph, single):
    workload = _workload(small_graph)
    obs = Observability.with_tracing()
    server = _server(small_graph, planned=False, obs=obs)
    _load(server, workload)
    report = ReplayReport(index_name=server.index.name, timing=server.timing)
    q = workload.queries[0]
    if single:
        server.query(q, report)
    else:
        server.query_batch([q], report)
    roots = [s for s in obs.tracer.spans if s.parent is None]
    assert [s.name for s in roots] == ["query"]
    assert roots[0].attrs["k"] == q.k and roots[0].attrs["t"] == q.t
    assert {"cells_cleaned", "candidates"} <= set(roots[0].attrs)
    assert report.query_records[0].trace_id == roots[0].trace_id_hex


def test_epoch_runs_one_batch_span(small_graph):
    """A real epoch (n > 1) still runs the batch engine under one span."""
    workload = _workload(small_graph)
    obs = Observability.with_tracing()
    server = _server(small_graph, planned=False, obs=obs)
    _load(server, workload)
    report = ReplayReport(index_name=server.index.name, timing=server.timing)
    epoch = workload.queries[:4]
    server.query_batch(epoch, report)
    roots = [s for s in obs.tracer.spans if s.parent is None]
    assert [s.name for s in roots] == ["batch"]
    assert roots[0].attrs["queries"] == len(epoch)
    t_epoch = max(q.t for q in epoch)
    assert [r.t for r in report.query_records] == [t_epoch] * len(epoch)
    assert report.n_batches == 1
