"""Distributed tracing across the cluster: one scatter-gather kNN query
must render as a single trace tree — the ``router.epoch`` root (a query
is an epoch of one), the home shard's ``shard.batch`` span, per-shard
probe spans (context-propagated over the encoded ``traceparent``
header), the shards' ladder-rung spans, and the merge span — and
tracing must never change an answer."""

from __future__ import annotations

import json

import pytest

from repro.cluster import ShardFailurePlan, ShardRouter
from repro.core.messages import Message
from repro.mobility.workload import Query, make_workload
from repro.obs.hub import Observability
from repro.obs.tracing import spans_to_chrome_events
from repro.server.batching import BatchPolicy
from repro.server.metrics import ReplayReport

pytestmark = [pytest.mark.cluster, pytest.mark.obs]


@pytest.fixture(scope="module")
def workload(small_graph):
    return make_workload(
        small_graph,
        num_objects=60,
        duration=10.0,
        num_queries=10,
        k=6,
        update_frequency=1.0,
        seed=5,
    )


def traces_by_id(spans):
    """Group a tracer's span list into {trace_id: [spans]}."""
    groups = {}
    for s in spans:
        groups.setdefault(s.trace_id, []).append(s)
    return groups


def assert_well_formed(spans):
    """Every trace is a tree: exactly one root, every parent resolves
    in-trace, no negative durations, depths consistent."""
    assert spans, "expected at least one span"
    for trace_id, group in traces_by_id(spans).items():
        assert trace_id != 0, "span recorded without a trace id"
        ids = {s.span_id for s in group}
        assert len(ids) == len(group), "duplicate span ids in one trace"
        roots = [s for s in group if s.parent_span_id is None]
        assert len(roots) == 1, (
            f"trace {trace_id:032x} has {len(roots)} roots: "
            f"{[s.name for s in roots]}"
        )
        for s in group:
            assert s.end_s >= s.start_s, f"negative duration on {s.name}"
            if s.parent_span_id is not None:
                assert s.parent_span_id in ids, (
                    f"orphan span {s.name}: parent "
                    f"{s.parent_span_id:016x} not in its trace"
                )
                assert s.depth == s.parent.depth + 1


def exact(answers):
    return [[(e.obj, e.distance) for e in a.entries] for a in answers]


class TestSingleQueryTrace:
    def test_scatter_gather_is_one_trace_tree(self, small_graph, fast_config, workload):
        obs = Observability.with_tracing()
        with ShardRouter(
            small_graph, fast_config, num_shards=4, obs=obs
        ) as router:
            report = ReplayReport(index_name=router.name)
            for obj, loc in workload.initial.items():
                router.update(Message(obj, loc.edge_id, loc.offset, 0.0), report)
            obs.tracer.clear()
            loc = next(iter(workload.initial.values()))
            # k > any single shard's population forces cross-shard fanout
            answer = router.query(Query(1.0, loc, k=50), report)

        assert len(answer.entries) == 50
        record = report.query_records[-1]
        assert record.fanout > 1
        spans = obs.tracer.spans
        # the whole scatter-gather shares ONE trace id
        assert len(traces_by_id(spans)) == 1
        assert_well_formed(spans)
        names = [s.name for s in spans]
        assert names[0] == "router.epoch"
        assert "router.fanout" in names
        assert "merge" in names
        # the home shard answers as a batch of one, the rest as probes
        assert names.count("shard.batch") == 1
        assert names.count("shard.probe") == record.fanout - 1
        # the shard servers' own query spans joined the router's trace
        # through the encoded traceparent header
        assert names.count("query") == record.fanout
        # ladder-rung spans from inside the index nest beneath the probes
        assert "rung_gpu" in names
        # the record's trace id is the tree's
        assert record.trace_id == spans[0].trace_id_hex

    def test_batch_and_probe_spans_carry_shards(self, small_graph, fast_config, workload):
        obs = Observability.with_tracing()
        with ShardRouter(
            small_graph, fast_config, num_shards=4, obs=obs
        ) as router:
            report = ReplayReport(index_name=router.name)
            for obj, loc in workload.initial.items():
                router.update(Message(obj, loc.edge_id, loc.offset, 0.0), report)
            obs.tracer.clear()
            loc = next(iter(workload.initial.values()))
            router.query(Query(1.0, loc, k=50), report)
        spans = obs.tracer.spans
        by_name = {name: [s for s in spans if s.name == name]
                   for name in ("router.epoch", "shard.batch", "router.fanout",
                                "shard.probe")}
        (epoch,), (batch,), (fanout,) = (
            by_name["router.epoch"], by_name["shard.batch"], by_name["router.fanout"]
        )
        assert batch.parent is epoch and fanout.parent is epoch
        assert all(s.parent is fanout for s in by_name["shard.probe"])
        # the home shard is the batch's, the probes walk the rest in order
        shards = report.query_records[-1].shards
        assert batch.attrs["shard"] == shards[0] == fanout.attrs["home"]
        assert [s.attrs["shard"] for s in by_name["shard.probe"]] == list(shards[1:])

    def test_chrome_export_of_the_tree_is_loadable(self, small_graph, fast_config, workload, tmp_path):
        obs = Observability.with_tracing()
        with ShardRouter(
            small_graph, fast_config, num_shards=4, obs=obs
        ) as router:
            report = ReplayReport(index_name=router.name)
            for obj, loc in workload.initial.items():
                router.update(Message(obj, loc.edge_id, loc.offset, 0.0), report)
            obs.tracer.clear()
            loc = next(iter(workload.initial.values()))
            router.query(Query(1.0, loc, k=50), report)
        events = spans_to_chrome_events(obs.tracer.spans)
        doc = json.dumps({"traceEvents": events})
        parsed = json.loads(doc)["traceEvents"]
        assert all(e["ph"] == "X" and e["dur"] >= 0 for e in parsed)
        trace_ids = {e["args"]["trace_id"] for e in parsed}
        assert len(trace_ids) == 1


class TestTracingChangesNothing:
    def test_answers_byte_identical_with_tracing_on(self, small_graph, fast_config, workload):
        with ShardRouter(small_graph, fast_config, num_shards=4) as plain:
            _, baseline = plain.replay(workload, collect_answers=True)
        obs = Observability.with_tracing()
        with ShardRouter(
            small_graph, fast_config, num_shards=4, obs=obs
        ) as traced:
            _, answers = traced.replay(workload, collect_answers=True)
        assert exact(answers) == exact(baseline)
        assert obs.tracer.spans, "tracing was supposed to be on"


class TestBatchedEpochTraces:
    def test_epoch_trees_are_well_formed(self, small_graph, fast_config, workload):
        obs = Observability.with_tracing()
        with ShardRouter(
            small_graph,
            fast_config,
            num_shards=4,
            obs=obs,
            batch=BatchPolicy(4),
        ) as router:
            report, _ = router.replay(workload)
        assert report.n_batches > 0
        spans = obs.tracer.spans
        assert_well_formed(spans)
        roots = [s for s in spans if s.parent_span_id is None]
        assert {"router.epoch"} <= {s.name for s in roots}
        epochs = [s for s in spans if s.name == "router.epoch"]
        for epoch in epochs:
            children = [s for s in spans if s.parent is epoch]
            names = {s.name for s in children}
            assert "shard.batch" in names
            assert "router.fanout" in names

    def test_failover_mid_replay_keeps_trees_well_formed(self, small_graph, fast_config, workload):
        obs = Observability.with_tracing()
        plan = ShardFailurePlan.single(0, 5.0)
        with ShardRouter(
            small_graph,
            fast_config,
            num_shards=4,
            obs=obs,
            batch=BatchPolicy(4),
            failure_plan=plan,
        ) as router:
            router.replay(workload)
            promotions = sum(s.promotions for s in router.shards.values())
        assert promotions == 1
        spans = obs.tracer.spans
        assert_well_formed(spans)
        failover = [s for s in spans if s.name == "failover"]
        assert len(failover) == 1
        assert failover[0].attrs["shard"] == 0
        assert failover[0].attrs["mode"] in ("replica", "wal")
        # the failover left a flight-recorder dump behind
        reasons = [d.reason for d in obs.flight.dumps]
        assert "failover" in reasons


class TestObservabilityLinkage:
    def test_slowlog_entries_link_to_retained_traces(self, small_graph, fast_config, workload):
        obs = Observability.with_tracing(flight_capacity=64)
        with ShardRouter(
            small_graph, fast_config, num_shards=4, obs=obs
        ) as router:
            router.replay(workload)
        entries = obs.slow_queries.as_dicts()
        assert entries, "replay recorded no slow-query entries"
        for entry in entries:
            assert entry["fanout"] >= 1
            assert entry["trace_id"] is not None
        # a slowlog trace id keys into the flight recorder's ring
        found = [
            obs.flight.find_trace(e["trace_id"])
            for e in entries
            if obs.flight.find_trace(e["trace_id"]) is not None
        ]
        assert found, "no slowlog trace id resolved in the flight recorder"
        assert found[0][0].name == "router.epoch"

    def test_fanout_histogram_carries_exemplar_trace_ids(self, small_graph, fast_config, workload):
        obs = Observability.with_tracing()
        with ShardRouter(
            small_graph, fast_config, num_shards=4, obs=obs
        ) as router:
            router.replay(workload)
        text = obs.registry.write_prometheus(exemplars=True)
        fanout_lines = [
            ln
            for ln in text.splitlines()
            if ln.startswith("repro_shard_fanout_bucket") and "# {" in ln
        ]
        assert fanout_lines, "fanout buckets carry no exemplars"
        assert 'trace_id="' in fanout_lines[0]

    def test_router_scores_slo_once_per_logical_query(self, small_graph, fast_config, workload):
        obs = Observability.with_tracing()
        with ShardRouter(
            small_graph, fast_config, num_shards=4, obs=obs
        ) as router:
            report, _ = router.replay(workload)
        snap = obs.registry.snapshot()["metrics"]
        requests = sum(
            v["value"]
            for v in snap["repro_slo_requests_total"]["values"]
        )
        # probes would inflate this beyond n_queries if the shard-internal
        # servers also published SLO samples
        assert requests == report.n_queries
        slo = report.slo()
        assert sum(c["requests"] for c in slo.values()) == report.n_queries
