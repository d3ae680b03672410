"""Lazy shard discovery changes no routing outcome.

The router finds fan-out candidates with
:meth:`~repro.cluster.shardmap.CellDistanceBound.shards_by_bound`.  Each
test replays the same seeded workload twice: once as shipped, and once
with the bound's generator replaced by the eager reference, which sorts
``lower_bound_to_cells`` over every shard's range.  Per-query fan-out,
probed shards, answers and the pruned counter must agree exactly,
across a rebalance split and a failover.
"""

from __future__ import annotations

import pytest

from repro.cluster import RebalancePolicy, ShardFailurePlan, ShardRouter
from repro.mobility.workload import make_workload
from repro.obs.hub import Observability
from repro.server.batching import BatchPolicy

pytestmark = pytest.mark.cluster


@pytest.fixture(scope="module")
def workload(small_graph):
    return make_workload(
        small_graph,
        num_objects=60,
        duration=10.0,
        num_queries=40,
        k=6,
        update_frequency=1.0,
        seed=5,
    )


def eager_reference(bound):
    """The pre-lazy candidate order: every shard's bound, then a sort."""

    def shards_by_bound(location, shard_map, exclude):
        return iter(
            sorted(
                (bound.lower_bound_to_cells(location, shard_map.cells_of(s)), s)
                for s in shard_map.shard_ids
                if s != exclude
            )
        )

    return shards_by_bound


def make_router(graph, config, obs, batch):
    return ShardRouter(
        graph,
        config,
        num_shards=4,
        obs=obs,
        batch=batch,
        failure_plan=ShardFailurePlan.single(1, 5.0),
        rebalance=RebalancePolicy(
            hot_share=0.3, min_ops=64, check_every=32, max_shards=5
        ),
    )


def pruned_total(obs: Observability) -> float:
    return obs.registry.families()["repro_shard_pruned_total"].default().value


def routing(report):
    return [(r.fanout, r.shards, r.gpu_s) for r in report.query_records]


def exact(answers):
    return [[(e.obj, e.distance) for e in a.entries] for a in answers]


@pytest.mark.parametrize("batch_size", [1, 4])
def test_knn_fanout_matches_eager_reference(
    small_graph, fast_config, workload, batch_size
):
    batch = BatchPolicy(batch_size=batch_size)
    lazy_obs, eager_obs = Observability(), Observability()
    with make_router(small_graph, fast_config, lazy_obs, batch) as lazy, \
            make_router(small_graph, fast_config, eager_obs, batch) as eager:
        eager.bound.shards_by_bound = eager_reference(eager.bound)
        shard_counts = []
        finish = lazy._finish_query

        def counting_finish(*args):
            shard_counts.append(lazy.num_shards)
            return finish(*args)

        lazy._finish_query = counting_finish
        lazy_report, lazy_answers = lazy.replay(workload, collect_answers=True)
        eager_report, eager_answers = eager.replay(
            workload, collect_answers=True
        )
        # the replay exercised what it claims: one split, one failover,
        # and both probing past the home shard and pruning
        assert lazy.num_shards == eager.num_shards == 5
        assert lazy.shards[1].promotions == 1
        assert max(r.fanout for r in lazy_report.query_records) > 1
        assert pruned_total(lazy_obs) > 0
    assert routing(lazy_report) == routing(eager_report)
    assert exact(lazy_answers) == exact(eager_answers)
    assert pruned_total(lazy_obs) == pruned_total(eager_obs)
    # every shard a query did not probe was pruned, none twice
    assert pruned_total(lazy_obs) == sum(
        n - r.fanout for n, r in zip(shard_counts, lazy_report.query_records)
    )


def test_range_query_matches_eager_reference(small_graph, fast_config, workload):
    batch = BatchPolicy()
    lazy_obs, eager_obs = Observability(), Observability()
    with make_router(small_graph, fast_config, lazy_obs, batch) as lazy, \
            make_router(small_graph, fast_config, eager_obs, batch) as eager:
        eager.bound.shards_by_bound = eager_reference(eager.bound)
        lazy.replay(workload)
        eager.replay(workload)
        t = workload.queries[-1].t
        probed_some = pruned_some = False
        for i, q in enumerate(workload.queries[:16]):
            home = eager.home_shard(q.location)
            order = list(
                eager.bound.shards_by_bound(q.location, eager.shard_map, home)
            )
            # every fourth radius sits exactly on a shard's bound: that
            # shard must still be probed
            radius = (0.5, 2.0, 6.0, order[1][0])[i % 4]
            expect_pruned = sum(lb > radius for lb, _ in order)
            before = pruned_total(lazy_obs), pruned_total(eager_obs)
            got = lazy.range_query(q.location, radius, t_now=t)
            want = eager.range_query(q.location, radius, t_now=t)
            assert [(e.obj, e.distance) for e in got.entries] == [
                (e.obj, e.distance) for e in want.entries
            ]
            assert got.cells_cleaned == want.cells_cleaned
            assert got.rounds == want.rounds
            assert pruned_total(lazy_obs) - before[0] == expect_pruned
            assert pruned_total(eager_obs) - before[1] == expect_pruned
            probed_some |= expect_pruned < eager.num_shards - 1
            pruned_some |= expect_pruned > 0
        assert probed_some and pruned_some
