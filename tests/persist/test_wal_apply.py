"""The three WAL consumers — ``recover`` with no snapshot, a replica's
``promote`` and no-replica shard failover — apply records through one
``WalRecord.apply`` and so build the same index from the same log."""

import random

import pytest

from repro.cluster.replica import Replica
from repro.cluster.router import FAILOVER_WAL, ShardRouter
from repro.config import GGridConfig
from repro.core.ggrid import GGridIndex
from repro.core.graph_grid import GraphGrid
from repro.core.messages import Message
from repro.errors import PersistenceError
from repro.persist import WalRecord, WriteAheadLog, recover
from repro.persist.recovery import WAL_SUBDIR

pytestmark = pytest.mark.persist

_CONFIG = GGridConfig(eta=3, delta_b=4)
_SHARD = "shard-000"  # the directory ShardRouter gives shard 0


def _write_wal(graph, directory, n=120, objects=12, seed=3):
    """Log a seeded stream of moves and removals; return the index the
    same stream builds when applied directly."""
    rng = random.Random(seed)
    live = GGridIndex(graph, _CONFIG)
    with WriteAheadLog(directory / _SHARD / WAL_SUBDIR) as wal:
        for i in range(n):
            t = 1.0 + 0.1 * i
            obj = rng.randrange(objects)
            if obj in live.object_table and rng.random() < 0.1:
                wal.append_remove(obj, t)
                live.remove_object(obj, t)
                continue
            e = rng.randrange(graph.num_edges)
            m = Message(obj, e, rng.uniform(0, graph.edge(e).weight), t)
            wal.append_ingest(m)
            live.ingest(m)
        return live, wal.last_lsn


def _append_unknown_op(directory, lsn):
    """Append one CRC-valid record whose op no consumer knows."""
    segment = sorted((directory / _SHARD / WAL_SUBDIR).glob("wal-*.seg"))[-1]
    with open(segment, "ab") as fh:
        fh.write(WalRecord(lsn, "teleport", 0, 0, 0.0, 99.0).encode())


def _by_recover(graph, directory):
    index, report = recover(directory / _SHARD, graph=graph, config=_CONFIG)
    assert report.snapshot_path is None
    return index


def _by_replica(graph, directory):
    grid = GraphGrid.build(graph, _CONFIG)
    replica = Replica(0, graph, _CONFIG, grid)
    index, _ = replica.promote(directory / _SHARD / WAL_SUBDIR)
    return index


def _by_failover(graph, directory):
    router = ShardRouter(
        graph, _CONFIG, num_shards=1, directory=directory, replicas=False
    )
    try:
        assert router.fail_shard(0) == FAILOVER_WAL
        return router.shards[0].index
    finally:
        router.close()


def _state(index):
    lists = {
        cell: [(m.obj, m.edge, m.offset, m.t) for m in mlist.messages()]
        for cell, mlist in index.lists.items()
        if mlist.num_messages
    }
    return index.object_table.objects(), lists


_CONSUMERS = [_by_recover, _by_replica, _by_failover]
_IDS = ["recover", "replica_promote", "failover_no_replica"]


@pytest.mark.parametrize("consume", _CONSUMERS, ids=_IDS)
def test_consumers_build_the_same_index(consume, medium_graph, tmp_path):
    live, _ = _write_wal(medium_graph, tmp_path)
    objects, lists = _state(consume(medium_graph, tmp_path))
    want_objects, want_lists = _state(live)
    assert objects == want_objects
    assert lists == want_lists
    assert any(m[1] is None for msgs in lists.values() for m in msgs)  # markers


@pytest.mark.parametrize("consume", _CONSUMERS[1:], ids=_IDS[1:])
def test_unknown_op_is_a_typed_error(consume, medium_graph, tmp_path):
    _, last_lsn = _write_wal(medium_graph, tmp_path)
    _append_unknown_op(tmp_path, last_lsn + 1)
    with pytest.raises(PersistenceError, match="unknown WAL op 'teleport'"):
        consume(medium_graph, tmp_path)


def test_recover_counts_unknown_op_as_failed(medium_graph, tmp_path):
    live, last_lsn = _write_wal(medium_graph, tmp_path)
    _append_unknown_op(tmp_path, last_lsn + 1)
    index, report = recover(tmp_path / _SHARD, graph=medium_graph, config=_CONFIG)
    assert report.records_failed == 1
    assert report.records_replayed == last_lsn
    assert _state(index) == _state(live)
