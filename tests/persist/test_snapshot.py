"""Index snapshots: ``save_index``/``load_index`` round trips, the shared
envelope format and the persisted configuration."""

import dataclasses
import json
import random
import zlib

import pytest

from repro.config import GGridConfig
from repro.core.ggrid import GGridIndex
from repro.core.messages import Message
from repro.errors import PersistenceError
from repro.persist import (
    SNAPSHOT_VERSION,
    DurabilityManager,
    SnapshotStore,
    load_index,
    recover,
    save_index,
)
from repro.persist.snapshot import _canonical
from repro.roadnet.generators import grid_road_network
from repro.roadnet.location import NetworkLocation

pytestmark = pytest.mark.persist


def _populated(graph, seed=4):
    rng = random.Random(seed)
    index = GGridIndex(graph, GGridConfig(eta=3, delta_b=8, rho=2.5))
    for obj in range(25):
        e = rng.randrange(graph.num_edges)
        index.ingest(Message(obj, e, rng.uniform(0, graph.edge(e).weight), 1.0))
    return index


def _rewrite_body(path, **changes):
    """Change body fields of an envelope file and re-sign its CRC, so
    only the checks past the CRC can reject it."""
    envelope = json.loads(path.read_text())
    envelope["body"].update(changes)
    envelope["crc"] = zlib.crc32(_canonical(envelope["body"]))
    path.write_text(json.dumps(envelope))


def test_snapshot_roundtrip(medium_graph, tmp_path):
    index = _populated(medium_graph)
    path = save_index(index, tmp_path / "snap.json")
    restored = load_index(path)
    assert restored.num_objects == index.num_objects
    assert restored.config.rho == 2.5
    assert restored.graph.num_edges == medium_graph.num_edges
    for obj, entry in index.object_table.objects().items():
        got = restored.object_table.get(obj)
        assert (got.edge, got.offset, got.t) == (entry.edge, entry.offset, entry.t)


def test_restored_index_answers_identically(medium_graph, tmp_path):
    index = _populated(medium_graph)
    restored = load_index(save_index(index, tmp_path / "snap.json"))
    q = NetworkLocation(0, 0.1)
    a = index.knn(q, 5, t_now=2.0).distances()
    b = restored.knn(q, 5, t_now=2.0).distances()
    assert [round(x, 9) for x in a] == [round(x, 9) for x in b]


def test_one_envelope_format(medium_graph, tmp_path):
    """``save_index`` files and ``SnapshotStore`` files are one format:
    each loads through the other's reader."""
    index = _populated(medium_graph)
    saved = save_index(index, tmp_path / "snap.json")
    loaded = SnapshotStore.load(saved)
    assert loaded.watermark == 0
    assert loaded.body["version"] == SNAPSHOT_VERSION
    stored = SnapshotStore(tmp_path / "store").write(index, watermark=7)
    restored = load_index(stored)
    assert restored.object_table.objects() == index.object_table.objects()


def test_crc_mismatch_rejected(medium_graph, tmp_path):
    path = save_index(_populated(medium_graph), tmp_path / "snap.json")
    envelope = json.loads(path.read_text())
    envelope["body"]["latest_time"] = 999.0  # tamper without fixing the CRC
    path.write_text(json.dumps(envelope))
    with pytest.raises(PersistenceError, match="CRC"):
        load_index(path)


def test_version_mismatch_rejected(medium_graph, tmp_path):
    path = save_index(_populated(medium_graph), tmp_path / "snap.json")
    _rewrite_body(path, version=SNAPSHOT_VERSION - 1)
    with pytest.raises(PersistenceError, match="version"):
        load_index(path)


def test_malformed_snapshot_rejected(medium_graph, tmp_path):
    path = save_index(_populated(medium_graph), tmp_path / "snap.json")
    _rewrite_body(path, graph={})
    with pytest.raises(PersistenceError, match="malformed"):
        load_index(path)
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps({"version": SNAPSHOT_VERSION, "graph": {}}))
    with pytest.raises(PersistenceError, match="envelope"):
        load_index(bare)


def test_missing_config_field_rejected(medium_graph, tmp_path):
    """A body lacking a config field must not restore with a default in
    its place (a v2 body without ``partitioner`` did exactly that)."""
    path = save_index(_populated(medium_graph), tmp_path / "snap.json")
    config = json.loads(path.read_text())["body"]["config"]
    del config["partitioner"]
    _rewrite_body(path, config=config)
    with pytest.raises(PersistenceError, match="config"):
        load_index(path)


def test_every_config_field_but_gpu_roundtrips(small_graph, tmp_path):
    # a non-default value for every persisted field
    config = GGridConfig(
        delta_c=4,
        delta_v=3,
        delta_b=16,
        eta=2,
        rho=2.5,
        t_delta=30.0,
        cpu_workers=3,
        python_speedup=20.0,
        pipelined_transfers=False,
        sdist_early_exit=False,
        partitioner="geometric",
        max_buckets_per_cell=9,
        seed=5,
    )
    default = GGridConfig()
    persisted = [f.name for f in dataclasses.fields(GGridConfig) if f.name != "gpu"]
    assert all(getattr(config, n) != getattr(default, n) for n in persisted)
    restored = load_index(
        save_index(GGridIndex(small_graph, config), tmp_path / "snap.json")
    )
    for name in persisted:
        assert getattr(restored.config, name) == getattr(config, name), name
    body = json.loads((tmp_path / "snap.json").read_text())["body"]
    assert "gpu" not in body["config"]  # the cost model is environment, not state


def test_restore_preserves_chronology_with_reversed_ids(medium_graph, tmp_path):
    """Regression: ``load_index`` used to re-ingest the object table
    sorted by object id.  With ids descending while timestamps ascend,
    the replayed lists were anti-chronological, so ``Bucket.t`` (when it
    was last-message) claimed buckets holding fresh messages were stale
    and the first cleaning silently expired live objects."""
    index = GGridIndex(medium_graph, GGridConfig(eta=3, delta_b=4, t_delta=10.0))
    for i in range(8):
        # object ids descend (8..1) while time ascends (1..8)
        index.ingest(Message(8 - i, 0, 0.1 * i, 1.0 + i))
    restored = load_index(save_index(index, tmp_path / "snap.json"))

    cell = restored.grid.cell_of_edge(0)
    times = [m.t for m in restored.lists[cell].messages()]
    assert times == sorted(times)  # chronological invariant survives

    # t_now=12: objects with t >= 2 are within contract; a clean must
    # keep them (the old replay dropped everything in "stale" buckets)
    restored.clean_cells({cell}, t_now=12.0)
    for obj in range(1, 8):  # t = 2..8, all live
        assert obj in restored.object_table
    answer = restored.knn(NetworkLocation(0, 0.0), k=7, t_now=12.0)
    assert sorted(answer.objects()) == list(range(1, 8))


def test_restore_preserves_pending_backlog(medium_graph, tmp_path):
    """The snapshot persists the compacted message state: backlogs (and
    removal markers) survive a save/load byte-for-byte, so recovery does
    not owe a re-cleaning of updates that were already cached."""
    index = _populated(medium_graph)
    index.ingest(Message(0, 1, 0.0, 2.0))  # cross-cell move: removal marker
    restored = load_index(save_index(index, tmp_path / "snap.json"))
    assert restored.pending_messages() == index.pending_messages()
    for cell, mlist in index.lists.items():
        got = restored.lists[cell].messages()
        want = mlist.messages()
        assert [(m.obj, m.edge, m.offset, m.t) for m in got] == [
            (m.obj, m.edge, m.offset, m.t) for m in want
        ]


# ----------------------------------------------------------------------
# regression: the partitioner was not persisted, so a geometric index
# restored onto a multilevel grid with its backlogs in the wrong cells
# ----------------------------------------------------------------------
_GEOMETRIC = GGridConfig(partitioner="geometric", delta_b=4, eta=2)


def _move(graph, rng, obj, t):
    e = rng.randrange(graph.num_edges)
    return Message(obj, e, rng.uniform(0, graph.edge(e).weight), t)


def _restore_by_save_load(graph, initial, tmp_path):
    live = GGridIndex(graph, _GEOMETRIC)
    for m in initial:
        live.ingest(m)
    return live, load_index(save_index(live, tmp_path / "snap.json"))


def _restore_by_recover(graph, initial, tmp_path):
    live = GGridIndex(graph, _GEOMETRIC)
    with DurabilityManager(tmp_path) as manager:
        for m in initial:
            manager.log_ingest(m)
            live.ingest(m)
        manager.snapshot(live)
    restored, report = recover(tmp_path)
    assert report.snapshot_watermark == len(initial)
    return live, restored


@pytest.mark.parametrize(
    "restore", [_restore_by_save_load, _restore_by_recover], ids=["save_load", "recover"]
)
def test_geometric_partitioner_survives_restore(restore, tmp_path):
    graph = grid_road_network(14, 14, seed=6)
    rng = random.Random(6)
    initial = [_move(graph, rng, obj, 1.0 + 0.01 * obj) for obj in range(80)]
    initial += [_move(graph, rng, rng.randrange(80), 2.0 + 0.01 * i) for i in range(80)]
    live, restored = restore(graph, initial, tmp_path)

    assert restored.config.partitioner == "geometric"
    for edge in range(graph.num_edges):
        assert restored.grid.cell_of_edge(edge) == live.grid.cell_of_edge(edge)
    assert restored.pending_messages() == live.pending_messages() > 0
    for cell, mlist in restored.lists.items():
        for m in mlist.messages():
            if not m.is_removal:
                assert restored.grid.cell_of_edge(m.edge) == cell

    t = 3.0
    for i in range(300):
        m = _move(graph, rng, rng.randrange(80), t + 0.01 * i)
        live.ingest(m)
        restored.ingest(m)
        if i % 10 == 9:
            q = NetworkLocation(rng.randrange(graph.num_edges), 0.0)
            want = live.knn(q, 5, t_now=m.t)
            got = restored.knn(q, 5, t_now=m.t)
            assert [(e.obj, e.distance) for e in got.entries] == [
                (e.obj, e.distance) for e in want.entries
            ]
