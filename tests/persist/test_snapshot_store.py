"""Unit tests for the versioned, CRC-wrapped snapshot store."""

import json
import random
import zlib

import pytest

from repro.config import GGridConfig
from repro.core.ggrid import GGridIndex
from repro.core.messages import Message
from repro.errors import PersistenceError
from repro.persist.snapshot import SNAPSHOT_VERSION, SnapshotStore, _canonical

pytestmark = pytest.mark.persist


def _index(graph, objects=12, seed=5):
    rng = random.Random(seed)
    index = GGridIndex(graph, GGridConfig(eta=3, delta_b=8))
    for obj in range(objects):
        e = rng.randrange(graph.num_edges)
        index.ingest(Message(obj, e, rng.uniform(0, graph.edge(e).weight), 1.0))
    return index


def test_write_load_roundtrip(medium_graph, tmp_path):
    index = _index(medium_graph)
    store = SnapshotStore(tmp_path)
    path = store.write(index, watermark=12)
    loaded = store.load(path)
    assert loaded.watermark == 12
    assert loaded.body["version"] == SNAPSHOT_VERSION
    assert len(loaded.body["objects"]) == 12


def test_newest_valid_prefers_latest(medium_graph, tmp_path):
    index = _index(medium_graph)
    store = SnapshotStore(tmp_path)
    store.write(index, watermark=10)
    store.write(index, watermark=20)
    snapshot, rejected = store.newest_valid()
    assert snapshot.watermark == 20
    assert rejected == 0


def test_corrupt_newest_falls_back_to_older(medium_graph, tmp_path):
    index = _index(medium_graph)
    store = SnapshotStore(tmp_path)
    store.write(index, watermark=10)
    newest = store.write(index, watermark=20)
    # the tmp+rename protocol prevents the writer from leaving a torn
    # file, but disk corruption can still produce one; selection must
    # degrade to the older snapshot, never fail outright
    data = newest.read_text()
    newest.write_text(data[: len(data) // 2])
    snapshot, rejected = store.newest_valid()
    assert snapshot.watermark == 10
    assert rejected == 1


def test_crc_mismatch_rejected(medium_graph, tmp_path):
    index = _index(medium_graph)
    store = SnapshotStore(tmp_path)
    path = store.write(index, watermark=5)
    envelope = json.loads(path.read_text())
    envelope["body"]["latest_time"] = 999.0  # tamper without fixing the CRC
    path.write_text(json.dumps(envelope))
    with pytest.raises(PersistenceError, match="CRC"):
        store.load(path)


def test_version_mismatch_rejected(medium_graph, tmp_path):
    index = _index(medium_graph)
    store = SnapshotStore(tmp_path)
    path = store.write(index, watermark=5)
    envelope = json.loads(path.read_text())
    envelope["body"]["version"] = 1
    # recompute a valid CRC so only the version check can fire
    envelope["crc"] = zlib.crc32(_canonical(envelope["body"]))
    path.write_text(json.dumps(envelope))
    with pytest.raises(PersistenceError, match="version"):
        store.load(path)


def test_watermark_cap_skips_snapshots_ahead_of_wal(medium_graph, tmp_path):
    """A snapshot whose watermark exceeds the surviving WAL reflects
    records the log lost; recovery must fall back past it."""
    index = _index(medium_graph)
    store = SnapshotStore(tmp_path)
    store.write(index, watermark=10)
    store.write(index, watermark=50)
    snapshot, rejected = store.newest_valid(max_watermark=30)
    assert snapshot.watermark == 10
    assert rejected == 1
    none_usable, rejected = store.newest_valid(max_watermark=5)
    assert none_usable is None
    assert rejected == 2


def test_prune_keeps_newest(medium_graph, tmp_path):
    index = _index(medium_graph)
    store = SnapshotStore(tmp_path, keep=2)
    for wm in (10, 20, 30, 40):
        store.write(index, watermark=wm)
    paths = store.paths()
    assert len(paths) == 2
    assert [store.load(p).watermark for p in paths] == [30, 40]


def test_invalid_keep_rejected(tmp_path):
    with pytest.raises(PersistenceError):
        SnapshotStore(tmp_path, keep=0)


def test_empty_store(tmp_path):
    snapshot, rejected = SnapshotStore(tmp_path).newest_valid()
    assert snapshot is None
    assert rejected == 0
