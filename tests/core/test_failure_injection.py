"""Failure-injection tests: faults must never lose cached updates.

The lazy design's whole value is the message cache; these tests inject
faults into the GPU phase of cleaning (device memory exhaustion, a
failing kernel) and assert the index recovers: no message lost, no list
left locked, and queries answer exactly once the fault clears.
"""

import random

import pytest

from repro.config import GGridConfig
from repro.core.ggrid import GGridIndex
from repro.core.messages import Message
from repro.errors import DeviceMemoryError
from repro.roadnet.location import NetworkLocation
from repro.simgpu.device import CostModel, SimGpu


def _populate(graph, index, rng, objects=25):
    locations = {}
    for obj in range(objects):
        e = rng.randrange(graph.num_edges)
        loc = NetworkLocation(e, rng.uniform(0, graph.edge(e).weight))
        locations[obj] = loc
        index.ingest(Message(obj, loc.edge_id, loc.offset, 1.0))
    return locations


def test_device_memory_exhaustion_rolls_back(medium_graph):
    """A device too small for the bucket transfer aborts the clean but
    loses nothing and leaves no list locked."""
    config = GGridConfig(eta=3, delta_b=4)
    gpu = SimGpu(CostModel())
    index = GGridIndex(medium_graph, config, gpu=gpu)
    rng = random.Random(1)
    _populate(medium_graph, index, rng)
    pending_before = index.pending_messages()

    # shrink free memory to nothing by stuffing the device
    free = gpu.memory.free_bytes
    gpu.memory.store("hog", None, nbytes=free)

    with pytest.raises(DeviceMemoryError):
        index.clean_cells(set(range(index.grid.num_cells)), t_now=2.0)

    assert index.pending_messages() == pending_before  # nothing lost
    assert not any(m.locked for m in index.lists.values())  # no leaked locks

    # fault clears: cleaning and queries work again, exactly
    gpu.memory.free("hog")
    result = index.clean_cells(set(range(index.grid.num_cells)), t_now=2.0)
    assert len(result.all_objects()) == index.num_objects


def test_kernel_fault_rolls_back(medium_graph, monkeypatch):
    """An exception inside the X-shuffle kernel must not consume the
    frozen buckets."""
    config = GGridConfig(eta=3, delta_b=4)
    index = GGridIndex(medium_graph, config)
    rng = random.Random(2)
    _populate(medium_graph, index, rng)
    pending_before = index.pending_messages()

    import repro.core.cleaning as cleaning_mod

    def boom(*args, **kwargs):
        raise RuntimeError("injected kernel fault")

    monkeypatch.setattr(cleaning_mod, "x_shuffle_kernel", boom)
    with pytest.raises(RuntimeError, match="injected"):
        index.clean_cells(set(range(index.grid.num_cells)), t_now=2.0)
    monkeypatch.undo()

    assert index.pending_messages() == pending_before
    assert not any(m.locked for m in index.lists.values())
    # and answers are still exact afterwards
    answer = index.knn(NetworkLocation(0, 0.0), k=5, t_now=2.0)
    assert len(answer.entries) == 5


def test_queries_after_fault_match_oracle(medium_graph, monkeypatch):
    from repro.baselines.naive import NaiveKnnIndex

    config = GGridConfig(eta=3, delta_b=4)
    index = GGridIndex(medium_graph, config)
    naive = NaiveKnnIndex(medium_graph)
    rng = random.Random(3)
    for obj in range(20):
        e = rng.randrange(medium_graph.num_edges)
        m = Message(obj, e, rng.uniform(0, medium_graph.edge(e).weight), 1.0)
        index.ingest(m)
        naive.ingest(m)

    import repro.core.cleaning as cleaning_mod

    original = cleaning_mod.x_shuffle_kernel
    calls = {"n": 0}

    def flaky(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("transient fault")
        return original(*args, **kwargs)

    monkeypatch.setattr(cleaning_mod, "x_shuffle_kernel", flaky)
    with pytest.raises(RuntimeError):
        index.knn(NetworkLocation(0, 0.1), k=4, t_now=1.0)
    # retry succeeds and matches the oracle
    got = index.knn(NetworkLocation(0, 0.1), k=4, t_now=1.0).distances()
    want = naive.knn(NetworkLocation(0, 0.1), k=4, t_now=1.0).distances()
    assert [round(x, 9) for x in got] == [round(x, 9) for x in want]


def test_backpressure_on_cell_locked_for_cleaning(medium_graph):
    """Capacity pressure on a cell whose list is locked by an in-flight
    cleaning pass: the forced in-line compaction must not steal the lock
    (the cleaner skips locked lists), so the CapacityError propagates —
    and crucially nothing is lost and the first pass's lock is intact."""
    config = GGridConfig(eta=3, delta_b=2, max_buckets_per_cell=2)
    index = GGridIndex(medium_graph, config)
    cell = index.grid.cell_of_edge(0)
    for i in range(4):  # fill the cell to its 2-bucket cap
        index.ingest(Message(i, 0, 0.1, 1.0 + i))
    mlist = index.lists[cell]
    mlist.lock_for_cleaning()  # an in-flight pass owns the backlog
    for i in range(4, 6):  # fill the post-lock bucket too
        index.ingest(Message(i, 0, 0.1, 5.0 + i))

    from repro.errors import CapacityError

    pending = mlist.num_messages
    with pytest.raises(CapacityError):
        index.ingest(Message(9, 0, 0.2, 20.0))
    assert mlist.locked  # the in-flight pass still owns its lock
    assert mlist.num_messages == pending  # nothing lost, nothing snuck in
    assert 9 not in index.object_table  # the failed update never landed

    # once the pass completes, backpressure compaction works again
    mlist.release_cleaned()
    index.ingest(Message(9, 0, 0.2, 20.0))
    assert 9 in index.object_table


def test_unlock_abort_restores_buckets():
    from repro.core.message_list import MessageList

    lst = MessageList(capacity=2)
    for i in range(5):
        lst.append(Message(i, 0, 0.0, float(i)))
    lst.lock_for_cleaning()
    assert lst.locked
    lst.unlock_abort()
    assert not lst.locked
    assert lst.num_messages == 5  # everything still there
    # a subsequent normal cycle works
    lst.lock_for_cleaning()
    frozen = sum(b.n for b in lst.locked_buckets(100.0, 1e9)[0])
    assert frozen == 5
    lst.release_cleaned()
    assert lst.num_messages == 0
