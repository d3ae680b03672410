"""Cost-accounting regressions: batching must save real, counted work.

The simulated GPU's deterministic counters let the engine's economics be
asserted exactly: an overlapping epoch must do strictly fewer kernel
launches, host<->device transfers and cell cleanings than sequential
execution of the same queries fed the same appends (so each sequential
query finds its cells dirty) — and a batch of one must cost *exactly*
the same as a single query, counter for counter (a single query is an
epoch of one).
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.config import GGridConfig
from repro.core import BatchExecStats, GGridIndex
from repro.core.message_list import MessageList
from repro.core.messages import Message
from repro.roadnet.generators import grid_road_network
from repro.simgpu.trace import GpuTrace

from tests.conftest import random_location, rereports_in_place

pytestmark = pytest.mark.conformance

_GRAPH = grid_road_network(12, 12, seed=13)


def _loaded_index(n_objects=80, seed=5):
    rng = random.Random(seed)
    index = GGridIndex(_GRAPH, GGridConfig(eta=3, delta_b=8))
    for obj in range(n_objects):
        loc = random_location(_GRAPH, rng)
        index.ingest(Message(obj, loc.edge_id, loc.offset, 1.0))
    return index


def _overlapping_queries(k=4):
    """16 queries drawn from 4 locations — heavy candidate-cell overlap."""
    rng = random.Random(9)
    anchors = [random_location(_GRAPH, rng) for _ in range(4)]
    return [(anchors[i % 4], k) for i in range(16)]


def _entries(answers):
    return [[(e.obj, e.distance) for e in a.entries] for a in answers]


def _sequential_and_batched(queries):
    """Run ``queries`` one after another, re-reporting one object per
    occupied cell before each, and as one batch after the same
    re-reports.  A cell two queries share is then cleaned twice when
    they run one after another, and once when they share an epoch.
    Returns each index with its stats diff and answers."""
    sequential = _loaded_index()
    fed = []
    seq_before = sequential.stats.snapshot()
    seq_answers = []
    for loc, k in queries:
        messages = rereports_in_place(sequential)
        fed.extend(messages)
        for m in messages:
            sequential.ingest(m)
        seq_answers.append(sequential.knn(loc, k))
    seq = sequential.stats.diff(seq_before)

    batched = _loaded_index()
    for m in fed:
        batched.ingest(m)
    stats = BatchExecStats()
    bat_before = batched.stats.snapshot()
    bat_answers = batched.knn_batch(queries, exec_stats=stats)
    bat = batched.stats.diff(bat_before)
    return (sequential, seq, seq_answers), (batched, bat, bat_answers, stats)


def test_batched_strictly_cheaper_than_sequential():
    (sequential, seq, seq_answers), (batched, bat, bat_answers, stats) = (
        _sequential_and_batched(_overlapping_queries())
    )
    seq_cells = sequential.cleaner.cells_cleaned_total
    seq_passes = sequential.cleaner.cleanings_total

    assert _entries(bat_answers) == _entries(seq_answers)
    assert bat.kernel_launches < seq.kernel_launches
    assert bat.transfers_h2d + bat.transfers_d2h < seq.transfers_h2d + seq.transfers_d2h
    assert bat.total_bytes < seq.total_bytes
    assert batched.cleaner.cells_cleaned_total < seq_cells
    assert batched.cleaner.cleanings_total < seq_passes
    assert stats.cells_deduped > 0
    # what the epoch deduplicated is exactly the per-query demand gap
    assert stats.cell_requests == sum(a.cells_cleaned for a in bat_answers)
    assert stats.cells_cleaned == batched.cleaner.cells_cleaned_total


def test_batch_of_one_costs_exactly_the_same():
    query = (_overlapping_queries()[0][0], 4)

    single = _loaded_index()
    single_answer = single.knn(*query)

    batched = _loaded_index()
    stats = BatchExecStats()
    [batch_answer] = batched.knn_batch([query], exec_stats=stats)

    assert [(e.obj, e.distance) for e in batch_answer.entries] == [
        (e.obj, e.distance) for e in single_answer.entries
    ]
    # every counter — launches, bytes, simulated seconds — must agree
    assert batched.stats.as_dict() == single.stats.as_dict()
    assert batched.cleaner.cells_cleaned_total == single.cleaner.cells_cleaned_total
    assert batched.cleaner.cleanings_total == single.cleaner.cleanings_total
    assert stats.queries == 1
    assert stats.cells_deduped == 0


def test_single_query_counters_are_pinned():
    """A seeded stream of single queries between updates costs exactly
    the recorded counters: the cleaning order of each ring and the
    kernels launched per query are part of the modelled cost, so any
    drift in either shows up here."""
    index = _loaded_index()
    rng = random.Random(21)
    objects = []
    for step in range(12):
        t = 2.0 + step
        for _ in range(10):
            loc = random_location(_GRAPH, rng)
            index.ingest(Message(rng.randrange(80), loc.edge_id, loc.offset, t))
        loc = random_location(_GRAPH, rng)
        objects.append(index.knn(loc, rng.choice((1, 4, 8))).objects())

    assert objects[:3] == [[35], [38, 28, 64, 62], [5, 76, 3, 74, 67, 61, 15, 70]]
    assert index.stats.as_dict() == {
        "kernel_launches": 80,
        "batched_launches": 0,
        "batched_jobs": 0,
        "lane_ops": 18678,
        "shuffle_ops": 1440,
        "sync_count": 93,
        "atomic_ops": 216,
        "bytes_h2d": 14968,
        "bytes_d2h": 4612,
        "transfers_h2d": 23,
        "transfers_d2h": 34,
        "kernel_time_s": 0.0004448700000000009,
        "transfer_time_s": 0.0005716316666666667,
        "pipelined_saved_s": 0.0,
    }
    assert index.cleaner.cells_cleaned_total == 131
    assert index.cleaner.cleanings_total == 24


def test_sparse_stream_counters_are_pinned(monkeypatch):
    """A sparse stream (6 objects, rings of mostly empty cells) costs
    exactly the recorded counters.  A clean cell is served from its
    record and still counts as cleaned; only dirty cells are shipped.
    Over half of the cleaned cells here are clean (never locked)."""
    locks = 0
    lock = MessageList.lock_for_cleaning

    def counting_lock(self):
        nonlocal locks
        locks += 1
        lock(self)

    monkeypatch.setattr(MessageList, "lock_for_cleaning", counting_lock)
    index = _loaded_index(n_objects=6)
    rng = random.Random(21)
    objects = []
    for step in range(12):
        t = 2.0 + step
        for _ in range(2):
            loc = random_location(_GRAPH, rng)
            index.ingest(Message(rng.randrange(6), loc.edge_id, loc.offset, t))
        loc = random_location(_GRAPH, rng)
        objects.append(index.knn(loc, rng.choice((2, 4))).objects())

    assert objects[:3] == [[5, 1], [3, 1], [2, 5]]
    assert index.stats.as_dict() == {
        "kernel_launches": 100,
        "batched_launches": 0,
        "batched_jobs": 0,
        "lane_ops": 76301,
        "shuffle_ops": 234,
        "sync_count": 208,
        "atomic_ops": 65,
        "bytes_h2d": 11128,
        "bytes_d2h": 1556,
        "transfers_h2d": 33,
        "transfers_d2h": 44,
        "kernel_time_s": 0.0005868090000000014,
        "transfer_time_s": 0.0007710570000000003,
        "pipelined_saved_s": 0.0,
    }
    assert index.cleaner.cells_cleaned_total == 567
    assert index.cleaner.cleanings_total == 76
    assert 2 * locks < index.cleaner.cells_cleaned_total


def test_fused_launch_accounting():
    """One multi-query epoch: three fused launches carry all the jobs."""
    queries = _overlapping_queries()
    index = _loaded_index()
    before = index.stats.snapshot()
    passes_before = index.cleaner.cleanings_total
    with GpuTrace(index.gpu) as trace:
        answers = index.knn_batch(queries)
    delta = index.stats.diff(before)
    cleaning_passes = index.cleaner.cleanings_total - passes_before

    jobs = sum(1 for a in answers if not a.used_fallback)
    assert jobs > 1
    # SDist + First-k + Unresolved, one fused launch each
    assert delta.batched_launches == 3
    assert delta.batched_jobs == 3 * jobs
    launched = Counter(e.name for e in trace.events if e.category == "kernel")
    assert launched["GPU_SDist"] == launched["GPU_First_k"] == launched["GPU_Unresolved"] == 1
    # beyond the cleaning pipeline's own readbacks, the candidate sets
    # of the whole epoch came back in one shared transfer
    assert delta.transfers_d2h == cleaning_passes + 1


def test_modelled_work_is_preserved():
    """Fusion saves overheads, never modelled work: the lane/shuffle op
    counts of a batch equal those of sequential execution."""
    (_, seq, _), (_, bat, _, _) = _sequential_and_batched(_overlapping_queries())

    # phase-2 work per query is identical; phase-1 work *shrinks* because
    # deduplicated cells are shipped and shuffled once, so the batch can
    # only do less, never more
    assert bat.lane_ops <= seq.lane_ops
    assert bat.shuffle_ops <= seq.shuffle_ops
