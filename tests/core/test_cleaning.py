"""Unit and property tests for message cleaning (Algorithm 2).

The central invariant: after cleaning a set of cells, the reported
occupants equal the eagerly-maintained object table restricted to those
cells — lazy and eager agree.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import GGridConfig
from repro.core.ggrid import GGridIndex
from repro.core.messages import Message
from repro.core.object_table import ObjectEntry
from repro.errors import GpuError
from repro.obs.tracing import Tracer
from repro.persist.snapshot import index_from_state, index_state
from repro.roadnet.generators import grid_road_network
from repro.roadnet.location import NetworkLocation
from repro.simgpu.trace import GpuTrace


def _index(graph, **kw) -> GGridIndex:
    return GGridIndex(graph, GGridConfig(eta=3, delta_b=4, **kw))


def _random_updates(graph, index, rng, objects, t0, rounds):
    t = t0
    for _ in range(rounds):
        t += 1.0
        for obj in rng.sample(range(objects), max(1, objects // 3)):
            e = rng.randrange(graph.num_edges)
            index.ingest(Message(obj, e, rng.uniform(0, graph.edge(e).weight), t))
    return t


def test_cleaning_agrees_with_object_table(medium_graph):
    rng = random.Random(1)
    index = _index(medium_graph)
    t = _random_updates(medium_graph, index, rng, objects=40, t0=0.0, rounds=6)
    result = index.clean_cells(set(range(index.grid.num_cells)), t_now=t)
    for cell in range(index.grid.num_cells):
        want = index.object_table.objects_in_cell(cell)
        got = frozenset(result.occupants.get(cell, {}))
        assert got == want


def test_cleaning_idempotent(medium_graph):
    rng = random.Random(2)
    index = _index(medium_graph)
    t = _random_updates(medium_graph, index, rng, objects=30, t0=0.0, rounds=4)
    cells = set(range(index.grid.num_cells))
    first = index.clean_cells(cells, t_now=t)
    second = index.clean_cells(cells, t_now=t)
    assert first.occupants == second.occupants


def test_cleaning_compacts_lists(medium_graph):
    rng = random.Random(3)
    index = _index(medium_graph)
    t = _random_updates(medium_graph, index, rng, objects=30, t0=0.0, rounds=6)
    before = index.pending_messages()
    index.clean_cells(set(range(index.grid.num_cells)), t_now=t)
    after = index.pending_messages()
    assert after <= before
    assert after == index.num_objects  # exactly one snapshot message each


def test_cleaned_locations_are_latest(medium_graph):
    index = _index(medium_graph)
    e1, e2 = 0, 1
    index.ingest(Message(5, e1, 0.1, 1.0))
    index.ingest(Message(5, e1, 0.2, 2.0))
    result = index.clean_cells({index.grid.cell_of_edge(e1)}, t_now=3.0)
    cell = index.grid.cell_of_edge(e1)
    assert result.occupants[cell][5].offset == 0.2
    assert result.occupants[cell][5].t == 2.0


def test_moved_object_leaves_old_cell(medium_graph):
    index = _index(medium_graph)
    # find two edges whose sources land in different cells
    grid = index.grid
    e1 = 0
    e2 = next(
        e.id
        for e in medium_graph.edges()
        if grid.cell_of_edge(e.id) != grid.cell_of_edge(e1)
    )
    index.ingest(Message(5, e1, 0.1, 1.0))
    index.ingest(Message(5, e2, 0.3, 2.0))
    c1, c2 = grid.cell_of_edge(e1), grid.cell_of_edge(e2)
    result = index.clean_cells({c1, c2}, t_now=3.0)
    assert 5 not in result.occupants.get(c1, {})
    assert 5 in result.occupants[c2]


def test_moved_object_cleaning_old_cell_only(medium_graph):
    """Cleaning only the old cell must still drop the moved object (its
    removal marker plus the object-table check both say it left)."""
    index = _index(medium_graph)
    grid = index.grid
    e1 = 0
    e2 = next(
        e.id
        for e in medium_graph.edges()
        if grid.cell_of_edge(e.id) != grid.cell_of_edge(e1)
    )
    index.ingest(Message(5, e1, 0.1, 1.0))
    index.ingest(Message(5, e2, 0.3, 2.0))
    c1 = grid.cell_of_edge(e1)
    result = index.clean_cells({c1}, t_now=3.0)
    assert 5 not in result.occupants.get(c1, {})


def test_stale_objects_pruned_by_t_delta(medium_graph):
    """Pruning is bucket-granular (Section IV-B1): a bucket whose newest
    message predates ``t_now - t_delta`` is discarded unread, dropping
    objects that violated the update contract."""
    index = _index(medium_graph, t_delta=10.0)
    # fill a whole delta_b=4 bucket with old messages of object 1...
    for i in range(4):
        index.ingest(Message(1, 0, 0.1, 1.0 + i * 0.1))
    # ...then a fresh message of object 2 lands in the next bucket
    index.ingest(Message(2, 0, 0.2, 95.0))
    cell = index.grid.cell_of_edge(0)
    result = index.clean_cells({cell}, t_now=100.0)
    assert 1 not in result.occupants[cell]
    assert 2 in result.occupants[cell]
    assert result.messages_dropped >= 4


def test_contract_violator_expired_even_in_fresh_bucket(medium_graph):
    """Bucket-granular pruning may still *process* an over-age message
    sharing a bucket with a fresh one, but the object-table expiry drops
    the violator from the result regardless — the cleaned view and the
    object table always agree (Section II's t_delta contract)."""
    index = _index(medium_graph, t_delta=10.0)
    index.ingest(Message(1, 0, 0.1, 1.0))
    index.ingest(Message(2, 0, 0.2, 95.0))  # same delta_b=4 bucket
    cell = index.grid.cell_of_edge(0)
    result = index.clean_cells({cell}, t_now=100.0)
    assert 1 not in result.occupants[cell]
    assert 2 in result.occupants[cell]
    assert 1 not in index.object_table  # expired, not just hidden
    assert result.objects_expired == 1


def test_locked_list_skipped(medium_graph):
    """A list already under cleaning is skipped safely (p_l != p_h)."""
    index = _index(medium_graph)
    index.ingest(Message(1, 0, 0.1, 1.0))
    cell = index.grid.cell_of_edge(0)
    index.lists[cell].lock_for_cleaning()  # simulate a concurrent cleaner
    result = index.clean_cells({cell}, t_now=2.0)
    assert cell not in result.cells


def test_empty_cells_clean_to_empty(medium_graph):
    index = _index(medium_graph)
    result = index.clean_cells({0, 1, 2}, t_now=1.0)
    assert result.messages_processed == 0
    assert all(not objs for objs in result.occupants.values())


# ----------------------------------------------------------------------
# clean cells: an unlocked list whose record is current is served from
# it; an idle cell (no message, no object-table entry) is the empty record
# ----------------------------------------------------------------------
def _departed_cell(graph):
    """An index whose only object moved out of cell ``c1``, and ``c1``."""
    index = _index(graph)
    grid = index.grid
    e1 = 0
    e2 = next(
        e.id for e in graph.edges() if grid.cell_of_edge(e.id) != grid.cell_of_edge(e1)
    )
    index.ingest(Message(5, e1, 0.1, 1.0))
    index.ingest(Message(5, e2, 0.3, 2.0))
    return index, grid.cell_of_edge(e1)


def _list_state(mlist):
    return mlist.num_buckets, mlist.size_bytes(), mlist.messages()


def test_departed_cell_becomes_idle(medium_graph):
    index, c1 = _departed_cell(medium_graph)
    index.clean_cells({c1}, t_now=3.0)  # drops the removal marker
    mlist = index.lists[c1]
    assert mlist.drained and not mlist.locked
    assert not index.object_table.occupied(c1)

    state = _list_state(mlist)
    head = next(mlist.buckets())
    stats = index.stats.as_dict()
    cells_before = index.cleaner.cells_cleaned_total
    result = index.clean_cells({c1}, t_now=4.0)
    assert result.cells == {c1}
    assert result.occupants == {c1: {}}
    assert index.cleaner.cells_cleaned_total == cells_before + 1
    assert _list_state(mlist) == state
    assert next(mlist.buckets()) is head  # no lock/release cycle ran
    assert index.stats.as_dict() == stats


def test_never_appended_cell_takes_full_path_once(medium_graph):
    index = _index(medium_graph)
    index.clean_cells({3}, t_now=1.0)
    mlist = index.lists[3]
    assert mlist.num_buckets == 1  # the full pass made the empty bucket
    assert mlist.drained
    head = next(mlist.buckets())
    result = index.clean_cells({3}, t_now=2.0)
    assert result.cells == {3}
    assert next(mlist.buckets()) is head  # idle from now on
    assert index.cleaner.cells_cleaned_total == 2


def test_cell_with_object_entry_is_never_idle(medium_graph):
    index, c1 = _departed_cell(medium_graph)
    index.clean_cells({c1}, t_now=3.0)
    mlist = index.lists[c1]
    # an object-table entry in the cell without a message in its list
    index.object_table.put(7, ObjectEntry(c1, 0, 0.2, 2.5))
    assert mlist.drained and index.object_table.occupied(c1)
    head = next(mlist.buckets())
    result = index.clean_cells({c1}, t_now=4.0)
    assert result.cells == {c1}
    assert next(mlist.buckets()) is not head  # the full cycle ran
    assert 7 in index.object_table  # fresh: reconciled, not expired


def test_locked_idle_list_skipped(medium_graph):
    index, c1 = _departed_cell(medium_graph)
    index.clean_cells({c1}, t_now=3.0)
    mlist = index.lists[c1]
    mlist.lock_for_cleaning()  # simulate a concurrent cleaner
    cells_before = index.cleaner.cells_cleaned_total
    result = index.clean_cells({c1}, t_now=4.0)
    assert c1 not in result.cells
    assert c1 not in result.occupants
    assert index.cleaner.cells_cleaned_total == cells_before
    assert mlist.locked


def test_record_served_at_exact_horizon_and_expires_one_ulp_later(medium_graph):
    """The record's horizon is compared as ``_visible`` compares a
    report: exactly ``t_now - t_delta`` is still visible."""
    index = _index(medium_graph, t_delta=10.0)
    index.ingest(Message(1, 0, 0.1, 1.0))
    cell = index.grid.cell_of_edge(0)
    index.clean_cells({cell}, t_now=3.0)
    assert index.lists[cell].record.horizon == 1.0

    served = index.clean_cells({cell}, t_now=11.0)  # cutoff exactly 1.0
    assert served.cells_reused == 1 and served.messages_processed == 0
    assert 1 in served.occupants[cell] and 1 in index.object_table

    later = index.clean_cells({cell}, t_now=math.nextafter(11.0, math.inf))
    assert later.cells_reused == 0
    assert later.objects_expired == 1
    assert later.occupants[cell] == {}
    assert 1 not in index.object_table


def test_removal_marker_makes_old_cell_dirty(medium_graph):
    index = _index(medium_graph)
    grid = index.grid
    e2 = next(
        e.id for e in medium_graph.edges() if grid.cell_of_edge(e.id) != grid.cell_of_edge(0)
    )
    c1 = grid.cell_of_edge(0)
    index.ingest(Message(5, 0, 0.1, 1.0))
    index.clean_cells({c1}, t_now=1.0)
    version = index.lists[c1].version
    index.ingest(Message(5, e2, 0.3, 2.0))  # appends a marker to c1
    assert index.lists[c1].version == version + 1
    result = index.clean_cells({c1}, t_now=2.0)
    assert result.cells_reused == 0
    assert result.occupants[c1] == {}
    assert index.lists[c1].record.occupants == {}


def test_faulted_clean_leaves_no_record(medium_graph, monkeypatch):
    index = _index(medium_graph)
    cell = index.grid.cell_of_edge(0)
    index.ingest(Message(1, 0, 0.1, 1.0))
    index.clean_cells({cell}, t_now=1.0)
    index.ingest(Message(1, 0, 0.2, 2.0))
    mlist = index.lists[cell]

    def fault(*_):
        raise GpuError("injected mid-clean fault")

    monkeypatch.setattr(index.cleaner, "_run_gpu_pipeline", fault)
    with pytest.raises(GpuError):
        index.clean_cells({cell}, t_now=2.0)
    assert mlist.record is None and not mlist.locked
    monkeypatch.undo()
    result = index.clean_cells({cell}, t_now=2.0)
    assert result.cells_reused == 0
    assert result.occupants[cell][1].offset == 0.2


def test_reset_and_restore_start_without_records(medium_graph):
    index = _index(medium_graph)
    index.ingest(Message(1, 0, 0.1, 1.0))
    cells = set(range(index.grid.num_cells))
    index.clean_cells(cells, t_now=1.0)
    assert all(mlist.record is not None for mlist in index.lists.values())

    restored = index_from_state(index_state(index))
    assert all(mlist.record is None for mlist in restored.lists.values())
    assert restored.clean_cells(cells, t_now=1.0).cells_reused == 0

    index.reset_objects()
    assert not index.lists
    assert index.clean_cells(cells, t_now=1.0).cells_reused == 0


def test_repeated_query_ships_nothing(medium_graph):
    rng = random.Random(4)
    index = _index(medium_graph)
    t = _random_updates(medium_graph, index, rng, objects=30, t0=0.0, rounds=3)
    location = NetworkLocation(0, 0.1)
    first = index.knn(location, 4, t_now=t)
    with GpuTrace(index.gpu) as trace:
        again = index.knn(location, 4, t_now=t)
    assert again.entries == first.entries
    assert again.cells_cleaned == first.cells_cleaned
    assert not [e for e in trace.events if e.name == "GPU_X_Shuffle"]


def test_reused_cells_are_counted_and_traced(medium_graph):
    index = _index(medium_graph)
    index.ingest(Message(1, 0, 0.1, 1.0))
    cell = index.grid.cell_of_edge(0)
    other = next(c for c in range(index.grid.num_cells) if c != cell)
    index.clean_cells({cell, other}, t_now=1.0)
    index.ingest(Message(1, 0, 0.2, 2.0))  # dirties `cell` only
    tracer = Tracer()
    with tracer.activate():
        result = index.clean_cells({cell, other}, t_now=2.0)
    assert result.cells == {cell, other}
    assert result.cells_reused == 1
    [sp] = [s for s in tracer.spans if s.name == "clean_cells"]
    assert sp.attrs["reused"] == 1 and sp.attrs["cells"] == 2


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10**6))
def test_lazy_eager_agreement_property(seed):
    """Property: after any random update sequence and any cleaned cell
    subset, lazy == eager on those cells."""
    rng = random.Random(seed)
    graph = grid_road_network(6, 6, seed=seed % 7)
    index = _index(graph)
    t = _random_updates(graph, index, rng, objects=15, t0=0.0, rounds=5)
    cells = set(
        rng.sample(range(index.grid.num_cells), rng.randrange(1, index.grid.num_cells))
    )
    result = index.clean_cells(cells, t_now=t)
    for cell in cells:
        assert frozenset(result.occupants.get(cell, {})) == (
            index.object_table.objects_in_cell(cell)
        )


def test_gpu_transfer_accounted(medium_graph):
    index = _index(medium_graph)
    for i in range(20):
        index.ingest(Message(i, i % medium_graph.num_edges, 0.0, float(i)))
    before = index.stats.snapshot()
    index.clean_cells(set(range(index.grid.num_cells)), t_now=25.0)
    delta = index.stats.diff(before)
    assert delta.bytes_h2d > 0
    assert delta.bytes_d2h > 0
    assert delta.kernel_launches >= 2  # x-shuffle chunks + collect


# ----------------------------------------------------------------------
# host dedup: the first message with the max (t, removal-loses-ties) wins
# ----------------------------------------------------------------------
def _dedup(live_pairs):
    from repro.core.cleaning import CleaningResult, MessageCleaner
    from repro.simgpu.device import SimGpu

    cleaner = MessageCleaner(SimGpu(), GGridConfig())
    return cleaner._dedup_host(list(live_pairs), CleaningResult())


def _expected_dedup(live_pairs):
    """The rule, stated directly: per object the first message carrying
    the max ``(t, flag)`` key (removal flag 0 loses ties), objects in
    first-occurrence order."""
    rows = [(cell, m) for cell, bucket in live_pairs for m in bucket.messages]
    order = list(dict.fromkeys(m.obj for _, m in rows))
    expected = {}
    for obj in order:
        mine = [(cell, m) for cell, m in rows if m.obj == obj]
        best = max((m.t, 0 if m.is_removal else 1) for _, m in mine)
        cell, m = next(
            (cell, m)
            for cell, m in mine
            if (m.t, 0 if m.is_removal else 1) == best
        )
        expected[obj] = (cell, m)
    return expected


def _assert_dedup_rule(live_pairs):
    got = _dedup(live_pairs)
    expected = _expected_dedup(live_pairs)
    assert list(got) == list(expected)  # first-occurrence order
    for obj, (cell, m) in expected.items():
        won = got[obj]
        assert won.cell == cell
        assert (won.edge, won.offset, won.t) == (m.edge, m.offset, m.t)
        assert won.is_removal == m.is_removal
    return got


def _bucketize(messages, cells, capacity=4):
    """Pack messages into (cell, Bucket) pairs of at most `capacity`."""
    from repro.core.message_list import Bucket

    pairs = []
    for start in range(0, len(messages), capacity):
        chunk = list(messages[start : start + capacity])
        pairs.append((cells[start // capacity % len(cells)], Bucket(capacity, chunk)))
    return pairs


def test_host_dedup_first_max_key_wins_adversarial():
    """Timestamp ties, removal markers and cross-bucket repeats: the
    first message carrying the max (t, flag) key wins, and the result
    keeps objects in first-occurrence order."""
    msgs = [
        Message(1, 0, 0.1, 5.0),
        Message(2, None, None, 5.0),  # marker: loses the t=5.0 tie below
        Message(1, 3, 0.3, 5.0),  # same key as the first: first one wins
        Message(2, 4, 0.4, 5.0),
        Message(3, 5, 0.5, 1.0),
        Message(2, None, None, 6.0),  # newest for obj 2: marker wins
        Message(3, 6, 0.6, 1.0),  # tie again: first occurrence wins
        Message(4, 7, 0.7, 2.0),
    ]
    live_pairs = _bucketize(msgs, cells=[11, 22, 33], capacity=3)
    got = _assert_dedup_rule(live_pairs)
    assert list(got) == [1, 2, 3, 4]
    assert got[1].offset == 0.1 and got[1].cell == 11
    assert got[2].is_removal and got[2].t == 6.0
    assert got[3].offset == 0.5
    assert got[4].cell == 33


def test_host_dedup_empty_input():
    assert _dedup([]) == {}


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_host_dedup_first_max_key_wins_property(seed):
    rng = random.Random(seed)
    n = rng.randrange(1, 120)
    msgs = []
    for _ in range(n):
        obj = rng.randrange(8)
        t = float(rng.randrange(6))  # coarse times force many ties
        if rng.random() < 0.25:
            msgs.append(Message(obj, None, None, t))
        else:
            msgs.append(Message(obj, rng.randrange(20), rng.random(), t))
    cells = [rng.randrange(50) for _ in range(4)]
    live_pairs = _bucketize(msgs, cells, capacity=rng.randrange(1, 7))
    _assert_dedup_rule(live_pairs)
