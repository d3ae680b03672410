"""Clean records agree with a full re-clean under random interleavings.

A cleaning pass serves a cell from its list's clean record when no
message was appended since the cell's last full cycle, the record's
oldest report is still within ``t_delta`` and the object table holds as
many entries in the cell as the record has occupants.  This property
drives ingest, cross-cell moves, removals and kNN queries (single and
batched) at advancing times, with reports that age past ``t_delta``.
After every query it cleans every recorded cell twice, on two copies of
the index: one keeps its records, the other has them cleared and so
runs the full cycle on every cell.  Both must report the same occupants
and leave the same object table behind.

Time advances on every step.  Two moves of one object at one ``t`` are
left out: the dedup key ``(t, removal flag)`` cannot order them, so a
full cycle over both cells may keep either message, and drop the
object when it keeps the older cell's.  That is an open defect of the
dedup key, not of the records.
"""

from __future__ import annotations

import copy
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import GGridConfig
from repro.core.ggrid import GGridIndex
from repro.core.messages import Message
from repro.roadnet.generators import grid_road_network

from tests.conftest import random_location

pytestmark = pytest.mark.conformance

_GRAPH = grid_road_network(6, 6, seed=33)
_T_DELTA = 6.0


def _report(index, rng, obj, t):
    loc = random_location(_GRAPH, rng)
    index.ingest(Message(obj, loc.edge_id, loc.offset, t))


def _assert_records_match_a_full_clean(index, t_now):
    recorded = {c for c, mlist in index.lists.items() if mlist.record is not None}
    kept = copy.deepcopy(index)
    fresh = copy.deepcopy(index)
    for mlist in fresh.lists.values():
        mlist.record = None
    served = kept.clean_cells(recorded, t_now=t_now)
    full = fresh.clean_cells(recorded, t_now=t_now)
    assert full.cells_reused == 0
    assert served.cells == full.cells == recorded
    assert served.occupants == full.occupants
    assert served.objects_expired == full.objects_expired
    assert kept.object_table.objects() == fresh.object_table.objects()
    return served.cells_reused


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_clean_records_equal_a_full_clean(seed):
    rng = random.Random(seed)
    index = GGridIndex(_GRAPH, GGridConfig(eta=3, delta_b=4, t_delta=_T_DELTA))
    objects = range(12)
    t = 0.0
    for obj in objects:
        _report(index, rng, obj, t)
    reused = 0
    for _ in range(40):
        # steps of up to 3 s against t_delta 6 s: unreported objects age
        # out within a few steps
        t += rng.choice((0.5, 1.0, 3.0))
        op = rng.random()
        live = sorted(index.object_table.objects())
        if op < 0.35:
            # ingest: a few objects report (often from another cell)
            for obj in rng.sample(objects, rng.randint(1, 3)):
                _report(index, rng, obj, t)
        elif op < 0.45 and live:
            # a re-report in place: an append that moves nothing
            obj = rng.choice(live)
            entry = index.object_table.get(obj)
            index.ingest(Message(obj, entry.edge, entry.offset, t))
        elif op < 0.55 and live:
            index.remove_object(rng.choice(live), t)
        else:
            queries = [
                (random_location(_GRAPH, rng), rng.choice((1, 3, 5)))
                for _ in range(rng.choice((1, 1, 3)))
            ]
            if len(queries) == 1:
                index.knn(*queries[0], t_now=t)
            else:
                index.knn_batch(queries, t_now=t)
            reused += _assert_records_match_a_full_clean(index, t)
    assert reused > 0  # the property exercised the served path
