"""Audit of the safe-radius pruning bound used for dirty-marking.

The subscription layer's whole savings claim rests on one invariant: a
message strictly outside a subscriber's safe radius — its cell's
network-distance lower bound strictly exceeds the cached ``d_k``, the
object is not a current member, and no member is near expiry — can
never change that subscriber's top-k.  This file pins both directions:

* **marking** — such a message does not put the subscriber in the dirty
  set (the pruning actually prunes);
* **soundness** — after any single message, every subscriber *not*
  marked dirty still holds exactly the answer a live query returns
  (skipping the refresh lost nothing).
"""

from __future__ import annotations

import random

import pytest

from repro.config import GGridConfig
from repro.core.ggrid import GGridIndex
from repro.core.messages import Message
from repro.mobility.workload import random_locations
from repro.roadnet.generators import grid_road_network
from repro.roadnet.location import NetworkLocation
from repro.server.metrics import ReplayReport, TimingModel
from repro.server.server import QueryServer
from repro.subscribe import SubscriptionManager

pytestmark = pytest.mark.subscribe

_GRAPH = grid_road_network(6, 6, seed=33)
_NUM_OBJECTS = 12
_K = 3


@pytest.mark.parametrize("seed", [0, 1])
def test_message_outside_radius_never_changes_topk(seed):
    config = GGridConfig(eta=3, delta_b=4)
    server = QueryServer(GGridIndex(_GRAPH, config))
    manager = SubscriptionManager(server)
    sub_locs = random_locations(_GRAPH, 8, seed=seed + 201)
    for i, loc in enumerate(sub_locs):
        manager.register(i, loc, _K)

    rng = random.Random(seed)
    report = ReplayReport(index_name="radius", timing=TimingModel())

    def random_loc() -> NetworkLocation:
        edge = rng.randrange(_GRAPH.num_edges)
        return NetworkLocation(edge, rng.uniform(0.0, _GRAPH.edge(edge).weight))

    for obj in range(_NUM_OBJECTS):
        loc = random_loc()
        server.update(Message(obj, loc.edge_id, loc.offset, 0.0), report)
    manager.tick(1.0)

    t = 1.0
    pruned_checked = 0
    for step in range(200):
        t += 0.01  # far below t_delta: the expiry rule stays quiet
        obj = rng.randrange(_NUM_OBJECTS)
        loc = random_loc()
        cell = manager.grid.cell_of_edge(loc.edge_id)
        # capture the pre-message pruning facts per subscriber
        outside: set[int] = set()
        for sub_id, sub in manager.subscriptions.items():
            lb = manager.bound.lower_bound_to_cells(
                sub.location, range(cell, cell + 1)
            )
            standing = sub.standing
            if obj not in standing.members and lb > standing.radius:
                outside.add(sub_id)
        server.update(Message(obj, loc.edge_id, loc.offset, t), report)
        dirty = manager.dirty_subscribers(t)
        # marking direction: strictly-outside messages do not mark
        assert not (outside & dirty), (
            f"step {step}: message outside the safe radius marked "
            f"{sorted(outside & dirty)} dirty"
        )
        pruned_checked += len(outside)
        # soundness direction: every unmarked subscriber's cached answer
        # is still the live answer — skipping its refresh loses nothing
        for sub_id, sub in manager.subscriptions.items():
            if sub_id in dirty:
                continue
            live = server.index.knn(sub.location, sub.k, t_now=t)
            assert [(e.obj, e.distance) for e in live.entries] == sub.entries, (
                f"step {step}: unmarked subscriber {sub_id} went stale"
            )
        manager.tick(t)
    # the property must not pass vacuously: the bound actually pruned
    assert pruned_checked > 0
