"""The differential twin-replay harness for standing queries.

"Simpler is More" (PAPERS.md) warns that incremental machinery must be
*proven* no worse — and no different — than from-scratch re-query.  This
harness runs that proof as a replay: two identical backends consume the
same seeded update stream in lockstep, one refreshed incrementally
(dirty subscribers only) and one with ``force_all=True`` (every
subscriber re-queried every tick, i.e. from-scratch semantics on an
identical index).  After every tick each subscriber's cached entries are
compared; the bench ``subscriptions`` experiment and the trajectory
scenario both report through :class:`SubscriptionReplayOutcome`, so the
identity *and* the dirty-fraction savings are gated in CI.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import GGridConfig
from repro.core.ggrid import GGridIndex
from repro.core.messages import Message
from repro.core.ordering import same_answer
from repro.mobility.workload import make_workload, random_locations
from repro.roadnet.datasets import load_dataset
from repro.roadnet.graph import RoadNetwork
from repro.server.metrics import ReplayReport, TimingModel
from repro.server.server import QueryServer
from repro.subscribe.manager import SubscriptionManager


@dataclass
class SubscriptionReplayOutcome:
    """What the twin replay measured.

    ``answers_match`` is the headline: every subscriber's incremental
    entries equalled the full-refresh twin's after every tick.
    ``mismatches`` lists ``(tick_index, sub_id)`` for any that did not
    (under :func:`~repro.core.ordering.same_answer`: the oracle rule for
    sharded backends, byte identity otherwise).
    """

    ticks: int
    active: int
    dirty_refreshes: int
    full_refreshes: int
    mean_dirty_fraction: float
    delta_counts: dict[str, int]
    cells_cleaned: int
    full_cells_cleaned: int
    answers_match: bool
    mismatches: list[tuple[int, int]] = field(default_factory=list)


def run_subscription_replay(
    dataset: str = "NY",
    *,
    num_objects: int | None = None,
    num_subs: int = 24,
    k: int = 8,
    duration: float = 12.0,
    num_ticks: int = 12,
    update_frequency: float = 1.0,
    seed: int = 7,
    num_shards: int | None = None,
    config: GGridConfig | None = None,
    graph: RoadNetwork | None = None,
) -> SubscriptionReplayOutcome:
    """Drive incremental and full-refresh twins over one update stream.

    Both twins see the initial placements at t=0, then the workload's
    updates applied in per-tick windows, then a tick at each window
    boundary.  Single-server twins are compared exactly (same code path,
    byte-identity expected); sharded twins compare at 9 decimals (the
    restricted per-shard subgraphs admit ulp-level drift, the same
    tolerance the cluster conformance suite uses).
    """
    g = graph if graph is not None else load_dataset(dataset)
    cfg = config or GGridConfig()
    n_objects = (
        num_objects if num_objects is not None else max(120, g.num_vertices // 4)
    )
    workload = make_workload(
        g,
        num_objects=n_objects,
        duration=duration,
        num_queries=1,
        k=k,
        update_frequency=update_frequency,
        seed=seed,
    )
    sub_locations = random_locations(g, num_subs, seed=seed + 101)

    def build_backend() -> object:
        if num_shards:
            from repro.cluster.router import ShardRouter

            return ShardRouter(g, cfg, num_shards=num_shards)
        return QueryServer(GGridIndex(g, cfg))

    backends = [build_backend(), build_backend()]
    managers = [SubscriptionManager(b) for b in backends]
    exact = not num_shards
    try:
        reports = [
            ReplayReport(index_name="subs-replay", timing=TimingModel())
            for _ in backends
        ]
        for manager in managers:
            for i, loc in enumerate(sub_locations):
                manager.register(i, loc, k)
        for backend, report in zip(backends, reports):
            for obj, loc in workload.initial.items():
                backend.update(Message(obj, loc.edge_id, loc.offset, 0.0), report)

        updates = list(workload.updates)
        cursor = 0
        inc, full = managers
        mismatches: list[tuple[int, int]] = []
        dirty_fractions: list[float] = []
        full_refreshes = 0
        full_cells = 0
        for tick in range(1, num_ticks + 1):
            t = duration * tick / num_ticks
            while cursor < len(updates) and updates[cursor].t <= t:
                for backend, report in zip(backends, reports):
                    backend.update(updates[cursor], report)
                cursor += 1
            res_inc = inc.tick(t)
            res_full = full.tick(t, force_all=True)
            full_refreshes += len(res_full.refreshed)
            full_cells += res_full.cells_cleaned
            if tick > 1:
                # the first tick refreshes everything (all subs fresh);
                # the savings claim is about steady state
                dirty_fractions.append(res_inc.dirty_fraction)
            for sub_id in range(num_subs):
                if not same_answer(
                    inc.entries_of(sub_id), full.entries_of(sub_id), exact
                ):
                    mismatches.append((tick, sub_id))
    finally:
        for backend in backends:
            close = getattr(backend, "close", None)
            if callable(close):
                close()

    return SubscriptionReplayOutcome(
        ticks=num_ticks,
        active=num_subs,
        dirty_refreshes=inc.dirty_refreshes,
        full_refreshes=full_refreshes,
        mean_dirty_fraction=(
            sum(dirty_fractions) / len(dirty_fractions)
            if dirty_fractions
            else 1.0
        ),
        delta_counts=dict(inc.delta_counts),
        cells_cleaned=inc.cells_cleaned_total,
        full_cells_cleaned=full_cells,
        answers_match=not mismatches,
        mismatches=mismatches,
    )
