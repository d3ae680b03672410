"""The cluster front door: shard routing, scatter-gather kNN, failover.

:class:`ShardRouter` puts N single-shard
:class:`~repro.server.server.QueryServer` instances behind one
update/query/replay API with the same shapes as a lone server:

* **Updates** route to the shard owning the message's cell
  (:class:`~repro.cluster.shardmap.ShardMap`); an object crossing a
  shard boundary is migrated — removed from its old owner (WAL-logged)
  and ingested into the new one.
* **Queries** scatter-gather: the home shard (the query location's
  cell) answers first, then the remaining shards are probed in
  ascending order of their
  :class:`~repro.cluster.shardmap.CellDistanceBound` lower bound, and
  probing stops as soon as the next bound strictly exceeds the current
  k-th distance.  Shards are discovered lazily, so the bound search
  stops there too.  The bound is a true lower bound and ties
  (``bound == d_k``) are still probed — an equidistant object with a
  smaller id would enter the canonical ``(distance, id)`` order — so the
  merged answer is byte-identical to a single unsharded server's.
* **Durability and failover**: every shard runs its own
  :class:`~repro.persist.manager.DurabilityManager` WAL and (optionally)
  a :class:`~repro.cluster.replica.Replica` fed by record shipping.  A
  scheduled :class:`~repro.cluster.replica.ShardFailurePlan` failure
  promotes the replica (catching up from the WAL tail) or, with no
  replica, rebuilds the shard by full WAL replay; either way the shard
  is serving again before the next event executes.
* **Rebalancing**: with a :class:`~repro.cluster.rebalance.RebalancePolicy`
  attached, a shard drawing more than ``hot_share`` of recent traffic is
  split at its weighted-median cell and the peeled range's objects are
  migrated over.

Cost accounting flows into the shared
:class:`~repro.server.metrics.ReplayReport`: each logical query becomes
*one* :class:`~repro.server.metrics.QueryRecord` whose fields sum the
per-shard probes and whose ``fanout``/``shards`` name the routing
outcome, so a fanout-1 replay is counter-identical to an unsharded
server over the same workload.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

from repro.cluster.rebalance import LoadTracker, RebalancePolicy, choose_split
from repro.cluster.replica import Replica, ShardFailurePlan
from repro.cluster.shardmap import CellDistanceBound, ShardMap
from repro.config import GGridConfig
from repro.core.ggrid import GGridIndex
from repro.core.graph_grid import GraphGrid
from repro.core.knn import KnnAnswer, KnnResultEntry
from repro.core.messages import Message
from repro.core.ordering import rank_results
from repro.core.range_query import RangeAnswer
from repro.errors import ClusterError
from repro.mobility.workload import Query, Workload
from repro.obs.hub import Observability, default_observability
from repro.obs.metrics import RateLimitedWarner, linear_buckets
from repro.obs.slo import SloTracker, classify_fanout
from repro.obs.tracing import root_span, span
from repro.persist.manager import DurabilityManager
from repro.persist.recovery import WAL_SUBDIR
from repro.resilience import RUNGS
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.location import NetworkLocation
from repro.server.batching import BatchPolicy, default_batch_policy
from repro.server.metrics import QueryRecord, ReplayReport, TimingModel
from repro.server.server import QueryServer, replay_workload

_INF = float("inf")

FAILOVER_REPLICA = "replica"
FAILOVER_WAL = "wal"


class ClusterInstruments:
    """Metric handles the router's hot paths publish to, resolved once.

    The ``repro_shard_*`` names are part of the public metrics contract
    (README.md §Observability) alongside the server's ``repro_*``
    families.
    """

    def __init__(self, obs: Observability) -> None:
        registry = obs.registry
        self.queries = registry.counter(
            "repro_shard_queries_total",
            help="Query probes executed, per shard.",
            labelnames=("shard",),
        )
        self.updates = registry.counter(
            "repro_shard_updates_total",
            help="Location updates routed, per owning shard.",
            labelnames=("shard",),
        )
        self.fanout = registry.histogram(
            "repro_shard_fanout",
            help="Shards probed per logical kNN query.",
            buckets=linear_buckets(1.0, 1.0, 33),
        ).default()
        self.pruned = registry.counter(
            "repro_shard_pruned_total",
            help="Shard probes skipped by the cell-distance lower bound.",
        ).default()
        self.failovers = registry.counter(
            "repro_shard_failovers_total",
            help="Shard failovers, by promotion mode (replica|wal).",
            labelnames=("mode",),
        )
        self.rebalances = registry.counter(
            "repro_shard_rebalances_total",
            help="Hot-shard splits executed by the rebalance policy.",
        ).default()
        self.migrations = registry.counter(
            "repro_shard_migrations_total",
            help="Objects migrated across shard boundaries.",
        ).default()
        self.shards = registry.gauge(
            "repro_shards", help="Live shards in the cluster."
        ).default()
        #: the router is the SLO front door: it scores each *logical*
        #: (merged) query, while the shard-internal servers run with
        #: ``publish_slo=False`` so probe fragments are never counted
        self.slo = SloTracker(obs.slo_policy, registry)


@dataclass
class Shard:
    """One shard's serving stack: primary server, WAL, optional replica."""

    shard_id: int
    server: QueryServer
    replica: Replica | None = None
    #: failovers this shard id has survived
    promotions: int = 0

    @property
    def index(self) -> GGridIndex:
        return self.server.index

    @property
    def manager(self) -> DurabilityManager:
        return self.server.durability

    @property
    def directory(self) -> Path:
        return self.manager.directory


class ShardRouter:
    """N query-server shards behind one update/query/replay front door."""

    def __init__(
        self,
        graph: RoadNetwork,
        config: GGridConfig | None = None,
        num_shards: int = 2,
        *,
        directory: str | Path | None = None,
        timing: TimingModel | None = None,
        obs: Observability | None = None,
        batch: BatchPolicy | None = None,
        replicas: bool = True,
        ship_every: int = 8,
        failure_plan: ShardFailurePlan | None = None,
        rebalance: RebalancePolicy | None = None,
        planner_factory: "object | None" = None,
    ) -> None:
        """Args:
            graph: the shared road network (replicated to every shard).
            config: G-Grid tunables; the grid is partitioned once and the
                immutable :class:`GraphGrid` shared by every shard and
                replica.
            num_shards: initial shard count (contiguous Z ranges).
            directory: durability root; each shard logs under
                ``<directory>/shard-NNN``.  ``None`` creates a private
                temporary directory removed by :meth:`close`.
            timing: the modelled-time parameters (shared by all shards).
            obs: observability bundle; defaults to the process-wide one.
            batch: epoch batching policy applied per home-shard group.
            replicas: keep a standby :class:`Replica` per shard.
            ship_every: replica apply interval, in shipped WAL records.
            failure_plan: scheduled shard failures applied at event time.
            rebalance: hot-shard split policy (``None`` = no splits).
            planner_factory: zero-arg callable returning a fresh
                :class:`~repro.plan.planner.QueryPlanner` per shard
                server (DESIGN.md §17).  Each shard plans its own
                backend from its own traffic; the scatter-gather
                pruning contract is unaffected because every backend
                answers exactly — the router's
                :class:`~repro.cluster.shardmap.CellDistanceBound`
                pruning reasons about the *answers*, not about which
                index produced them.  Failover and split shards get a
                fresh planner from the same factory.
        """
        if num_shards < 1:
            raise ClusterError(f"num_shards must be >= 1, got {num_shards}")
        self.graph = graph
        self.config = config or GGridConfig()
        self.timing = timing or TimingModel()
        self.obs = obs if obs is not None else default_observability()
        self.batch = batch if batch is not None else (
            default_batch_policy() or BatchPolicy()
        )
        self.grid = GraphGrid.build(graph, self.config)
        self.shard_map = ShardMap.balanced(self.grid.num_cells, num_shards)
        self.bound = CellDistanceBound(self.grid)
        self._own_directory = directory is None
        self.directory = (
            Path(tempfile.mkdtemp(prefix="repro-cluster-"))
            if directory is None
            else Path(directory)
        )
        self.replicas_enabled = replicas
        self.ship_every = ship_every
        self.failure_plan = failure_plan or ShardFailurePlan()
        self._pending_failures = sorted(
            self.failure_plan.failures, key=lambda f: (f[1], f[0])
        )
        self.rebalance = rebalance
        self.planner_factory = planner_factory
        self._load = LoadTracker()
        self._inst = ClusterInstruments(self.obs) if self.obs is not None else None
        #: rate-limited failover warning (1st occurrence, then every
        #: 100th, cumulative count in the message) — same contract as the
        #: server's fallback warning
        self._failover_warner = (
            RateLimitedWarner(self.obs.registry, "shard_router")
            if self.obs is not None
            else None
        )
        #: overload brownout (repro.serve): mirrored onto every shard
        #: index, including ones created later by failover or splits
        self._brownout = False
        self.shards: dict[int, Shard] = {
            sid: self._make_shard(sid) for sid in self.shard_map.shard_ids
        }
        #: which shard currently owns each object, and the object's last
        #: real location update (replayed on migration)
        self._owner: dict[int, int] = {}
        self._last_msg: dict[int, Message] = {}
        #: attached standing-query layer (repro.subscribe), tapped at the
        #: router level only — shard-internal servers stay untapped, and
        #: migrations are invisible (the logical location is unchanged)
        self.subscriptions = None
        if self._inst is not None:
            self._inst.shards.set(len(self.shards))

    @property
    def name(self) -> str:
        return f"G-Grid x{self.shard_map.num_shards}"

    @property
    def num_shards(self) -> int:
        return self.shard_map.num_shards

    def _make_server(self, index: GGridIndex, directory: Path) -> QueryServer:
        """A shard-internal server over ``index``, logging to ``directory``.

        It gets a fresh planner from the factory (a TEN foil bootstraps
        from the index's object table inside ``attach()``), the router's
        current brownout state, and ``publish_slo=False``: the router
        scores the merged logical query, never a probe fragment.
        """
        index.brownout = self._brownout
        server = QueryServer(
            index,
            timing=self.timing,
            obs=self.obs,
            batch=self.batch,
            durability=DurabilityManager(directory, obs=self.obs),
            publish_slo=False,
            planner=self.planner_factory() if self.planner_factory else None,
        )
        if server.planner is not None:
            server.planner.set_brownout(self._brownout)
        return server

    def _make_shard(self, sid: int) -> Shard:
        index = GGridIndex(self.graph, self.config, grid=self.grid)
        server = self._make_server(index, self.directory / f"shard-{sid:03d}")
        replica = (
            Replica(sid, self.graph, self.config, self.grid, self.ship_every)
            if self.replicas_enabled
            else None
        )
        return Shard(sid, server, replica)

    def set_brownout(self, active: bool) -> None:
        """Trip (or clear) brownout serving on every shard.

        In brownout the shard indexes skip the GPU rung and serve from
        the resilience ladder's vectorised-CPU rung (see
        :attr:`~repro.core.ggrid.GGridIndex.brownout`) — the serving
        front door's last shed-order stage before outright rejection.
        """
        self._brownout = active
        for shard in self.shards.values():
            shard.index.brownout = active
            if shard.server.planner is not None:
                shard.server.planner.set_brownout(active)

    def _scratch(self) -> ReplayReport:
        return ReplayReport(index_name=self.name, timing=self.timing)

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def home_shard(self, location: NetworkLocation) -> int:
        """The shard owning the cell of ``location``'s edge."""
        return self.shard_map.shard_of_cell(
            self.grid.cell_of_edge(location.edge_id)
        )

    def update(self, message: Message, report: ReplayReport) -> None:
        """Route one update to its owning shard, migrating if needed."""
        self._maybe_fail(message.t)
        cell = self.grid.cell_of_edge(message.edge)
        sid = self.shard_map.shard_of_cell(cell)
        old_sid = self._owner.get(message.obj)
        if old_sid is not None and old_sid != sid:
            self._remove_from(old_sid, message.obj, message.t, report)
            report.shard_migrations += 1
            if self._inst is not None:
                self._inst.migrations.inc()
        shard = self.shards[sid]
        shard.server.update(message, report)
        if shard.replica is not None:
            shard.replica.ship_ingest(shard.manager.wal.last_lsn, message)
        report.shard_updates[sid] = report.shard_updates.get(sid, 0) + 1
        self._owner[message.obj] = sid
        self._last_msg[message.obj] = message
        if self.subscriptions is not None:
            self.subscriptions.observe(message)
        if self._inst is not None:
            self._inst.updates.labels(shard=str(sid)).inc()
        if self.rebalance is not None:
            self._load.record(sid, cell)
            self._load.since_check += 1
            if self._load.since_check >= self.rebalance.check_every:
                self._load.since_check = 0
                choice = choose_split(self._load, self.shard_map, self.rebalance)
                if choice is not None:
                    self._split_shard(choice[0], choice[1], message.t, report)

    def _remove_from(
        self, sid: int, obj: int, t: float, report: ReplayReport
    ) -> None:
        """WAL-logged removal from a shard, touches charged to updates."""
        shard = self.shards[sid]
        touches_before = shard.index.update_touches
        shard.server.remove_object(obj, t)
        if shard.replica is not None:
            shard.replica.ship_remove(shard.manager.wal.last_lsn, obj, t)
        report.update_touches += shard.index.update_touches - touches_before

    def remove_object(self, obj: int, t: float) -> None:
        """Deregister an object from its owning shard (WAL-logged)."""
        sid = self._owner.get(obj)
        if sid is None:
            raise ClusterError(f"unknown object {obj}: never routed here")
        self._remove_from(sid, obj, t, self._scratch())
        del self._owner[obj]
        self._last_msg.pop(obj, None)
        if self.subscriptions is not None:
            self.subscriptions.observe_remove(obj, t)

    def attach_subscriptions(self, manager: object) -> None:
        """Wire a :class:`~repro.subscribe.manager.SubscriptionManager`
        into the routed update path (called by its constructor)."""
        self.subscriptions = manager

    def tick(self, t_now: float | None = None, force_all: bool = False):
        """Refresh the attached subscriptions at ``t_now`` (defaults to
        the newest timestamp any shard has ingested)."""
        if self.subscriptions is None:
            raise ClusterError(
                "no subscription manager attached; construct a "
                "SubscriptionManager over this router first"
            )
        if t_now is None:
            t_now = max(
                (shard.index.latest_time for shard in self.shards.values()),
                default=0.0,
            )
        return self.subscriptions.tick(t_now, force_all=force_all)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def query(
        self, q: Query, report: ReplayReport, trace_parent: str | None = None
    ) -> KnnAnswer:
        """Scatter-gather one kNN query; the merged answer and its single
        fanout-stamped :class:`QueryRecord` are byte-compatible with an
        unsharded server's.

        A query is an epoch of one: it runs the same path as
        :meth:`query_batch`, which only adds the batch counters.
        ``trace_parent`` joins the query's trace tree to an upstream
        trace (the serving front door's request span), as in
        :meth:`QueryServer.query`.
        """
        answers, _ = self._epoch([q], report, trace_parent)
        return answers[0]

    def query_batch(
        self,
        queries: list[Query],
        report: ReplayReport,
        trace_parent: str | None = None,
    ) -> list[KnnAnswer]:
        """Execute one epoch: batched per home-shard group, then per-query
        fan-out at the epoch timestamp.  Answers align with ``queries``.

        Each home-shard group counts as one batch in ``n_batches``;
        ``trace_parent`` joins the epoch to an upstream trace (the front
        door's epoch span).
        """
        if not queries:
            return []
        answers, batches = self._epoch(queries, report, trace_parent)
        report.n_batches += batches
        return answers

    def _epoch(
        self,
        queries: list[Query],
        report: ReplayReport,
        trace_parent: str | None,
    ) -> tuple[list[KnnAnswer], int]:
        """Run one epoch; return its answers and its shard batch count.

        Traced, the epoch is one ``router.epoch`` trace tree: a
        ``shard.batch`` span per home-shard group, whose
        :class:`~repro.obs.tracing.TraceContext` is encoded and handed to
        the shard's server (which decodes it — the propagation a remote
        shard would use), then one ``router.fanout`` span per query with
        a ``shard.probe`` child per remote shard and a final ``merge``.
        """
        t_epoch = max(q.t for q in queries)
        self._maybe_fail(t_epoch)
        groups: dict[int, list[tuple[int, Query]]] = {}
        for i, q in enumerate(queries):
            cell = self.grid.cell_of_edge(q.location.edge_id)
            sid = self.shard_map.shard_of_cell(cell)
            if self.rebalance is not None:
                self._load.record(sid, cell)
            groups.setdefault(sid, []).append((i, q))
        out: list[KnnAnswer | None] = [None] * len(queries)
        batches = 0
        tracer = self.obs.tracer if self.obs is not None else None
        with root_span(
            tracer,
            "router.epoch",
            {"queries": len(queries), "t": t_epoch},
            parent=trace_parent,
        ):
            for sid, members in groups.items():
                scratch = self._scratch()
                with span("shard.batch", {"shard": sid, "queries": len(members)}) as sp:
                    answers = self.shards[sid].server.query_batch(
                        [q for _, q in members], scratch, trace_parent=sp.traceparent
                    )
                batches += scratch.n_batches
                report.batch_cells_deduped += scratch.batch_cells_deduped
                for (i, q), answer, record in zip(
                    members, answers, scratch.query_records
                ):
                    # remote probes run at the epoch timestamp, matching
                    # the index state the batched home probe observed
                    probe = Query(t_epoch, q.location, q.k)
                    out[i] = self._finish_query(probe, sid, answer, record, report)
        return out, batches  # type: ignore[return-value]

    def _finish_query(
        self,
        q: Query,
        home_sid: int,
        home_answer: KnnAnswer,
        home_record: QueryRecord,
        report: ReplayReport,
    ) -> KnnAnswer:
        """Fan out past the home shard, merge, and record one query."""
        pairs = [(e.obj, e.distance) for e in home_answer.entries]
        probed = [home_sid]
        records = [home_record]
        answers = [home_answer]
        pruned = 0
        with span("router.fanout", {"home": home_sid, "k": q.k}) as fan:
            ranked = rank_results(pairs, q.k)
            candidates = self.bound.shards_by_bound(
                q.location, self.shard_map, home_sid
            )
            for pos, (lb, sid) in enumerate(candidates):
                # candidates arrive sorted by bound, so everything from
                # here on is prunable too: an infinite bound means
                # cell-graph- hence network-unreachable, and ties with
                # d_k still probe (an equidistant lower id would enter
                # the result)
                if lb == _INF or (len(ranked) >= q.k and lb > ranked[-1][1]):
                    pruned += self.shard_map.num_shards - 1 - pos
                    break
                scratch = self._scratch()
                with span("shard.probe", {"shard": sid}) as sp:
                    answer = self.shards[sid].server.query(
                        q, scratch, trace_parent=sp.traceparent
                    )
                pairs.extend((e.obj, e.distance) for e in answer.entries)
                ranked = rank_results(pairs, q.k)
                probed.append(sid)
                records.extend(scratch.query_records)
                answers.append(answer)
            with span("merge", {"results": q.k}):
                merged = self._merge_answers(answers, ranked)
            fan.set_attr("fanout", len(probed))
            fan.set_attr("pruned", pruned)
        trace_id = fan.trace_id_hex

        record = self._merge_records(
            records, probed, t=q.t, trace_id=trace_id
        )
        report.query_records.append(record)
        report.n_queries += 1
        if self._inst is not None:
            self._inst.fanout.observe(len(probed), exemplar=trace_id)
            if pruned:
                self._inst.pruned.inc(pruned)
            for sid in probed:
                self._inst.queries.labels(shard=str(sid)).inc()
            # the logical (merged) query is what the front door scores
            # against its SLO and retains in the slow-query log — the
            # per-probe fragments were recorded by the shard servers
            # with SLO scoring off
            self._inst.slo.record(
                classify_fanout(record.fanout),
                record.modeled_s,
                q.t,
                trace_id=trace_id,
            )
            self.obs.slow_queries.record(
                record.modeled_s,
                wall_s=record.wall_s,
                phases=record.phase_s,
                fanout=record.fanout,
                shards=list(record.shards),
                trace_id=trace_id,
                used_fallback=record.used_fallback,
            )
        return merged

    @staticmethod
    def _merge_records(
        records: list[QueryRecord],
        probed: list[int],
        t: float = 0.0,
        trace_id: str | None = None,
    ) -> QueryRecord:
        """Collapse per-probe records into one fanout-stamped record."""
        phases: dict[str, float] = {}
        for r in records:
            for phase, seconds in r.phase_s.items():
                phases[phase] = phases.get(phase, 0.0) + seconds
        worst = max(
            (r.degraded_rung for r in records),
            key=lambda rung: 0 if rung is None else RUNGS.index(rung),
        )
        return QueryRecord(
            modeled_s=sum(r.modeled_s for r in records),
            wall_s=sum(r.wall_s for r in records),
            gpu_s=sum(r.gpu_s for r in records),
            transfer_bytes=sum(r.transfer_bytes for r in records),
            used_fallback=any(r.used_fallback for r in records),
            phase_s=phases,
            degraded_rung=worst,
            retries=sum(r.retries for r in records),
            backoff_s=sum(r.backoff_s for r in records),
            fanout=len(probed),
            shards=tuple(probed),
            t=t,
            trace_id=trace_id,
        )

    @staticmethod
    def _merge_answers(
        answers: list[KnnAnswer], ranked: list[tuple[int, float]]
    ) -> KnnAnswer:
        cpu: dict[str, float] = {}
        gpu: dict[str, float] = {}
        for a in answers:
            for phase, seconds in a.cpu_seconds.items():
                cpu[phase] = cpu.get(phase, 0.0) + seconds
            for phase, seconds in a.gpu_phase_s.items():
                gpu[phase] = gpu.get(phase, 0.0) + seconds
        worst = max(
            (a.degraded_rung for a in answers),
            key=lambda rung: 0 if rung is None else RUNGS.index(rung),
        )
        return KnnAnswer(
            entries=[KnnResultEntry(obj, d) for obj, d in ranked],
            cells_cleaned=sum(a.cells_cleaned for a in answers),
            candidates=sum(a.candidates for a in answers),
            unresolved=sum(a.unresolved for a in answers),
            refine_settled=sum(a.refine_settled for a in answers),
            used_fallback=any(a.used_fallback for a in answers),
            cpu_seconds=cpu,
            gpu_phase_s=gpu,
            degraded_rung=worst,
            retries=sum(a.retries for a in answers),
            backoff_s=sum(a.backoff_s for a in answers),
        )

    def range_query(
        self, location: NetworkLocation, radius: float, t_now: float
    ) -> RangeAnswer:
        """Scatter-gather range query: probe every shard whose bound is
        within ``radius``, merge in canonical ``(distance, id)`` order."""
        self._maybe_fail(t_now)
        home_sid = self.home_shard(location)
        probed = [home_sid]
        for lb, sid in self.bound.shards_by_bound(
            location, self.shard_map, home_sid
        ):
            if lb > radius:
                break
            probed.append(sid)
        pruned = self.shard_map.num_shards - len(probed)
        if pruned and self._inst is not None:
            self._inst.pruned.inc(pruned)
        pairs: list[tuple[int, float]] = []
        cells_cleaned = rounds = 0
        for sid in probed:
            answer = self.shards[sid].index.range_query(
                location, radius, t_now=t_now
            )
            pairs.extend((e.obj, e.distance) for e in answer.entries)
            cells_cleaned += answer.cells_cleaned
            rounds = max(rounds, answer.rounds)
        return RangeAnswer(
            entries=[KnnResultEntry(obj, d) for obj, d in rank_results(pairs)],
            cells_cleaned=cells_cleaned,
            rounds=rounds,
        )

    # ------------------------------------------------------------------
    # failover
    # ------------------------------------------------------------------
    def _maybe_fail(self, t: float) -> None:
        while self._pending_failures and self._pending_failures[0][1] <= t:
            sid, _ = self._pending_failures.pop(0)
            self.fail_shard(sid)

    def fail_shard(self, sid: int) -> str:
        """Kill a shard's primary and bring its successor up, now.

        The failover ladder: promote the standby replica (cheap — only
        the WAL tail past its applied LSN replays) or, with no replica,
        rebuild from a full WAL replay.  Either way the shard resumes
        the same log so it is durable again from its first new update;
        the promoted primary serves without a standby.

        Returns:
            The promotion mode, ``"replica"`` or ``"wal"``.
        """
        shard = self.shards.get(sid)
        if shard is None:
            raise ClusterError(f"unknown shard id {sid}")
        tracer = self.obs.tracer if self.obs is not None else None
        with root_span(tracer, "failover", {"shard": sid}) as sp:
            # the primary is dead: its in-memory index is gone and its
            # WAL handle with it
            shard.manager.close()
            if shard.replica is not None:
                standby, mode = shard.replica, FAILOVER_REPLICA
            else:
                # no standby: a fresh one catches up from the whole log
                standby = Replica(sid, self.graph, self.config, self.grid)
                mode = FAILOVER_WAL
            index, caught_up = standby.promote(shard.directory / WAL_SUBDIR)
            sp.set_attr("mode", mode)
            sp.set_attr("caught_up", caught_up)
        self.shards[sid] = Shard(
            sid,
            self._make_server(index, shard.directory),
            promotions=shard.promotions + 1,
        )
        if self._inst is not None:
            self._inst.failovers.labels(mode=mode).inc()
        if self.obs is not None and self.obs.flight is not None:
            # snapshot the queries that led up to the failover
            self.obs.flight.trigger(
                "failover", detail=f"shard={sid} mode={mode}"
            )
        if self._failover_warner is not None:
            self._failover_warner.record(
                "shards failed over to a promoted standby",
                detail=f"latest: shard={sid} mode={mode} "
                f"caught_up={caught_up} records",
            )
        return mode

    # ------------------------------------------------------------------
    # rebalancing
    # ------------------------------------------------------------------
    def _split_shard(
        self, sid: int, at_cell: int, t: float, report: ReplayReport
    ) -> int:
        """Cut a hot shard's range and migrate the peeled objects."""
        new_sid = self.shard_map.split(sid, at_cell)
        self.shards[new_sid] = self._make_shard(new_sid)
        moved = [
            obj
            for obj, owner in self._owner.items()
            if owner == sid
            and self.shard_map.shard_of_cell(
                self.grid.cell_of_edge(self._last_msg[obj].edge)
            )
            == new_sid
        ]
        for obj in sorted(moved):
            self._migrate(obj, sid, new_sid, t, report)
        self._load.clear()
        if self._inst is not None:
            self._inst.rebalances.inc()
            self._inst.shards.set(len(self.shards))
        return new_sid

    def _migrate(
        self, obj: int, old_sid: int, new_sid: int, t: float, report: ReplayReport
    ) -> None:
        """Move one object: durable remove + re-ingest of its last update.

        The costs ride the report's update fields but ``n_updates`` stays
        untouched — a migration is cluster overhead, not workload."""
        self._remove_from(old_sid, obj, t, report)
        new = self.shards[new_sid]
        scratch = self._scratch()
        new.server.update(self._last_msg[obj], scratch)
        if new.replica is not None:
            new.replica.ship_ingest(new.manager.wal.last_lsn, self._last_msg[obj])
        report.update_wall_s += scratch.update_wall_s
        report.update_touches += scratch.update_touches
        report.update_gpu_s += scratch.update_gpu_s
        report.updates_backpressured += scratch.updates_backpressured
        report.update_backoff_s += scratch.update_backoff_s
        report.shard_migrations += 1
        self._owner[obj] = new_sid
        if self._inst is not None:
            self._inst.migrations.inc()

    # ------------------------------------------------------------------
    # workload replay
    # ------------------------------------------------------------------
    def replay(
        self, workload: Workload, collect_answers: bool = False
    ) -> tuple[ReplayReport, list[KnnAnswer]]:
        """Replay a workload through the cluster (same contract as
        :meth:`QueryServer.replay`: initial load counts as updates,
        updates flush pending epochs, answers align with query order)."""
        return replay_workload(
            self,
            workload,
            ReplayReport(index_name=self.name, timing=self.timing),
            self.batch.batch_size,
            collect_answers,
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def num_objects(self) -> int:
        return sum(shard.index.num_objects for shard in self.shards.values())

    def close(self) -> None:
        """Close every shard's WAL; remove a router-owned temp directory."""
        for shard in self.shards.values():
            shard.manager.close()
        if self._own_directory:
            shutil.rmtree(self.directory, ignore_errors=True)

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
