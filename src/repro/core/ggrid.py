"""The G-Grid index facade: build, ingest, query.

:class:`GGridIndex` wires together the paper's three index components —
the graph grid (Section III-A), the object table (III-B) and the per-cell
message lists (III-C) — with the GPU cleaner and the kNN processor, and
exposes the update/query API the experiments drive:

* :meth:`GGridIndex.ingest` — Algorithm 1 (cache the message, mark the
  old cell on a move, eagerly refresh the object table);
* :meth:`GGridIndex.knn` — Algorithm 4;
* :meth:`GGridIndex.size_bytes` — the Fig. 6 index-size breakdown.

Example:
    >>> from repro.roadnet import grid_road_network
    >>> from repro.core import GGridIndex, Message
    >>> g = grid_road_network(8, 8, seed=1)
    >>> index = GGridIndex(g)
    >>> index.ingest(Message(obj=7, edge=0, offset=0.1, t=1.0))
    >>> from repro.roadnet import NetworkLocation
    >>> index.knn(NetworkLocation(1, 0.0), k=1, t_now=2.0).objects()
    [7]
"""

from __future__ import annotations

from typing import Callable, Mapping

from repro.chaos.hub import default_fault_plan
from repro.chaos.injector import FaultInjector
from repro.config import GGridConfig
from repro.core.cleaning import CleaningResult, MessageCleaner
from repro.core.graph_grid import GraphGrid
from repro.core.knn import BatchExecStats, KnnAnswer, KnnProcessor
from repro.core.message_list import MessageList
from repro.core.messages import Message
from repro.core.object_table import ObjectEntry, ObjectTable
from repro.errors import CapacityError, GpuError, QueryError
from repro.obs.tracing import span
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.location import NetworkLocation
from repro.resilience import (
    RUNG_CPU_SDIST,
    RUNG_DIJKSTRA,
    ResiliencePolicy,
    tag_ladder_outcome,
)
from repro.simgpu.device import SimGpu
from repro.simgpu.stats import GpuStats


class GGridIndex:
    """The complete G-Grid index over one road network."""

    name = "G-Grid"

    def __init__(
        self,
        graph: RoadNetwork,
        config: GGridConfig | None = None,
        gpu: SimGpu | None = None,
        resilience: ResiliencePolicy | None = None,
        grid: GraphGrid | None = None,
    ) -> None:
        """Build the index: partition the network into the graph grid and
        ship the GPU-resident copy to the device (a one-time transfer
        accounted in the device stats).

        ``grid`` shares a prebuilt :class:`GraphGrid` instead of
        repartitioning the network — the grid is immutable during
        serving, so the cluster layer builds it once and every shard
        (and replica) reuses it; each index still ships its own
        device-resident copy.
        """
        self.graph = graph
        self.config = config or GGridConfig()
        self.gpu = gpu or SimGpu(self.config.gpu)
        self.grid = grid if grid is not None else GraphGrid.build(graph, self.config)
        self.gpu.to_device("ggrid.grid", self.grid, nbytes=self.grid.device_nbytes())
        self.object_table = ObjectTable()
        self.lists: dict[int, MessageList] = {}
        self.cleaner = MessageCleaner(self.gpu, self.config)
        self._processor = KnnProcessor(
            graph,
            self.grid,
            self.object_table,
            self.cleaner,
            self.gpu,
            self.config,
            self._list_of,
        )
        self.messages_ingested = 0
        self.update_touches = 0  # index entries touched per update (lazy: few)
        self.latest_time = 0.0
        # -- resilience state (see repro.resilience / DESIGN.md) --
        self.resilience = resilience or ResiliencePolicy()
        self.breaker = self.resilience.make_breaker()
        self.backpressure_cleanings = 0  # ingests that forced an in-line clean
        self.resilience_backoff_s = 0.0  # modelled update-side retry backoff
        #: overload brownout (repro.serve, DESIGN.md §14): when True the
        #: query ladder skips the GPU rung entirely and serves from the
        #: vectorised-CPU rung — under a device-fault storm this avoids
        #: paying retries + modelled backoff per query.  Answers on
        #: every rung are exact, so brownout trades latency/throughput
        #: headroom, never correctness.
        self.brownout = False
        self.max_buckets_per_cell = self.config.max_buckets_per_cell
        self._injector: FaultInjector | None = None
        self._chaos_plan = None
        self._sync_chaos()

    # ------------------------------------------------------------------
    # updates (Algorithm 1)
    # ------------------------------------------------------------------
    def ingest(self, message: Message) -> None:
        """Cache one location update.

        Appends the message to its cell's list; when the object moved
        from another cell, a removal marker is appended there too; the
        object table is refreshed eagerly (it is a cheap hash put).

        Raises:
            QueryError: for removal-marker messages (library callers send
                only real location updates).
            UnknownEdgeError: when the edge is not in the network.
        """
        if message.is_removal:
            raise QueryError("clients send location updates, not removal markers")
        # span() is a shared no-op unless a tracer is active — the lazy
        # ingest hot path must stay allocation-free when untraced
        with span("ingest"):
            cell = self.grid.cell_of_edge(message.edge)
            self._append_with_backpressure(cell, message)
            touches = 2  # the cached message + the object-table put
            previous = self.object_table.try_get(message.obj)
            if previous is not None and previous.cell != cell:
                marker = Message(message.obj, None, None, message.t)
                self._append_with_backpressure(previous.cell, marker)
                touches += 1
            self.object_table.put(
                message.obj,
                ObjectEntry(cell, message.edge, message.offset, message.t),
            )
            self.messages_ingested += 1
            self.update_touches += touches
            self.latest_time = max(self.latest_time, message.t)

    def bulk_load(self, placements: Mapping[int, NetworkLocation], t: float) -> None:
        """Ingest an initial placement for many objects at time ``t``."""
        for obj, loc in placements.items():
            self.ingest(Message(obj, loc.edge_id, loc.offset, t))

    def remove_object(self, obj: int, t: float) -> None:
        """Deregister an object (e.g. a car going offline).

        Appends a removal marker to the object's cell — so a later
        cleaning of that cell drops any cached location messages — and
        deletes the object-table entry immediately.  Under capacity
        pressure the marker rides the same in-line-cleaning backpressure
        as ingest: removals are how the cluster layer migrates objects
        between shards, and a standby replica applying shipped removals
        gets no query-driven cleanings to drain its lists.

        Raises:
            UnknownObjectError: when the object was never ingested.
        """
        entry = self.object_table.get(obj)
        self._append_with_backpressure(entry.cell, Message(obj, None, None, t))
        self.object_table.remove(obj)
        self.update_touches += 2
        self.latest_time = max(self.latest_time, t)

    def _list_of(self, cell: int) -> MessageList:
        mlist = self.lists.get(cell)
        if mlist is None:
            mlist = MessageList(
                self.config.delta_b,
                cell=cell,
                max_buckets=self.max_buckets_per_cell,
            )
            self.lists[cell] = mlist
        return mlist

    def _append_with_backpressure(self, cell: int, message: Message) -> None:
        """Append to a cell's list, compacting in line when it is full.

        An uncapped list (the default) never raises; under capacity
        pressure (``max_buckets_per_cell``, e.g. a chaos profile) a full
        backlog triggers a forced in-line cleaning of that one cell —
        the update pays the compaction instead of failing — and the
        append is retried against the compacted list.  Only if the cell
        still cannot hold one more message (live objects genuinely
        exceed its capacity) does the :class:`~repro.errors.CapacityError`
        propagate.
        """
        mlist = self._list_of(cell)
        try:
            mlist.append(message)
        except CapacityError:
            if not self.resilience.enabled:
                raise
            self.backpressure_cleanings += 1
            now = max(self.latest_time, message.t)
            self._resilient_clean({cell: mlist}, now)
            mlist.append(message)

    # ------------------------------------------------------------------
    # queries (Algorithm 4)
    # ------------------------------------------------------------------
    def knn(
        self, location: NetworkLocation, k: int, t_now: float | None = None
    ) -> KnnAnswer:
        """The k nearest objects to ``location`` at time ``t_now``
        (defaults to the newest ingested timestamp).

        The query runs as an epoch of one through the same processor
        path as :meth:`knn_batch`.  When the device faults mid-query the
        resilience ladder takes over (see :mod:`repro.resilience`): the
        GPU phase is retried with exponential backoff charged to
        modelled time, then the query degrades to the host-executed
        SDist path and, as a last resort, to an exact Dijkstra sweep.
        Every rung returns the same exact answer;
        :attr:`KnnAnswer.degraded_rung`, :attr:`KnnAnswer.retries` and
        :attr:`KnnAnswer.backoff_s` record what it cost.  Non-device
        errors propagate unchanged.
        """
        now = self.latest_time if t_now is None else t_now
        return self._run_resilient(
            now,
            lambda use_gpu: self._processor.query_batch(
                [(location, k)], now, use_gpu=use_gpu
            )[0],
            lambda: self._processor.exact_query(location, k),
        )

    def knn_batch(
        self,
        queries: list[tuple[NetworkLocation, int]],
        t_now: float | None = None,
        exec_stats: BatchExecStats | None = None,
    ) -> list[KnnAnswer]:
        """Answer an epoch batch of queries with a shared GPU pipeline.

        Overlapping candidate regions are shipped to the device and
        deduplicated once for the whole batch — the paper's multi-query
        parallelism (the *G-Grid* vs *G-Grid (L)* gap in Fig. 5) — and
        the surviving queries' candidate kernels run as fused per-batch
        launches with one shared device-to-host transfer.  Answers are
        identical to issuing each query individually.  Device faults
        degrade the whole batch down the same ladder as :meth:`knn`;
        retry backoff is charged once, on the first answer.  When
        ``exec_stats`` is given it is filled with the batch's
        work-sharing accounting (reset on every ladder attempt, so it
        reflects the attempt that produced the answers).
        """
        now = self.latest_time if t_now is None else t_now

        def exact() -> list[KnnAnswer]:
            answers = [self._processor.exact_query(loc, k) for loc, k in queries]
            if exec_stats is not None:
                exec_stats.reset()
                exec_stats.queries = len(answers)
                exec_stats.fallbacks = len(answers)
            return answers

        return self._run_resilient(
            now,
            lambda use_gpu: self._processor.query_batch(
                queries, now, use_gpu=use_gpu, exec_stats=exec_stats
            ),
            exact,
        )

    def _run_resilient(
        self,
        now: float,
        attempt: Callable[[bool], KnnAnswer | list[KnnAnswer]],
        exact: Callable[[], KnnAnswer | list[KnnAnswer]],
    ):
        """Run a query callable down the degradation ladder.

        ``attempt(use_gpu)`` runs the normal processor path;
        ``exact()`` is the rung-3 Dijkstra fallback.  Only
        :class:`~repro.errors.GpuError` (and subclasses — the simulated
        device's failure modes) triggers degradation; anything else is a
        bug and propagates.  Whole-query retry is safe: a faulted
        cleaning rolls its locks back (cached updates survive), and a
        fault after cleaning leaves only compacted lists behind, which
        re-clean to the identical result.
        """
        policy = self.resilience
        if not policy.enabled:
            return attempt(True)
        retries = 0
        backoff_s = 0.0
        if not self.brownout and self.breaker.allow_gpu(now):
            while True:
                try:
                    # rung spans make the ladder legible in query traces;
                    # span() is the shared no-op when tracing is off, and
                    # an erroring attempt still closes its span cleanly
                    with span("rung_gpu") as rung_sp:
                        rung_sp.set_attr("attempt", retries)
                        result = attempt(True)
                    self.breaker.record_success(now)
                    return tag_ladder_outcome(result, None, retries, backoff_s)
                except GpuError:
                    self.breaker.record_failure(now)
                    if retries >= policy.retry.max_retries:
                        break
                    if not self.breaker.allow_gpu(now):
                        break  # breaker tripped open mid-retry
                    backoff_s += policy.retry.backoff_s(retries)
                    retries += 1
        # -- rung 2: vectorised SDist + dedup on the host, same answers --
        try:
            with span("rung_cpu_sdist"):
                result = attempt(False)
            return tag_ladder_outcome(result, RUNG_CPU_SDIST, retries, backoff_s)
        except GpuError:  # pragma: no cover - rung 2 touches no device
            pass
        # -- rung 3: exact Dijkstra over the eager object table --
        with span("rung_dijkstra"):
            result = exact()
        return tag_ladder_outcome(result, RUNG_DIJKSTRA, retries, backoff_s)

    def _resilient_clean(
        self, lists: dict[int, MessageList], now: float
    ) -> CleaningResult:
        """Update-side ladder: clean on the device, degrade to the host.

        Mirrors :meth:`_run_resilient` for cleanings that happen outside
        a query (backpressure compaction, maintenance policies).  Backoff
        here has no answer to ride on, so it accumulates in
        :attr:`resilience_backoff_s` for the server to charge to update
        time.
        """
        policy = self.resilience
        if not policy.enabled:
            return self.cleaner.clean(lists, now, self.object_table)
        retries = 0
        if self.breaker.allow_gpu(now):
            while True:
                try:
                    result = self.cleaner.clean(lists, now, self.object_table)
                    self.breaker.record_success(now)
                    return result
                except GpuError:
                    self.breaker.record_failure(now)
                    if retries >= policy.retry.max_retries:
                        break
                    if not self.breaker.allow_gpu(now):
                        break
                    self.resilience_backoff_s += policy.retry.backoff_s(retries)
                    retries += 1
        return self.cleaner.clean(lists, now, self.object_table, use_gpu=False)

    def range_query(
        self,
        location: NetworkLocation,
        radius: float,
        t_now: float | None = None,
    ):
        """All objects within network distance ``radius`` of ``location``.

        An extension beyond the paper's kNN query built on the same lazy
        cleaning and GPU distance machinery — see
        :mod:`repro.core.range_query` for the exactness argument.

        Returns:
            A :class:`~repro.core.range_query.RangeAnswer` sorted by
            ascending distance.
        """
        from repro.core.range_query import range_query as _range_query

        now = self.latest_time if t_now is None else t_now
        return _range_query(self._processor, location, radius, now)

    def clean_cells(self, cells: set[int], t_now: float | None = None) -> CleaningResult:
        """Force-clean specific cells (maintenance / test hook).

        Device faults propagate to the caller after rolling back — a
        maintenance pass that cannot run is skipped, not silently
        degraded; nothing is lost and no list stays locked.
        """
        now = self.latest_time if t_now is None else t_now
        return self.cleaner.clean({c: self._list_of(c) for c in cells}, now, self.object_table)

    def reset_objects(self) -> None:
        """Drop all object state (locations, cached messages, counters),
        keeping the built graph grid.  Benchmark replays use this to
        reuse one expensive build across independent runs — which is why
        the chaos wiring is re-synchronised here: a cached index built
        under a fault plan must shed its injector when the plan is gone
        (and vice versa)."""
        self.object_table = ObjectTable()
        self.lists.clear()
        self._processor.object_table = self.object_table
        self.messages_ingested = 0
        self.update_touches = 0
        self.latest_time = 0.0
        self.gpu.stats.reset()
        self.cleaner.cleanings_total = 0
        self.cleaner.cells_cleaned_total = 0
        self.breaker.reset()
        self.backpressure_cleanings = 0
        self.resilience_backoff_s = 0.0
        self._sync_chaos()

    def _sync_chaos(self) -> None:
        """Match this index's fault wiring to the process-wide plan.

        Called at construction and on :meth:`reset_objects`.  Keyed on
        plan identity: with no configured plan this is one attribute
        compare and an early return, so the non-chaos path stays free of
        injection machinery.
        """
        plan = default_fault_plan()
        if plan is self._chaos_plan:
            return
        if self._injector is not None:
            self._injector.uninstall()
            self._injector = None
        self._chaos_plan = plan
        self.max_buckets_per_cell = self.config.max_buckets_per_cell
        if plan is None:
            return
        if plan.max_buckets_per_cell is not None:
            self.max_buckets_per_cell = plan.max_buckets_per_cell
        if plan.injects_device_faults:
            self._injector = FaultInjector(plan, self.gpu)
            self._injector.install()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def num_objects(self) -> int:
        return len(self.object_table)

    @property
    def fault_injector(self) -> FaultInjector | None:
        """The installed chaos injector, if a fault plan is active."""
        return self._injector

    @property
    def stats(self) -> GpuStats:
        return self.gpu.stats

    def pending_messages(self) -> int:
        """Messages cached but not yet cleaned."""
        return sum(lst.num_messages for lst in self.lists.values())

    def size_bytes(self) -> dict[str, int]:
        """The Fig. 6 breakdown: CPU copy, GPU copy and total."""
        grid_cpu = self.grid.size_bytes()
        table = self.object_table.size_bytes()
        lists = sum(lst.size_bytes() for lst in self.lists.values())
        gpu_copy = self.grid.device_nbytes()
        cpu_total = grid_cpu + table + lists
        return {
            "grid": grid_cpu,
            "object_table": table,
            "message_lists": lists,
            "cpu": cpu_total,
            "gpu": gpu_copy,
            "total": cpu_total + gpu_copy,
        }
