"""The kNN query server: replaying workloads over any index.

:class:`QueryServer` is the component the paper's Figure 1 sketches: it
ingests object location updates and answers kNN queries against whichever
index backs it.  :meth:`QueryServer.replay` feeds a time-ordered workload
through the index, timing updates and queries separately, and produces
the :class:`~repro.server.metrics.ReplayReport` the benchmarks print.

When given an :class:`~repro.obs.Observability` bundle (explicitly or
via :func:`repro.obs.configure`), the server additionally publishes the
full query lifecycle to it: ingest/query counters and per-phase latency
histograms into the metrics registry, each query's span tree into the
tracer, and the slowest queries (with their phase splits and cell
attributes) into the slow-query log.  With no bundle attached the
instrumentation costs nothing — no extra kernel launches and no
per-message allocations.
"""

from __future__ import annotations

import time
from typing import Protocol, runtime_checkable

from pathlib import Path

from repro.core.knn import BatchExecStats, KnnAnswer
from repro.core.messages import Message
from repro.errors import QueryError
from repro.mobility.workload import Query, Workload
from repro.obs.hub import Observability, default_observability
from repro.obs.metrics import RateLimitedWarner, linear_buckets, log_scale_buckets
from repro.obs.slo import SloTracker, classify_fanout
from repro.obs.tracing import root_span
from repro.roadnet.location import NetworkLocation
from repro.server.batching import BatchPolicy, default_batch_policy
from repro.server.metrics import QueryRecord, ReplayReport, TimingModel
from repro.simgpu.device import SimGpu


@runtime_checkable
class KnnIndex(Protocol):
    """What the server requires of an index implementation."""

    name: str

    def ingest(self, message: Message) -> None: ...

    def bulk_load(self, placements: dict[int, NetworkLocation], t: float) -> None: ...

    def knn(
        self, location: NetworkLocation, k: int, t_now: float | None = None
    ) -> KnnAnswer: ...

    def size_bytes(self) -> dict[str, int]: ...

    def reset_objects(self) -> None: ...


class ServerInstruments:
    """Metric handles the server hot paths publish to, resolved once.

    The metric names here (``repro_*``) are the public contract
    documented in README.md §Observability; dashboards and tests key on
    them.
    """

    def __init__(self, obs: Observability) -> None:
        self.obs = obs
        registry = obs.registry
        self.ingest_messages = registry.counter(
            "repro_ingest_messages_total",
            help="Location updates ingested by the server.",
        ).default()
        self.queries = registry.counter(
            "repro_queries_total", help="kNN queries answered."
        ).default()
        self.fallbacks = registry.counter(
            "repro_query_fallback_total",
            help="Queries answered by the exact-Dijkstra fallback path.",
        ).default()
        self.query_seconds = registry.histogram(
            "repro_query_modeled_seconds",
            help="Modelled end-to-end latency per query.",
        ).default()
        self.phase_seconds = registry.histogram(
            "repro_phase_seconds",
            help="Modelled/simulated seconds per lifecycle phase "
            "(ingest, clean_cells, sdist, refine, gpu_kernel, ...).",
            labelnames=("phase",),
        )
        self.cells_cleaned = registry.counter(
            "repro_query_cells_cleaned_total",
            help="Candidate cells cleaned on behalf of queries.",
        ).default()
        self.candidates = registry.histogram(
            "repro_query_candidates",
            help="GPU candidate-set size per query.",
            buckets=log_scale_buckets(1.0, 1e6, 1),
        ).default()
        self.gpu_kernel_seconds = registry.counter(
            "repro_gpu_kernel_seconds_total",
            help="Simulated GPU kernel seconds.",
        ).default()
        self.gpu_transfer_bytes = registry.counter(
            "repro_gpu_transfer_bytes_total",
            help="Host<->device bytes moved (both directions).",
        ).default()
        self.objects = registry.gauge(
            "repro_objects", help="Live objects in the index."
        ).default()
        self.backlog = registry.gauge(
            "repro_backlog_messages",
            help="Cached (uncleaned) messages across all cells.",
        ).default()
        # -- resilience (the chaos/degradation contract, README §Resilience) --
        self.retries = registry.counter(
            "repro_retries_total",
            help="Device retries spent by the resilience ladder.",
        ).default()
        self.degraded = registry.counter(
            "repro_degraded_queries_total",
            help="Queries answered below the healthy GPU rung, by rung.",
            labelnames=("rung",),
        )
        self.breaker_state = registry.gauge(
            "repro_breaker_state",
            help="Circuit-breaker state: 0=closed, 1=half-open, 2=open.",
        ).default()
        #: the state gauge only samples at publication time; the
        #: transition counter makes half-open probe outcomes observable
        #: even when they resolve between two queries
        self.breaker_transitions = registry.counter(
            "repro_breaker_transitions_total",
            help="Circuit-breaker state transitions, by (from, to) state.",
            labelnames=("from", "to"),
        )
        self.backpressure = registry.counter(
            "repro_backpressure_cleanings_total",
            help="Updates that forced an in-line cleaning at capacity.",
        ).default()
        # -- batched execution (DESIGN.md §10) --
        self.batches = registry.counter(
            "repro_batches_total",
            help="Query epochs executed by the batch engine.",
        ).default()
        self.batch_size = registry.histogram(
            "repro_batch_size",
            help="Queries per executed epoch.",
            buckets=linear_buckets(1.0, 1.0, 65),
        ).default()
        self.batch_cells_cleaned = registry.counter(
            "repro_batch_cells_cleaned_total",
            help="Distinct cells cleaned once per epoch by the batch engine.",
        ).default()
        self.batch_cells_deduped = registry.counter(
            "repro_batch_cells_deduped_total",
            help="Cell cleanings avoided by epoch dedup vs sequential execution.",
        ).default()
        # -- SLO scoring (DESIGN.md §13) --
        self.slo = SloTracker(obs.slo_policy, registry)


class QueryServer:
    """Drives one index through updates and queries with full accounting."""

    def __init__(
        self,
        index: KnnIndex,
        timing: TimingModel | None = None,
        maintenance: "object | None" = None,
        obs: Observability | None = None,
        batch: BatchPolicy | None = None,
        durability: "object | None" = None,
        publish_slo: bool = True,
        planner: "object | None" = None,
    ) -> None:
        """Args:
            index: any :class:`KnnIndex` implementation.
            timing: the modelled-time parameters.
            maintenance: optional background-cleaning policy (see
                :mod:`repro.server.maintenance`); invoked after every
                update, only meaningful for indexes exposing
                ``clean_cells`` (G-Grid).
            obs: observability bundle to publish to; defaults to the
                process-wide bundle installed with
                :func:`repro.obs.configure` (None = observability off).
            batch: epoch batching policy (DESIGN.md §10); defaults to
                the process-wide policy installed with
                :func:`repro.server.batching.configure_batching`, else
                sequential execution.
            durability: optional
                :class:`~repro.persist.manager.DurabilityManager`
                (DESIGN.md §11): every update is WAL-logged before it is
                applied and the manager's snapshot policy runs after,
                so a process death recovers via :meth:`recover`.
            publish_slo: score queries against the bundle's SLO policy.
                The cluster router turns this off for its shard-internal
                servers — a shard probe is a fragment of a logical
                query, and only the front door may score it (otherwise
                every scatter would be double-counted).
            planner: optional adaptive
                :class:`~repro.plan.planner.QueryPlanner` (DESIGN.md
                §17): every applied update is tapped into it (feeding
                its TEN foil and invalidating its result cache) and
                every query is routed through its cache + cost-model
                decision instead of straight to ``index``.  Answers
                stay exact regardless of the chosen backend.
        """
        self.index = index
        self.timing = timing or TimingModel()
        self.maintenance = maintenance
        self.obs = obs if obs is not None else default_observability()
        self._inst = ServerInstruments(self.obs) if self.obs is not None else None
        self.publish_slo = publish_slo
        self._last_breaker = 0
        self.batch = batch if batch is not None else (
            default_batch_policy() or BatchPolicy()
        )
        self.durability = durability
        #: attached standing-query layer (repro.subscribe); every applied
        #: update/removal is tapped into it as the delta stream
        self.subscriptions = None
        #: attached adaptive planner (repro.plan); taps the same delta
        #: stream and owns the query routing when present
        self.planner = planner
        if planner is not None:
            planner.attach(index)
        breaker = getattr(index, "breaker", None)
        if self._inst is not None and breaker is not None:
            transitions = self._inst.breaker_transitions
            breaker.on_transition = lambda old, new: transitions.labels(
                **{"from": old, "to": new}
            ).inc()
        #: rate-limited fallback warning (1st occurrence, then every
        #: 100th, cumulative count in the message)
        self._fallback_warner = (
            RateLimitedWarner(self.obs.registry, "query_server")
            if self.obs is not None
            else None
        )

    @classmethod
    def recover(
        cls,
        directory: str | Path,
        *,
        graph: "object | None" = None,
        config: "object | None" = None,
        timing: TimingModel | None = None,
        maintenance: "object | None" = None,
        obs: Observability | None = None,
        batch: BatchPolicy | None = None,
        **durability_kwargs: object,
    ) -> "QueryServer":
        """Rebuild a server from a durability directory after a crash.

        Runs :func:`repro.persist.recovery.recover` (newest valid
        snapshot + WAL replay past its watermark), then attaches a fresh
        :class:`~repro.persist.manager.DurabilityManager` that resumes
        the same log — its writer trims any torn tail and continues the
        LSN sequence — so the recovered server is durable again from
        the first post-recovery update.  The recovery report is exposed
        as ``server.recovery_report``.
        """
        from repro.persist.manager import DurabilityManager
        from repro.persist.recovery import recover as _recover

        resolved_obs = obs if obs is not None else default_observability()
        index, report = _recover(
            directory, graph=graph, config=config, obs=resolved_obs
        )
        manager = DurabilityManager(directory, obs=resolved_obs, **durability_kwargs)
        server = cls(
            index,
            timing=timing,
            maintenance=maintenance,
            obs=obs,
            batch=batch,
            durability=manager,
        )
        server.recovery_report = report
        return server

    @property
    def _gpu(self) -> SimGpu | None:
        return getattr(self.index, "gpu", None)

    # ------------------------------------------------------------------
    # single operations
    # ------------------------------------------------------------------
    def update(self, message: Message, report: ReplayReport) -> None:
        """Ingest one update, charging its cost to the report."""
        gpu = self._gpu
        if gpu:
            # three floats, not a stats snapshot: this runs per update
            st = gpu.stats
            before = (st.kernel_time_s, st.transfer_time_s, st.pipelined_saved_s)
        touches_before = getattr(self.index, "update_touches", 0)
        bp_before = getattr(self.index, "backpressure_cleanings", 0)
        backoff_before = getattr(self.index, "resilience_backoff_s", 0.0)
        t0 = time.perf_counter()
        if self.durability is not None:
            # write-ahead: the update is durable the moment it is logged,
            # so recovery replays it even if we die before applying it
            self.durability.log_ingest(message)
        self.index.ingest(message)
        if self.maintenance is not None:
            self.maintenance.on_update(self.index, message.t)
        if self.durability is not None:
            self.durability.maybe_snapshot(self.index)
        wall = time.perf_counter() - t0
        if self.subscriptions is not None:
            self.subscriptions.observe(message)
        planner_touches = 0
        if self.planner is not None:
            # the planner taps the same delta stream; its TEN foil's
            # maintenance work is real and charged to the update budget
            planner_touches = self.planner.observe(message)
        report.update_wall_s += wall
        report.update_touches += (
            getattr(self.index, "update_touches", 0) - touches_before
        ) + planner_touches
        backpressured = (
            getattr(self.index, "backpressure_cleanings", 0) - bp_before
        )
        backoff_s = (
            getattr(self.index, "resilience_backoff_s", 0.0) - backoff_before
        )
        report.updates_backpressured += backpressured
        report.update_backoff_s += backoff_s
        gpu_s = 0.0
        if gpu:
            # the same sum, in the same order, as diff(before).gpu_time_s
            st = gpu.stats
            gpu_s = (
                (st.kernel_time_s - before[0]) + (st.transfer_time_s - before[1])
            ) - (st.pipelined_saved_s - before[2])
            report.update_gpu_s += gpu_s
        report.n_updates += 1
        inst = self._inst
        if inst is not None:
            inst.ingest_messages.inc()
            inst.phase_seconds.labels(phase="ingest").observe(wall)
            if gpu_s:
                inst.gpu_kernel_seconds.inc(gpu_s)
            if backpressured:
                inst.backpressure.inc(backpressured)
            self._publish_breaker(inst)

    def remove_object(self, obj: int, t: float) -> None:
        """Deregister an object durably (WAL-logged when durability is on).

        Raises:
            QueryError: the backing index does not support removal.
            UnknownObjectError: the object was never ingested.
        """
        remove = getattr(self.index, "remove_object", None)
        if remove is None:
            raise QueryError(
                f"index {self.index.name!r} does not support object removal"
            )
        if self.durability is not None:
            self.durability.log_remove(obj, t)
        remove(obj, t)
        if self.subscriptions is not None:
            self.subscriptions.observe_remove(obj, t)
        if self.planner is not None:
            self.planner.observe_remove(obj, t)
        if self.durability is not None:
            self.durability.maybe_snapshot(self.index)

    def attach_subscriptions(self, manager: object) -> None:
        """Wire a :class:`~repro.subscribe.manager.SubscriptionManager`
        into the update path (called by the manager's constructor)."""
        self.subscriptions = manager

    def tick(self, t_now: float | None = None, force_all: bool = False):
        """Refresh the attached subscriptions at ``t_now`` (defaults to
        the index's latest ingested timestamp)."""
        if self.subscriptions is None:
            raise QueryError(
                "no subscription manager attached; construct a "
                "SubscriptionManager over this server first"
            )
        if t_now is None:
            t_now = getattr(self.index, "latest_time", 0.0)
        return self.subscriptions.tick(t_now, force_all=force_all)

    def query(
        self, q: Query, report: ReplayReport, trace_parent: str | None = None
    ) -> KnnAnswer:
        """Answer one query, charging its cost to the report.

        A query is an epoch of one: it runs the same path as
        :meth:`query_batch`, which only adds the batch counters.

        ``trace_parent`` is an encoded
        :class:`~repro.obs.tracing.TraceContext` header from an upstream
        component (the cluster router's per-shard probe span): the
        query span joins that trace instead of starting its own, so a
        scatter-gathered query renders as one tree.

        With an attached planner the query first consults the result
        cache, then executes on whichever backend the planner chooses;
        without one it goes straight to the primary index.
        """
        return self._serve([q], report, trace_parent)[0]

    def query_batch(
        self,
        queries: list[Query],
        report: ReplayReport,
        trace_parent: str | None = None,
    ) -> list[KnnAnswer]:
        """Execute one epoch of queries, charging its cost to the report.

        All queries run at ``t_epoch = max(q.t)`` through the index's
        batched engine (one deduplicated cleaning pass, fused candidate
        kernels, one shared transfer); per-query answers are identical
        to sequential execution.  The epoch's GPU time and wall time are
        attributed to the queries as equal shares (transfer bytes get
        their division remainder on the first query, so totals are
        exact).  An epoch of one — and every query on an index without
        ``knn_batch`` — is recorded exactly as :meth:`query` records it;
        only ``n_batches`` and the batch metrics tell them apart.
        ``trace_parent`` joins the epoch span to an upstream trace, as
        in :meth:`query`.
        """
        if not queries:
            return []
        report.n_batches += 1
        inst = self._inst
        if inst is not None:
            inst.batches.inc()
            inst.batch_size.observe(len(queries))
        return self._serve(queries, report, trace_parent)

    def _serve(
        self,
        queries: list[Query],
        report: ReplayReport,
        trace_parent: str | None,
    ) -> list[KnnAnswer]:
        """Cache lookup → plan → execute → verify (DESIGN.md §17).

        One plan decision per epoch: cache hits are served first, then
        the planner routes the remaining misses as a group.  The chosen
        backend executes the misses one at a time (epoch fusion on the
        primary's batch engine is forfeited, answer-identically).
        Without a planner the epoch goes straight to the primary index.
        """
        planner = self.planner
        if planner is None:
            return self._execute(self.index, queries, report, trace_parent)
        answers: list[KnnAnswer | None] = []
        misses: list[int] = []
        for i, q in enumerate(queries):
            hit = planner.cached_answer(q)
            if hit is None:
                misses.append(i)
            else:
                # byte-identical entries, zero modelled cost: no kernels,
                # no cleaning, no refinement ran on anyone's behalf
                self._record_answer(hit, 0.0, 0.0, 0, report, t=q.t)
            answers.append(hit)
        if misses:
            plan = planner.plan_epoch([queries[i] for i in misses])
            for i in misses:
                answers[i] = self._execute_plan(
                    queries[i], plan, report, trace_parent
                )
        return answers  # type: ignore[return-value]

    def _execute_plan(
        self,
        q: Query,
        plan: "object",
        report: ReplayReport,
        trace_parent: str | None = None,
    ) -> KnnAnswer:
        backend = self.planner.resolve(plan)
        probe = self.planner.probe(plan)
        tracer = self.obs.tracer if self.obs is not None else None
        with root_span(
            tracer,
            "plan",
            {
                "backend": plan.backend,
                "rung": plan.rung,
                "predicted_s": plan.predicted_cost,
                "reason": plan.reason,
            },
            parent=trace_parent,
        ) as sp:
            (answer,) = self._execute(
                backend, [q], report, trace_parent=sp.traceparent
            )
        self.planner.observe_result(plan, answer, probe)
        self.planner.cache_store(q, answer)
        return answer

    def _execute(
        self,
        index: KnnIndex,
        queries: list[Query],
        report: ReplayReport,
        trace_parent: str | None = None,
    ) -> list[KnnAnswer]:
        """Run one epoch on a specific backend with full accounting.

        One query calls ``index.knn`` under a ``query`` span; a larger
        epoch calls ``index.knn_batch`` under a ``batch`` span.  A
        backend without ``knn_batch`` runs its epoch one query at a
        time, each with its own accounting.
        """
        n = len(queries)
        knn_batch = getattr(index, "knn_batch", None) if n > 1 else None
        if n > 1 and knn_batch is None:
            return [
                self._execute(index, [q], report, trace_parent)[0] for q in queries
            ]
        gpu = getattr(index, "gpu", None)
        before = gpu.stats.snapshot() if gpu else None
        exec_stats = BatchExecStats() if knn_batch is not None else None
        t = max(q.t for q in queries)
        tracer = self.obs.tracer if self.obs is not None else None
        t0 = time.perf_counter()
        if exec_stats is None:
            name, attrs = "query", {"k": queries[0].k, "t": t}
        else:
            name, attrs = "batch", {"queries": n, "t": t}
        with root_span(tracer, name, attrs, parent=trace_parent) as sp:
            answers = _run_knn(index, queries, t, exec_stats)
            if exec_stats is None:
                sp.set_attr("cells_cleaned", answers[0].cells_cleaned)
                sp.set_attr("candidates", answers[0].candidates)
            else:
                sp.set_attr("cells_cleaned", exec_stats.cells_cleaned)
                sp.set_attr("cells_deduped", exec_stats.cells_deduped)
        trace_id = sp.trace_id_hex
        wall = time.perf_counter() - t0

        # equal shares of the epoch; for n == 1, /1 and divmod(x, 1)
        # are exact, so a lone query keeps its own measured costs
        gpu_share = 0.0
        transfer_share = transfer_rem = 0
        if gpu and before is not None:
            delta = gpu.stats.diff(before)
            gpu_share = delta.gpu_time_s / n
            transfer_share, transfer_rem = divmod(delta.total_bytes, n)
        inst = self._inst
        if exec_stats is not None:
            report.batch_cells_deduped += exec_stats.cells_deduped
            if inst is not None:
                inst.batch_cells_cleaned.inc(exec_stats.cells_cleaned)
                inst.batch_cells_deduped.inc(exec_stats.cells_deduped)
        for i, answer in enumerate(answers):
            self._record_answer(
                answer,
                wall / n,
                gpu_share,
                transfer_share + (transfer_rem if i == 0 else 0),
                report,
                t=t,
                trace_id=trace_id,
            )
        return answers

    def _record_answer(
        self,
        answer: KnnAnswer,
        wall: float,
        gpu_s: float,
        transfer: int,
        report: ReplayReport,
        t: float = 0.0,
        trace_id: str | None = None,
    ) -> None:
        """Convert one answer's costs to modelled time and record it."""
        phases: dict[str, float] = dict(answer.gpu_phase_s)
        modeled = gpu_s
        for phase, seconds in answer.cpu_seconds.items():
            if phase == "refine":
                items = max(1, answer.unresolved)
            elif phase == "score":
                items = max(1, answer.candidates)
            else:
                items = 1
            phase_modeled = self.timing.cpu_seconds(seconds, parallel_items=items)
            phases[phase] = phases.get(phase, 0.0) + phase_modeled
            modeled += phase_modeled
        # retry backoff is already in modelled seconds — charged as-is,
        # not divided by python_speedup (nothing was measured, it is a
        # policy-chosen delay)
        if answer.backoff_s:
            phases["backoff"] = phases.get("backoff", 0.0) + answer.backoff_s
            modeled += answer.backoff_s
        report.query_records.append(
            QueryRecord(
                modeled_s=modeled,
                wall_s=wall,
                gpu_s=gpu_s,
                transfer_bytes=transfer,
                used_fallback=answer.used_fallback,
                phase_s=phases,
                degraded_rung=answer.degraded_rung,
                retries=answer.retries,
                backoff_s=answer.backoff_s,
                t=t,
                trace_id=trace_id,
            )
        )
        report.n_queries += 1
        inst = self._inst
        if inst is not None:
            self._publish_query(
                inst, answer, modeled, wall, gpu_s, transfer, phases, t, trace_id
            )

    def _publish_query(
        self,
        inst: ServerInstruments,
        answer: KnnAnswer,
        modeled: float,
        wall: float,
        gpu_s: float,
        transfer: int,
        phases: dict[str, float],
        t: float = 0.0,
        trace_id: str | None = None,
    ) -> None:
        inst.queries.inc()
        inst.query_seconds.observe(modeled, exemplar=trace_id)
        for phase, seconds in phases.items():
            inst.phase_seconds.labels(phase=phase).observe(seconds)
        if gpu_s:
            inst.phase_seconds.labels(phase="gpu_kernel").observe(gpu_s)
            inst.gpu_kernel_seconds.inc(gpu_s)
        if transfer:
            inst.gpu_transfer_bytes.inc(transfer)
        inst.cells_cleaned.inc(answer.cells_cleaned)
        inst.candidates.observe(max(1, answer.candidates))
        if answer.retries:
            inst.retries.inc(answer.retries)
        flight = self.obs.flight
        if answer.degraded_rung:
            inst.degraded.labels(rung=answer.degraded_rung).inc()
            if flight is not None:
                flight.trigger(
                    "fault",
                    detail=f"rung={answer.degraded_rung} trace={trace_id}",
                )
        self._publish_breaker(inst)
        if self.publish_slo:
            inst.slo.record(classify_fanout(1), modeled, t, trace_id=trace_id)
        if answer.used_fallback:
            inst.fallbacks.inc()
            self._fallback_warner.record(
                f"queries fell back to the exact-Dijkstra path on "
                f"{self.index.name!r}",
                detail=f"latest: candidates={answer.candidates}",
            )
        inst.obs.slow_queries.record(
            modeled,
            wall_s=wall,
            phases=phases,
            cells_cleaned=answer.cells_cleaned,
            candidates=answer.candidates,
            unresolved=answer.unresolved,
            used_fallback=answer.used_fallback,
            trace_id=trace_id,
            fanout=1,
        )
        objects = getattr(self.index, "num_objects", None)
        if objects is not None:
            inst.objects.set(objects)
        pending = getattr(self.index, "pending_messages", None)
        if callable(pending):
            inst.backlog.set(pending())

    def _publish_breaker(self, inst: ServerInstruments) -> None:
        """Sample the breaker state gauge; flight-record a fresh open."""
        breaker = getattr(self.index, "breaker", None)
        if breaker is None:
            return
        code = breaker.state_code
        inst.breaker_state.set(code)
        flight = self.obs.flight
        if code == 2 and self._last_breaker != 2 and flight is not None:
            flight.trigger("breaker_open", detail=f"index={self.index.name}")
        self._last_breaker = code

    # ------------------------------------------------------------------
    # workload replay
    # ------------------------------------------------------------------
    def replay(
        self, workload: Workload, collect_answers: bool = False
    ) -> tuple[ReplayReport, list[KnnAnswer]]:
        """Replay a full workload (initial load + merged event stream).

        The initial bulk load counts as updates — the paper's amortised
        metric charges *all* index maintenance to the queries it serves.

        With an enabled :class:`~repro.server.batching.BatchPolicy`
        (``batch_size > 1``) and an index exposing ``knn_batch``,
        consecutive queries accumulate into epochs of up to
        ``batch_size``; any update event flushes the pending epoch
        first, so the index state every query observes — and hence
        every answer — is identical to sequential replay.

        Returns:
            The report and, when ``collect_answers``, the per-query
            answers (for correctness cross-checks).
        """
        batching = self.batch.enabled and hasattr(self.index, "knn_batch")
        return replay_workload(
            self,
            workload,
            ReplayReport(index_name=self.index.name, timing=self.timing),
            self.batch.batch_size if batching else 1,
            collect_answers,
        )


def _run_knn(
    index: KnnIndex,
    queries: list[Query],
    t: float,
    exec_stats: BatchExecStats | None,
) -> list[KnnAnswer]:
    """One epoch's answers: ``knn`` for a lone query, else ``knn_batch``."""
    if exec_stats is None:
        (q,) = queries
        return [index.knn(q.location, q.k, t_now=t)]
    return index.knn_batch(
        [(q.location, q.k) for q in queries], t_now=t, exec_stats=exec_stats
    )


def replay_workload(
    front: "object",
    workload: Workload,
    report: ReplayReport,
    batch_size: int,
    collect_answers: bool = False,
) -> tuple[ReplayReport, list[KnnAnswer]]:
    """The replay loop of :class:`QueryServer` and the cluster router.

    ``front`` exposes ``update``, ``query`` and ``query_batch`` with the
    server's signatures.  Every workload placement and update goes
    through ``front.update``.  With ``batch_size > 1`` consecutive
    queries run as epochs of up to ``batch_size`` through
    ``front.query_batch``, and an update closes the pending epoch;
    otherwise each query goes through ``front.query``.  Answers align
    with query order.
    """
    answers: list[KnnAnswer] = []
    pending: list[Query] = []

    def flush() -> None:
        if pending:
            got = front.query_batch(pending, report)
            if collect_answers:
                answers.extend(got)
            pending.clear()

    for obj, loc in workload.initial.items():
        front.update(Message(obj, loc.edge_id, loc.offset, 0.0), report)
    for kind, event in workload.events():
        if kind == "update":
            if not isinstance(event, Message):
                raise QueryError(
                    f"workload produced an update event that is not a "
                    f"Message: {type(event).__name__}"
                )
            flush()  # updates close the current epoch
            front.update(event, report)
        else:
            if not isinstance(event, Query):
                raise QueryError(
                    f"workload produced a query event that is not a "
                    f"Query: {type(event).__name__}"
                )
            if batch_size > 1:
                pending.append(event)
                if len(pending) >= batch_size:
                    flush()
            else:
                answer = front.query(event, report)
                if collect_answers:
                    answers.append(answer)
    flush()
    return report, answers
