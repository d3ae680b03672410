"""The asyncio multi-tenant front door over a cluster (or single server).

:class:`FrontDoor` is the serving entry point DESIGN.md §14 describes.
It wraps any backend with the :class:`~repro.server.server.QueryServer`
shape (``update(message, report)`` / ``query_batch(queries, report,
trace_parent)`` — a lone server or a
:class:`~repro.cluster.router.ShardRouter`) and adds the multi-tenant
serving concerns the backend deliberately does not know about:

* **admission** — per-tenant token-bucket quotas and priority classes
  (:mod:`repro.serve.tenancy`);
* **deadline budgets** — each admitted query carries a
  :class:`~repro.serve.deadline.RequestContext` (absolute deadline +
  ``traceparent``); a query that cannot meet its budget is shed before
  scatter-gather fan-out;
* **overload control** — the :class:`~repro.serve.shedding.LoadShedder`
  state machine, driven by the modelled backlog and the paid class's
  short-window burn rate, degrading in strict order (reject free tier →
  shrink epochs → brownout the backend's GPU rung);
* **priority lanes** — epochs fill from the paid lane first, FIFO
  within a lane.

Everything is decided on the **modelled clock** (arrival timestamps and
the deterministic :class:`~repro.serve.deadline.ServiceModel`), so a
replay sheds the exact same queries every run — the property the serve
bench scenario's trajectory gate and the chaos-under-load conformance
test both rely on.  The queueing model is open-loop: the front door
keeps a modelled **busy horizon** (``busy_until``); an epoch starts at
``max(t_epoch, busy_until)``, every member completes together when the
epoch's summed service time elapses, and serve latency is completion
minus arrival.  The backlog (``busy_until - now``) is the overload
signal.  Queue delay shapes latency and shedding only — queries still
execute against the index state of their arrival epoch, so admitted
answers stay byte-identical to an unloaded single server's.

The asyncio surface is thin by design: :meth:`FrontDoor.submit_nowait`
is the deterministic synchronous core returning a :class:`ServeTicket`;
:meth:`FrontDoor.submit` awaits the ticket, so concurrent submitting
coroutines park until the epoch that carries their query completes (or
sheds it, raising :class:`~repro.errors.ShedError` at the await site).
"""

from __future__ import annotations

import asyncio
from typing import Any, Sequence

from repro.core.knn import KnnAnswer
from repro.core.messages import Message
from repro.errors import ConfigError, QueryError, ShedError
from repro.mobility.workload import Query
from repro.obs.hub import Observability, default_observability
from repro.obs.metrics import log_scale_buckets
from repro.obs.slo import (
    CLASS_FREE,
    CLASS_PAID,
    CLASS_SUB,
    SERVE_SLO_POLICY,
    SloTracker,
)
from repro.obs.tracing import root_span
from repro.serve.deadline import LatencyEstimator, RequestContext, ServiceModel
from repro.serve.shedding import (
    LEVEL_BROWNOUT,
    SHED_BROWNOUT,
    SHED_DEADLINE,
    LoadShedder,
    ShedPolicy,
    level_name,
)
from repro.serve.tenancy import AdmissionController, TenantPolicy
from repro.server.metrics import ReplayReport, TimingModel


def _trace_id_of(traceparent: str | None) -> str | None:
    """The 32-hex trace id inside an encoded traceparent header."""
    if traceparent is None:
        return None
    return traceparent.split("-")[1]


class ServeInstruments:
    """Metric handles for the front door's serving path, resolved once.

    The ``repro_shed_total{reason,class}`` /
    ``repro_admitted_total{class}`` counters are part of the public
    metrics contract (README.md §Observability): every admission outcome
    lands in exactly one of them.
    """

    def __init__(self, obs: Observability) -> None:
        registry = obs.registry
        self.admitted = registry.counter(
            "repro_admitted_total",
            help="Queries admitted past quota/deadline/overload checks.",
            labelnames=("class",),
        )
        self.shed = registry.counter(
            "repro_shed_total",
            help="Queries shed, by reason (quota|deadline|brownout) "
            "and tenant class.",
            labelnames=("reason", "class"),
        )
        self.backlog = registry.gauge(
            "repro_serve_backlog_seconds",
            help="Modelled backlog: busy horizon minus the arrival clock.",
        ).default()
        self.level = registry.gauge(
            "repro_serve_overload_level",
            help="Overload state-machine level "
            "(0 normal, 1 shed_free, 2 shrink, 3 brownout).",
        ).default()
        self.latency = registry.histogram(
            "repro_serve_latency_seconds",
            help="Modelled serve latency (queue wait + service time), "
            "per tenant class.",
            labelnames=("class",),
            buckets=log_scale_buckets(1e-3, 60.0),
        )
        self.epochs = registry.counter(
            "repro_serve_epochs_total",
            help="Epochs dispatched by the front door.",
        ).default()


class ServeTicket:
    """One admitted query's pending outcome.

    Resolved by the epoch flush that carries the query — with its
    :class:`~repro.core.knn.KnnAnswer`, or with a
    :class:`~repro.errors.ShedError` when the deadline expired while the
    query sat in its lane.  ``await ticket.wait()`` parks a coroutine
    until then; :meth:`result` is the synchronous accessor.
    """

    __slots__ = (
        "query",
        "context",
        "completed_t",
        "_answer",
        "_error",
        "done",
        "_waiters",
    )

    def __init__(self, query: Query, context: RequestContext) -> None:
        self.query = query
        self.context = context
        #: modelled completion time of the epoch that answered this
        #: ticket (``None`` while pending or when shed)
        self.completed_t: float | None = None
        self._answer: KnnAnswer | None = None
        self._error: ShedError | None = None
        self.done = False
        self._waiters: list[asyncio.Future[KnnAnswer]] = []

    def _resolve(self, answer: KnnAnswer) -> None:
        self._answer = answer
        self._finish()

    def _reject(self, error: ShedError) -> None:
        self._error = error
        self._finish()

    def _finish(self) -> None:
        self.done = True
        waiters, self._waiters = self._waiters, []
        for fut in waiters:
            if fut.done():
                continue
            if self._error is not None:
                fut.set_exception(self._error)
            else:
                fut.set_result(self._answer)  # type: ignore[arg-type]

    def result(self) -> KnnAnswer:
        """The answer (raises the ShedError for a ticket shed in-lane).

        Raises:
            QueryError: the ticket is still pending (its epoch has not
                been flushed yet).
        """
        if not self.done:
            raise QueryError(
                "ticket is still pending — flush() or drain() the front door"
            )
        if self._error is not None:
            raise self._error
        assert self._answer is not None
        return self._answer

    async def wait(self) -> KnnAnswer:
        """Await resolution (requires a running event loop)."""
        if self.done:
            return self.result()
        fut: asyncio.Future[KnnAnswer] = (
            asyncio.get_running_loop().create_future()
        )
        self._waiters.append(fut)
        return await fut


class FrontDoor:
    """Admission, deadlines, priority lanes and overload control.

    Args:
        backend: anything with the server shape — ``update(message,
            report)`` and ``query_batch(queries, report, trace_parent=
            None)``.  A ``set_brownout(active)`` method (the cluster
            router) or an ``index`` attribute (a lone server) lets the
            brownout level reach the resilience ladder.
        tenants: the tenant roster (at least one
            :class:`~repro.serve.tenancy.TenantPolicy`).
        batch_size: epoch capacity before overload shrinking; defaults
            to the backend's batch policy (or 8).
        shed_policy: overload thresholds (:class:`ShedPolicy`).
        service_model: deterministic per-answer service seconds.
        estimator: the deadline check's service-time forecast.
        obs: observability bundle (``None`` falls back to the
            process-wide default, like the server and router do).
    """

    def __init__(
        self,
        backend: Any,
        tenants: Sequence[TenantPolicy],
        *,
        batch_size: int | None = None,
        shed_policy: ShedPolicy | None = None,
        service_model: ServiceModel | None = None,
        estimator: LatencyEstimator | None = None,
        obs: Observability | None = None,
    ) -> None:
        for required in ("update", "query_batch"):
            if not callable(getattr(backend, required, None)):
                raise ConfigError(
                    f"front-door backend must provide {required}(); "
                    f"got {type(backend).__name__}"
                )
        self.backend = backend
        if batch_size is None:
            policy = getattr(backend, "batch", None)
            batch_size = getattr(policy, "batch_size", 8)
        if batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
        self.batch_size = batch_size
        self.admission = AdmissionController(list(tenants))
        self.shedder = LoadShedder(shed_policy)
        self.service_model = service_model or ServiceModel()
        self.estimator = estimator or LatencyEstimator()
        self.obs = obs if obs is not None else default_observability()
        self._inst = (
            ServeInstruments(self.obs) if self.obs is not None else None
        )
        registry = self.obs.registry if self.obs is not None else None
        self.slo = SloTracker(SERVE_SLO_POLICY, registry)
        #: the short burn-rate window driving the overload machine
        self._burn_window = SERVE_SLO_POLICY.windows_s[0]
        timing = getattr(backend, "timing", None) or TimingModel()
        #: backend cost accounting — all epochs/updates charge here, so
        #: counter-identity against an unbatched oracle stays checkable
        self.backend_report = ReplayReport(
            index_name=getattr(backend, "name", type(backend).__name__),
            timing=timing,
        )
        #: modelled clocks: the latest arrival seen, and the busy horizon
        self.now = 0.0
        self.busy_until = 0.0
        #: priority lanes (paid drains first), FIFO within a lane
        self._lanes: dict[str, list[ServeTicket]] = {
            CLASS_PAID: [],
            CLASS_FREE: [],
        }
        self._brownout_applied = False
        #: what actually executed, in order — the oracle replays this
        #: (``("update", message)`` / ``("query", query, t_epoch)``)
        self.execution_log: list[tuple[Any, ...]] = []
        #: the served answers, aligned with the log's query entries (the
        #: harness compares these against the oracle's)
        self.answers: list[KnnAnswer] = []
        # -- deterministic outcome counters (the bench scenario's rows)
        self.admitted: dict[str, int] = {}
        self.shed: dict[tuple[str, str], int] = {}
        self.epochs = 0
        self.shrunk_epochs = 0
        self.brownout_epochs = 0
        self.max_level = 0
        #: the third request shape (DESIGN.md §15): subscription refresh
        #: ticks priced on the same busy horizon as interactive epochs
        self.subscriptions = None
        self.sub_ticks = 0
        self.sub_refreshes = 0

    # ------------------------------------------------------------------
    # admission (the synchronous deterministic core)
    # ------------------------------------------------------------------
    def submit_nowait(self, tenant: str, q: Query) -> ServeTicket:
        """Admit (or shed) one query at its arrival time ``q.t``.

        The shed order is checked exactly as DESIGN.md §14 lists it:
        overload class shed, then quota, then deadline.  An admitted
        query joins its class lane; when the pending count reaches the
        (possibly shrunk) epoch size the epoch flushes inline.

        Raises:
            ShedError: reason ``"brownout"`` (free tier under overload),
                ``"quota"`` (empty token bucket) or ``"deadline"`` (the
                budget cannot cover the predicted queue wait).
        """
        now = q.t
        self.now = max(self.now, now)
        self._assess(now)
        policy = self.admission.policy(tenant)
        cls = policy.tenant_class
        try:
            if self.shedder.shedding_free and cls == CLASS_FREE:
                raise ShedError(tenant, cls, SHED_BROWNOUT)
            self.admission.admit(tenant, now)
            deadline_t = now + policy.deadline_s
            queued = self._pending_count()
            predicted = (
                max(now, self.busy_until)
                + (queued + 1) * self.estimator.estimate(cls)
            )
            if predicted > deadline_t:
                raise ShedError(tenant, cls, SHED_DEADLINE)
        except ShedError as err:
            self._count_shed(err)
            raise
        context = RequestContext(
            tenant, cls, deadline_t, traceparent=self._request_trace(tenant, q)
        )
        ticket = ServeTicket(q, context)
        self._lanes[cls].append(ticket)
        self.admitted[cls] = self.admitted.get(cls, 0) + 1
        if self._inst is not None:
            self._inst.admitted.labels(**{"class": cls}).inc()
        if self._pending_count() >= self.shedder.effective_batch_size(
            self.batch_size
        ):
            self.flush()
        return ticket

    def _request_trace(self, tenant: str, q: Query) -> str | None:
        """Open (and immediately close) the request's admission span;
        its encoded context rides the :class:`RequestContext` so the
        epoch that executes the query can join the request's trace."""
        tracer = self.obs.tracer if self.obs is not None else None
        with root_span(
            tracer, "serve.request", {"tenant": tenant, "k": q.k, "t": q.t}
        ) as sp:
            return sp.traceparent

    def _count_shed(self, err: ShedError) -> None:
        key = (err.reason, err.tenant_class)
        self.shed[key] = self.shed.get(key, 0) + 1
        if self._inst is not None:
            self._inst.shed.labels(
                **{"reason": err.reason, "class": err.tenant_class}
            ).inc()

    def _pending_count(self) -> int:
        return sum(len(lane) for lane in self._lanes.values())

    # ------------------------------------------------------------------
    # overload assessment
    # ------------------------------------------------------------------
    def backlog_s(self, now: float) -> float:
        """Modelled backlog delay at ``now`` (0 when the backend is idle)."""
        return max(0.0, self.busy_until - now)

    def _assess(self, now: float) -> int:
        backlog = self.backlog_s(now)
        burn = self.slo.burn_rate(CLASS_PAID, self._burn_window)
        level = self.shedder.assess(backlog, burn)
        self.max_level = max(self.max_level, level)
        browned = self.shedder.browned_out
        if browned != self._brownout_applied:
            self._apply_brownout(browned)
        if self._inst is not None:
            self._inst.backlog.set(backlog)
            self._inst.level.set(level)
        return level

    def _apply_brownout(self, active: bool) -> None:
        self._brownout_applied = active
        planner = getattr(self.backend, "planner", None)
        if planner is not None:
            # the adaptive planner pins queries to the primary during an
            # overload episode (no speculative TEN rebuilds; DESIGN.md §17)
            planner.set_brownout(active)
        setter = getattr(self.backend, "set_brownout", None)
        if callable(setter):
            setter(active)
            return
        index = getattr(self.backend, "index", None)
        if index is not None:
            index.brownout = active

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def update(self, message: Message) -> None:
        """Route one location update (updates close the current epoch,
        the same ordering contract the server's replay keeps)."""
        self.flush()
        self.now = max(self.now, message.t)
        self.backend.update(message, self.backend_report)
        self.execution_log.append(("update", message))

    # ------------------------------------------------------------------
    # subscription ticks (the third request shape, DESIGN.md §15)
    # ------------------------------------------------------------------
    def attach_subscriptions(self, manager: Any) -> None:
        """Register a standing-query layer whose ticks this front door
        prices.  The manager must wrap the *same* backend — its refresh
        queries have to observe the index state the admitted epochs do."""
        if getattr(manager, "backend", None) is not self.backend:
            raise ConfigError(
                "subscription manager must wrap the front door's backend"
            )
        self.subscriptions = manager

    def tick(self, t_now: float):
        """Run one subscription refresh tick behind interactive traffic.

        Pending epochs flush first (the same updates-close-epochs
        ordering contract), then the attached manager refreshes its
        dirty subscribers at ``t_now``.  The refresh work joins the
        modelled queue: it starts no earlier than the busy horizon,
        advances it by the summed service time of the refresh answers,
        and each refreshed subscriber scores one ``sub``-class SLO
        sample (latency = completion minus tick arrival).
        """
        if self.subscriptions is None:
            raise ConfigError(
                "no subscription manager attached; call "
                "attach_subscriptions() first"
            )
        self.flush()
        self.now = max(self.now, t_now)
        self._assess(self.now)
        result = self.subscriptions.tick(self.now)
        self.sub_ticks += 1
        self.sub_refreshes += len(result.refreshed)
        if result.refreshed:
            t_start = max(self.now, self.busy_until)
            completion = t_start + sum(
                self.service_model.service_s(a) for a in result.answers
            )
            self.busy_until = completion
            latency = completion - self.now
            for _ in result.refreshed:
                self.slo.record(CLASS_SUB, latency, completion)
                if self._inst is not None:
                    self._inst.latency.labels(
                        **{"class": CLASS_SUB}
                    ).observe(latency)
        return result

    # ------------------------------------------------------------------
    # epoch dispatch
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Dispatch every pending query, one epoch at a time.

        Each epoch fills from the paid lane first, up to the overload
        machine's effective epoch size.  A member whose deadline has
        already expired when the epoch would start is shed *before*
        dispatch — the batch executes without it, so batch cost
        attribution is identical to a batch that never contained it.
        """
        while self._pending_count():
            self._run_epoch(self._take_epoch())

    def _take_epoch(self) -> list[ServeTicket]:
        size = self.shedder.effective_batch_size(self.batch_size)
        if size < self.batch_size:
            self.shrunk_epochs += 1
        members: list[ServeTicket] = []
        for cls in (CLASS_PAID, CLASS_FREE):
            lane = self._lanes[cls]
            while lane and len(members) < size:
                members.append(lane.pop(0))
        return members

    def _run_epoch(self, members: list[ServeTicket]) -> None:
        t_epoch = max(m.query.t for m in members)
        t_start = max(t_epoch, self.busy_until)
        ready: list[ServeTicket] = []
        for m in members:
            context = m.context
            if context.deadline_t < t_start:
                # the deadline expired while the query sat in its lane:
                # shed it now, run the epoch without it
                err = ShedError(
                    context.tenant, context.tenant_class, SHED_DEADLINE
                )
                self._count_shed(err)
                m._reject(err)
            else:
                ready.append(m)
        if not ready:
            return
        queries = [m.query for m in ready]
        # the epoch joins the oldest member's request trace (one parent
        # per tree); the other members' request spans stand alone
        trace_parent = ready[0].context.traceparent
        answers = self.backend.query_batch(
            queries, self.backend_report, trace_parent=trace_parent
        )
        service = [self.service_model.service_s(a) for a in answers]
        completion = t_start + sum(service)
        self.busy_until = completion
        self.epochs += 1
        if self.shedder.browned_out:
            self.brownout_epochs += 1
        for m, answer, service_s in zip(ready, answers, service):
            context = m.context
            m.completed_t = completion
            latency = completion - m.query.t
            self.slo.record(
                context.tenant_class,
                latency,
                completion,
                trace_id=_trace_id_of(context.traceparent),
            )
            self.estimator.observe(context.tenant_class, service_s)
            if self._inst is not None:
                self._inst.latency.labels(
                    **{"class": context.tenant_class}
                ).observe(latency)
            self.execution_log.append(("query", m.query, t_epoch))
            self.answers.append(answer)
            m._resolve(answer)
        if self._inst is not None:
            self._inst.epochs.inc()

    def drain(self) -> None:
        """Flush everything still pending (end of a replay)."""
        self.flush()

    # ------------------------------------------------------------------
    # the asyncio surface
    # ------------------------------------------------------------------
    async def submit(self, tenant: str, q: Query) -> KnnAnswer:
        """Admit one query and await its answer.

        A shed query raises :class:`~repro.errors.ShedError` here —
        either immediately (quota/deadline/overload at admission) or at
        epoch time (deadline expired in the lane).
        """
        ticket = self.submit_nowait(tenant, q)
        return await ticket.wait()

    async def submit_update(self, message: Message) -> None:
        """Async counterpart of :meth:`update`."""
        self.update(message)
        await asyncio.sleep(0)

    async def drain_async(self) -> None:
        """Async counterpart of :meth:`drain`."""
        self.drain()
        await asyncio.sleep(0)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def overload_summary(self) -> dict[str, Any]:
        """Deterministic serving outcome (the bench row's raw material)."""
        return {
            "admitted": dict(sorted(self.admitted.items())),
            "shed": {
                f"{reason}:{cls}": n
                for (reason, cls), n in sorted(self.shed.items())
            },
            "epochs": self.epochs,
            "shrunk_epochs": self.shrunk_epochs,
            "brownout_epochs": self.brownout_epochs,
            "max_level": self.max_level,
            "max_level_name": level_name(self.max_level),
            "level_transitions": {
                f"{level_name(a)}->{level_name(b)}": n
                for (a, b), n in sorted(self.shedder.transitions.items())
            },
            "slo": self.slo.report(),
            "plan": (
                self.backend.planner.summary()
                if getattr(self.backend, "planner", None) is not None
                else None
            ),
        }
