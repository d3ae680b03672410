"""Overload-under-chaos serve replays with a single-server oracle.

:func:`run_serve_replay` is the front door's end-to-end proof harness —
the serving analogue of :func:`~repro.chaos.harness.run_chaos_replay`.
It drives a generated multi-tenant arrival schedule (optionally at a
deliberate overload factor, optionally under a chaos
:class:`~repro.chaos.plan.FaultPlan`) through a
:class:`~repro.serve.frontdoor.FrontDoor` over a sharded cluster, then
replays the front door's execution log on a *fresh, fault-free, single*
G-Grid index and compares every admitted answer.  The contract it
encodes is graceful degradation:

* the replay **completes** under overload and faults — nothing leaks
  past admission control and the resilience ladder;
* a shed query is only ever **rejected**
  (:class:`~repro.errors.ShedError` with a reason), never answered
  wrongly — admitted answers are byte-identical to the oracle's;
* the paid tier's SLO **holds** while the free tier absorbs the
  shedding (the acceptance criterion the serve bench row gates);
* the run is **deterministic** — same seeds, same shed decisions, same
  report.

:func:`drive` is the replay loop itself, in open-loop (the schedule is
offered as generated — overload possible) or closed-loop form (a tenant
with an outstanding request stays quiet, so demand self-throttles —
the classic closed-loop blind spot the open-loop generator exists to
avoid).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.chaos.hub import chaos_context
from repro.chaos.plan import FaultPlan
from repro.config import GGridConfig
from repro.core.ggrid import GGridIndex
from repro.core.knn import KnnAnswer
from repro.core.messages import Message
from repro.core.ordering import answer_mismatches
from repro.errors import ShedError
from repro.obs.hub import Observability
from repro.obs.slo import CLASS_FREE, CLASS_PAID
from repro.roadnet.datasets import load_dataset
from repro.roadnet.graph import RoadNetwork
from repro.serve.deadline import ServiceModel
from repro.serve.frontdoor import FrontDoor, ServeTicket
from repro.serve.loadgen import (
    ArrivalProfile,
    ServeWorkload,
    TenantSpec,
    diurnal_profile,
    make_serve_workload,
)
from repro.serve.shedding import ShedPolicy
from repro.serve.tenancy import TenantPolicy
from repro.server.metrics import TimingModel


#: The graceful-degradation acceptance configuration (the serve bench
#: scenario and the overload-chaos conformance test share it): a
#: diurnal rush over a modelled backend slow enough that 2x offered
#: load genuinely exceeds capacity, with shed thresholds placed well
#: under the paid latency objective so overload control engages before
#: the paid tier's budget is at risk.
OVERLOAD_PROFILE = "mixed"
OVERLOAD_FACTOR = 2.0


def overload_proof_kwargs() -> dict[str, Any]:
    """Keyword arguments for the canonical 2x-overload proof replay."""
    return {
        "tenants": overload_tenants(),
        "profile": diurnal_profile(40.0, peak=3.0),
        "overload": OVERLOAD_FACTOR,
        "num_objects": 48,
        "update_frequency": 0.25,
        "service_model": ServiceModel(base_s=0.02),
        "shed_policy": ShedPolicy(
            shed_free_backlog_s=0.1,
            shrink_backlog_s=0.3,
            brownout_backlog_s=0.8,
        ),
    }


def run_overload_proof(
    plan: FaultPlan | None = None, **overrides: Any
) -> ServeReport:
    """Run the acceptance replay: 2x diurnal overload, optional chaos.

    Callers assert :attr:`ServeReport.paid_slo_met`,
    :attr:`ServeReport.answers_match` and a non-empty shed ledger.
    """
    kwargs = overload_proof_kwargs()
    kwargs.update(overrides)
    return run_serve_replay(plan, **kwargs)


def overload_tenants() -> list[TenantSpec]:
    """The proof roster: free demand dominates, so class shedding can
    bring the cluster back under capacity without touching paid."""
    return [
        TenantSpec(
            TenantPolicy("acme", CLASS_PAID, rate=200.0, burst=50.0,
                         deadline_s=2.0),
            rate=2.0,
        ),
        TenantSpec(
            TenantPolicy("globex", CLASS_PAID, rate=200.0, burst=50.0,
                         deadline_s=2.0),
            rate=1.0,
        ),
        TenantSpec(
            TenantPolicy("hobby", CLASS_FREE, rate=50.0, burst=10.0,
                         deadline_s=4.0),
            rate=4.0,
        ),
        TenantSpec(
            TenantPolicy("trial", CLASS_FREE, rate=50.0, burst=10.0,
                         deadline_s=4.0),
            rate=2.0,
        ),
    ]


def default_tenants() -> list[TenantSpec]:
    """The standard serve roster: two paid tenants, two free."""
    return [
        TenantSpec(
            TenantPolicy("acme", CLASS_PAID, rate=200.0, burst=50.0,
                         deadline_s=2.0),
            rate=2.0,
        ),
        TenantSpec(
            TenantPolicy("globex", CLASS_PAID, rate=200.0, burst=50.0,
                         deadline_s=2.0),
            rate=1.0,
        ),
        TenantSpec(
            TenantPolicy("hobby", CLASS_FREE, rate=50.0, burst=10.0,
                         deadline_s=4.0),
            rate=2.0,
        ),
        TenantSpec(
            TenantPolicy("trial", CLASS_FREE, rate=50.0, burst=10.0,
                         deadline_s=4.0),
            rate=1.0,
        ),
    ]


@dataclass
class ServeReport:
    """Outcome of one front-door replay plus its oracle comparison."""

    overload: float
    closed_loop: bool
    n_updates: int
    n_arrivals: int
    #: closed-loop only: scheduled arrivals suppressed because the
    #: tenant's previous request was still outstanding
    suppressed: int
    #: the front door's deterministic serving outcome
    #: (:meth:`~repro.serve.frontdoor.FrontDoor.overload_summary`)
    summary: dict[str, Any]
    #: log positions whose answer differed from the single-server oracle
    mismatches: list[int] = field(default_factory=list)
    faults_injected: dict[str, int] = field(default_factory=dict)
    breaker_trips: int = 0
    plan_seed: int | None = None

    @property
    def answers_match(self) -> bool:
        return not self.mismatches

    @property
    def paid_slo_met(self) -> bool:
        paid = self.summary["slo"].get(CLASS_PAID)
        return True if paid is None else bool(paid["met"])

    def shed_total(self) -> int:
        return sum(self.summary["shed"].values())

    def as_dict(self) -> dict[str, Any]:
        """The deterministic summary (modelled-clock quantities only)."""
        return {
            "overload": self.overload,
            "closed_loop": self.closed_loop,
            "plan_seed": self.plan_seed,
            "n_updates": self.n_updates,
            "n_arrivals": self.n_arrivals,
            "suppressed": self.suppressed,
            "answers_match": self.answers_match,
            "mismatches": list(self.mismatches),
            "paid_slo_met": self.paid_slo_met,
            "faults_injected": dict(sorted(self.faults_injected.items())),
            "breaker_trips": self.breaker_trips,
            **self.summary,
        }


def drive(
    front: FrontDoor, workload: ServeWorkload, closed_loop: bool = False
) -> tuple[list[ServeTicket | ShedError], int]:
    """Replay one serve workload through a front door.

    Initial placements load first (as t=0 updates, the workload replay
    convention), then events run in time order with update-first ties.
    Open-loop offers every arrival; closed-loop suppresses an arrival
    whose tenant still has a request outstanding (or one completing
    after the scheduled time) — one virtual user per tenant.

    Returns:
        ``(outcomes, suppressed)`` — one
        :class:`~repro.serve.frontdoor.ServeTicket` or admission-time
        :class:`~repro.errors.ShedError` per offered arrival, plus the
        closed-loop suppression count.
    """
    outcomes: list[ServeTicket | ShedError] = []
    outstanding: dict[str, ServeTicket] = {}
    suppressed = 0
    for obj in sorted(workload.initial):
        loc = workload.initial[obj]
        front.update(Message(obj, loc.edge_id, loc.offset, 0.0))
    for kind, event in workload.events():
        if kind == "update":
            front.update(event)  # type: ignore[arg-type]
            continue
        arrival = event  # type: ignore[assignment]
        if closed_loop:
            previous = outstanding.get(arrival.tenant)
            if previous is not None and (
                not previous.done
                or (
                    previous.completed_t is not None
                    and previous.completed_t > arrival.t
                )
            ):
                suppressed += 1
                continue
        try:
            ticket = front.submit_nowait(arrival.tenant, arrival.query)
        except ShedError as err:
            outcomes.append(err)
            continue
        outcomes.append(ticket)
        if closed_loop:
            outstanding[arrival.tenant] = ticket
    front.drain()
    return outcomes, suppressed


def replay_oracle(
    graph: RoadNetwork,
    execution_log: list[tuple[Any, ...]],
    config: GGridConfig | None = None,
) -> list[KnnAnswer]:
    """Re-execute a front door's log on a fresh fault-free single index.

    The log holds exactly what the front door asked its backend to do —
    ``("update", message)`` and ``("query", query, t_epoch)`` entries in
    execution order (shed queries never appear).  Sequential execution
    on one unsharded index is the reference the batching and cluster
    conformance suites are already pinned to, so its answers are the
    ground truth for "admitted answers are never wrong".

    Returns:
        The oracle's answer for each query entry, in log order.
    """
    index = GGridIndex(graph, config)
    answers: list[KnnAnswer] = []
    for entry in execution_log:
        if entry[0] == "update":
            index.ingest(entry[1])
        else:
            _, q, t_epoch = entry
            answers.append(index.knn(q.location, q.k, t_now=t_epoch))
    return answers


def run_serve_replay(
    plan: FaultPlan | None = None,
    dataset: str = "NY",
    *,
    tenants: list[TenantSpec] | None = None,
    profile: ArrivalProfile | None = None,
    overload: float = 1.0,
    closed_loop: bool = False,
    num_objects: int = 48,
    update_frequency: float = 0.5,
    num_shards: int = 2,
    batch_size: int | None = None,
    shed_policy: ShedPolicy | None = None,
    service_model: ServiceModel | None = None,
    workload_seed: int = 7,
    config: GGridConfig | None = None,
    timing: TimingModel | None = None,
    obs: Observability | None = None,
) -> ServeReport:
    """Drive one serve workload and prove graceful degradation.

    The serving stack (cluster + front door) runs under ``plan`` (when
    given) at ``overload`` times the roster's base arrival rates; the
    oracle replay runs *outside* the chaos context on a fresh single
    index, so injected faults can never leak into the reference answers.

    Returns:
        A :class:`ServeReport`; callers assert on
        :attr:`ServeReport.answers_match`,
        :attr:`ServeReport.paid_slo_met` and the shed counters.
    """
    from repro.cluster.router import ShardRouter

    graph = load_dataset(dataset)
    roster = tenants if tenants is not None else default_tenants()
    workload = make_serve_workload(
        graph,
        roster,
        num_objects=num_objects,
        profile=profile,
        update_frequency=update_frequency,
        overload=overload,
        seed=workload_seed,
    )

    def serve() -> tuple[FrontDoor, dict[str, int], int, int]:
        with ShardRouter(
            graph,
            config,
            num_shards=num_shards,
            timing=timing,
            obs=obs,
            replicas=False,
        ) as router:
            front = FrontDoor(
                router,
                [spec.policy for spec in roster],
                batch_size=batch_size,
                shed_policy=shed_policy,
                service_model=service_model,
                obs=obs,
            )
            _, suppressed = drive(front, workload, closed_loop)
            faults: dict[str, int] = {}
            trips = 0
            for shard in router.shards.values():
                injector = shard.index.fault_injector
                if injector is not None:
                    for kind, count in injector.counts.items():
                        faults[kind] = faults.get(kind, 0) + count
                trips += shard.index.breaker.trips
            return front, faults, trips, suppressed

    if plan is not None:
        with chaos_context(plan):
            front, faults, trips, suppressed = serve()
    else:
        front, faults, trips, suppressed = serve()

    oracle = replay_oracle(graph, front.execution_log, config)
    mismatches = answer_mismatches(front.answers, oracle)
    return ServeReport(
        overload=overload,
        closed_loop=closed_loop,
        n_updates=workload.num_updates + len(workload.initial),
        n_arrivals=workload.num_arrivals,
        suppressed=suppressed,
        summary=front.overload_summary(),
        mismatches=mismatches,
        faults_injected=faults,
        breaker_trips=trips,
        plan_seed=plan.seed if plan is not None else None,
    )
