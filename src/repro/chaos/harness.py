"""End-to-end chaos replays with a built-in correctness oracle.

:func:`run_chaos_replay` replays one generated workload twice over fresh
G-Grid indexes — once fault-free, once under a
:class:`~repro.chaos.plan.FaultPlan` — and compares every kNN answer.
This is the harness behind ``python -m repro.bench --chaos`` and the
chaos test suite, and it encodes the subsystem's whole contract:

* the replay under faults **completes** (no uncaught exceptions — the
  resilience ladder absorbs every injected device error);
* every answer is **exact** (identical result distances to the
  fault-free replay — degradation trades latency, never correctness);
* the run is **deterministic** (same plan seed, same workload seed →
  the same faults, the same rungs, the same report).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chaos.hub import chaos_context
from repro.chaos.plan import FaultPlan
from repro.config import GGridConfig
from repro.core.ggrid import GGridIndex
from repro.core.ordering import answer_mismatches
from repro.mobility.workload import make_workload
from repro.roadnet.datasets import load_dataset
from repro.server.metrics import ReplayReport, TimingModel
from repro.server.server import QueryServer


@dataclass
class ChaosReport:
    """Outcome of one chaos-vs-baseline replay pair."""

    plan: FaultPlan
    baseline: ReplayReport
    chaos: ReplayReport
    #: faults the injector actually fired, by kind (empty dict when the
    #: plan injects no device faults)
    faults_injected: dict[str, int] = field(default_factory=dict)
    #: query indices whose chaos answer differed from the baseline
    mismatches: list[int] = field(default_factory=list)
    breaker_trips: int = 0

    @property
    def total_faults(self) -> int:
        return sum(self.faults_injected.values())

    @property
    def answers_match(self) -> bool:
        return not self.mismatches

    def as_dict(self) -> dict[str, object]:
        """The deterministic summary (no wall-clock-derived fields) —
        byte-identical across runs with the same seeds."""
        return {
            "profile_seed": self.plan.seed,
            "faults_injected": dict(sorted(self.faults_injected.items())),
            "total_faults": self.total_faults,
            "answers_match": self.answers_match,
            "mismatches": list(self.mismatches),
            "breaker_trips": self.breaker_trips,
            "n_queries": self.chaos.n_queries,
            "n_updates": self.chaos.n_updates,
            "retried_queries": self.chaos.retried_queries,
            "total_retries": self.chaos.total_retries,
            "degraded_queries": self.chaos.degraded_queries,
            "degraded_by_rung": self.chaos.degraded_by_rung(),
            "query_backoff_s": self.chaos.query_backoff_s,
            "updates_backpressured": self.chaos.updates_backpressured,
            "update_backoff_s": self.chaos.update_backoff_s,
        }


def run_chaos_replay(
    plan: FaultPlan,
    dataset: str = "NY",
    *,
    k: int = 8,
    num_objects: int = 60,
    duration: float = 20.0,
    num_queries: int = 10,
    update_frequency: float = 1.0,
    workload_seed: int = 7,
    config: GGridConfig | None = None,
    timing: TimingModel | None = None,
) -> ChaosReport:
    """Replay one workload fault-free and under ``plan``; compare.

    Both replays use *fresh* indexes (never the benchmark harness's
    cached ones) so the baseline is untouched by the plan and the chaos
    index picks the plan up at construction.

    Returns:
        A :class:`ChaosReport`; callers assert on
        :attr:`ChaosReport.answers_match` and the fault/degradation
        counters.
    """
    graph = load_dataset(dataset)
    workload = make_workload(
        graph,
        num_objects=num_objects,
        duration=duration,
        num_queries=num_queries,
        k=k,
        update_frequency=update_frequency,
        seed=workload_seed,
    )

    baseline_index = GGridIndex(graph, config)
    baseline_report, baseline_answers = QueryServer(
        baseline_index, timing
    ).replay(workload, collect_answers=True)

    with chaos_context(plan):
        chaos_index = GGridIndex(graph, config)
        chaos_report, chaos_answers = QueryServer(chaos_index, timing).replay(
            workload, collect_answers=True
        )
        injector = chaos_index.fault_injector
        faults = dict(injector.counts) if injector is not None else {}
        trips = chaos_index.breaker.trips

    mismatches = answer_mismatches(chaos_answers, baseline_answers)
    return ChaosReport(
        plan=plan,
        baseline=baseline_report,
        chaos=chaos_report,
        faults_injected=faults,
        mismatches=mismatches,
        breaker_trips=trips,
    )
