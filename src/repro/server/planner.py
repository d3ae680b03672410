"""Capacity planning from the Section VI cost model.

Section II: "The value of t_delta is constrained by the processing power
of the server."  This module turns that sentence into a tool: given a
deployment's workload parameters (object count, update frequency, query
rate, k) and the calibrated per-operation costs, it predicts server
utilisation and answers the planning questions —

* can this server keep up with the update stream and query rate?
* what is the highest update frequency (smallest t_delta) it supports?
* how many queries per second fit next to a given update stream?

The per-operation constants default to the same
:class:`~repro.server.metrics.TimingModel` /
:class:`~repro.simgpu.device.CostModel` values the benchmarks use, so
planner predictions are consistent with replayed measurements (tested in
``tests/server/test_planner.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.core import costmodel
from repro.errors import ConfigError
from repro.server.metrics import TimingModel
from repro.simgpu.device import CostModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.server.metrics import ReplayReport


@dataclass(frozen=True)
class WorkloadSpec:
    """A deployment's workload parameters."""

    num_objects: int
    update_frequency_hz: float
    queries_per_second: float
    k: int = 16
    rho: float = 1.8
    delta_b: int = 128
    eta: int = 5
    delta_v: int = 2

    def __post_init__(self) -> None:
        if self.num_objects < 1:
            raise ConfigError("num_objects must be >= 1")
        if self.update_frequency_hz <= 0 or self.queries_per_second <= 0:
            raise ConfigError("rates must be positive")
        if self.k < 1:
            raise ConfigError("k must be >= 1")

    @property
    def updates_per_second(self) -> float:
        return self.num_objects * self.update_frequency_hz


@dataclass(frozen=True)
class CapacityReport:
    """Planner output: per-second time budgets and the verdict."""

    update_cpu_s_per_s: float
    query_gpu_s_per_s: float
    query_cpu_s_per_s: float
    transfer_bytes_per_s: float
    utilization: float
    sustainable: bool
    max_update_frequency_hz: float
    max_queries_per_second: float


@dataclass(frozen=True)
class CalibratedCosts:
    """Per-operation costs measured from one replayed workload.

    :func:`calibrate` derives these from a
    :class:`~repro.server.metrics.ReplayReport` so downstream planners
    (the capacity planner here, the adaptive
    :class:`~repro.plan.planner.QueryPlanner`) consume *observed*
    constants instead of hand-copied ``TimingModel`` / ``CostModel``
    defaults.  ``touches_per_update`` and ``query_gpu_seconds`` are
    deterministic (op counts and simulated device time); the CPU term is
    modelled from measured wall time and marked as such.
    """

    touches_per_update: float
    query_gpu_seconds: float
    #: modelled CPU seconds per query (wall-derived — informational,
    #: replay-deterministic planners must not branch on it)
    query_cpu_seconds: float
    touch_cost_s: float = TimingModel.touch_cost_s

    def update_seconds(self) -> float:
        """Deterministic modelled CPU seconds per update."""
        return self.touches_per_update * self.touch_cost_s

    def query_seconds(self) -> float:
        """Modelled seconds per query (GPU + CPU terms)."""
        return self.query_gpu_seconds + self.query_cpu_seconds

    def utilization(
        self, updates_per_second: float, queries_per_second: float
    ) -> float:
        """Predicted seconds-of-work per second at the given rates."""
        return (
            updates_per_second * self.update_seconds()
            + queries_per_second * self.query_seconds()
        )


def calibrate(
    report: "ReplayReport", timing: TimingModel | None = None
) -> CalibratedCosts:
    """Measure per-operation costs from a replayed report.

    The single helper both planners consume (tested against replayed
    utilisation in ``tests/server/test_planner.py``): updates cost what
    the index actually touched, queries cost what the simulated device
    actually spent — no hand-copied constants.
    """
    timing = timing or report.timing
    n_updates = max(1, report.n_updates)
    n_queries = max(1, report.n_queries)
    query_gpu_s = sum(r.gpu_s for r in report.query_records)
    query_cpu_s = report.query_modeled_s - query_gpu_s
    return CalibratedCosts(
        touches_per_update=report.update_touches / n_updates,
        query_gpu_seconds=query_gpu_s / n_queries,
        query_cpu_seconds=max(0.0, query_cpu_s) / n_queries,
        touch_cost_s=timing.touch_cost_s,
    )


class CapacityPlanner:
    """Predicts utilisation from the closed-form cost model."""

    #: cached updates per ingested message (G-Grid touches 2-3 entries);
    #: the analytic default — :meth:`calibrated` replaces it with the
    #: replay-measured ratio
    TOUCHES_PER_UPDATE = 3

    def __init__(
        self,
        timing: TimingModel | None = None,
        gpu: CostModel | None = None,
        touches_per_update: float | None = None,
    ) -> None:
        self.timing = timing or TimingModel()
        self.gpu = gpu or CostModel()
        self.touches_per_update = (
            self.TOUCHES_PER_UPDATE
            if touches_per_update is None
            else touches_per_update
        )

    @classmethod
    def calibrated(
        cls,
        report: "ReplayReport",
        timing: TimingModel | None = None,
        gpu: CostModel | None = None,
    ) -> "CapacityPlanner":
        """A planner whose update cost comes from a replayed report."""
        costs = calibrate(report, timing=timing)
        return cls(
            timing=timing, gpu=gpu, touches_per_update=costs.touches_per_update
        )

    # ------------------------------------------------------------------
    # component estimates (per event)
    # ------------------------------------------------------------------
    def update_seconds(self, spec: WorkloadSpec) -> float:
        """CPU time to cache one update (lazy: a few touches)."""
        return self.touches_per_update * self.timing.touch_cost_s

    def query_gpu_seconds(self, spec: WorkloadSpec) -> float:
        """Simulated GPU time for one query: transfers + cleaning +
        candidate kernels, from the Section VI bounds."""
        f_delta = spec.update_frequency_hz
        transfer = self.gpu.transfer_time(
            int(costmodel.transfer_bytes_bound(f_delta, spec.rho, spec.k))
        )
        cleaning_ops = costmodel.cleaning_ops_bound(
            spec.delta_b, spec.eta, f_delta, spec.rho, spec.k
        )
        candidate_ops = costmodel.candidate_ops_bound(spec.rho, spec.k, spec.delta_v)
        threads = max(1.0, f_delta * spec.rho * spec.k / spec.delta_b)
        kernel = self.gpu.op_time(int(threads), cleaning_ops) + self.gpu.op_time(
            int(spec.rho * spec.k), candidate_ops
        )
        return transfer + kernel + 3 * self.gpu.kernel_launch_time_s

    def query_cpu_seconds(self, spec: WorkloadSpec) -> float:
        """Modelled CPU refinement time for one query (Section VI-B2)."""
        ops = costmodel.refine_ops_bound(4.0, spec.rho, spec.k)
        # ops are Dijkstra settles; cost one touch each, spread over workers
        return (
            ops
            * self.timing.touch_cost_s
            / max(1, self.timing.cpu_workers)
        )

    def query_seconds(self, spec: WorkloadSpec) -> float:
        """Modelled seconds for one query (GPU + CPU terms)."""
        return self.query_gpu_seconds(spec) + self.query_cpu_seconds(spec)

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def plan(self, spec: WorkloadSpec) -> CapacityReport:
        """Utilisation and headroom for a workload spec."""
        upd = spec.updates_per_second * self.update_seconds(spec)
        q_gpu = spec.queries_per_second * self.query_gpu_seconds(spec)
        q_cpu = spec.queries_per_second * self.query_cpu_seconds(spec)
        transfer_rate = spec.queries_per_second * costmodel.transfer_bytes_bound(
            spec.update_frequency_hz, spec.rho, spec.k
        )
        utilization = upd + q_cpu + q_gpu  # seconds of work per second
        return CapacityReport(
            update_cpu_s_per_s=upd,
            query_gpu_s_per_s=q_gpu,
            query_cpu_s_per_s=q_cpu,
            transfer_bytes_per_s=transfer_rate,
            utilization=utilization,
            sustainable=utilization < 1.0,
            max_update_frequency_hz=self._max_frequency(spec),
            max_queries_per_second=self._max_query_rate(spec),
        )

    def _max_frequency(self, spec: WorkloadSpec) -> float:
        """Bisect the highest sustainable update frequency."""
        lo, hi = 0.0, 1.0
        while self._utilization_at(spec, frequency=hi) < 1.0 and hi < 1e9:
            hi *= 2
        for _ in range(60):
            mid = (lo + hi) / 2
            if self._utilization_at(spec, frequency=mid) < 1.0:
                lo = mid
            else:
                hi = mid
        return lo

    def _max_query_rate(self, spec: WorkloadSpec) -> float:
        base = spec.updates_per_second * self.update_seconds(spec)
        per_query = self.query_seconds(spec)
        headroom = max(0.0, 1.0 - base)
        return headroom / per_query if per_query > 0 else float("inf")

    def _utilization_at(self, spec: WorkloadSpec, frequency: float) -> float:
        if frequency <= 0:
            return 0.0
        return self.plan_utilization(replace(spec, update_frequency_hz=frequency))

    def plan_utilization(self, spec: WorkloadSpec) -> float:
        upd = spec.updates_per_second * self.update_seconds(spec)
        return upd + spec.queries_per_second * self.query_seconds(spec)
