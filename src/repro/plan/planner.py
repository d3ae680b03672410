"""The cost-model-driven adaptive query planner.

FliX (PAPERS.md) argues the right index depends on the update:query mix;
this planner turns that into a per-query decision between the primary
G-Grid index and the TEN materialized-list foil, driven by:

* **online rate estimates** — exponentially decayed update and query
  counters over the *modelled* event clock (never wall time), so
  replaying a workload reproduces every rate, every decision, and every
  plan byte-for-byte;
* **calibrated per-backend costs** — seeded from the analytical Section
  VI model (:mod:`repro.core.costmodel` via
  :class:`~repro.server.planner.CapacityPlanner`, or a
  :class:`~repro.server.planner.CalibratedCosts` from a replayed
  report), then continuously re-calibrated by the measure → re-plan →
  verify loop: after every routed query the planner compares the plan's
  ``predicted_cost`` against the deterministic counters the backend
  actually spent (simulated GPU seconds, Dijkstra pops, labels built —
  all replay-exact) and folds the measurement into its estimate;
* **the TEN amortization law** — TEN's lazy rebuild coalesces any burst
  of updates into one materialization at the next query, so its
  long-run per-query cost is ``lookup + rebuild × min(1, u/q)``.  That
  expression *is* the crossover: query-dominant traffic drives the
  rebuild share toward zero, update-heavy traffic pays a full rebuild
  per query.

Two safeguards keep the planner no worse than the best fixed backend:

* **exploration** only runs while queries dominate (``u <= q``), so an
  update-heavy mix never pays speculative TEN rebuilds;
* **parking** — TEN *starts* parked (its ingest tap dormant), so a
  workload the cost model never predicts TEN to win pays zero planner
  overhead beyond cache bookkeeping: the planner's total cost equals
  the fixed primary's.  When the predicted TEN cost beats the primary
  by the hysteresis margin, TEN is revived from the primary index's
  object table (:meth:`TenIndex.resync`), lazily rebuilt, and measured;
  a sustained run of primary preferences parks it again.

Every decision is explainable: :class:`QueryPlan` carries the chosen
backend, the ladder rung, the predicted cost and a human-readable
reason, and the server publishes them as the ``plan`` span plus the
``repro_plan_*`` metric families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import PlanError, UnknownObjectError
from repro.obs.hub import Observability, default_observability
from repro.plan.cache import ResultCache
from repro.plan.ten import TenIndex
from repro.server.metrics import TimingModel
from repro.server.planner import CalibratedCosts, CapacityPlanner, WorkloadSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from collections.abc import Callable

    from repro.core.knn import KnnAnswer
    from repro.core.messages import Message
    from repro.mobility.workload import Query

_INF = float("inf")

#: backend names the planner routes between
PRIMARY = "ggrid"
TEN = "ten"
CACHE = "cache"

#: result-cache capacity (FIFO)
CACHE_ENTRIES = 1024
#: decay constant of the rate estimators (modelled seconds)
EWMA_TAU_S = 30.0
#: EWMA weight for cost re-calibration
ALPHA = 0.25
#: while queries dominate, every N-th decision probes TEN to keep its
#: measured costs fresh
EXPLORE_EVERY = 16
#: TEN must beat the primary by this relative margin to be revived from
#: parking (hysteresis)
UNPARK_MARGIN = 0.25


@dataclass(frozen=True)
class QueryPlan:
    """One explainable routing decision.

    Attributes:
        backend: ``"ggrid"`` or ``"ten"`` (cache hits short-circuit
            before planning and are labeled ``"cache"`` in metrics).
        rung: the execution rung the backend will use — ``"gpu"`` for
            the primary's device pipeline, ``"cpu"`` for TEN's
            materialized lists.
        reason: human-readable explanation (rates, costs, overrides).
        predicted_cost: modelled seconds this query is expected to cost
            on the chosen backend; the verify loop compares it against
            the deterministic counters actually spent.
    """

    backend: str
    rung: str
    reason: str
    predicted_cost: float


class _DecayCounter:
    """An exponentially decayed event counter over the modelled clock."""

    __slots__ = ("tau", "count", "last_t")

    def __init__(self, tau: float) -> None:
        self.tau = tau
        self.count = 0.0
        self.last_t: float | None = None

    def bump(self, t: float, n: int = 1) -> None:
        if self.last_t is None:
            self.last_t = t
        dt = t - self.last_t
        if dt > 0:
            self.count *= math.exp(-dt / self.tau)
            self.last_t = t
        self.count += n

    def rate(self, t: float) -> float:
        """Decayed events per second as of ``t``."""
        if self.last_t is None:
            return 0.0
        dt = max(0.0, t - self.last_t)
        return self.count * math.exp(-dt / self.tau) / self.tau


class PlanInstruments:
    """The ``repro_plan_*`` metric families, resolved once."""

    def __init__(self, obs: Observability) -> None:
        registry = obs.registry
        self.decisions = registry.counter(
            "repro_plan_decisions_total",
            help="Planner routing decisions, by chosen backend.",
            labelnames=("backend",),
        )
        self.cache_hits = registry.counter(
            "repro_plan_cache_hits_total",
            help="Queries served from the kNN result cache.",
        ).default()
        self.cache_misses = registry.counter(
            "repro_plan_cache_misses_total",
            help="Planner cache lookups that missed.",
        ).default()
        self.cache_invalidations = registry.counter(
            "repro_plan_cache_invalidations_total",
            help="Cached answers dropped by the delta-stream tap.",
        ).default()
        self.recalibrations = registry.counter(
            "repro_plan_recalibrations_total",
            help="Cost-estimate shifts where measurement diverged "
            "materially from the prediction.",
        ).default()
        self.parked = registry.gauge(
            "repro_plan_ten_parked",
            help="1 while the TEN backend is parked (ingest tap dormant).",
        ).default()


class QueryPlanner:
    """Routes queries between the primary index and the TEN foil.

    Construct one per server and pass it as ``QueryServer(...,
    planner=...)``; the server attaches its index, taps every applied
    update/removal into :meth:`observe` / :meth:`observe_remove`, and
    consults :meth:`cached_answer` / :meth:`plan_query` on the query
    path.  All state advances on deterministic inputs only.
    """

    def __init__(
        self,
        *,
        k_max: int = 24,
        obs: Observability | None = None,
        seed_costs: CalibratedCosts | None = None,
        park_after: int = 24,
    ) -> None:
        """Args:
            k_max: labels per vertex in the TEN backend; queries with
                larger ``k`` always route to the primary.
            obs: observability bundle; defaults to the process-wide one.
            seed_costs: replay-measured per-op costs
                (:func:`repro.server.planner.calibrate`) used instead of
                the analytic Section VI seed.
            park_after: consecutive primary preferences (under update
                pressure) before TEN's ingest tap is parked.
        """
        if k_max < 1:
            raise PlanError(f"k_max must be >= 1, got {k_max}")
        self.k_max = k_max
        self.obs = obs if obs is not None else default_observability()
        self._inst = PlanInstruments(self.obs) if self.obs is not None else None
        self.seed_costs = seed_costs
        self.park_after = park_after
        self.index = None
        self.ten: TenIndex | None = None
        self.cache: ResultCache | None = None
        self.timing = TimingModel()
        self.brownout = False
        #: TEN starts parked: a mix the cost model never predicts it to
        #: win pays no maintenance for it at all
        self._parked = True
        self._primary_streak = 0
        self._u_rate = _DecayCounter(EWMA_TAU_S)
        self._q_rate = _DecayCounter(EWMA_TAU_S)
        # published per-backend cost estimates (modelled seconds)
        self._cost_gg = 0.0
        self._cost_ten_lookup = 0.0
        self._cost_ten_build = 0.0
        # deterministic lifetime counters (trajectory rows read these)
        self.decisions: dict[str, int] = {PRIMARY: 0, TEN: 0}
        self.explorations = 0
        self.recalibrations = 0
        self.parks = 0
        self.unparks = 0
        self.last_plan: QueryPlan | None = None
        self.last_prediction_error = 0.0

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach(self, index: object) -> None:
        """Bind the planner to its primary index (server construction).

        Builds the TEN foil and the result cache from the index's graph,
        grid and config, and seeds the cost estimates.  TEN starts
        parked regardless of the index's current contents — the first
        unpark resyncs it from the primary's object table, which also
        covers mid-stream attachment and failover recreation.
        """
        if self.index is index:
            return
        if self.index is not None:
            raise PlanError("planner is already attached to an index")
        graph = getattr(index, "graph", None)
        grid = getattr(index, "grid", None)
        config = getattr(index, "config", None)
        if graph is None or grid is None or config is None:
            raise PlanError(
                f"planner needs a G-Grid-style primary exposing graph/grid/"
                f"config; {type(index).__name__!r} does not"
            )
        self.index = index
        self.ten = TenIndex(graph, k_max=self.k_max, t_delta=config.t_delta)
        self.cache = ResultCache(
            grid, t_delta=config.t_delta, max_entries=CACHE_ENTRIES
        )
        self._seed_estimates(graph, config)
        if self._inst is not None:
            self._inst.parked.set(1)

    def _seed_estimates(self, graph: object, config: object) -> None:
        touch = self.timing.touch_cost_s
        if self.seed_costs is not None:
            self._cost_gg = self.seed_costs.query_seconds()
        else:
            spec = WorkloadSpec(
                num_objects=1,
                update_frequency_hz=1.0,
                queries_per_second=1.0,
                k=16,
                rho=config.rho,
                delta_b=config.delta_b,
                eta=config.eta,
                delta_v=config.delta_v,
            )
            capacity = CapacityPlanner(timing=self.timing, gpu=config.gpu)
            self._cost_gg = capacity.query_seconds(spec)
        # TEN seeds: a lookup is a targets-bounded forward Dijkstra (a
        # handful of pops per label consulted); a rebuild accepts at most
        # k_max labels per vertex.  Both recalibrate from the first
        # measured sample.
        self._cost_ten_lookup = 8.0 * self.k_max * touch
        self._cost_ten_build = graph.num_vertices * self.k_max * touch

    def _primary_rows(self) -> list[tuple[int, int, float, float]]:
        table = getattr(self.index, "object_table", None)
        if table is None or len(table) == 0:
            return []
        return [
            (obj, entry.edge, entry.offset, entry.t)
            for obj, entry in sorted(table.objects().items())
        ]

    # ------------------------------------------------------------------
    # the update-stream tap
    # ------------------------------------------------------------------
    def observe(self, message: "Message") -> int:
        """Tap one applied update; returns the touches TEN spent on it
        (0 while parked) so the server can charge them to the report."""
        if message.t > 0.0:
            # the initial bulk load (t = 0, before the clock starts) is
            # charged to the report like any update but is *load*, not
            # recurring stream traffic — it must not skew the rate the
            # rebuild-amortization term divides by
            self._u_rate.bump(message.t)
        self._tap_cache(self.cache.observe, message)
        if self._parked or self.ten is None or message.is_removal:
            return 0
        before = self.ten.update_touches
        self.ten.ingest(message)
        return self.ten.update_touches - before

    def observe_remove(self, obj: int, t: float) -> int:
        """Tap an explicit deregistration (``remove_object``)."""
        self._u_rate.bump(t)
        self._tap_cache(self.cache.observe_remove, obj, t)
        if self._parked or self.ten is None:
            return 0
        before_touches = self.ten.update_touches
        try:
            self.ten.remove_object(obj, t)
        except UnknownObjectError:
            pass  # never reported while we were attached
        return self.ten.update_touches - before_touches

    def _tap_cache(self, tap: "Callable[..., None]", *args: object) -> None:
        before = self.cache.invalidations
        tap(*args)
        delta = self.cache.invalidations - before
        if delta and self._inst is not None:
            self._inst.cache_invalidations.inc(delta)

    # ------------------------------------------------------------------
    # the result cache
    # ------------------------------------------------------------------
    def cached_answer(self, q: "Query") -> "KnnAnswer | None":
        """A byte-identical cached answer, or None on a miss."""
        answer = self.cache.lookup(q.location, q.k, q.t)
        if self._inst is not None:
            if answer is not None:
                self._inst.cache_hits.inc()
                self._inst.decisions.labels(backend=CACHE).inc()
            else:
                self._inst.cache_misses.inc()
        return answer

    def cache_store(self, q: "Query", answer: "KnnAnswer") -> None:
        self.cache.store(q.location, q.k, q.t, answer)

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def plan_query(self, q: "Query") -> QueryPlan:
        """Choose the backend for one query (cache already missed)."""
        return self._decide(q.k, q.t, 1)

    def plan_epoch(self, queries: list["Query"]) -> QueryPlan:
        """One decision for a whole epoch batch."""
        return self._decide(
            max(q.k for q in queries),
            max(q.t for q in queries),
            len(queries),
        )

    def _decide(self, k: int, t: float, n: int) -> QueryPlan:
        assert self.ten is not None, "planner not attached"
        self._q_rate.bump(t, n)
        u = self._u_rate.rate(t)
        qr = self._q_rate.rate(t)
        build_share = self._cost_ten_build * min(1.0, u / qr if qr > 0 else 1.0)
        c_ten = self._cost_ten_lookup + build_share
        c_gg = self._cost_gg
        rates = f"u={u:.3f}/s q={qr:.3f}/s ten={c_ten:.3e}s ggrid={c_gg:.3e}s"

        if self.brownout:
            plan = self._mk(PRIMARY, f"brownout: primary only ({rates})", c_gg)
        elif k > self.ten.k_max:
            plan = self._mk(
                PRIMARY, f"k={k} exceeds TEN k_max={self.ten.k_max} ({rates})", c_gg
            )
        elif self._parked:
            if c_ten * (1.0 + UNPARK_MARGIN) < c_gg:
                self._unpark(t)
                plan = self._mk(
                    TEN,
                    f"unparked: mix swung query-dominant ({rates})",
                    self._cost_ten_lookup + self._cost_ten_build,
                )
            else:
                plan = self._mk(PRIMARY, f"ten parked ({rates})", c_gg)
        else:
            prefers_ten = c_ten < c_gg
            total = self.decisions[PRIMARY] + self.decisions[TEN]
            explore = (
                not prefers_ten
                and u <= qr
                and total % EXPLORE_EVERY == EXPLORE_EVERY - 1
            )
            if prefers_ten or explore:
                predicted = self._cost_ten_lookup + (
                    self._cost_ten_build if self.ten.needs_rebuild(t) else 0.0
                )
                why = "explore: probing ten costs" if explore else "ten is cheaper"
                if explore:
                    self.explorations += 1
                plan = self._mk(TEN, f"{why} ({rates})", predicted)
            else:
                plan = self._mk(PRIMARY, f"ggrid is cheaper ({rates})", c_gg)
            self._primary_streak = (
                self._primary_streak + 1 if not prefers_ten else 0
            )
            if self._primary_streak >= self.park_after:
                # the unpark hysteresis margin prevents park/unpark churn
                self._park()
        self.last_plan = plan
        return plan

    def _mk(self, backend: str, reason: str, predicted: float) -> QueryPlan:
        self.decisions[backend] += 1
        if self._inst is not None:
            self._inst.decisions.labels(backend=backend).inc()
        rung = "gpu" if backend == PRIMARY else "cpu"
        return QueryPlan(
            backend=backend, rung=rung, reason=reason, predicted_cost=predicted
        )

    def resolve(self, plan: QueryPlan) -> object:
        """The index object a plan routes to."""
        return self.index if plan.backend == PRIMARY else self.ten

    def _park(self) -> None:
        self._parked = True
        self.parks += 1
        if self._inst is not None:
            self._inst.parked.set(1)

    def _unpark(self, t: float) -> None:
        assert self.ten is not None
        self._parked = False
        self._primary_streak = 0
        self.unparks += 1
        self.ten.resync(self._primary_rows(), t=t)
        if self._inst is not None:
            self._inst.parked.set(0)

    # ------------------------------------------------------------------
    # the verify loop
    # ------------------------------------------------------------------
    def probe(self, plan: QueryPlan) -> dict[str, float]:
        """Deterministic counter snapshot before executing a plan."""
        if plan.backend == PRIMARY:
            gpu = getattr(self.index, "gpu", None)
            return {"gpu_s": gpu.stats.gpu_time_s if gpu is not None else 0.0}
        assert self.ten is not None
        return {
            "pops": float(self.ten.query_pops),
            "labels": float(self.ten.labels_built),
            "touches": float(self.ten.update_touches),
        }

    def observe_result(
        self,
        plan: QueryPlan,
        answer: "KnnAnswer",
        before: dict[str, float],
        n: int = 1,
    ) -> None:
        """Fold the measured deterministic cost back into the estimates.

        ``n > 1`` attributes an epoch's counters as equal per-query
        shares, mirroring the server's batch accounting.
        """
        touch = self.timing.touch_cost_s
        if plan.backend == PRIMARY:
            gpu = getattr(self.index, "gpu", None)
            gpu_s = (
                (gpu.stats.gpu_time_s - before["gpu_s"]) / n
                if gpu is not None
                else 0.0
            )
            refine = (
                answer.refine_settled * touch / max(1, self.timing.cpu_workers)
            )
            measured = gpu_s + refine
            self._cost_gg = self._recalibrate(self._cost_gg, measured)
            self.last_prediction_error = measured - plan.predicted_cost
            return
        assert self.ten is not None
        lookup = (self.ten.query_pops - before["pops"]) * touch / n
        build = (
            (self.ten.labels_built - before["labels"])
            + (self.ten.update_touches - before["touches"])
        ) * touch
        self._cost_ten_lookup = self._recalibrate(self._cost_ten_lookup, lookup)
        if build > 0:
            self._cost_ten_build = self._recalibrate(self._cost_ten_build, build)
        self.last_prediction_error = (lookup + build / n) - plan.predicted_cost

    def _recalibrate(self, current: float, measured: float) -> float:
        if current <= 0.0:
            return measured
        if measured > current * 1.5 or measured < current / 1.5:
            self.recalibrations += 1
            if self._inst is not None:
                self._inst.recalibrations.inc()
        return current + ALPHA * (measured - current)

    # ------------------------------------------------------------------
    # serving integration
    # ------------------------------------------------------------------
    def set_brownout(self, active: bool) -> None:
        """Front-door overload signal: route primary-only while active
        (no speculative TEN rebuilds during an overload episode)."""
        self.brownout = active

    def summary(self) -> dict[str, float]:
        """Deterministic lifetime counters (trajectory rows, front door)."""
        out: dict[str, float] = {
            "decisions_ggrid": float(self.decisions[PRIMARY]),
            "decisions_ten": float(self.decisions[TEN]),
            "explorations": float(self.explorations),
            "recalibrations": float(self.recalibrations),
            "parks": float(self.parks),
            "unparks": float(self.unparks),
            "parked": 1.0 if self._parked else 0.0,
        }
        if self.cache is not None:
            out["cache_hits"] = float(self.cache.hits)
            out["cache_misses"] = float(self.cache.misses)
            out["cache_invalidations"] = float(self.cache.invalidations)
        if self.ten is not None:
            out["ten_rebuilds_full"] = float(self.ten.rebuilds_full)
            out["ten_labels_built"] = float(self.ten.labels_built)
        return out
