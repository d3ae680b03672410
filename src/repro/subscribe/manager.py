"""Continuous kNN subscriptions with incremental delta maintenance.

The paper keeps updates cheap so the *same* index can serve repeated
queries over a moving fleet; the production shape of that workload
(Lettich et al., PAPERS.md) is thousands of clients each holding a
standing ``(location, k)`` query refreshed every tick.  Re-running every
subscription from scratch each tick wastes exactly the work G-Grid's
lazy cleaning avoids, so :class:`SubscriptionManager` maintains results
*incrementally*:

* The per-cell message lists are reused as the **delta stream** — the
  backend taps :meth:`SubscriptionManager.observe` from its update path,
  so every location update and removal the index sees is also seen here.
* Each subscriber holds its current top-k as a
  :class:`~repro.plan.standing.StandingAnswer`.  At a tick it is dirty
  when it was never answered, or when the standing-answer rule of
  :mod:`repro.plan.standing` (shared with the result cache) finds it
  touched by a buffered message or expired by the clock alone.
* A tick refreshes **only the dirty subscribers**, batched through
  ``query_batch`` grouped per home shard — riding the epoch batching,
  dedup cleaning and resilience ladder unchanged — and emits
  :class:`~repro.subscribe.events.DeltaEvent` streams instead of full
  answers.

The invariant the `subscribe` suites pin: after every tick, every
subscriber's cached entries are byte-identical to a from-scratch query
at that tick.  Dirty-marking is *conservative* (it may refresh a
subscriber whose answer did not change) but never unsound (a changed
answer is always refreshed).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.cluster.shardmap import CellDistanceBound
from repro.core.knn import KnnAnswer
from repro.core.messages import Message
from repro.errors import SubscriptionError
from repro.mobility.workload import Query
from repro.obs.hub import Observability, default_observability
from repro.obs.tracing import root_span
from repro.plan.standing import StandingAnswer, StandingRule
from repro.roadnet.location import NetworkLocation
from repro.server.metrics import ReplayReport, TimingModel
from repro.subscribe.events import DeltaEvent, diff_topk

_INF = float("inf")


@dataclass
class Subscription:
    """One standing query and its cached answer.

    Attributes:
        sub_id: client-chosen id, unique within the manager.
        standing: the fixed location and k, and the top-k a fresh query
            at the last refresh returned (empty before the first).
        fresh: True until the first refresh (a just-registered
            subscription has no answer yet, so it is dirty by
            definition).
    """

    sub_id: int
    standing: StandingAnswer
    fresh: bool = True

    @property
    def location(self) -> NetworkLocation:
        return self.standing.location

    @property
    def k(self) -> int:
        return self.standing.k

    @property
    def entries(self) -> list[tuple[int, float]]:
        """The current top-k as canonical ``(obj, distance)`` pairs."""
        return list(self.standing.entries)


@dataclass
class TickResult:
    """What one tick did: who was dirty, what changed, what it cost.

    Attributes:
        t: the tick timestamp.
        active: subscriptions registered at tick time.
        dirty: sub ids marked dirty (sorted).
        refreshed: sub ids actually re-queried this tick (== ``dirty``).
        deltas: all delta events, grouped by subscriber in refresh order.
        answers: the per-refresh :class:`KnnAnswer`s, aligned with
            ``refreshed`` (the front door prices its tick from these).
        cells_cleaned: candidate cells cleaned by the refresh queries.
        dirty_fraction: ``len(dirty) / active`` (0.0 with no subs).
    """

    t: float
    active: int
    dirty: list[int]
    refreshed: list[int]
    deltas: list[DeltaEvent]
    answers: list[KnnAnswer]
    cells_cleaned: int
    dirty_fraction: float

    def deltas_for(self, sub_id: int) -> list[DeltaEvent]:
        """This subscriber's events, in emission order."""
        return [e for e in self.deltas if e.sub_id == sub_id]


class SubsInstruments:
    """The ``repro_subs_*`` metric families, resolved once."""

    def __init__(self, obs: Observability) -> None:
        registry = obs.registry
        self.active = registry.gauge(
            "repro_subs_active", help="Registered standing kNN subscriptions."
        ).default()
        self.dirty_fraction = registry.gauge(
            "repro_subs_dirty_fraction",
            help="Fraction of subscriptions refreshed by the last tick.",
        ).default()
        self.dirty = registry.counter(
            "repro_subs_dirty_total",
            help="Subscription refreshes executed (dirty marks).",
        ).default()
        self.ticks = registry.counter(
            "repro_subs_ticks_total", help="Subscription refresh ticks."
        ).default()
        self.messages = registry.counter(
            "repro_subs_messages_observed_total",
            help="Update-stream messages tapped as the subscription "
            "delta stream.",
        ).default()
        self.delta_events = registry.counter(
            "repro_subs_delta_events_total",
            help="Result delta events emitted, by kind.",
            labelnames=("kind",),
        )
        self.refresh_seconds = registry.histogram(
            "repro_subs_refresh_seconds",
            help="Wall seconds per subscription refresh tick.",
        ).default()


class SubscriptionManager:
    """Standing queries over one backend (server, router, or front door's
    backend), refreshed incrementally from the tapped update stream.

    Args:
        backend: anything exposing ``query_batch(queries, report,
            trace_parent=...)`` plus a G-Grid ``grid``/``config`` (a
            :class:`~repro.server.server.QueryServer` or a
            :class:`~repro.cluster.router.ShardRouter`).  If the backend
            has ``attach_subscriptions`` the manager attaches itself, so
            constructing one is all the wiring a caller needs.
        obs: observability bundle; defaults to the process-wide one.
        bound: the cell-distance lower bound used for radius pruning;
            the backend's own (router) is reused when present.

    The update tap must be attached **before** traffic flows: a member
    whose last report the manager never saw has no recorded report time,
    so the expiry rule conservatively marks its subscriber dirty every
    tick (sound, but it erases the incremental savings).
    """

    def __init__(
        self,
        backend: object,
        obs: Observability | None = None,
        bound: CellDistanceBound | None = None,
    ) -> None:
        if not callable(getattr(backend, "query_batch", None)):
            raise SubscriptionError(
                f"subscription backend {type(backend).__name__!r} does not "
                f"expose query_batch"
            )
        self.backend = backend
        index = getattr(backend, "index", None)
        grid = getattr(backend, "grid", None) or getattr(index, "grid", None)
        config = getattr(backend, "config", None) or getattr(index, "config", None)
        if grid is None or config is None:
            raise SubscriptionError(
                f"subscription backend {type(backend).__name__!r} exposes "
                f"no grid/config (need a G-Grid server or router)"
            )
        self.grid = grid
        self.config = config
        self.bound = bound or getattr(backend, "bound", None) or CellDistanceBound(grid)
        self.rule = StandingRule(grid, config.t_delta, self.bound)
        self._home = getattr(backend, "home_shard", None)
        self.obs = obs if obs is not None else default_observability()
        self._inst = SubsInstruments(self.obs) if self.obs is not None else None
        self.report = ReplayReport(
            index_name=getattr(backend, "name", None)
            or getattr(index, "name", "subscriptions"),
            timing=getattr(backend, "timing", None) or TimingModel(),
        )
        self.subscriptions: dict[int, Subscription] = {}
        #: buffered deltas since the last tick: moves as (obj, cell, t),
        #: removals as (obj, None, t)
        self._buffer: list[tuple[int, int | None, float]] = []
        self._last_tick_t = -_INF
        # lifetime counters (deterministic; the bench/trajectory rows
        # read these rather than the metrics registry)
        self.ticks = 0
        self.dirty_refreshes = 0
        self.messages_observed = 0
        self.cells_cleaned_total = 0
        self.delta_counts: dict[str, int] = {}
        attach = getattr(backend, "attach_subscriptions", None)
        if callable(attach):
            attach(self)

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(
        self, sub_id: int, location: NetworkLocation, k: int
    ) -> Subscription:
        """Add a standing ``(location, k)`` query; answered at next tick."""
        if k < 1:
            raise SubscriptionError(f"subscription k must be >= 1, got {k}")
        if sub_id in self.subscriptions:
            raise SubscriptionError(f"duplicate subscription id {sub_id}")
        sub = Subscription(sub_id, self.rule.answer(location, k, ()))
        self.subscriptions[sub_id] = sub
        if self._inst is not None:
            self._inst.active.set(len(self.subscriptions))
        return sub

    def cancel(self, sub_id: int) -> None:
        """Drop a subscription; unknown ids raise."""
        if sub_id not in self.subscriptions:
            raise SubscriptionError(f"unknown subscription id {sub_id}")
        del self.subscriptions[sub_id]
        if self._inst is not None:
            self._inst.active.set(len(self.subscriptions))

    def entries_of(self, sub_id: int) -> list[tuple[int, float]]:
        """A subscriber's cached top-k (copy), canonical order."""
        try:
            return list(self.subscriptions[sub_id].entries)
        except KeyError:
            raise SubscriptionError(
                f"unknown subscription id {sub_id}"
            ) from None

    # ------------------------------------------------------------------
    # the update-stream tap
    # ------------------------------------------------------------------
    def observe(self, message: Message) -> None:
        """Tap one update from the backend's ingest path.

        Called by the attached backend after it applies the update, so
        the buffer mirrors exactly the deltas the index has absorbed
        since the last tick.
        """
        self.messages_observed += 1
        if self._inst is not None:
            self._inst.messages.inc()
        self._buffer.append((message.obj, self.rule.observe(message), message.t))

    def observe_remove(self, obj: int, t: float) -> None:
        """Tap an explicit object deregistration (``remove_object``)."""
        self.messages_observed += 1
        if self._inst is not None:
            self._inst.messages.inc()
        self._buffer.append((obj, None, t))
        self.rule.observe_remove(obj)

    # ------------------------------------------------------------------
    # dirty marking
    # ------------------------------------------------------------------
    def dirty_subscribers(self, t_now: float) -> set[int]:
        """Who must refresh at ``t_now``: every subscriber never answered,
        and every one the standing-answer rule finds expired or touched
        by the buffered messages."""
        objs = {obj for obj, _, _ in self._buffer}
        cells = {cell for _, cell, _ in self._buffer if cell is not None}
        subs = self.subscriptions.items()
        dirty = {s for s, sub in subs if sub.fresh or self.rule.expired(sub.standing, t_now)}
        rest = ((s, sub.standing) for s, sub in subs if s not in dirty)
        dirty.update(self.rule.touched(rest, objs, cells))
        return dirty

    # ------------------------------------------------------------------
    # the tick
    # ------------------------------------------------------------------
    def tick(self, t_now: float, force_all: bool = False) -> TickResult:
        """Refresh every dirty subscriber at ``t_now`` and emit deltas.

        Ticks must be monotone (the index's lazy cleaning is).  With
        ``force_all`` every subscription refreshes — the differential
        harness uses that as the from-scratch twin.
        """
        if t_now < self._last_tick_t:
            raise SubscriptionError(
                f"non-monotone tick: t={t_now} after t={self._last_tick_t}"
            )
        self._last_tick_t = t_now
        wall0 = time.perf_counter()
        tracer = self.obs.tracer if self.obs is not None else None
        with root_span(
            tracer, "sub.refresh", {"t": t_now, "active": len(self.subscriptions)}
        ) as sp:
            result = self._refresh(t_now, force_all, trace_parent=sp.traceparent)
            sp.set_attr("dirty", len(result.refreshed))
            sp.set_attr("delta_events", len(result.deltas))
        trace_id = sp.trace_id_hex
        wall = time.perf_counter() - wall0
        self.ticks += 1
        self.dirty_refreshes += len(result.refreshed)
        self.cells_cleaned_total += result.cells_cleaned
        for event in result.deltas:
            self.delta_counts[event.kind] = (
                self.delta_counts.get(event.kind, 0) + 1
            )
        inst = self._inst
        if inst is not None:
            inst.ticks.inc()
            inst.dirty.inc(len(result.refreshed))
            inst.active.set(len(self.subscriptions))
            inst.dirty_fraction.set(result.dirty_fraction)
            inst.refresh_seconds.observe(wall, exemplar=trace_id)
            for event in result.deltas:
                inst.delta_events.labels(kind=event.kind).inc()
        return result

    def _refresh(
        self, t_now: float, force_all: bool, trace_parent: str | None
    ) -> TickResult:
        active = len(self.subscriptions)
        if force_all:
            dirty = sorted(self.subscriptions)
        else:
            dirty = sorted(self.dirty_subscribers(t_now))
        # group per home shard so each group rides one batched epoch on
        # its owning shard (single-server backends form one group)
        groups: dict[int, list[int]] = {}
        for sub_id in dirty:
            sub = self.subscriptions[sub_id]
            home = self._home(sub.location) if self._home is not None else 0
            groups.setdefault(home, []).append(sub_id)
        refreshed: list[int] = []
        deltas: list[DeltaEvent] = []
        answers: list[KnnAnswer] = []
        cells_cleaned = 0
        for home in sorted(groups):
            member_ids = groups[home]
            queries = [
                Query(t_now, self.subscriptions[s].location, self.subscriptions[s].k)
                for s in member_ids
            ]
            got = self.backend.query_batch(
                queries, self.report, trace_parent=trace_parent
            )
            for sub_id, answer in zip(member_ids, got):
                sub = self.subscriptions[sub_id]
                new = [(e.obj, e.distance) for e in answer.entries]
                deltas.extend(diff_topk(sub_id, sub.entries, new, t_now))
                sub.standing = self.rule.answer(sub.location, sub.k, new)
                sub.fresh = False
                refreshed.append(sub_id)
                answers.append(answer)
                cells_cleaned += answer.cells_cleaned
        self._buffer.clear()
        return TickResult(
            t=t_now,
            active=active,
            dirty=dirty,
            refreshed=refreshed,
            deltas=deltas,
            answers=answers,
            cells_cleaned=cells_cleaned,
            dirty_fraction=(len(dirty) / active) if active else 0.0,
        )
