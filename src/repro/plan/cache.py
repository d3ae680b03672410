"""A delta-invalidated kNN result cache.

Repeated-query traffic (app users polling the same junction, standing
dashboards) re-pays a whole backend per query even though nothing moved
nearby.  :class:`ResultCache` short-circuits that: answers are cached
under ``(cell, edge, offset, k, time-bucket)`` and invalidated by the
*same* message-stream tap that feeds :mod:`repro.subscribe` — the
planner taps :meth:`observe` / :meth:`observe_remove` from the server's
update path, exactly like ``attach_subscriptions`` delta plumbing.

Whether an entry is still current is the standing-answer rule of
:mod:`repro.plan.standing`, shared with the subscription manager: the
cache drops an entry as soon as a message *touches* it, and drops an
*expired* entry when a lookup finds it.  What is the cache's own is the
key, the time bucket, ``stored_at`` and FIFO eviction.  The
no-stale-answer invariant is property-tested in
``tests/plan/test_cache.py``.

A hit returns a *copy* of the cached answer with its cost fields zeroed:
the entries are byte-identical to a cold query, and the served cost is
the cache's (nothing — no kernels, no cleaning, no refinement).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cluster.shardmap import CellDistanceBound
from repro.core.knn import KnnAnswer, KnnResultEntry
from repro.errors import PlanError
from repro.plan.standing import StandingAnswer, StandingRule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.graph_grid import GraphGrid
    from repro.core.messages import Message
    from repro.roadnet.location import NetworkLocation

_INF = float("inf")

#: (cell, edge, offset, k, bucket) — the exact location is part of the
#: key (two locations in one cell have different answers); the bucket
#: bounds how long an entry can live even without invalidation
CacheKey = tuple[int, int, float, int, int]


class ResultCache:
    """Delta-invalidated memo of exact kNN answers.

    Deterministic counters (``hits`` / ``misses`` / ``invalidations``)
    feed the trajectory gate; the planner mirrors them into the
    ``repro_plan_cache_*`` metric families.
    """

    def __init__(
        self,
        grid: "GraphGrid",
        t_delta: float = _INF,
        bound: CellDistanceBound | None = None,
        bucket_s: float | None = None,
        max_entries: int = 1024,
    ) -> None:
        """Args:
            grid: the G-Grid partitioning (cell keys + distance bounds).
            t_delta: the report-freshness horizon of the backing index.
            bound: cell-distance lower bound; built from ``grid`` when
                not shared with a router.
            bucket_s: time-bucket width for the cache key; defaults to
                ``t_delta`` (one expiry horizon), or 60s when expiry is
                disabled.
            max_entries: FIFO capacity cap.
        """
        if bucket_s is not None and bucket_s <= 0:
            raise PlanError(f"cache bucket_s must be positive, got {bucket_s}")
        if max_entries < 1:
            raise PlanError(f"cache max_entries must be >= 1, got {max_entries}")
        self.grid = grid
        self.rule = StandingRule(grid, t_delta, bound)
        self.bucket_s = bucket_s or (t_delta if t_delta < _INF else 60.0)
        self.max_entries = max_entries
        self._answers: dict[CacheKey, StandingAnswer] = {}
        #: serve only at t_now >= stored_at: visibility is monotone in
        #: time, so an earlier query could legally see *more* objects
        self._stored_at: dict[CacheKey, float] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._answers)

    def key_for(self, location: "NetworkLocation", k: int, t: float) -> CacheKey:
        cell = self.grid.cell_of_edge(location.edge_id)
        return (cell, location.edge_id, location.offset, k, int(t // self.bucket_s))

    # ------------------------------------------------------------------
    # lookup / store
    # ------------------------------------------------------------------
    def lookup(
        self, location: "NetworkLocation", k: int, t: float
    ) -> KnnAnswer | None:
        """The cached answer for this query, or None (counted as a miss)."""
        key = self.key_for(location, k, t)
        standing = self._answers.get(key)
        if standing is None:
            self.misses += 1
            return None
        if self.rule.expired(standing, t):
            self._drop([key])
            self.misses += 1
            return None
        if t < self._stored_at[key]:
            self.misses += 1
            return None
        self.hits += 1
        answer = KnnAnswer()
        answer.entries = [KnnResultEntry(o, d) for o, d in standing.entries]
        return answer

    def store(
        self, location: "NetworkLocation", k: int, t: float, answer: KnnAnswer
    ) -> None:
        """Memoize a cold answer under its ``(cell, k, bucket)`` key."""
        if len(self._answers) >= self.max_entries:
            self._forget(next(iter(self._answers)))
        key = self.key_for(location, k, t)
        self._answers[key] = self.rule.answer(
            location, k, ((e.obj, e.distance) for e in answer.entries)
        )
        self._stored_at[key] = t

    # ------------------------------------------------------------------
    # the update-stream tap
    # ------------------------------------------------------------------
    def observe(self, message: "Message") -> None:
        """Tap one applied update; drop every entry it touches."""
        cell = self.rule.observe(message)
        cells = () if cell is None else (cell,)
        self._drop(self.rule.touched(self._answers.items(), {message.obj}, cells))

    def observe_remove(self, obj: int, t: float) -> None:
        """Tap a removal; only entries holding the object can change."""
        self.rule.observe_remove(obj)
        self._drop(self.rule.touched(self._answers.items(), {obj}, ()))

    def _drop(self, keys: list[CacheKey]) -> None:
        for key in keys:
            self._forget(key)
        self.invalidations += len(keys)

    def _forget(self, key: CacheKey) -> None:
        del self._answers[key]
        del self._stored_at[key]
