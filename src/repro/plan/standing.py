"""The one rule for a standing kNN answer: is it still current?

The result cache (:mod:`repro.plan.cache`) and the subscription manager
(:mod:`repro.subscribe.manager`) both hold kNN answers across time, fed
by the backend's message stream, and both must decide whether an answer
computed earlier still equals a cold query now.  The rule has two parts
(DESIGN.md §15):

* **touched** — a message moves or removes a member (its distance may
  grow, or it vanishes), or moves a non-member into a cell whose
  network-distance lower bound (:meth:`~repro.cluster.shardmap.
  CellDistanceBound.lower_bound_to_cells`) is ``<= d_k``.  Ties count:
  an equidistant smaller id enters the canonical order.  ``d_k`` is
  infinite while the answer holds fewer than ``k`` entries, so then any
  move touches.  A non-member removal never touches: it cannot shrink
  any of the k nearest distances.
* **expired** — lazy cleaning drops an object whose report is older
  than ``t_now - t_delta`` even when no message arrives.  An answer
  expires when its oldest member report passes the index's own
  comparison, ``t_report < t_now - t_delta`` (``MessageList.
  locked_buckets``, ``MessageCleaner._clean``).  A member the report
  clock never saw counts as expired.

An answer neither touched nor expired equals a cold query at ``t_now``.
Each consumer picks when to apply each part: the cache drops touched
entries per message and expired ones at lookup; the manager applies
both at its tick.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable
from dataclasses import dataclass
from typing import TYPE_CHECKING, TypeVar

from repro.cluster.shardmap import CellDistanceBound

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.graph_grid import GraphGrid
    from repro.core.messages import Message
    from repro.roadnet.location import NetworkLocation

_INF = float("inf")

#: whatever a consumer files its answers under (cache key, sub id)
K = TypeVar("K")


@dataclass
class StandingAnswer:
    """A kNN answer held across time, with what the rule needs.

    Never mutated: a consumer replaces the record on refresh.
    """

    location: "NetworkLocation"
    k: int
    #: canonical ``(obj, distance)`` pairs, exactly as the query returned
    entries: tuple[tuple[int, float], ...]
    members: frozenset[int]
    #: the pruning radius d_k; infinite while the answer is short
    radius: float
    #: oldest member report time: -inf when the clock never saw a
    #: member, +inf for an empty answer (nothing can expire)
    oldest: float


class StandingRule:
    """The report clock plus the touched/expired rule over it.

    Args:
        grid: the G-Grid partitioning (maps a message's edge to its cell).
        t_delta: the report-freshness horizon of the backing index.
        bound: cell-distance lower bound; built from ``grid`` when not
            shared with a router.
    """

    def __init__(
        self,
        grid: "GraphGrid",
        t_delta: float,
        bound: CellDistanceBound | None = None,
    ) -> None:
        self.grid = grid
        self.t_delta = t_delta
        self.bound = bound or CellDistanceBound(grid)
        #: last report time per live object
        self.last_seen: dict[int, float] = {}

    # ------------------------------------------------------------------
    # the report clock
    # ------------------------------------------------------------------
    def observe(self, message: "Message") -> int | None:
        """Clock one applied update; the cell a move lands in, or None
        for a removal."""
        if message.is_removal:
            self.observe_remove(message.obj)
            return None
        self.last_seen[message.obj] = message.t
        return self.grid.cell_of_edge(message.edge)

    def observe_remove(self, obj: int) -> None:
        self.last_seen.pop(obj, None)

    def answer(
        self,
        location: "NetworkLocation",
        k: int,
        entries: Iterable[tuple[int, float]],
    ) -> StandingAnswer:
        """Record an answer a query just returned, stamped by the clock."""
        entries = tuple(entries)
        members = frozenset(obj for obj, _ in entries)
        return StandingAnswer(
            location=location,
            k=k,
            entries=entries,
            members=members,
            radius=entries[-1][1] if len(entries) >= k else _INF,
            oldest=min(
                (self.last_seen.get(obj, -_INF) for obj in members), default=_INF
            ),
        )

    # ------------------------------------------------------------------
    # the rule
    # ------------------------------------------------------------------
    def touched(
        self,
        answers: Iterable[tuple[K, StandingAnswer]],
        objs: Collection[int],
        cells: Iterable[int],
    ) -> list[K]:
        """The keys of the ``(key, answer)`` pairs that messages moving or
        removing ``objs``, with the moves landing in ``cells``, could
        change."""
        lower_bound = self.bound.lower_bound_to_cells
        # the bound caches its per-source-cell Dijkstra, so probing each
        # cell on its own stays cheap across calls
        probes = [range(cell, cell + 1) for cell in cells]
        out = []
        for key, answer in answers:
            if not answer.members.isdisjoint(objs):
                out.append(key)
                continue
            radius = answer.radius
            for probe in probes:
                if radius == _INF or lower_bound(answer.location, probe) <= radius:
                    out.append(key)
                    break
        return out

    def expired(self, answer: StandingAnswer, t_now: float) -> bool:
        """Has lazy cleaning dropped, by ``t_now``, a member of the answer?"""
        oldest = answer.oldest
        return oldest < t_now - self.t_delta or oldest == -_INF
