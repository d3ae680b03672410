"""A TEN-style materialized top-k-neighbor index.

"Simpler is More" (PAPERS.md) shows that on large road networks a plain
CPU structure — every vertex keeps a truncated list of its ``k_max``
nearest objects — beats heavyweight indexes whenever queries dominate
updates.  :class:`TenIndex` is that structure, built to the same exact
contract as every other backend here:

* **Materialization** is one reverse multi-source k-best label Dijkstra:
  each object at ``<e', d'>`` seeds ``source(e')`` at cost ``d'`` and
  labels flow along *in*-edges.  Labels pop in ascending ``(distance,
  object id)``, each vertex accepts at most ``k_max`` labels (one per
  object), and a vertex that already holds ``k_max`` labels stops
  relaxing — the classical truncation prune.  The list at ``v`` is then
  exactly the canonical top-``k_max`` of ``d(v -> object)``.
* **Queries** use the lists only as a *candidate generator*: the
  answer's distances are re-derived with a forward targeted Dijkstra
  from the query location.  Forward derivation matters for byte
  identity: G-Grid, Naive and the oracle all compute a distance as the
  left-to-right float fold of edge weights along the path; the reverse
  labels fold the same weights right-to-left and can differ in the last
  ulp.  Re-deriving forward makes TEN answers bit-identical to theirs.
* **Updates** are O(1) bookkeeping plus laziness (the whole point of
  the planner's crossover): a *new* object is queued for an incremental
  pruned insert into the lists it belongs to (its dirty region); a
  *move* or *removal* of an already-indexed object marks the lists
  stale, and the next query pays one full rebuild.  Consecutive updates
  coalesce into a single rebuild, so TEN is cheap on query-dominant
  traffic and expensive under churn — exactly the foil the
  :class:`~repro.plan.planner.QueryPlanner` needs.

Visibility matches G-Grid's lazy cleaning: an object whose last report
is older than ``t_now - t_delta`` is expired (strictly older — the
cleaning pipeline's ``ts < cutoff`` rule), so planner-routed answers
stay byte-identical to an always-G-Grid server even on aged workloads.

Candidate completeness (for ``k <= k_max``): every path from a query at
``<e, d>`` leaves through ``dest(e)`` at constant cost ``w - d`` —
except an object ahead on the same edge, and except paths through
``source(e)`` when ``d == 0``.  A constant shift preserves the
``(distance, id)`` order, so the true top-k through ``dest(e)`` is a
prefix of ``dest(e)``'s list; same-edge-ahead objects come from the
per-edge object map and ``source(e)``'s list covers the on-vertex case.
``k > k_max`` falls back to the exhaustive scan (counted, and priced by
the planner).
"""

from __future__ import annotations

import heapq
import time
from bisect import insort

from repro.core.knn import KnnAnswer, KnnResultEntry
from repro.core.messages import Message
from repro.core.ordering import rank_results
from repro.errors import QueryError, UnknownObjectError
from repro.plan.backends import validate_knn_args
from repro.roadnet.dijkstra import SearchStats, multi_source_dijkstra
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.location import NetworkLocation, entry_costs, location_distance
from repro.simgpu.memory import TABLE_ENTRY_BYTES

_INF = float("inf")

#: modelled bytes per materialized (distance, object) label
_LABEL_BYTES = 16


class TenIndex:
    """Per-vertex truncated kNN lists, rebuilt lazily per dirty region."""

    name = "TEN"

    def __init__(
        self,
        graph: RoadNetwork,
        k_max: int = 16,
        t_delta: float = _INF,
    ) -> None:
        """Args:
            graph: the road network.
            k_max: labels kept per vertex; queries with ``k <= k_max``
                are answered from the lists, larger ``k`` falls back to
                the exhaustive scan.
            t_delta: report-freshness horizon; ``inf`` disables expiry.
                The planner passes G-Grid's ``config.t_delta`` so both
                backends see the same objects.
        """
        if k_max < 1:
            raise QueryError(f"k_max must be >= 1, got {k_max}")
        self.graph = graph
        self.k_max = k_max
        self.t_delta = t_delta
        #: latest location and report time per live object
        self.locations: dict[int, NetworkLocation] = {}
        self.report_times: dict[int, float] = {}
        #: objects currently on each edge (the same-edge-ahead candidates)
        self._objects_by_edge: dict[int, set[int]] = {}
        #: per-vertex sorted ``(distance, obj)`` labels; None until the
        #: first query forces a build
        self._labels: list[list[tuple[float, int]]] | None = None
        self._dirty_full = False
        #: the oldest labeled report: once it expires the lists go
        #: stale, since a truncated list holding an expired entry would
        #: silently shrink the visible candidate set below ``k``
        self._oldest = _INF
        #: brand-new objects awaiting their incremental insert
        self._pending_inserts: set[int] = set()
        self.latest_time = 0.0
        # deterministic cost counters (the planner's calibration inputs)
        self.messages_ingested = 0
        self.update_touches = 0
        self.labels_built = 0
        self.rebuilds_full = 0
        self.inserts_incremental = 0
        self.query_pops = 0
        self.fallback_scans = 0

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def ingest(self, message: Message) -> None:
        """Record a location update; index maintenance is deferred.

        A first report queues an incremental insert (the object's dirty
        region); a re-report of an indexed object marks the lists stale
        for one lazy full rebuild at the next query.
        """
        if message.is_removal:
            raise QueryError("clients send location updates, not removal markers")
        obj = message.obj
        old = self.locations.get(obj)
        if old is not None:
            self._objects_by_edge[old.edge_id].discard(obj)
            if obj not in self._pending_inserts:
                # a label for the old location may sit anywhere in the
                # lists: full rebuild at next query (moves coalesce)
                self._dirty_full = True
        elif self._labels is not None and not self._dirty_full:
            self._pending_inserts.add(obj)
            self._oldest = min(self._oldest, message.t)
        self.locations[obj] = NetworkLocation(message.edge, message.offset)
        self.report_times[obj] = message.t
        self._objects_by_edge.setdefault(message.edge, set()).add(obj)
        self.messages_ingested += 1
        self.update_touches += 1
        self.latest_time = max(self.latest_time, message.t)

    def bulk_load(self, placements: dict[int, NetworkLocation], t: float) -> None:
        for obj, loc in placements.items():
            self.ingest(Message(obj, loc.edge_id, loc.offset, t))

    def remove_object(self, obj: int, t: float) -> None:
        """Deregister an object; its labels go stale until the next query.

        Raises:
            UnknownObjectError: the object was never ingested.
        """
        loc = self.locations.pop(obj, None)
        if loc is None:
            raise UnknownObjectError(f"object {obj} not in the TEN index")
        self.report_times.pop(obj, None)
        self._objects_by_edge[loc.edge_id].discard(obj)
        if obj in self._pending_inserts:
            self._pending_inserts.discard(obj)
        elif self._labels is not None:
            self._dirty_full = True
        self.update_touches += 1
        self.latest_time = max(self.latest_time, t)

    def resync(
        self, entries: list[tuple[int, int, float, float]], t: float
    ) -> None:
        """Replace all object state from ``(obj, edge, offset, t)`` rows.

        The planner uses this to revive a parked TEN from the primary
        index's object table; the rebuild itself stays lazy.
        """
        self.locations = {
            obj: NetworkLocation(edge, offset) for obj, edge, offset, _ in entries
        }
        self.report_times = {obj: rt for obj, _, _, rt in entries}
        self._objects_by_edge = {}
        for obj, edge, _, _ in entries:
            self._objects_by_edge.setdefault(edge, set()).add(obj)
        self._pending_inserts.clear()
        self._dirty_full = True
        self.update_touches += len(entries)
        self.latest_time = max(self.latest_time, t)

    def reset_objects(self) -> None:
        """Drop all object state (benchmark replays reuse the index)."""
        self.locations.clear()
        self.report_times.clear()
        self._objects_by_edge.clear()
        self._labels = None
        self._dirty_full = False
        self._oldest = _INF
        self._pending_inserts.clear()
        self.latest_time = 0.0
        self.messages_ingested = 0
        self.update_touches = 0
        self.labels_built = 0
        self.rebuilds_full = 0
        self.inserts_incremental = 0
        self.query_pops = 0
        self.fallback_scans = 0

    # ------------------------------------------------------------------
    # materialization
    # ------------------------------------------------------------------
    def needs_rebuild(self, t_now: float | None = None) -> bool:
        """True when a query at ``t_now`` will pay a full materialization."""
        now = self.latest_time if t_now is None else t_now
        return (
            self._labels is None
            or self._dirty_full
            # the same comparison as _visible (and StandingRule.expired)
            or self._oldest < now - self.t_delta
        )

    def _visible(self, obj: int, t_now: float) -> bool:
        return self.report_times.get(obj, -_INF) >= t_now - self.t_delta

    def _ensure_built(self, now: float) -> None:
        if self.needs_rebuild(now):
            self._rebuild_full(now)
        elif self._pending_inserts:
            for obj in sorted(self._pending_inserts):
                self._insert_object(obj)
            self._pending_inserts.clear()

    def _rebuild_full(self, now: float) -> None:
        """One reverse multi-source k-best label Dijkstra over the
        objects visible at ``now`` (expiry is monotone, so the lists
        stay exact until the oldest of them expires)."""
        n = self.graph.num_vertices
        labels: list[list[tuple[float, int]]] = [[] for _ in range(n)]
        have: list[set[int]] = [set() for _ in range(n)]
        visible = [obj for obj in sorted(self.locations) if self._visible(obj, now)]
        self._oldest = min((self.report_times[o] for o in visible), default=_INF)
        heap: list[tuple[float, int, int]] = []
        for obj in visible:
            loc = self.locations[obj]
            heap.append((loc.offset, obj, self.graph.edge(loc.edge_id).source))
        heapq.heapify(heap)
        k_max = self.k_max
        in_edges = self.graph.in_edges
        while heap:
            d, obj, v = heapq.heappop(heap)
            lab = labels[v]
            if len(lab) >= k_max or obj in have[v]:
                continue
            lab.append((d, obj))
            have[v].add(obj)
            self.labels_built += 1
            for e in in_edges(v):
                heapq.heappush(heap, (d + e.weight, obj, e.source))
        self._labels = labels
        self._dirty_full = False
        self._pending_inserts.clear()
        self.rebuilds_full += 1

    def _insert_object(self, obj: int) -> None:
        """Pruned reverse Dijkstra inserting one new object's labels.

        Expansion stops where the object provably cannot enter the
        top-``k_max`` (its distance is strictly beyond the vertex's
        worst label); ties keep expanding so the canonical ``(distance,
        id)`` order is preserved exactly.
        """
        assert self._labels is not None
        loc = self.locations[obj]
        start = self.graph.edge(loc.edge_id).source
        best: dict[int, float] = {start: loc.offset}
        heap: list[tuple[float, int]] = [(loc.offset, start)]
        k_max = self.k_max
        in_edges = self.graph.in_edges
        while heap:
            d, v = heapq.heappop(heap)
            if d > best.get(v, _INF):
                continue
            lab = self._labels[v]
            if len(lab) < k_max or (d, obj) < lab[-1]:
                insort(lab, (d, obj))
                if len(lab) > k_max:
                    lab.pop()
                self.labels_built += 1
            elif d > lab[-1][0]:
                continue  # strictly dominated: prune the whole branch
            for e in in_edges(v):
                nd = d + e.weight
                if nd < best.get(e.source, _INF):
                    best[e.source] = nd
                    heapq.heappush(heap, (nd, e.source))
        self.inserts_incremental += 1

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def knn(
        self, location: NetworkLocation, k: int, t_now: float | None = None
    ) -> KnnAnswer:
        """Exact kNN from the materialized lists (``k <= k_max``)."""
        validate_knn_args(self.graph, location, k)
        now = self.latest_time if t_now is None else t_now
        answer = KnnAnswer()
        t0 = time.perf_counter()
        if k > self.k_max:
            self._scan_fallback(location, k, now, answer)
        else:
            self._list_query(location, k, now, answer)
        answer.cpu_seconds["search"] = time.perf_counter() - t0
        return answer

    def _list_query(
        self, location: NetworkLocation, k: int, now: float, answer: KnnAnswer
    ) -> None:
        self._ensure_built(now)
        assert self._labels is not None
        edge = self.graph.edge(location.edge_id)
        candidates = {obj for _, obj in self._labels[edge.dest]}
        if location.at_source():
            candidates.update(obj for _, obj in self._labels[edge.source])
        for obj in self._objects_by_edge.get(location.edge_id, ()):
            if self.locations[obj].offset >= location.offset:
                candidates.add(obj)
        candidates = {o for o in candidates if self._visible(o, now)}
        answer.candidates = len(candidates)
        # forward re-derivation: fold-left float sums, bit-identical to
        # the Dijkstra every other backend runs
        targets = {
            self.graph.edge(self.locations[o].edge_id).source for o in candidates
        }
        stats = SearchStats()
        dist = multi_source_dijkstra(
            self.graph, entry_costs(self.graph, location), targets=targets,
            stats=stats,
        )
        self.query_pops += stats.pops
        scored = [
            (o, location_distance(self.graph, dist, location, self.locations[o]))
            for o in sorted(candidates)
        ]
        ranked = rank_results(scored, k)
        answer.entries = [KnnResultEntry(o, d) for o, d in ranked]
        answer.refine_settled = stats.settled

    def _scan_fallback(
        self, location: NetworkLocation, k: int, now: float, answer: KnnAnswer
    ) -> None:
        """``k > k_max``: the Naive exhaustive sweep (exact, priced)."""
        self.fallback_scans += 1
        answer.used_fallback = True
        stats = SearchStats()
        dist = multi_source_dijkstra(
            self.graph, entry_costs(self.graph, location), stats=stats
        )
        self.query_pops += stats.pops
        scored = [
            (obj, location_distance(self.graph, dist, location, loc))
            for obj, loc in self.locations.items()
            if self._visible(obj, now)
        ]
        ranked = rank_results(scored, k)
        answer.entries = [KnnResultEntry(o, d) for o, d in ranked]
        answer.candidates = len(scored)
        answer.refine_settled = stats.settled

    def range_query(self, location: NetworkLocation, radius: float, t_now=None):
        """All visible objects within ``radius``, canonical order."""
        validate_knn_args(self.graph, location, 1)
        now = self.latest_time if t_now is None else t_now
        dist = multi_source_dijkstra(
            self.graph, entry_costs(self.graph, location), radius=radius
        )
        scored = [
            (obj, location_distance(self.graph, dist, location, loc))
            for obj, loc in self.locations.items()
            if self._visible(obj, now)
        ]
        return [(o, d) for o, d in rank_results(scored) if d <= radius]

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    @property
    def num_objects(self) -> int:
        return len(self.locations)

    def size_bytes(self) -> dict[str, int]:
        lists = (
            sum(len(lab) for lab in self._labels) * _LABEL_BYTES
            if self._labels is not None
            else 0
        )
        table = len(self.locations) * (TABLE_ENTRY_BYTES + 16)
        return {"cpu": table + lists, "gpu": 0, "total": table + lists}
