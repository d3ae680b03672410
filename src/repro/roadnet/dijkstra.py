"""Shortest-path primitives over :class:`~repro.roadnet.graph.RoadNetwork`.

These are the CPU reference algorithms the paper builds on:

* :func:`dijkstra` / :func:`multi_source_dijkstra` — textbook binary-heap
  Dijkstra, used as ground truth for ``GPU_SDist`` and by the baselines;
* :func:`bounded_dijkstra` — radius-limited search used by ``Refine_kNN``
  (Algorithm 6) to explore an unresolved vertex's unresolved range;
* :func:`shortest_path_distance` — point-to-point with early termination.

All functions run on out-edges of the given graph; searching "towards" a
vertex is done by the callers on :meth:`RoadNetwork.reversed`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from repro.roadnet.graph import RoadNetwork

_INF = float("inf")


@dataclass
class SearchStats:
    """Work counters for one search (regression tests read these).

    Attributes:
        pops: heap pops performed, including discarded stale entries.
        settled: vertices settled (size of the returned distance map).
    """

    pops: int = 0
    settled: int = 0


def dijkstra(graph: RoadNetwork, source: int, targets: Iterable[int] | None = None) -> dict[int, float]:
    """Single-source shortest distances from ``source``.

    Args:
        graph: the road network.
        source: start vertex id.
        targets: optional set of vertices; the search stops early once all
            of them are settled.

    Returns:
        ``{vertex: distance}`` for every settled vertex (all reachable
        vertices when ``targets`` is None).
    """
    return multi_source_dijkstra(graph, {source: 0.0}, targets=targets)


def multi_source_dijkstra(
    graph: RoadNetwork,
    seeds: Mapping[int, float],
    targets: Iterable[int] | None = None,
    radius: float = _INF,
    stats: SearchStats | None = None,
) -> dict[int, float]:
    """Dijkstra from multiple seed vertices with given initial costs.

    This is the workhorse behind query-location searches: a location on an
    edge seeds the edge's destination vertex with the remaining edge length
    (see :func:`repro.roadnet.location.entry_costs`).

    Args:
        graph: the road network.
        seeds: ``{vertex: initial_cost}``; costs may be non-zero.
        targets: optional early-exit target set.
        radius: do not settle vertices farther than this.
        stats: optional work counters filled in during the search.

    Returns:
        ``{vertex: distance}`` over settled vertices within ``radius``.
    """
    indptr, targets_arr, weights, _ = graph.csr_out()
    dist: dict[int, float] = {}
    pending = set(targets) if targets is not None else None
    heap: list[tuple[float, int]] = [(c, v) for v, c in seeds.items()]
    heapq.heapify(heap)
    best: dict[int, float] = dict(seeds)
    while heap:
        d, v = heapq.heappop(heap)
        if stats is not None:
            stats.pops += 1
        if d > radius:
            # pops are monotone non-decreasing: nothing left on the heap
            # can settle within the radius, so stop draining it (only
            # over-radius *seeds* can still be queued — relaxations are
            # already guarded by ``nd <= radius`` below)
            break
        if v in dist:
            continue
        dist[v] = d
        if pending is not None:
            pending.discard(v)
            if not pending:
                break
        start, end = indptr[v], indptr[v + 1]
        for i in range(start, end):
            u = int(targets_arr[i])
            nd = d + float(weights[i])
            if nd < best.get(u, _INF) and nd <= radius:
                best[u] = nd
                heapq.heappush(heap, (nd, u))
    if stats is not None:
        stats.settled = len(dist)
    return dist


def bounded_dijkstra(graph: RoadNetwork, source: int, radius: float) -> dict[int, float]:
    """All vertices within network distance ``radius`` of ``source``.

    Used by the CPU refinement step: each unresolved vertex ``v`` explores
    locations with ``dist(v, .) < l - dist(q, v)`` (Definition 3).
    """
    return multi_source_dijkstra(graph, {source: 0.0}, radius=radius)


class BoundedSearch:
    """Repeated bounded Dijkstras over one shared distance array.

    ``Refine_kNN`` runs one radius-limited search per unresolved vertex;
    allocating a fresh ``dict`` per search dominates at paper scale, so
    this helper keeps a full-size ``float64`` distance array plus version
    stamps and reuses them across :meth:`run` calls — resetting is an
    integer bump, not an ``O(|V|)`` wipe.  Settled sets and distances are
    identical to ``multi_source_dijkstra(graph, {source: 0.0},
    radius=radius)`` (regression-tested): the heap relaxation performs
    the same float64 additions in the same order.
    """

    def __init__(self, graph: RoadNetwork) -> None:
        indptr, targets_arr, weights, _ = graph.csr_out()
        self._indptr = indptr
        self._targets = targets_arr
        self._weights = weights
        n = graph.num_vertices
        self._dist = np.zeros(n, dtype=np.float64)
        self._seen = np.zeros(n, dtype=np.int64)  # tentative-written stamp
        self._settled = np.zeros(n, dtype=np.int64)
        self._round = 0

    def run(self, source: int, radius: float, stats: SearchStats | None = None) -> np.ndarray:
        """Settle every vertex within ``radius`` of ``source``.

        Returns the settled vertex ids (int64 array, settling order).
        Their distances stay readable through :meth:`distances` /
        :meth:`is_settled` until the next :meth:`run`.
        """
        self._round += 1
        rnd = self._round
        dist, seen, settled = self._dist, self._seen, self._settled
        indptr, targets_arr, weights = self._indptr, self._targets, self._weights
        heap: list[tuple[float, int]] = [(0.0, source)]
        dist[source] = 0.0
        seen[source] = rnd
        out: list[int] = []
        while heap:
            d, v = heapq.heappop(heap)
            if stats is not None:
                stats.pops += 1
            if d > radius:
                break  # monotone pops: the frontier is exhausted
            if settled[v] == rnd:
                continue
            settled[v] = rnd
            dist[v] = d
            out.append(v)
            start, end = indptr[v], indptr[v + 1]
            for i in range(start, end):
                u = int(targets_arr[i])
                nd = d + float(weights[i])
                if nd <= radius and (seen[u] != rnd or nd < dist[u]):
                    dist[u] = nd
                    seen[u] = rnd
                    heapq.heappush(heap, (nd, u))
        if stats is not None:
            stats.settled = len(out)
        return np.asarray(out, dtype=np.int64)

    def distances(self, vertices: np.ndarray) -> np.ndarray:
        """Distances of the last run for ``vertices`` (must be settled)."""
        return self._dist[vertices]

    def is_settled(self, vertices: np.ndarray) -> np.ndarray:
        """Boolean mask: which of ``vertices`` the last run settled."""
        return self._settled[vertices] == self._round


def shortest_path_distance(graph: RoadNetwork, source: int, dest: int) -> float:
    """Point-to-point shortest distance; ``inf`` when unreachable."""
    if source == dest:
        return 0.0
    dist = multi_source_dijkstra(graph, {source: 0.0}, targets=[dest])
    return dist.get(dest, _INF)
