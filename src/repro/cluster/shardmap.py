"""Z-range shard map and the cell-distance pruning bound.

A cluster partitions the graph grid's Z-ordered cells (Section III-A)
into contiguous ranges, one per shard.  Contiguity matters twice: the
Z-curve keeps spatially close cells close in the array, so a contiguous
range is a compact region of the road network (good update locality for
moving objects), and a range splits into two contiguous ranges with one
cut, which is all :meth:`ShardMap.split` needs to peel load off a hot
shard without remapping anything else.

:class:`CellDistanceBound` supplies the scatter-gather pruning rule: a
sound lower bound on the network distance from a query location to any
object homed in a given cell range.  A shard whose bound cannot beat the
current k-th distance holds no answer and is never probed;
:meth:`CellDistanceBound.shards_by_bound` hands the router shards in
bound order, settling only as much of the cell graph as it pulls.
"""

from __future__ import annotations

import heapq
from array import array
from collections.abc import Iterator
from dataclasses import dataclass

from repro.core.graph_grid import GraphGrid
from repro.errors import ClusterError
from repro.roadnet.location import NetworkLocation

_INF = float("inf")


@dataclass(frozen=True, slots=True)
class ShardRange:
    """One shard's contiguous cell range ``[lo, hi]`` (inclusive)."""

    shard_id: int
    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.shard_id < 0:
            raise ClusterError(f"shard_id must be >= 0, got {self.shard_id}")
        if self.lo < 0 or self.hi < self.lo:
            raise ClusterError(
                f"invalid cell range [{self.lo}, {self.hi}] for shard "
                f"{self.shard_id}"
            )

    @property
    def num_cells(self) -> int:
        return self.hi - self.lo + 1


class ShardMap:
    """Assignment of every grid cell to exactly one shard.

    The ranges must tile ``[0, num_cells)`` with no gaps or overlaps and
    carry distinct shard ids; cell lookup is a single array read.

    Example:
        >>> m = ShardMap.balanced(16, 4)
        >>> [m.shard_of_cell(c) for c in (0, 5, 15)]
        [0, 1, 3]
        >>> m.split(0, at_cell=2)  # peel [2, 3] off shard 0 as shard 4
        4
        >>> m.shard_of_cell(3), m.num_shards
        (4, 5)
    """

    def __init__(self, num_cells: int, ranges: list[ShardRange]) -> None:
        if num_cells < 1:
            raise ClusterError(f"num_cells must be >= 1, got {num_cells}")
        if not ranges:
            raise ClusterError("a shard map needs at least one range")
        ordered = sorted(ranges, key=lambda r: r.lo)
        expected_lo = 0
        seen: set[int] = set()
        for r in ordered:
            if r.shard_id in seen:
                raise ClusterError(f"duplicate shard id {r.shard_id}")
            seen.add(r.shard_id)
            if r.lo != expected_lo:
                raise ClusterError(
                    f"ranges must tile the cells contiguously: expected a "
                    f"range starting at {expected_lo}, got [{r.lo}, {r.hi}]"
                )
            expected_lo = r.hi + 1
        if expected_lo != num_cells:
            raise ClusterError(
                f"ranges cover cells [0, {expected_lo}) but the grid has "
                f"{num_cells}"
            )
        self.num_cells = num_cells
        self.ranges = ordered
        self._shard_of_cell: list[int] = [0] * num_cells
        self._range_of_shard: dict[int, ShardRange] = {}
        for r in ordered:
            self._range_of_shard[r.shard_id] = r
            for cell in range(r.lo, r.hi + 1):
                self._shard_of_cell[cell] = r.shard_id

    @classmethod
    def balanced(cls, num_cells: int, num_shards: int) -> "ShardMap":
        """Contiguous Z ranges of near-equal cell counts, ids ``0..n-1``."""
        if num_shards < 1:
            raise ClusterError(f"num_shards must be >= 1, got {num_shards}")
        if num_shards > num_cells:
            raise ClusterError(
                f"cannot spread {num_cells} cells over {num_shards} shards"
            )
        base, extra = divmod(num_cells, num_shards)
        ranges = []
        lo = 0
        for sid in range(num_shards):
            size = base + (1 if sid < extra else 0)
            ranges.append(ShardRange(sid, lo, lo + size - 1))
            lo += size
        return cls(num_cells, ranges)

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return len(self.ranges)

    @property
    def shard_ids(self) -> list[int]:
        """Shard ids in cell-range order."""
        return [r.shard_id for r in self.ranges]

    def shard_of_cell(self, cell: int) -> int:
        if not 0 <= cell < self.num_cells:
            raise ClusterError(f"cell {cell} outside [0, {self.num_cells})")
        return self._shard_of_cell[cell]

    def cells_of(self, shard_id: int) -> range:
        r = self._range_of_shard.get(shard_id)
        if r is None:
            raise ClusterError(f"unknown shard id {shard_id}")
        return range(r.lo, r.hi + 1)

    # ------------------------------------------------------------------
    # rebalancing
    # ------------------------------------------------------------------
    def split(self, shard_id: int, at_cell: int) -> int:
        """Split ``shard_id``'s range at ``at_cell``, in place.

        The shard keeps ``[lo, at_cell - 1]``; a new shard (id =
        ``max(ids) + 1``, so existing assignments never move) takes
        ``[at_cell, hi]``.  Returns the new shard id.

        Raises:
            ClusterError: unknown shard, or a cut that would leave either
                side empty.
        """
        r = self._range_of_shard.get(shard_id)
        if r is None:
            raise ClusterError(f"unknown shard id {shard_id}")
        if not r.lo < at_cell <= r.hi:
            raise ClusterError(
                f"split point {at_cell} must fall inside ({r.lo}, {r.hi}] "
                f"of shard {shard_id}"
            )
        new_id = max(self._range_of_shard) + 1
        kept = ShardRange(shard_id, r.lo, at_cell - 1)
        peeled = ShardRange(new_id, at_cell, r.hi)
        self.ranges[self.ranges.index(r)] = kept
        self.ranges.insert(self.ranges.index(kept) + 1, peeled)
        self._range_of_shard[shard_id] = kept
        self._range_of_shard[new_id] = peeled
        for cell in range(at_cell, r.hi + 1):
            self._shard_of_cell[cell] = new_id
        return new_id


class CellDistanceBound:
    """Sound lower bounds on network distance between grid cells.

    Built from the directed *cell graph*: ``cost(a -> b)`` is the minimum
    weight of any road edge whose source vertex lies in cell ``a`` and
    destination in cell ``b`` (0 within a cell).  Any network path from a
    vertex in cell ``a`` to a vertex in cell ``b`` pays at least the
    minimum crossing weight for every inter-cell hop and >= 0 inside each
    cell, so the cell-graph shortest distance never exceeds the true
    network distance.  Per-source-cell distances are one Dijkstra over at
    most ``4^psi`` nodes, cached.

    For a query at ``<e, d>`` the bound to a cell must take the *minimum*
    over the cells of both endpoints of ``e``:

    * the traveller finishes edge ``e`` first, so every reachable target
      goes through ``dest(e)`` and ``celldist(cell_of(dest(e)), .)`` is a
      valid bound for it — *except* an object ahead on the same edge
      (``d' >= d``), reached for ``d' - d`` without touching ``dest(e)``;
      that object is homed in ``cell_of(source(e))``, whose own term is 0.

    Dropping the source-cell term is unsound exactly in that same-edge
    case (all crossing edges heavy, the object one metre ahead); taking
    the min keeps both cases covered.
    """

    def __init__(self, grid: GraphGrid) -> None:
        self.grid = grid
        self.num_cells = grid.num_cells
        cell_of_vertex = grid.cell_of_vertex
        best: dict[tuple[int, int], float] = {}
        for e in grid.graph.edges():
            a = cell_of_vertex[e.source]
            b = cell_of_vertex[e.dest]
            if a == b:
                continue
            key = (a, b)
            w = best.get(key)
            if w is None or e.weight < w:
                best[key] = e.weight
        self._adj: list[list[tuple[int, float]]] = [
            [] for _ in range(self.num_cells)
        ]
        for (a, b), w in best.items():
            self._adj[a].append((b, w))
        #: one row per source cell, as packed float64 (8 bytes a cell, a
        #: quarter of a float list); reads return the same Python floats
        self._cache: dict[int, array] = {}

    def distances_from(self, cell: int) -> array:
        """Cell-graph shortest distances from ``cell`` (cached Dijkstra)."""
        cached = self._cache.get(cell)
        if cached is not None:
            return cached
        if not 0 <= cell < self.num_cells:
            raise ClusterError(f"cell {cell} outside [0, {self.num_cells})")
        dist = [_INF] * self.num_cells
        dist[cell] = 0.0
        heap: list[tuple[float, int]] = [(0.0, cell)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, w in self._adj[u]:
                nd = d + w
                if nd < dist[v]:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        row = self._cache[cell] = array("d", dist)
        return row

    def query_cells(self, location: NetworkLocation) -> tuple[int, int]:
        """The cells of the query edge's source and destination vertex."""
        e = self.grid.graph.edge(location.edge_id)
        cov = self.grid.cell_of_vertex
        return cov[e.source], cov[e.dest]

    def lower_bound_to_cells(
        self, location: NetworkLocation, cells: range
    ) -> float:
        """Lower bound from ``location`` to any object homed in ``cells``.

        ``inf`` means no object in those cells is reachable at all (every
        finite network distance admits a finite cell-graph path), so the
        caller can skip the shard outright.
        """
        src_cell, dst_cell = self.query_cells(location)
        ds = self.distances_from(src_cell)
        dd = self.distances_from(dst_cell)
        return min(min(ds[c], dd[c]) for c in cells)

    def shards_by_bound(
        self, location: NetworkLocation, shard_map: ShardMap, exclude: int
    ) -> Iterator[tuple[float, int]]:
        """Yield ``(lower bound, shard id)`` for every shard but
        ``exclude``, in ascending ``(bound, id)`` order, lazily.

        One two-source Dijkstra over the cell graph, seeded with both
        query cells at 0, settles cells in distance order; the first
        settled cell of a shard is the min over its range, so the shard
        is released then.  Shards first reached at the same distance are
        held until a farther cell pops and released together, sorted by
        id; shards never reached follow as ``(inf, id)``, sorted by id.
        The consumer stops pulling once a bound exceeds its pruning
        radius, so the search settles only the cells within that radius.

        The output equals ``sorted((lower_bound_to_cells(location,
        shard_map.cells_of(s)), s) for s != exclude)`` bit for bit: float
        addition is monotone, so ``fl(min(a, b) + w) == min(fl(a + w),
        fl(b + w))`` and the two-source fixed point is the elementwise
        min of the two single-source ones.  No row is cached.
        """
        src_cell, dst_cell = self.query_cells(location)
        adj = self._adj
        shard_of_cell = shard_map._shard_of_cell
        dist = [_INF] * self.num_cells
        dist[src_cell] = dist[dst_cell] = 0.0
        heap = sorted({(0.0, src_cell), (0.0, dst_cell)})
        seen = {exclude}
        unseen = len(shard_map._range_of_shard.keys() - seen)
        tied: list[int] = []
        tied_d = 0.0
        while heap and unseen:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            if tied and d > tied_d:
                tied.sort()
                for sid in tied:
                    yield tied_d, sid
                tied.clear()
            sid = shard_of_cell[u]
            if sid not in seen:
                seen.add(sid)
                tied.append(sid)
                tied_d = d
                unseen -= 1
            for v, w in adj[u]:
                nd = d + w
                if nd < dist[v]:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        tied.sort()
        for sid in tied:
            yield tied_d, sid
        for sid in sorted(s for s in shard_map._range_of_shard if s not in seen):
            yield _INF, sid
