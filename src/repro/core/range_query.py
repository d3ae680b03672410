"""Range queries over the G-Grid: all objects within a network radius.

A natural extension of the paper's machinery (the "find every car within
2 km" companion of the kNN query).  The same lazy cleaning and restricted
GPU distance computation apply, with a cleaner termination argument than
kNN needs:

    expand and clean candidate-cell rings until **every boundary vertex
    of the cleaned set has restricted distance >= radius**.

At that point the restricted distances are exact for everything that
matters: any true shortest path that leaves the cleaned set first exits
at some boundary vertex ``u`` with an in-set prefix of length
``>= D[u] >= radius``, so neither an outside object nor an
out-and-back shortcut can beat the radius.  No CPU refinement phase is
needed — Theorem-style exactness falls out of the stopping rule (tested
against the brute-force oracle in ``tests/core/test_range_query.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.cleaning import CleanedLocation
from repro.core.knn import KnnProcessor, KnnResultEntry
from repro.core.ordering import rank_results
from repro.core.sdist import sdist_kernel
from repro.errors import QueryError
from repro.roadnet.location import NetworkLocation, entry_costs, location_distance

_INF = float("inf")


@dataclass
class RangeAnswer:
    """Objects within ``radius`` of the query, ascending by distance."""

    entries: list[KnnResultEntry] = field(default_factory=list)
    cells_cleaned: int = 0
    rounds: int = 0

    def objects(self) -> list[int]:
        return [e.obj for e in self.entries]

    def distances(self) -> list[float]:
        return [e.distance for e in self.entries]


def range_query(
    processor: KnnProcessor,
    location: NetworkLocation,
    radius: float,
    t_now: float,
) -> RangeAnswer:
    """All objects within network distance ``radius`` of ``location``.

    Args:
        processor: a G-Grid's kNN processor (shares its cleaner/GPU).
        location: the query location.
        radius: network-distance radius (``> 0``).
        t_now: query time.

    Raises:
        QueryError: for non-positive radii.
    """
    if radius <= 0:
        raise QueryError(f"radius must be positive, got {radius}")
    location.validate(processor.graph)
    answer = RangeAnswer()
    grid = processor.grid
    config = processor.config

    c_q = grid.cell_of_edge(location.edge_id)
    frontier = {c_q} | set(grid.neighbors(c_q))
    cells: set[int] = set()
    occupants: dict[int, tuple[int, CleanedLocation]] = {}
    seeds = entry_costs(processor.graph, location)
    dist: dict[int, float] = {}

    while frontier:
        result = processor.cleaner.clean(
            {c: processor._list_of(c) for c in frontier},
            t_now,
            processor.object_table,
        )
        occupants.update(result.all_objects())
        cells |= frontier
        answer.rounds += 1

        slab = grid.pack_of_cells(cells)
        dist = processor.gpu.launch(
            "GPU_SDist",
            max(1, len(slab)),
            sdist_kernel,
            slab,
            seeds,
            config.delta_v,
            config.sdist_early_exit,
        )
        boundary = grid.boundary_vertices(cells)
        open_boundary = [v for v in boundary if dist.get(v, _INF) < radius]
        if not open_boundary:
            break
        # expand only around still-open boundary vertices
        open_cells = {grid.cell_of_vertex[v] for v in open_boundary}
        ring = grid.neighbors_of_set(cells)
        frontier = {
            c for c in ring
            if any(c in grid.neighbors(oc) for oc in open_cells)
        } or ring

    answer.cells_cleaned = len(cells)
    scored = []
    for obj, (_, loc) in occupants.items():
        target = NetworkLocation(loc.edge, loc.offset)
        d = location_distance(processor.graph, dist, location, target)
        if d <= radius:
            scored.append((obj, d))
    # canonical result order (distance, then object id) — repro.core.ordering
    answer.entries = [KnnResultEntry(obj, d) for obj, d in rank_results(scored)]
    return answer
