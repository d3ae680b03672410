"""The graph grid: an array-based grid index over the road network.

Section III-A: vertices are partitioned into ``2^psi x 2^psi`` cells
(:mod:`repro.partition.grid_assign`), cells are laid out in one array
ordered by Z-value, and each cell stores fixed-capacity arrays — at most
``delta_c`` vertex elements, each holding at most ``delta_v`` *incoming*
edges.  A real vertex with more than ``delta_v`` in-edges spills into
*virtual vertex* elements in the same cell.  An inverted index maps every
edge id to its source vertex and that vertex's cell, which is how a
message ``m = <o, e, d, t>`` is routed to a cell (``getCell`` in
Algorithm 1).

Two identical copies of this structure live on the CPU and the GPU; the
index build ships one copy to the simulated device and accounts the
transfer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config import GGridConfig
from repro.errors import UnknownEdgeError
from repro.partition.grid_assign import GridAssignment, assign_cells
from repro.roadnet.graph import RoadNetwork
from repro.simgpu.memory import CELL_BYTES, EDGE_BYTES, TABLE_ENTRY_BYTES, VERTEX_BYTES


@dataclass(slots=True)
class GridCell:
    """One grid cell at Z-position ``z``; its vertex elements and edge
    records live in the grid's packed arrays."""

    z: int
    #: distinct real vertex ids in this cell (the partitioning output)
    real_vertices: list[int] = field(default_factory=list)

    @property
    def n_v(self) -> int:
        return len(self.real_vertices)


class CellSlab:
    """Packed array view of the candidate subgraph over a cell set.

    Built by :meth:`GraphGrid.pack_of_cells` from the grid's one-time
    packed arrays: the distinct vertices of the cells (in the exact order
    :meth:`GraphGrid.vertices_of_cells` returns them) plus the in-edge
    records whose *source also lies inside the cell set*, already
    translated to local vertex indices, and the cells' vertex-element
    count (the ``GPU_SDist`` thread count).  The SDist kernel consumes
    the arrays directly.
    """

    __slots__ = (
        "_grid",
        "vertex_ids",
        "src_local",
        "tgt_local",
        "weights",
        "n_elements",
        "_base_of_cell",
    )

    def __init__(
        self,
        grid: "GraphGrid",
        vertex_ids: np.ndarray,
        src_local: np.ndarray,
        tgt_local: np.ndarray,
        weights: np.ndarray,
        n_elements: int,
        base_of_cell: dict[int, int],
    ) -> None:
        self._grid = grid
        self.vertex_ids = vertex_ids
        self.src_local = src_local
        self.tgt_local = tgt_local
        self.weights = weights
        self.n_elements = n_elements
        self._base_of_cell = base_of_cell

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_ids)

    def __len__(self) -> int:
        """Vertex-element count: ``GPU_SDist`` runs one thread each."""
        return self.n_elements

    def local_of(self, vertex: int) -> int | None:
        """Local index of a global vertex id; None when outside the slab."""
        base = self._base_of_cell.get(self._grid.cell_of_vertex[vertex])
        if base is None:
            return None
        return base + int(self._grid.vert_pos_in_cell[vertex])


def _concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Indices of the ranges ``[starts[i], starts[i] + counts[i])`` laid
    end to end, gathered without a Python loop over the ranges."""
    out_starts = np.cumsum(counts) - counts  # where each range begins
    return np.repeat(starts - out_starts, counts) + np.arange(int(counts.sum()))


class GraphGrid:
    """The assembled grid over a road network.

    Example:
        >>> from repro.roadnet import grid_road_network
        >>> from repro.config import GGridConfig
        >>> g = grid_road_network(6, 6, seed=1)
        >>> grid = GraphGrid.build(g, GGridConfig())
        >>> grid.num_cells >= 1 and grid.cell_of_edge(0) >= 0
        True
    """

    def __init__(
        self,
        graph: RoadNetwork,
        assignment: GridAssignment,
        config: GGridConfig,
    ) -> None:
        self.graph = graph
        self.assignment = assignment
        self.config = config
        self.cells: list[GridCell] = [GridCell(z) for z in range(assignment.num_cells)]
        self.cell_of_vertex: list[int] = list(assignment.cell_of_vertex)
        self._edge_cell: list[int] = [0] * graph.num_edges
        self._edge_source: list[int] = [0] * graph.num_edges
        self._neighbors: list[frozenset[int]] = []
        self._populate()

    @staticmethod
    def build(graph: RoadNetwork, config: GGridConfig) -> "GraphGrid":
        """Partition ``graph`` per the config and assemble the grid."""
        assignment = assign_cells(
            graph, config.delta_c, seed=config.seed, method=config.partitioner
        )
        return GraphGrid(graph, assignment, config)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _populate(self) -> None:
        delta_v = self.config.delta_v
        # packed struct-of-arrays form (DESIGN.md §16), built once here:
        # per-cell CSR of vertices and in-edge records, plus each cell's
        # vertex-element count — a vertex holds at most delta_v in-edges
        # per element and spills the rest into virtual elements
        vert_counts = [0] * len(self.cells)
        elem_counts = [0] * len(self.cells)
        rec_counts = [0] * len(self.cells)
        vert_ids: list[int] = []
        vert_pos: list[int] = [0] * self.graph.num_vertices
        rec_src: list[int] = []
        rec_tgt_pos: list[int] = []
        rec_weight: list[float] = []
        rec_edge_id: list[int] = []
        for z, vertex_ids in enumerate(self.assignment.vertices_of_cell):
            cell = self.cells[z]
            cell.real_vertices = list(vertex_ids)
            vert_counts[z] = len(vertex_ids)
            for pos, vid in enumerate(vertex_ids):
                vert_ids.append(vid)
                vert_pos[vid] = pos
                in_edges = self.graph.in_edges(vid)
                for e in in_edges:
                    rec_src.append(e.source)
                    rec_tgt_pos.append(pos)
                    rec_weight.append(e.weight)
                    rec_edge_id.append(e.id)
                rec_counts[z] += len(in_edges)
                elem_counts[z] += max(1, -(-len(in_edges) // delta_v))
        # inverted index: edge -> (source vertex, cell of the source vertex)
        for e in self.graph.edges():
            self._edge_source[e.id] = e.source
            self._edge_cell[e.id] = self.cell_of_vertex[e.source]
        # cell adjacency: an edge from cell A to cell B links them both ways
        neighbor_sets: list[set[int]] = [set() for _ in self.cells]
        for e in self.graph.edges():
            a = self.cell_of_vertex[e.source]
            b = self.cell_of_vertex[e.dest]
            if a != b:
                neighbor_sets[a].add(b)
                neighbor_sets[b].add(a)
        self._neighbors = [frozenset(s) for s in neighbor_sets]

        # freeze the packed arrays
        cell_np = np.asarray(self.cell_of_vertex, dtype=np.int64)
        self.vert_pos_in_cell = np.asarray(vert_pos, dtype=np.int64)
        self._cell_vert_indptr = np.concatenate(
            ([0], np.cumsum(np.asarray(vert_counts, dtype=np.int64)))
        )
        self._cell_vert_ids = np.asarray(vert_ids, dtype=np.int64)
        self._cell_elem_counts = np.asarray(elem_counts, dtype=np.int64)
        self._cell_rec_indptr = np.concatenate(
            ([0], np.cumsum(np.asarray(rec_counts, dtype=np.int64)))
        )
        self._rec_src = np.asarray(rec_src, dtype=np.int64)
        self._rec_src_cell = cell_np[self._rec_src] if len(rec_src) else np.empty(0, np.int64)
        self._rec_src_pos = (
            self.vert_pos_in_cell[self._rec_src] if len(rec_src) else np.empty(0, np.int64)
        )
        self._rec_tgt_pos = np.asarray(rec_tgt_pos, dtype=np.int64)
        self._rec_weight = np.asarray(rec_weight, dtype=np.float64)
        self._rec_edge_id = np.asarray(rec_edge_id, dtype=np.int64)
        self.edge_source_arr = np.asarray(self._edge_source, dtype=np.int64)
        # out-edge destination cells (for the vectorised boundary test)
        out_indptr, out_targets, _, _ = self.graph.csr_out()
        self._out_indptr = out_indptr
        self._out_dest_cell = cell_np[out_targets] if len(out_targets) else np.empty(0, np.int64)
        # reusable scratch, reset after every use (single-threaded builds)
        self._base_scratch = np.full(len(self.cells), -1, dtype=np.int64)

    # ------------------------------------------------------------------
    # packed candidate-subgraph views
    # ------------------------------------------------------------------
    def pack_of_cells(self, cells: set[int]) -> CellSlab:
        """Slice the packed arrays down to a candidate cell set.

        The slab's vertex order matches :meth:`vertices_of_cells`
        exactly; the kept edge records follow the (cell, vertex, in-edge)
        order of the packed arrays.  Both are gathered in one shot: no
        Python work per cell.
        """
        zs = np.asarray(sorted(cells), dtype=np.int64)
        vi = self._cell_vert_indptr
        ri = self._cell_rec_indptr
        vert_counts = vi[zs + 1] - vi[zs]
        bases = np.cumsum(vert_counts) - vert_counts  # slab offset per cell
        rec_counts = ri[zs + 1] - ri[zs]
        vert_idx = _concat_ranges(vi[zs], vert_counts)
        rec_idx = _concat_ranges(ri[zs], rec_counts)
        base = self._base_scratch
        base[zs] = bases
        src_base = base[self._rec_src_cell[rec_idx]]
        base[zs] = -1  # reset the scratch for the next pack
        keep = src_base >= 0  # drop records whose source is outside the slab
        tgt_local = self._rec_tgt_pos[rec_idx] + np.repeat(bases, rec_counts)
        return CellSlab(
            self,
            self._cell_vert_ids[vert_idx],
            (src_base + self._rec_src_pos[rec_idx])[keep],
            tgt_local[keep],
            self._rec_weight[rec_idx][keep],
            int(self._cell_elem_counts[zs].sum()),
            dict(zip(zs.tolist(), bases.tolist())),
        )

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    @property
    def num_cells(self) -> int:
        return len(self.cells)

    def cell(self, z: int) -> GridCell:
        return self.cells[z]

    def cell_of_edge(self, edge_id: int) -> int:
        """``getCell``: the cell of the edge's source vertex (Algorithm 1).

        Raises:
            UnknownEdgeError: for edge ids outside the network.
        """
        if not 0 <= edge_id < len(self._edge_cell):
            raise UnknownEdgeError(f"unknown edge id {edge_id}")
        return self._edge_cell[edge_id]

    def source_of_edge(self, edge_id: int) -> int:
        if not 0 <= edge_id < len(self._edge_source):
            raise UnknownEdgeError(f"unknown edge id {edge_id}")
        return self._edge_source[edge_id]

    def neighbors(self, z: int) -> frozenset[int]:
        """Cells sharing at least one edge with cell ``z`` (Section V-A)."""
        return self._neighbors[z]

    def neighbors_of_set(self, cells: set[int]) -> set[int]:
        """``neighbors(L) \\ L``: the next expansion ring of Algorithm 4."""
        ring: set[int] = set()
        for z in cells:
            ring |= self._neighbors[z]
        return ring - cells

    def vertices_of_cells(self, cells: set[int]) -> list[int]:
        """Distinct real vertex ids across ``cells`` (the set ``V``)."""
        vi = self._cell_vert_indptr
        parts = [self._cell_vert_ids[vi[z] : vi[z + 1]] for z in sorted(cells)]
        if not parts:
            return []
        return np.concatenate(parts).tolist()

    def boundary_vertices(self, cells: set[int]) -> list[int]:
        """Vertices "on the edge of" ``cells`` (Definition 3): vertices with
        an out-edge whose destination lies outside the cell set.

        Vectorised over the packed arrays; the result keeps the
        :meth:`vertices_of_cells` ordering the per-vertex scan produced.
        """
        zs = np.asarray(sorted(cells), dtype=np.int64)
        vi = self._cell_vert_indptr
        verts = self._cell_vert_ids[_concat_ranges(vi[zs], vi[zs + 1] - vi[zs])]
        if not len(verts):
            return []
        member = self._base_scratch  # reuse as a membership mark (-1 = out)
        member[zs] = 1
        starts = self._out_indptr[verts]
        counts = self._out_indptr[verts + 1] - starts
        flat = _concat_ranges(starts, counts)
        outside = member[self._out_dest_cell[flat]] < 0
        seg = np.repeat(np.arange(len(verts)), counts)
        out_counts = np.bincount(seg, weights=outside, minlength=len(verts))
        member[zs] = -1
        return verts[out_counts > 0].tolist()

    # ------------------------------------------------------------------
    # size accounting (Fig. 6)
    # ------------------------------------------------------------------
    def size_bytes(self) -> int:
        """Modelled byte size of the grid using the paper's C layout:
        128 bytes per cell (padded), 32 per overflow vertex element,
        plus the inverted index at one hash entry per edge."""
        return self.device_nbytes() + self.graph.num_edges * (
            TABLE_ENTRY_BYTES + EDGE_BYTES
        )

    def device_nbytes(self) -> int:
        """Size of the GPU-resident copy (no inverted index on device)."""
        overflow = np.maximum(self._cell_elem_counts - self.config.delta_c, 0)
        return len(self.cells) * CELL_BYTES + int(overflow.sum()) * VERTEX_BYTES
