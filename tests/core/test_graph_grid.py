"""Unit tests for the graph grid structure (Section III-A)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import GGridConfig
from repro.core.graph_grid import GraphGrid
from repro.errors import UnknownEdgeError
from repro.roadnet.graph import RoadNetwork

from tests.core.pack_oracle import pack_reference


@pytest.fixture(scope="module")
def grid(small_graph):
    return GraphGrid.build(small_graph, GGridConfig())


def test_every_vertex_in_one_cell(grid, small_graph):
    seen = sorted(
        vid for cell in grid.cells for vid in cell.real_vertices
    )
    assert seen == list(range(small_graph.num_vertices))


def test_cell_vertex_capacity(grid):
    assert all(cell.n_v <= grid.config.delta_c for cell in grid.cells)


def _records_by_vertex(grid):
    """``{vertex: [edge ids of its stored in-edge records]}`` read back
    from the packed per-cell record arrays."""
    records: dict[int, list[int]] = {}
    ri = grid._cell_rec_indptr
    for z, cell in enumerate(grid.cells):
        for r in range(ri[z], ri[z + 1]):
            vid = cell.real_vertices[grid._rec_tgt_pos[r]]
            records.setdefault(vid, []).append(int(grid._rec_edge_id[r]))
    return records


def test_elements_respect_vertex_capacity(grid):
    """Each cell packs ``max(1, ceil(in-degree / delta_v))`` elements per
    vertex, so no element holds more than ``delta_v`` records."""
    records = _records_by_vertex(grid)
    delta_v = grid.config.delta_v
    for z, cell in enumerate(grid.cells):
        elements = [max(1, -(-len(records.get(v, [])) // delta_v)) for v in cell.real_vertices]
        assert grid._cell_elem_counts[z] == sum(elements)
        assert len(grid.pack_of_cells({z})) == sum(elements)
        for v, n_el in zip(cell.real_vertices, elements):
            assert len(records.get(v, [])) <= n_el * delta_v


def test_virtual_vertices_cover_all_in_edges(grid, small_graph):
    """Every in-edge of every vertex is stored exactly once, with its
    destination vertex, and with its source and weight."""
    stored: dict[int, int] = {}
    for vid, edge_ids in _records_by_vertex(grid).items():
        for edge_id in edge_ids:
            assert edge_id not in stored
            stored[edge_id] = vid
    assert len(stored) == small_graph.num_edges
    for e in small_graph.edges():
        assert stored[e.id] == e.dest
    by_id = {int(i): r for r, i in enumerate(grid._rec_edge_id)}
    for e in small_graph.edges():
        assert grid._rec_src[by_id[e.id]] == e.source
        assert grid._rec_weight[by_id[e.id]] == e.weight


def test_virtual_vertex_creation():
    """A vertex with in-degree above delta_v spawns virtual elements."""
    g = RoadNetwork()
    hub = g.add_vertex()
    for i in range(5):
        v = g.add_vertex()
        g.add_bidirectional_edge(v, hub, 1.0)
    grid = GraphGrid.build(g, GGridConfig(delta_c=6, delta_v=2))
    assert grid.num_cells == 1
    assert len(_records_by_vertex(grid)[hub]) == 5
    # ceil(5 / 2) = 3 elements for the hub, one per single-in-edge leaf
    assert len(grid.pack_of_cells({0})) == 3 + 5


def test_inverted_index_routes_by_source(grid, small_graph):
    for e in list(small_graph.edges())[:30]:
        assert grid.source_of_edge(e.id) == e.source
        assert grid.cell_of_edge(e.id) == grid.cell_of_vertex[e.source]


def test_unknown_edge_raises(grid):
    with pytest.raises(UnknownEdgeError):
        grid.cell_of_edge(10**9)
    with pytest.raises(UnknownEdgeError):
        grid.source_of_edge(-1)


def test_neighbors_symmetric(grid):
    for z in range(grid.num_cells):
        for n in grid.neighbors(z):
            assert z in grid.neighbors(n)


def test_neighbors_follow_edges(grid, small_graph):
    for e in list(small_graph.edges())[:30]:
        a = grid.cell_of_vertex[e.source]
        b = grid.cell_of_vertex[e.dest]
        if a != b:
            assert b in grid.neighbors(a)


def test_neighbors_of_set_excludes_set(grid):
    cells = {0, 1}
    ring = grid.neighbors_of_set(cells)
    assert not (ring & cells)


def test_vertices_and_element_counts_of_cells(grid):
    cells = set(range(min(4, grid.num_cells)))
    vertices = grid.vertices_of_cells(cells)
    assert len(vertices) == len(set(vertices))
    assert vertices == [v for z in sorted(cells) for v in grid.cells[z].real_vertices]
    slab = grid.pack_of_cells(cells)
    assert slab.vertex_ids.tolist() == vertices
    assert len(slab) == sum(int(grid._cell_elem_counts[z]) for z in cells)
    assert len(slab) >= len(vertices)  # every vertex owns at least one element


@pytest.fixture(scope="module")
def grids_by_delta_v(small_graph):
    return {dv: GraphGrid.build(small_graph, GGridConfig(delta_v=dv)) for dv in (1, 2)}


_ALL_CELLS = frozenset(range(64))  # the 8x8 lattice lays out 64 cells


@settings(max_examples=40, deadline=None)
@given(delta_v=st.sampled_from((1, 2)), cells=st.sets(st.integers(0, 63)))
@example(delta_v=1, cells=set())
@example(delta_v=2, cells={17})
@example(delta_v=1, cells=set(_ALL_CELLS))
@example(delta_v=2, cells=set(_ALL_CELLS))
def test_pack_matches_per_cell_reference(grids_by_delta_v, delta_v, cells):
    grid = grids_by_delta_v[delta_v]
    assert grid.num_cells == len(_ALL_CELLS)
    slab = grid.pack_of_cells(cells)
    vertex_ids, src_local, tgt_local, weights, n_elements, base_of_cell = (
        pack_reference(grid, cells)
    )
    for got, want in (
        (slab.vertex_ids, vertex_ids),
        (slab.src_local, src_local),
        (slab.tgt_local, tgt_local),
        (slab.weights, weights),
    ):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    assert slab.n_elements == n_elements
    assert slab._base_of_cell == base_of_cell
    assert list(slab._base_of_cell) == sorted(cells)
    assert (grid._base_scratch == -1).all()
    # boundary_vertices gathers the same vertices, in the same order
    leaves = [
        v
        for v in vertex_ids.tolist()
        if any(grid.cell_of_vertex[e.dest] not in cells for e in grid.graph.out_edges(v))
    ]
    assert grid.boundary_vertices(cells) == leaves
    assert (grid._base_scratch == -1).all()


def test_boundary_vertices_definition(grid, small_graph):
    cells = {0, 1, 2}
    inside = set(grid.vertices_of_cells(cells))
    boundary = set(grid.boundary_vertices(cells))
    for v in inside:
        crosses = any(
            grid.cell_of_vertex[e.dest] not in cells
            for e in small_graph.out_edges(v)
        )
        assert (v in boundary) == crosses


def test_whole_grid_has_no_boundary(grid):
    all_cells = set(range(grid.num_cells))
    assert grid.boundary_vertices(all_cells) == []


def test_size_accounting_positive(grid, small_graph):
    assert grid.size_bytes() > grid.device_nbytes() > 0
    # CPU copy adds the inverted index over all edges
    assert grid.size_bytes() - grid.device_nbytes() >= small_graph.num_edges * 12
    # pinned byte model; delta_v = 1 overflows 12 elements past delta_c
    assert (grid.size_bytes(), grid.device_nbytes()) == (14168, 8192)
    overflowing = GraphGrid.build(small_graph, GGridConfig(delta_v=1))
    assert (overflowing.size_bytes(), overflowing.device_nbytes()) == (14552, 8576)
