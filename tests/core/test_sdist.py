"""Unit and property tests for GPU_SDist / GPU_First_k / GPU_Unresolved."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import GGridConfig
from repro.core.graph_grid import GraphGrid
from repro.core.sdist import first_k_kernel, sdist_kernel, unresolved_kernel
from repro.roadnet.dijkstra import multi_source_dijkstra
from repro.roadnet.generators import grid_road_network
from repro.simgpu.device import SimGpu


def _restricted_dijkstra(graph, vertices, seeds):
    """Oracle: Dijkstra on the subgraph induced by ``vertices``."""
    sub, mapping = graph.subgraph(vertices)
    local_seeds = {mapping[v]: c for v, c in seeds.items() if v in mapping}
    dist = multi_source_dijkstra(sub, local_seeds)
    inverse = {new: old for old, new in mapping.items()}
    return {inverse[v]: d for v, d in dist.items()}


def _run_sdist(graph, grid, cells, seeds, early_exit=True):
    gpu = SimGpu()
    slab = grid.pack_of_cells(cells)
    return (
        gpu.launch(
            "sdist",
            max(1, len(slab)),
            sdist_kernel,
            slab,
            seeds,
            grid.config.delta_v,
            early_exit,
        ),
        gpu,
    )


@pytest.fixture(scope="module")
def built(small_graph):
    return GraphGrid.build(small_graph, GGridConfig())


def test_sdist_matches_restricted_dijkstra(built, small_graph):
    grid = built
    cells = set(range(min(6, grid.num_cells)))
    vertices = grid.vertices_of_cells(cells)
    seeds = {vertices[0]: 0.0}
    dist, _ = _run_sdist(small_graph, grid, cells, seeds)
    oracle = _restricted_dijkstra(small_graph, vertices, seeds)
    assert set(dist) == set(oracle)
    for v, d in oracle.items():
        assert dist[v] == pytest.approx(d)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10**6))
def test_sdist_property_random_cells(seed):
    """Property: GPU_SDist == Dijkstra restricted to the shipped cells."""
    rng = random.Random(seed)
    graph = grid_road_network(6, 6, seed=seed % 5)
    grid = GraphGrid.build(graph, GGridConfig())
    n = grid.num_cells
    cells = set(rng.sample(range(n), rng.randrange(2, min(10, n))))
    vertices = grid.vertices_of_cells(cells)
    if not vertices:
        return
    seed_v = rng.choice(vertices)
    seeds = {seed_v: rng.uniform(0, 2.0)}
    dist, _ = _run_sdist(graph, grid, cells, seeds)
    oracle = _restricted_dijkstra(graph, vertices, seeds)
    assert set(dist) == set(oracle)
    for v, d in oracle.items():
        assert dist[v] == pytest.approx(d)


def test_sdist_early_exit_same_result(built, small_graph):
    grid = built
    cells = set(range(min(8, grid.num_cells)))
    seeds = {grid.vertices_of_cells(cells)[0]: 0.0}
    fast, gpu_fast = _run_sdist(small_graph, grid, cells, seeds, early_exit=True)
    slow, gpu_slow = _run_sdist(small_graph, grid, cells, seeds, early_exit=False)
    assert fast == slow
    assert gpu_fast.stats.sync_count <= gpu_slow.stats.sync_count


def test_sdist_unreachable_excluded(built, small_graph):
    """Vertices unreachable inside the cell subset are absent (inf)."""
    grid = built
    # two far-apart cells, seed in one: the other likely unreachable
    cells = {0, grid.num_cells - 1}
    vertices = grid.vertices_of_cells(cells)
    seeds = {vertices[0]: 0.0}
    dist, _ = _run_sdist(small_graph, grid, cells, seeds)
    oracle = _restricted_dijkstra(small_graph, vertices, seeds)
    assert set(dist) == set(oracle)


def test_first_k_kernel_ranks():
    gpu = SimGpu()
    dists = {1: 5.0, 2: 1.0, 3: 3.0, 4: 1.0}
    ranked = gpu.launch("firstk", 4, first_k_kernel, dists, 3)
    assert ranked == [(2, 1.0), (4, 1.0), (3, 3.0)]  # ties by id


def test_first_k_with_fewer_objects_than_k():
    gpu = SimGpu()
    ranked = gpu.launch("firstk", 1, first_k_kernel, {7: 2.0}, 5)
    assert ranked == [(7, 2.0)]


def test_unresolved_kernel_filters_by_bound():
    gpu = SimGpu()
    dist = {1: 0.5, 2: 2.0, 3: 1.5}
    out = gpu.launch("unres", 3, unresolved_kernel, [1, 2, 3, 4], dist, 1.6)
    assert out == [(1, 0.5), (3, 1.5)]  # 2 is too far, 4 unreachable


def test_unresolved_infinite_bound_takes_all_reachable():
    gpu = SimGpu()
    dist = {1: 0.5, 2: 2.0}
    out = gpu.launch("unres", 2, unresolved_kernel, [1, 2], dist, float("inf"))
    assert out == [(1, 0.5), (2, 2.0)]
