"""Exactness of the one ``GPU_SDist`` kernel against the synchronous-rounds
reference in :mod:`tests.core.sdist_oracle`: bit-equal distances, and
exactly the rounds, lane operations and barriers the reference implies."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import GGridConfig
from repro.core.ggrid import GGridIndex
from repro.core.graph_grid import GraphGrid
from repro.core.messages import Message
from repro.core.sdist import get_sdist_kernel, sdist_kernel
from repro.errors import ConfigError
from repro.roadnet.generators import grid_road_network
from repro.roadnet.location import NetworkLocation
from repro.simgpu.device import SimGpu

from tests.core.sdist_oracle import sync_rounds_reference


def _hex(dist):
    return {v: d.hex() for v, d in dist.items()}


def _check(graph, grid, cells, seeds, early_exit):
    """Launch the kernel on ``cells`` and compare everything with the
    reference; return the reference's round count."""
    delta_v = grid.config.delta_v
    slab = grid.pack_of_cells(cells)
    vertices = grid.vertices_of_cells(cells)
    assert slab.vertex_ids.tolist() == vertices
    # one thread per vertex element: max(1, ceil(in-degree / delta_v)) each
    n_elements = sum(max(1, -(-len(graph.in_edges(v)) // delta_v)) for v in vertices)
    assert len(slab) == n_elements
    gpu = SimGpu()
    dist = gpu.launch(
        "GPU_SDist", max(1, len(slab)), sdist_kernel, slab, seeds, delta_v, early_exit
    )
    expected, rounds = sync_rounds_reference(graph, vertices, seeds, early_exit)
    assert list(dist) == list(expected)  # same vertices, in slab order
    assert _hex(dist) == _hex(expected)
    assert gpu.stats.lane_ops == rounds * delta_v * max(1, n_elements)
    assert gpu.stats.sync_count == rounds
    assert gpu.stats.kernel_launches == 1
    return rounds


def test_matches_sync_rounds_reference(small_graph):
    grid = GraphGrid.build(small_graph, GGridConfig())
    cells = set(range(min(8, grid.num_cells)))
    seeds = {grid.vertices_of_cells(cells)[0]: 0.0}
    assert _check(small_graph, grid, cells, seeds, early_exit=True) > 1


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 10**6),
    st.sampled_from((1, 2)),
    st.booleans(),
)
def test_matches_reference_property(seed, delta_v, early_exit):
    """Random slabs with virtual elements, seeds in and outside the slab."""
    rng = random.Random(seed)
    graph = grid_road_network(6, 6, seed=seed % 5)
    grid = GraphGrid.build(graph, GGridConfig(delta_v=delta_v))
    n = grid.num_cells
    cells = set(rng.sample(range(n), rng.randrange(0, min(12, n))))
    inside = grid.vertices_of_cells(cells)
    outside = sorted(set(range(graph.num_vertices)) - set(inside))
    seeds = {}
    for pool in (inside, inside, outside):
        if pool and rng.random() < 0.8:
            seeds[rng.choice(pool)] = rng.uniform(0, 2.0)
    _check(graph, grid, cells, seeds, early_exit)


def test_virtual_elements_charge_per_element(small_graph):
    """At delta_v = 1 every in-edge is its own element thread."""
    grid = GraphGrid.build(small_graph, GGridConfig(delta_v=1))
    cells = set(range(min(6, grid.num_cells)))
    vertices = grid.vertices_of_cells(cells)
    assert len(grid.pack_of_cells(cells)) > len(vertices)  # virtual elements exist
    _check(small_graph, grid, cells, {vertices[-1]: 0.5}, early_exit=True)


def test_empty_slab_runs_one_round(small_graph):
    grid = GraphGrid.build(small_graph, GGridConfig())
    assert _check(small_graph, grid, set(), {0: 0.0}, early_exit=True) == 1
    assert _check(small_graph, grid, set(), {}, early_exit=False) == 1


def test_no_early_exit_runs_every_round(small_graph):
    grid = GraphGrid.build(small_graph, GGridConfig())
    cells = set(range(min(5, grid.num_cells)))
    vertices = grid.vertices_of_cells(cells)
    rounds = _check(small_graph, grid, cells, {vertices[0]: 0.0}, early_exit=False)
    assert rounds == len(vertices)


def test_get_sdist_kernel_resolution():
    assert get_sdist_kernel("GPU_SDist") is sdist_kernel
    for name in ("lockstep", "vectorized", "cuda"):
        with pytest.raises(ConfigError):
            get_sdist_kernel(name)


def test_host_rung_answers_identical(medium_graph):
    """The device launch and the ``cpu_sdist`` host rung run the same
    kernel: their kNN answers are bit-identical."""
    rng = random.Random(5)
    index = GGridIndex(medium_graph, GGridConfig(eta=3, delta_b=8))
    for obj in range(30):
        e = rng.randrange(medium_graph.num_edges)
        t = 1.0 + obj * 1e-3  # distinct timestamps: host and device dedup agree
        index.ingest(Message(obj, e, rng.uniform(0, medium_graph.edge(e).weight), t))
    queries = []
    for _ in range(5):
        e = rng.randrange(medium_graph.num_edges)
        queries.append((NetworkLocation(e, rng.uniform(0, medium_graph.edge(e).weight)), 6))
    host = index._processor.query_batch(queries, 2.0, use_gpu=False)
    device = index._processor.query_batch(queries, 2.0)
    assert [[(x.obj, x.distance.hex()) for x in a.entries] for a in host] == [
        [(x.obj, x.distance.hex()) for x in a.entries] for a in device
    ]
