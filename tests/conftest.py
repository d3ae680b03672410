"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.config import GGridConfig
from repro.core.messages import Message
from repro.roadnet.generators import grid_road_network
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.location import NetworkLocation


@pytest.fixture(scope="session")
def small_graph() -> RoadNetwork:
    """An 8x8 perturbed lattice, strongly connected (session-cached)."""
    return grid_road_network(8, 8, seed=1)


@pytest.fixture(scope="session")
def medium_graph() -> RoadNetwork:
    """A 12x12 perturbed lattice for integration-level tests."""
    return grid_road_network(12, 12, seed=3)


@pytest.fixture
def line_graph() -> RoadNetwork:
    """A 5-vertex bidirectional path with unit weights: 0-1-2-3-4."""
    g = RoadNetwork()
    for i in range(5):
        g.add_vertex(float(i), 0.0)
    for i in range(4):
        g.add_bidirectional_edge(i, i + 1, 1.0)
    return g


@pytest.fixture
def triangle_graph() -> RoadNetwork:
    """A directed triangle 0->1->2->0 with weights 1, 2, 3."""
    g = RoadNetwork()
    g.add_vertices(3)
    g.add_edge(0, 1, 1.0)
    g.add_edge(1, 2, 2.0)
    g.add_edge(2, 0, 3.0)
    return g


@pytest.fixture
def fast_config() -> GGridConfig:
    """A small-bundle config that keeps unit tests fast."""
    return GGridConfig(eta=3, delta_b=8)


def random_location(graph: RoadNetwork, rng: random.Random) -> NetworkLocation:
    """A uniformly random on-edge location (test helper)."""
    edge = rng.randrange(graph.num_edges)
    return NetworkLocation(edge, rng.uniform(0.0, graph.edge(edge).weight))


def rereports_in_place(index) -> list[Message]:
    """One object per occupied cell of ``index``, re-reported where it
    stands (test helper).

    Ingesting them moves nothing, but each occupied cell's list gets an
    append, so its next cleaning takes the full cycle instead of serving
    its clean record.
    """
    table = index.object_table
    messages = []
    for cell in table.occupied_cells():
        obj = min(table.objects_in_cell(cell))
        entry = table.get(obj)
        messages.append(Message(obj, entry.edge, entry.offset, entry.t))
    return messages
