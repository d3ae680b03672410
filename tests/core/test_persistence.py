"""Unit tests for object removal and contract expiry (snapshot tests
live in ``tests/persist/test_snapshot.py``)."""

import random

import pytest

from repro.config import GGridConfig
from repro.core.ggrid import GGridIndex
from repro.core.messages import Message
from repro.errors import UnknownObjectError
from repro.roadnet.location import NetworkLocation


def _populated(graph, seed=4):
    rng = random.Random(seed)
    index = GGridIndex(graph, GGridConfig(eta=3, delta_b=8, rho=2.5))
    for obj in range(25):
        e = rng.randrange(graph.num_edges)
        index.ingest(Message(obj, e, rng.uniform(0, graph.edge(e).weight), 1.0))
    return index


def test_remove_object(medium_graph):
    index = _populated(medium_graph)
    index.remove_object(3, t=5.0)
    assert 3 not in index.object_table
    answer = index.knn(NetworkLocation(0, 0.0), k=25, t_now=5.0)
    assert 3 not in answer.objects()


def test_remove_unknown_object(medium_graph):
    index = GGridIndex(medium_graph, GGridConfig(eta=3, delta_b=8))
    with pytest.raises(UnknownObjectError):
        index.remove_object(7, t=1.0)


def test_removed_object_can_reappear(medium_graph):
    index = _populated(medium_graph)
    index.remove_object(3, t=5.0)
    index.ingest(Message(3, 0, 0.1, 6.0))
    answer = index.knn(NetworkLocation(0, 0.05), k=1, t_now=6.0)
    assert answer.entries[0].obj == 3


def test_cleaning_expires_contract_violators(medium_graph):
    """An object silent past t_delta disappears from the object table
    when its cell is cleaned, keeping GPU and CPU views consistent."""
    index = GGridIndex(medium_graph, GGridConfig(eta=3, delta_b=4, t_delta=10.0))
    for i in range(4):  # fill a bucket so pruning is whole-bucket
        index.ingest(Message(1, 0, 0.1, 1.0 + 0.1 * i))
    index.ingest(Message(2, 0, 0.2, 95.0))
    cell = index.grid.cell_of_edge(0)
    result = index.clean_cells({cell}, t_now=100.0)
    assert result.objects_expired == 1
    assert 1 not in index.object_table
    assert 2 in index.object_table
