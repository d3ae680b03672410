"""The canonical result order — ascending distance, then ascending id.

Distance ties are real in road networks (co-located objects, symmetric
grids), and every execution path — GPU_First_k, CPU refinement, the
exact-Dijkstra fallback, range queries, batched epochs — must break them
identically or "batched == sequential == oracle" is ill-defined.  These
tests pin the order at the :mod:`repro.core.ordering` primitive, at the
kernel, and at every user-facing query path.
"""

from __future__ import annotations

import random

from repro.config import GGridConfig
from repro.core import GGridIndex
from repro.core.messages import Message
from repro.core.knn import KnnAnswer, KnnResultEntry
from repro.core.ordering import (
    answer_mismatches,
    rank_results,
    result_sort_key,
    same_answer,
)
from repro.core.sdist import first_k_kernel
from repro.roadnet.generators import grid_road_network
from repro.roadnet.location import NetworkLocation
from repro.simgpu.kernel import HostContext

from tests.conftest import random_location

_INF = float("inf")


# ----------------------------------------------------------------------
# the primitive
# ----------------------------------------------------------------------
def test_result_sort_key_orders_distance_then_id():
    items = [(3, 2.0), (9, 1.0), (1, 2.0), (7, 1.0)]
    assert sorted(items, key=result_sort_key) == [(7, 1.0), (9, 1.0), (1, 2.0), (3, 2.0)]


def test_rank_results_drops_unreachable_and_truncates():
    items = [(5, _INF), (2, 3.0), (8, 1.0), (4, 1.0), (6, _INF), (1, 2.0)]
    assert rank_results(items) == [(4, 1.0), (8, 1.0), (1, 2.0), (2, 3.0)]
    assert rank_results(items, k=2) == [(4, 1.0), (8, 1.0)]
    assert rank_results(items, k=0) == []
    assert rank_results([]) == []


def test_rank_results_is_insertion_order_independent():
    items = [(obj, float(obj % 3)) for obj in range(12)]
    shuffled = list(items)
    random.Random(5).shuffle(shuffled)
    assert rank_results(shuffled) == rank_results(items)


# ----------------------------------------------------------------------
# the kernel
def test_same_answer_oracle_rule_and_exact_mode():
    """9-decimal distances, tie groups as id sets; ``exact`` is byte
    identity."""
    base = [(1, 1.0), (2, 2.0), (3, 2.0)]
    drift = [(1, 1.0 + 1e-12), (3, 2.0), (2, 2.0)]  # ulp drift + tie swap
    assert same_answer(drift, base)
    assert not same_answer(drift, base, exact=True)
    assert same_answer(base, list(base), exact=True)
    assert not same_answer([(1, 1.0), (2, 2.0), (4, 2.0)], base)  # other id
    assert not same_answer([(1, 1.0), (9, 2.0)], [(1, 1.0), (2, 2.0)])
    assert not same_answer(base[:2], base)  # shorter answer
    answer = KnnAnswer(entries=[KnnResultEntry(o, d) for o, d in base])
    assert same_answer(answer, base, exact=True)


def test_answer_mismatches_counts_a_length_difference():
    a = [[(1, 1.0)], [(2, 2.0)]]
    b = [[(1, 1.0)], [(3, 2.0)], [(4, 4.0)]]
    assert answer_mismatches(a, b) == [1, 2]
    assert answer_mismatches(a, a) == []


# ----------------------------------------------------------------------
def test_first_k_kernel_breaks_ties_by_id():
    distances = {9: 1.5, 2: 1.5, 7: 0.5, 4: 1.5, 11: 2.5}
    got = first_k_kernel(HostContext(), distances, 4)
    assert got == [(7, 0.5), (2, 1.5), (4, 1.5), (9, 1.5)]


# ----------------------------------------------------------------------
# the query paths
# ----------------------------------------------------------------------
def _tied_index():
    """Ids 9, 3, 7 co-located (ingested shuffled), plus background."""
    graph = grid_road_network(8, 8, seed=21)
    index = GGridIndex(graph, GGridConfig(eta=3, delta_b=8))
    spot = NetworkLocation(10, 0.5 * graph.edge(10).weight)
    for obj in (9, 3, 7):
        index.ingest(Message(obj, spot.edge_id, spot.offset, 1.0))
    rng = random.Random(2)
    for obj in range(30, 42):
        loc = random_location(graph, rng)
        index.ingest(Message(obj, loc.edge_id, loc.offset, 1.0))
    return graph, index


def _assert_canonical(pairs):
    assert pairs == sorted(pairs, key=result_sort_key)


def test_knn_returns_tied_ids_ascending():
    graph, index = _tied_index()
    query = NetworkLocation(10, 0.0)
    got = [(e.obj, e.distance) for e in index.knn(query, 3).entries]
    assert [obj for obj, _ in got] == [3, 7, 9]
    assert len({d for _, d in got}) == 1


def test_knn_batch_returns_tied_ids_ascending():
    graph, index = _tied_index()
    queries = [(NetworkLocation(10, 0.0), 3), (NetworkLocation(0, 0.0), 5)]
    for answer in index.knn_batch(queries):
        _assert_canonical([(e.obj, e.distance) for e in answer.entries])
    got = index.knn_batch(queries)[0]
    assert [e.obj for e in got.entries] == [3, 7, 9]


def test_range_query_returns_tied_ids_ascending():
    graph, index = _tied_index()
    answer = index.range_query(NetworkLocation(10, 0.0), 50.0)
    pairs = [(e.obj, e.distance) for e in answer.entries]
    assert len(pairs) >= 3
    _assert_canonical(pairs)


def test_fallback_path_returns_tied_ids_ascending():
    """k > |objects| answers from the exact-Dijkstra fallback; order must
    still be canonical."""
    graph = grid_road_network(8, 8, seed=22)
    index = GGridIndex(graph, GGridConfig(eta=3, delta_b=8))
    spot = NetworkLocation(4, 0.25 * graph.edge(4).weight)
    for obj in (8, 1, 5):
        index.ingest(Message(obj, spot.edge_id, spot.offset, 1.0))
    answer = index.knn(NetworkLocation(0, 0.0), 10)
    assert answer.used_fallback
    assert [e.obj for e in answer.entries] == [1, 5, 8]
    _assert_canonical([(e.obj, e.distance) for e in answer.entries])
