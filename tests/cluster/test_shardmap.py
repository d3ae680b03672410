"""Shard map invariants and the cell-distance bound's soundness."""

from __future__ import annotations

import functools
import heapq
import random
from array import array

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cluster import CellDistanceBound, ShardMap, ShardRange, ShardRouter
from repro.config import GGridConfig
from repro.core.graph_grid import GraphGrid
from repro.errors import ClusterError
from repro.mobility.workload import make_workload
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.location import NetworkLocation

from tests.conformance.oracle import oracle_vertex_distances
from tests.conftest import random_location

pytestmark = pytest.mark.cluster


class TestShardMap:
    def test_balanced_covers_every_cell_once(self):
        m = ShardMap.balanced(16, 3)
        counts = {sid: 0 for sid in m.shard_ids}
        for cell in range(16):
            counts[m.shard_of_cell(cell)] += 1
        assert sum(counts.values()) == 16
        # near-equal: sizes differ by at most one cell
        assert max(counts.values()) - min(counts.values()) <= 1

    def test_ranges_are_contiguous_z_runs(self):
        m = ShardMap.balanced(64, 5)
        for r in m.ranges:
            cells = list(m.cells_of(r.shard_id))
            assert cells == list(range(r.lo, r.hi + 1))

    def test_one_shard_owns_everything(self):
        m = ShardMap.balanced(7, 1)
        assert {m.shard_of_cell(c) for c in range(7)} == {0}

    def test_more_shards_than_cells_rejected(self):
        with pytest.raises(ClusterError):
            ShardMap.balanced(4, 5)

    def test_zero_shards_rejected(self):
        with pytest.raises(ClusterError):
            ShardMap.balanced(4, 0)

    def test_gap_rejected(self):
        with pytest.raises(ClusterError):
            ShardMap(8, [ShardRange(0, 0, 2), ShardRange(1, 4, 7)])

    def test_overlap_rejected(self):
        with pytest.raises(ClusterError):
            ShardMap(8, [ShardRange(0, 0, 4), ShardRange(1, 4, 7)])

    def test_duplicate_shard_id_rejected(self):
        with pytest.raises(ClusterError):
            ShardMap(8, [ShardRange(0, 0, 3), ShardRange(0, 4, 7)])

    def test_short_cover_rejected(self):
        with pytest.raises(ClusterError):
            ShardMap(8, [ShardRange(0, 0, 5)])

    def test_inverted_range_rejected(self):
        with pytest.raises(ClusterError):
            ShardRange(0, 5, 2)

    def test_cell_out_of_range_rejected(self):
        m = ShardMap.balanced(8, 2)
        with pytest.raises(ClusterError):
            m.shard_of_cell(8)

    def test_unknown_shard_rejected(self):
        m = ShardMap.balanced(8, 2)
        with pytest.raises(ClusterError):
            m.cells_of(9)


class TestSplit:
    def test_split_peels_tail_onto_new_id(self):
        m = ShardMap.balanced(16, 2)  # 0: [0,7], 1: [8,15]
        new = m.split(0, at_cell=4)
        assert new == 2
        assert list(m.cells_of(0)) == [0, 1, 2, 3]
        assert list(m.cells_of(2)) == [4, 5, 6, 7]
        assert list(m.cells_of(1)) == list(range(8, 16))
        assert [m.shard_of_cell(c) for c in (3, 4, 8)] == [0, 2, 1]

    def test_split_keeps_map_valid(self):
        m = ShardMap.balanced(16, 2)
        m.split(1, at_cell=12)
        owners = [m.shard_of_cell(c) for c in range(16)]
        assert owners == [0] * 8 + [1] * 4 + [2] * 4
        assert m.num_shards == 3

    def test_repeated_splits_never_reuse_ids(self):
        m = ShardMap.balanced(16, 1)
        first = m.split(0, at_cell=8)
        second = m.split(first, at_cell=12)
        assert len({0, first, second}) == 3

    def test_split_outside_range_rejected(self):
        m = ShardMap.balanced(16, 2)
        with pytest.raises(ClusterError):
            m.split(0, at_cell=0)  # would empty the left half
        with pytest.raises(ClusterError):
            m.split(0, at_cell=8)  # belongs to shard 1
        with pytest.raises(ClusterError):
            m.split(7, at_cell=4)  # unknown shard


@pytest.fixture(scope="module")
def grid(small_graph):
    return GraphGrid.build(small_graph, GGridConfig(eta=3, delta_b=8))


@pytest.fixture(scope="module")
def bound(grid):
    return CellDistanceBound(grid)


class TestCellDistanceBound:
    def test_self_distance_zero(self, bound):
        for cell in range(bound.num_cells):
            assert bound.distances_from(cell)[cell] == 0.0

    def test_cached(self, bound):
        assert bound.distances_from(0) is bound.distances_from(0)

    def test_bad_cell_rejected(self, bound):
        with pytest.raises(ClusterError):
            bound.distances_from(bound.num_cells)

    def test_cell_distance_never_exceeds_vertex_distance(
        self, small_graph, grid, bound
    ):
        """The cell graph is a relaxation: for any pair of vertices the
        cell-graph distance between their cells lower-bounds the true
        network distance (the soundness core of the pruning rule)."""
        rng = random.Random(11)
        for _ in range(20):
            u = rng.randrange(small_graph.num_vertices)
            start = NetworkLocation(small_graph.out_edges(u)[0].id, 0.0)
            dist = oracle_vertex_distances(small_graph, start)
            from_cell = bound.distances_from(grid.cell_of_vertex[u])
            for v, d in dist.items():
                assert from_cell[grid.cell_of_vertex[v]] <= d + 1e-9

    def test_lower_bound_is_sound_for_locations(
        self, small_graph, grid, bound
    ):
        """lb(query, cells(object)) <= true distance(query, object), for
        random query/object location pairs — including same-edge pairs,
        which is the case the dest-cell-only bound gets wrong."""
        rng = random.Random(23)
        for _ in range(40):
            q = random_location(small_graph, rng)
            if rng.random() < 0.25:
                # force the same-edge-ahead shortcut case
                w = small_graph.edge(q.edge_id).weight
                o = NetworkLocation(q.edge_id, rng.uniform(q.offset, w))
            else:
                o = random_location(small_graph, rng)
            dist = oracle_vertex_distances(small_graph, q)
            source = small_graph.edge(o.edge_id).source
            true = dist.get(source, float("inf")) + o.offset
            if o.edge_id == q.edge_id and o.offset >= q.offset:
                true = min(true, o.offset - q.offset)
            cell = grid.cell_of_edge(o.edge_id)
            lb = bound.lower_bound_to_cells(q, range(cell, cell + 1))
            assert lb <= true + 1e-9

    def test_unreachable_cells_bound_to_infinity(self):
        """Two disconnected components: the bound must report inf, which
        the router treats as 'this shard cannot hold any answer'."""
        g = RoadNetwork()
        for i in range(4):
            g.add_vertex(float(i % 2), float(i // 2))
        g.add_bidirectional_edge(0, 1, 1.0)
        g.add_bidirectional_edge(2, 3, 1.0)
        grid = GraphGrid.build(g, GGridConfig(delta_c=1, eta=3, delta_b=8))
        bound = CellDistanceBound(grid)
        c0 = grid.cell_of_vertex[0]
        c2 = grid.cell_of_vertex[2]
        if c0 != c2:
            assert bound.distances_from(c0)[c2] == float("inf")

    def test_rows_are_packed_and_equal_a_plain_list_dijkstra(
        self, grid, bound
    ):
        """Rows are stored as ``array('d')``; every read is the float a
        plain-list Dijkstra over the same cell graph computes."""
        cov = grid.cell_of_vertex
        adj: list[dict[int, float]] = [{} for _ in range(bound.num_cells)]
        for e in grid.graph.edges():
            a, b = cov[e.source], cov[e.dest]
            if a != b and e.weight < adj[a].get(b, float("inf")):
                adj[a][b] = e.weight
        for cell in range(bound.num_cells):
            want = [float("inf")] * bound.num_cells
            want[cell] = 0.0
            heap = [(0.0, cell)]
            while heap:
                d, u = heapq.heappop(heap)
                if d > want[u]:
                    continue
                for v, w in adj[u].items():
                    if d + w < want[v]:
                        want[v] = d + w
                        heapq.heappush(heap, (d + w, v))
            row = bound.distances_from(cell)
            assert isinstance(row, array) and row.typecode == "d"
            assert list(row) == want


def two_source_graph(seed: int, two_components: bool) -> RoadNetwork:
    """A random directed graph whose weights force float rounding
    (0.1 + 0.2) and distance ties (0, 1, 2); optionally two components
    with no edge between them, so some shards bound to ``inf``."""
    rng = random.Random(seed)
    g = RoadNetwork()
    n = 36
    halves = [range(0, n // 2), range(n // 2, n)] if two_components else [range(n)]
    for half, vertices in enumerate(halves):
        for _ in vertices:
            g.add_vertex(rng.random() + 2.0 * half, rng.random())
    weights = (0.1, 0.2, 0.3, 0.7, 1.0, 2.0) * 4 + (0.0,)
    for vertices in halves:
        vs = list(vertices)
        for a, b in zip(vs, vs[1:] + vs[:1]):
            g.add_edge(a, b, rng.choice(weights))
        for _ in range(2 * len(vs)):
            a, b = rng.sample(vs, 2)
            g.add_edge(a, b, rng.choice(weights))
    return g


@functools.lru_cache(maxsize=None)
def bound_for(seed: int, two_components: bool) -> CellDistanceBound:
    g = two_source_graph(seed, two_components)
    return CellDistanceBound(
        GraphGrid.build(g, GGridConfig(delta_c=3, eta=3, delta_b=8))
    )


def eager_order(bound, location, shard_map, exclude):
    return sorted(
        (bound.lower_bound_to_cells(location, shard_map.cells_of(s)), s)
        for s in shard_map.shard_ids
        if s != exclude
    )


class TestShardsByBound:
    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 5),
        two_components=st.booleans(),
        same_cell=st.booleans(),
        num_shards=st.integers(1, 6),
        data=st.data(),
    )
    def test_equals_eager_sorted_bounds(
        self, seed, two_components, same_cell, num_shards, data
    ):
        """The lazy two-source order is the eager per-shard sort, floats
        compared with ``==``: after any splits, for query edges inside
        one cell and across two, and with unreachable (``inf``) shards."""
        bound = bound_for(seed, two_components)
        grid, g = bound.grid, bound.grid.graph
        m = ShardMap.balanced(bound.num_cells, min(num_shards, bound.num_cells))
        for _ in range(data.draw(st.integers(0, 3), label="splits")):
            wide = [r for r in m.ranges if r.num_cells > 1]
            if not wide:
                break
            r = data.draw(st.sampled_from(wide), label="split shard")
            m.split(r.shard_id, data.draw(st.integers(r.lo + 1, r.hi), label="at"))
        edges = [
            e for e in g.edges()
            if (grid.cell_of_vertex[e.source] == grid.cell_of_vertex[e.dest])
            == same_cell
        ]
        assume(edges)
        e = data.draw(st.sampled_from(edges), label="edge")
        loc = NetworkLocation(e.id, data.draw(st.floats(0.0, e.weight)))
        home = m.shard_of_cell(grid.cell_of_edge(e.id))
        assert list(bound.shards_by_bound(loc, m, home)) == eager_order(
            bound, loc, m, home
        )

    def test_two_components_yield_inf_bounds(self):
        bound = bound_for(0, True)
        grid = bound.grid
        m = ShardMap.balanced(bound.num_cells, 4)
        loc = NetworkLocation(0, 0.0)
        home = m.shard_of_cell(grid.cell_of_edge(0))
        got = list(bound.shards_by_bound(loc, m, home))
        assert got == eager_order(bound, loc, m, home)
        assert any(lb == float("inf") for lb, _ in got)

    def test_replay_never_fills_the_row_cache(
        self, small_graph, fast_config
    ):
        """A seeded sharded replay, kNN and range, discovers shards
        without a single cached per-cell row."""
        workload = make_workload(
            small_graph, num_objects=40, duration=6.0, num_queries=12, k=4,
            seed=2,
        )
        with ShardRouter(small_graph, fast_config, num_shards=4) as router:
            _, answers = router.replay(workload, collect_answers=True)
            for q in workload.queries[:4]:
                router.range_query(q.location, 2.0, t_now=6.0)
            assert any(len(a.entries) for a in answers)
            assert router.bound._cache == {}

    def test_first_item_settles_part_of_the_cell_graph(self, grid, bound):
        """Pulling one shard settles only the cells up to the nearest
        foreign shard (and one tie-breaking pop past it)."""

        class CountingAdj(list):
            settled = 0

            def __getitem__(self, cell):
                CountingAdj.settled += 1
                return super().__getitem__(cell)

        m = ShardMap.balanced(bound.num_cells, 4)
        counted = CellDistanceBound(grid)
        counted._adj = CountingAdj(counted._adj)
        rng = random.Random(5)
        for _ in range(10):
            loc = random_location(grid.graph, rng)
            home = m.shard_of_cell(grid.cell_of_edge(loc.edge_id))
            CountingAdj.settled = 0
            first = next(counted.shards_by_bound(loc, m, home))
            assert first == eager_order(bound, loc, m, home)[0]
            assert CountingAdj.settled < bound.num_cells
