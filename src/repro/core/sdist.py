"""GPU_SDist: parallel shortest distances over the candidate cells
(Algorithm 5).

Dijkstra's algorithm is inherently sequential, so the paper adapts
Bellman–Ford instead: one GPU thread per *vertex element* repeatedly
relaxes the (at most ``delta_v``) incoming edges stored with its vertex.
Because the graph grid groups edges by destination vertex, two threads
never write the same distance slot and no locking is needed; a barrier
separates rounds.  Distances are restricted to the shipped subgraph —
edges whose source lies outside the candidate cells are skipped, which is
exactly what the unresolved-vertex refinement compensates for.

The kernel runs **synchronous rounds**: every relaxation of a round reads
the distances the previous round left behind the barrier, and the round's
improvements become visible only after the next ``sync_threads``.  That is
what the barrier means on a device whose threads run concurrently — no
thread may rely on another thread's write from the same round — so the
charged rounds, ``rounds × delta_v`` lane operations per element thread
plus one barrier per round, are the work such a device really does.  The
host executes a round as one numpy gather and one ``minimum.at`` scatter
over the :class:`~repro.core.graph_grid.CellSlab`'s packed edge records;
a minimum is exact in any order, so the distances do not depend on the
scatter order.

Algorithm 5 always runs ``|V|`` rounds; with
``GGridConfig.sdist_early_exit`` (default on, ablated in the benchmarks)
the kernel stops after the first round that changes nothing, charging
only the rounds it ran.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.core.graph_grid import CellSlab
from repro.core.ordering import result_sort_key
from repro.errors import ConfigError
from repro.simgpu.kernel import JobContext, KernelContext

_INF = float("inf")


def get_sdist_kernel(name: str):
    """Resolve the SDist kernel by its launch name, ``"GPU_SDist"``.

    The fused epoch launch in :mod:`repro.core.knn` looks the kernel up
    through this module global at every launch, so a profiler can wrap
    what it returns without touching the library.

    Raises:
        ConfigError: any other name.
    """
    if name != "GPU_SDist":
        raise ConfigError(f"unknown sdist kernel {name!r}")
    return sdist_kernel


def sdist_kernel(
    ctx: KernelContext,
    slab: CellSlab,
    seeds: Mapping[int, float],
    delta_v: int,
    early_exit: bool = True,
) -> dict[int, float]:
    """Compute restricted shortest distances from the query seeds.

    Args:
        ctx: kernel context (one thread per vertex element).
        slab: the candidate cells' packed subgraph; its vertices are
            ``V`` (and bound the round count), its element count is the
            thread count.
        seeds: ``{vertex: initial distance}`` from the query location
            (see :func:`repro.roadnet.location.entry_costs`); seeds
            outside the slab are ignored.
        delta_v: vertex capacity — the per-thread inner loop length.
        early_exit: stop after the first round that changes nothing.

    Returns:
        ``{vertex: distance}`` for every vertex of ``V`` reachable from
        the seeds *within* the candidate subgraph, in slab order.
    """
    n = slab.n_vertices
    dist = np.full(n, np.inf)
    for v, cost in seeds.items():
        i = slab.local_of(v)
        if i is not None:
            dist[i] = min(dist[i], cost)
    src, tgt, wgt = slab.src_local, slab.tgt_local, slab.weights

    rounds_run = 0
    for _ in range(max(1, n)):
        rounds_run += 1
        before = dist.copy()
        if len(src):
            np.minimum.at(dist, tgt, before[src] + wgt)
        ctx.sync_threads()
        if early_exit and np.array_equal(before, dist):
            break
    # every thread scans its delta_v edge slots each round (Algorithm 5)
    ctx.charge(rounds_run * delta_v, n_threads=max(1, len(slab)))
    reached = np.flatnonzero(dist < _INF)
    return dict(zip(slab.vertex_ids[reached].tolist(), dist[reached].tolist()))


def first_k_kernel(
    ctx: KernelContext,
    object_distances: dict[int, float],
    k: int,
) -> list[tuple[int, float]]:
    """``GPU_First_k``: the k candidate objects nearest to the query.

    One thread per object computes its distance (done by the caller and
    passed in); a parallel bitonic-style sort picks the k smallest.  The
    simulated cost is the parallel sort depth ``O(log^2 |M|)``.

    Returns ``(obj, distance)`` pairs in the canonical result order
    (ascending distance, ties broken by ascending object id — see
    :mod:`repro.core.ordering`).
    """
    n = max(1, len(object_distances))
    depth = max(1, n.bit_length())
    ctx.charge(1 + depth * depth)  # distance eval + bitonic sort stages
    ranked = sorted(object_distances.items(), key=result_sort_key)
    return ranked[:k]


def unresolved_kernel(
    ctx: KernelContext,
    boundary_vertices: list[int],
    dist: Mapping[int, float],
    l_bound: float,
) -> list[tuple[int, float]]:
    """``GPU_Unresolved``: boundary vertices closer to the query than the
    k-th candidate (Definition 3).

    One thread per vertex performs the O(1) boolean check.

    Returns ``(vertex, restricted distance)`` pairs.
    """
    ctx.charge(1, n_threads=max(1, len(boundary_vertices)))
    result = []
    for v in boundary_vertices:
        d = dist.get(v, _INF)
        if d < l_bound:
            result.append((v, d))
    return result


# ----------------------------------------------------------------------
# fused epoch kernels (every device kNN query runs through these)
# ----------------------------------------------------------------------
# Each ``*_batch_kernel`` runs one job per in-flight query of an epoch
# inside a single launch, which the caller names after the per-query
# kernel (``GPU_SDist``, ``GPU_First_k``, ``GPU_Unresolved``).  The
# queries' thread blocks execute side by side, so an epoch of Q queries
# pays one launch overhead (and one D2H staging round-trip, handled by
# the caller) instead of Q; a single query is an epoch of one.  Every job
# charges its work through a :class:`~repro.simgpu.kernel.JobContext`
# with that job's own thread count, so the fused launch's modelled work
# is exactly that of the per-query launches it replaces — fusion saves
# fixed overheads, never modelled work.  Results are job-ordered and
# bit-identical to running each per-query kernel individually.


def sdist_batch_kernel(
    ctx: KernelContext,
    jobs: list[tuple[CellSlab, Mapping[int, float]]],
    kernel,
    delta_v: int,
    early_exit: bool = True,
) -> list[dict[int, float]]:
    """``GPU_SDist`` for an epoch: per-query restricted distances, one launch.

    Args:
        ctx: the fused launch's context.
        jobs: per query, its ``(slab, seeds)`` pair — the same arguments
            the per-query :func:`sdist_kernel` takes.
        kernel: :func:`sdist_kernel`, as :func:`get_sdist_kernel`
            resolves it.
        delta_v: vertex capacity (shared by all jobs; a config constant).
        early_exit: stop each job when a round changes nothing.

    Returns one ``{vertex: distance}`` map per job, in job order.
    """
    return [
        kernel(JobContext(ctx, max(1, len(slab))), slab, seeds, delta_v, early_exit)
        for slab, seeds in jobs
    ]


def first_k_batch_kernel(
    ctx: KernelContext,
    jobs: list[tuple[dict[int, float], int]],
) -> list[list[tuple[int, float]]]:
    """``GPU_First_k`` for an epoch: per-query candidate ranking, one launch.

    ``jobs`` holds one ``(object_distances, k)`` pair per query; returns
    each query's ranked candidates in the canonical result order.
    """
    return [
        first_k_kernel(JobContext(ctx, max(1, len(object_distances))), object_distances, k)
        for object_distances, k in jobs
    ]


def unresolved_batch_kernel(
    ctx: KernelContext,
    jobs: list[tuple[list[int], Mapping[int, float], float]],
) -> list[list[tuple[int, float]]]:
    """``GPU_Unresolved`` for an epoch: per-query boundary checks, one launch.

    ``jobs`` holds one ``(boundary_vertices, dist, l_bound)`` triple per
    query; returns each query's unresolved ``(vertex, distance)`` pairs.
    """
    return [
        unresolved_kernel(JobContext(ctx, max(1, len(boundary))), boundary, dist, l_bound)
        for boundary, dist, l_bound in jobs
    ]
