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

Algorithm 5 always runs ``|V|`` rounds; with
``GGridConfig.sdist_early_exit`` (default on, ablated in the benchmarks)
the kernel stops as soon as a round changes nothing, charging only the
rounds it ran.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.graph_grid import CellSlab, GridVertexElement
from repro.core.ordering import result_sort_key
from repro.simgpu.kernel import JobContext, KernelContext

_INF = float("inf")


def get_sdist_kernel(backend: str):
    """Resolve the configured SDist backend.

    ``"lockstep"`` is the faithful per-element kernel below;
    ``"vectorized"`` is the numpy formulation in
    :mod:`repro.core.sdist_vectorized` (same results, faster host
    simulation).

    Raises:
        ConfigError: unknown backend name.
    """
    from repro.errors import ConfigError

    if backend == "lockstep":
        return sdist_kernel
    if backend == "vectorized":
        from repro.core.sdist_vectorized import sdist_kernel_vectorized

        return sdist_kernel_vectorized
    raise ConfigError(f"unknown sdist backend {backend!r}")


def sdist_kernel(
    ctx: KernelContext,
    elements: list[GridVertexElement] | CellSlab,
    vertices: list[int],
    seeds: Mapping[int, float],
    delta_v: int,
    early_exit: bool = True,
) -> dict[int, float]:
    """Compute restricted shortest distances from the query seeds.

    Args:
        ctx: kernel context (one thread per vertex element).
        elements: vertex elements (incl. virtual) of the candidate cells;
            each carries its incoming-edge records.  A
            :class:`~repro.core.graph_grid.CellSlab` also works — this
            faithful kernel iterates its per-element view.
        vertices: the distinct real vertex ids (``V``); the round count.
        seeds: ``{vertex: initial distance}`` from the query location
            (see :func:`repro.roadnet.location.entry_costs`).
        delta_v: vertex capacity — the per-thread inner loop length.
        early_exit: stop when a round makes no improvement.

    Returns:
        ``{vertex: distance}`` for every vertex of ``V`` reachable from
        the seeds *within* the candidate subgraph.
    """
    in_set = set(vertices)
    dist: dict[int, float] = {
        v: seeds.get(v, _INF) for v in vertices
    }
    rounds_run = 0
    for _ in range(max(1, len(vertices))):
        changed = False
        rounds_run += 1
        for element in elements:
            v = element.real_id
            dv = dist[v]
            for rec in element.edges:
                src = rec.source
                if src not in in_set:
                    continue  # source outside the shipped subgraph
                ds = dist[src]
                if ds + rec.weight < dv:
                    dv = ds + rec.weight
                    changed = True
            dist[v] = dv
        ctx.sync_threads()
        if early_exit and not changed:
            break
    # every thread scans its delta_v edge slots each round (Algorithm 5)
    ctx.charge(rounds_run * delta_v)
    return {v: d for v, d in dist.items() if d < _INF}


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
    jobs: list[tuple[list[GridVertexElement] | CellSlab, list[int], Mapping[int, float]]],
    kernel,
    delta_v: int,
    early_exit: bool = True,
) -> list[dict[int, float]]:
    """``GPU_SDist`` for an epoch: per-query restricted distances, one launch.

    Args:
        ctx: the fused launch's context.
        jobs: per query, its ``(elements, vertices, seeds)`` triple — the
            same arguments the per-query :func:`sdist_kernel` takes.
        kernel: the configured SDist backend (lockstep or vectorized).
        delta_v: vertex capacity (shared by all jobs; a config constant).
        early_exit: stop each job when a round changes nothing.

    Returns one ``{vertex: distance}`` map per job, in job order.
    """
    results = []
    for elements, vertices, seeds in jobs:
        sub = JobContext(ctx, max(1, len(elements)))
        results.append(kernel(sub, elements, vertices, seeds, delta_v, early_exit))
    return results


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
