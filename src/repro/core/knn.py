"""kNN query processing (Algorithm 4): the CPU–GPU collaboration.

Queries run in epochs through :meth:`KnnProcessor.query_batch`; a single
query is an epoch of one.  Each query runs in three phases:

1. **Candidate cells** — starting from the query's cell and its grid
   neighbours, rings of cells are cleaned (lazily, on the GPU) until at
   least ``rho * k`` live objects have been found;
2. **Candidate results on the GPU** — ``GPU_SDist`` computes restricted
   shortest distances over the candidate cells, ``GPU_First_k`` ranks the
   objects, and ``GPU_Unresolved`` flags boundary vertices whose
   unresolved range could still hide better answers;
3. **Refinement on the CPU** — bounded Dijkstra from each unresolved
   vertex (Algorithm 6) fixes up both missed objects and shortcut paths,
   yielding the exact k nearest neighbours.

If the whole network is cleaned and fewer than ``k`` finite candidates
exist (or all cells hold fewer than ``k`` objects), the processor falls
back to one exact Dijkstra sweep from the query — the paper never hits
this case because ``|O| >> k`` in every experiment, but a library must
answer correctly regardless.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.config import GGridConfig
from repro.core.cleaning import CleanedLocation, MessageCleaner
from repro.core.graph_grid import GraphGrid
from repro.core.message_list import MessageList
from repro.core.object_table import ObjectTable
from repro.core.refine import RefineScratch, refine_knn
from repro.core.sdist import (
    first_k_batch_kernel,
    first_k_kernel,
    get_sdist_kernel,
    sdist_batch_kernel,
    sdist_kernel,
    unresolved_batch_kernel,
    unresolved_kernel,
)
from repro.errors import QueryError
from repro.obs.tracing import span
from repro.roadnet.dijkstra import multi_source_dijkstra
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.location import NetworkLocation, entry_costs, location_distance
from repro.simgpu.device import SimGpu
from repro.simgpu.kernel import HostContext
from repro.simgpu.memory import MESSAGE_BYTES

_INF = float("inf")


@dataclass(frozen=True, slots=True)
class KnnResultEntry:
    """One result object with its exact network distance from the query."""

    obj: int
    distance: float


@dataclass
class KnnAnswer:
    """A kNN answer plus per-phase diagnostics.

    Attributes:
        entries: the k nearest objects, ascending by distance.
        cells_cleaned: candidate cells cleaned for this query.
        candidates: size of the GPU candidate object set.
        unresolved: number of unresolved boundary vertices refined.
        refine_settled: vertices settled by the refinement Dijkstras
            (drives the modelled parallel-CPU time).
        used_fallback: True when the exact-Dijkstra fallback answered.
        cpu_seconds: measured wall time of the CPU-side phases, keyed by
            phase name (``select``, ``refine``).
        gpu_phase_s: simulated GPU seconds attributed to each device
            phase (``clean_cells``, ``sdist``, ``first_k``,
            ``unresolved``) — the per-phase breakdown the observability
            layer reports.
        degraded_rung: resilience rung that produced the answer
            (``"gpu_retry"``, ``"cpu_sdist"`` or ``"dijkstra"``);
            ``None`` for the healthy GPU path.  Every rung is exact.
        retries: GPU attempts retried before this answer.
        backoff_s: modelled backoff seconds charged for those retries.
    """

    entries: list[KnnResultEntry] = field(default_factory=list)
    cells_cleaned: int = 0
    candidates: int = 0
    unresolved: int = 0
    refine_settled: int = 0
    used_fallback: bool = False
    cpu_seconds: dict[str, float] = field(default_factory=dict)
    gpu_phase_s: dict[str, float] = field(default_factory=dict)
    degraded_rung: str | None = None
    retries: int = 0
    backoff_s: float = 0.0

    def objects(self) -> list[int]:
        return [e.obj for e in self.entries]

    def distances(self) -> list[float]:
        return [e.distance for e in self.entries]


@dataclass
class BatchExecStats:
    """Work-sharing accounting for one epoch batch.

    Filled in by :meth:`KnnProcessor.query_batch` when the caller passes
    an instance; the server's batch engine and the cost-accounting
    conformance tests read it to prove the dedup actually happened.

    Attributes:
        queries: queries executed in the batch.
        rounds: shared ring-expansion rounds (each is one cleaning pass
            over the in-flight queries' frontier cells).
        cells_cleaned: distinct cells cleaned once for the whole epoch.
        cell_requests: sum over queries of the candidate cells each
            needed — what sequential execution would have cleaned.
        fallbacks: queries answered by the exact-Dijkstra fallback.
    """

    queries: int = 0
    rounds: int = 0
    cells_cleaned: int = 0
    cell_requests: int = 0
    fallbacks: int = 0

    @property
    def cells_deduped(self) -> int:
        """Cell cleanings avoided versus issuing each query alone."""
        return max(0, self.cell_requests - self.cells_cleaned)

    def reset(self) -> None:
        """Zero all counters (resilience retries re-run the batch)."""
        self.queries = 0
        self.rounds = 0
        self.cells_cleaned = 0
        self.cell_requests = 0
        self.fallbacks = 0


class KnnProcessor:
    """Executes Algorithm 4 against a G-Grid's components."""

    def __init__(
        self,
        graph: RoadNetwork,
        grid: GraphGrid,
        object_table: ObjectTable,
        cleaner: MessageCleaner,
        gpu: SimGpu,
        config: GGridConfig,
        list_factory: Callable[[int], MessageList],
    ) -> None:
        self.graph = graph
        self.grid = grid
        self.object_table = object_table
        self.cleaner = cleaner
        self.gpu = gpu
        self.config = config
        # the owning index's list factory, so its capacity caps (chaos
        # backpressure) apply to every list a query touches
        self._list_of = list_factory
        # shared refinement arrays (built lazily on the first refined query)
        self._refine_scratch: RefineScratch | None = None

    # ------------------------------------------------------------------
    # public entry points
    # ------------------------------------------------------------------
    def query_batch(
        self,
        queries: list[tuple[NetworkLocation, int]],
        t_now: float,
        use_gpu: bool = True,
        exec_stats: BatchExecStats | None = None,
    ) -> list[KnnAnswer]:
        """Answer an epoch of concurrent queries issued at ``t_now``.

        Every kNN query runs here; a single query is an epoch of one.
        Sharing the epoch's work is the mechanism behind the paper's
        *G-Grid* vs *G-Grid (L)* gap (Fig. 5), extended across the whole
        pipeline:

        - **phase 1** — in every expansion round the frontier cells of
          all in-flight queries are cleaned in one GPU pipeline, in the
          order the queries list them and each cell once, so
          overlapping regions are shipped and deduplicated once instead
          of once per query;
        - **phase 2** — the surviving queries' SDist / First-k /
          Unresolved work is fused into one launch per kernel (each job
          still charged at its own thread count, so modelled work is
          what per-query launches would charge) and the candidate sets
          travel back in one shared device-to-host transfer;
        - **phase 3** — CPU refinement fans back out per query.

        ``use_gpu=False`` is the degraded rung: cleaning deduplicates on
        the host and phase 2 executes the same SDist/First-k/Unresolved
        kernels as plain CPU code, never touching the device.

        Returns one :class:`KnnAnswer` per query; each equals the answer
        the query gets in an epoch of its own.  When ``exec_stats`` is
        given it is reset and filled with the epoch's work-sharing
        accounting.

        Raises:
            QueryError: for ``k <= 0`` or a location off the network.
        """
        for location, k in queries:
            if k <= 0:
                raise QueryError(f"k must be positive, got {k}")
            location.validate(self.graph)
        if exec_stats is not None:
            exec_stats.reset()
            exec_stats.queries = len(queries)
        if not queries:
            return []
        answers = [KnnAnswer() for _ in queries]

        # -- phase 1: expand every query's ring against the shared
        # cleaned-cell cache, one cleaning pipeline per round (lines 1-4)
        with span("select_candidates") as sp:
            t0 = time.perf_counter()
            clean_before = self.gpu.stats.gpu_time_s
            cleaned: dict[int, dict[int, CleanedLocation]] = {}
            frontiers: list[set[int]] = []
            for location, _ in queries:
                c_q = self.grid.cell_of_edge(location.edge_id)
                frontiers.append({c_q} | set(self.grid.neighbors(c_q)))
            cells: list[set[int]] = [set() for _ in queries]
            found = [0] * len(queries)  # live objects in each query's cells
            in_flight = list(range(len(queries)))
            rounds = 0
            while in_flight:
                # a dict, not a set union: the cleaner sees the cells in
                # the order the queries list them, which fixes X-shuffle's
                # modelled atomics
                todo = {
                    c: self._list_of(c)
                    for i in in_flight
                    for c in frontiers[i]
                    if c not in cleaned
                }
                if todo:
                    result = self.cleaner.clean(
                        todo, t_now, self.object_table, use_gpu=use_gpu
                    )
                    for cell in todo:
                        cleaned[cell] = result.occupants.get(cell, {})
                rounds += 1
                still = []
                for i in in_flight:
                    # a frontier never overlaps the cells it grows
                    found[i] += sum(len(cleaned[c]) for c in frontiers[i])
                    cells[i] |= frontiers[i]
                    if found[i] >= self.config.rho * queries[i][1]:
                        continue
                    frontiers[i] = self.grid.neighbors_of_set(cells[i])
                    if frontiers[i]:  # else the whole network is cleaned
                        still.append(i)
                in_flight = still
            occupants = [
                {obj: (cell, loc) for cell in q_cells for obj, loc in cleaned[cell].items()}
                for q_cells in cells
            ]
            clean_share = (self.gpu.stats.gpu_time_s - clean_before) / len(queries)
            select_share = (time.perf_counter() - t0) / len(queries)
            sp.set_attr("cells", len(cleaned))
            sp.set_attr("candidates", sum(len(occ) for occ in occupants))

        if exec_stats is not None:
            exec_stats.rounds = rounds
            exec_stats.cells_cleaned = len(cleaned)
            exec_stats.cell_requests = sum(len(c) for c in cells)

        # -- phase 2: degenerate queries drop to the fallback, the rest
        # become jobs of the fused kernel launches (lines 5-9)
        jobs: list[
            tuple[int, NetworkLocation, int, set[int], dict[int, tuple[int, CleanedLocation]]]
        ] = []
        for i, (location, k) in enumerate(queries):
            answer = answers[i]
            answer.cells_cleaned = len(cells[i])
            answer.candidates = len(occupants[i])
            answer.gpu_phase_s["clean_cells"] = clean_share
            answer.cpu_seconds["select"] = select_share
            if len(occupants[i]) < k:
                answers[i] = self._fallback(location, k, answer)
            else:
                jobs.append((i, location, k, cells[i], occupants[i]))

        if jobs:
            if use_gpu:
                phase2 = self._gpu_candidates_batch(jobs, answers)
            else:
                phase2 = [
                    self._host_candidates(location, k, q_cells, occ, answers[i])
                    for i, location, k, q_cells, occ in jobs
                ]
            # -- phase 3: CPU refinement fans back out per query
            for (i, location, k, _, _), (candidates, unresolved, l_bound) in zip(
                jobs, phase2
            ):
                answers[i] = self._refine_answer(
                    location, k, candidates, unresolved, l_bound, answers[i]
                )

        if exec_stats is not None:
            exec_stats.fallbacks = sum(1 for a in answers if a.used_fallback)
        return answers

    def exact_query(self, location: NetworkLocation, k: int) -> KnnAnswer:
        """The last resilience rung: one exact Dijkstra sweep from the
        query against the (eagerly maintained) object table, bypassing
        every index structure and the device entirely.

        Raises:
            QueryError: for ``k <= 0`` or a location off the network.
        """
        if k <= 0:
            raise QueryError(f"k must be positive, got {k}")
        location.validate(self.graph)
        return self._fallback(location, k, KnnAnswer())

    # ------------------------------------------------------------------
    # phase 3
    # ------------------------------------------------------------------
    def _refine_answer(
        self,
        location: NetworkLocation,
        k: int,
        candidates: dict[int, float],
        unresolved: list[tuple[int, float]],
        l_bound: float,
        answer: KnnAnswer,
    ) -> KnnAnswer:
        """Phase 3 (Algorithm 6) on one query's candidate set."""
        if l_bound == _INF:
            return self._fallback(location, k, answer)
        answer.unresolved = len(unresolved)

        if unresolved and self._refine_scratch is None:
            self._refine_scratch = RefineScratch(self.graph, self.grid.cell_of_vertex)
        with span("refine") as sp:
            t0 = time.perf_counter()
            results, settled = refine_knn(
                self.graph,
                self.object_table,
                self.grid.cell_of_vertex,
                candidates,
                unresolved,
                k,
                l_bound,
                scratch=self._refine_scratch,
            )
            answer.cpu_seconds["refine"] = time.perf_counter() - t0
            answer.refine_settled = settled
            sp.set_attr("unresolved", len(unresolved))
            sp.set_attr("settled", settled)
        answer.entries = [KnnResultEntry(o, d) for o, d in results]
        if len(answer.entries) < k:
            return self._fallback(location, k, answer)
        return answer

    # ------------------------------------------------------------------
    # phase 2
    # ------------------------------------------------------------------
    def _score_occupants(
        self,
        location: NetworkLocation,
        dist: dict[int, float],
        occupants: dict[int, tuple[int, CleanedLocation]],
    ) -> dict[int, float]:
        """Candidate distances for ``GPU_First_k``, scored with numpy.

        Column-wise formulation of
        :func:`~repro.roadnet.location.location_distance`: gather each
        candidate's entry-edge source from the packed inverted index, add
        the restricted vertex distance and the on-edge offset, and apply
        the same-edge shortcut as a masked minimum.  The float64
        operations are identical to the scalar helper, so the scores (and
        therefore the ranked results) are bit-identical.
        """
        if not occupants:
            return {}
        n = len(occupants)
        objs: list[int] = []
        edges = np.empty(n, dtype=np.int64)
        offsets = np.empty(n, dtype=np.float64)
        for i, (obj, (_, loc)) in enumerate(occupants.items()):
            objs.append(obj)
            edges[i] = loc.edge
            offsets[i] = loc.offset
        sources = self.grid.edge_source_arr[edges]
        d_src = np.fromiter(
            (dist.get(s, _INF) for s in sources.tolist()), np.float64, n
        )
        scores = d_src + offsets
        ahead = (edges == location.edge_id) & (offsets >= location.offset)
        if ahead.any():
            np.minimum(scores, offsets - location.offset, out=scores, where=ahead)
        return dict(zip(objs, scores.tolist()))

    def _gpu_candidates_batch(
        self,
        jobs: list[
            tuple[int, NetworkLocation, int, set[int], dict[int, tuple[int, CleanedLocation]]]
        ],
        answers: list[KnnAnswer],
    ) -> list[tuple[dict[int, float], list[tuple[int, float]], float]]:
        """Phase 2 on the device: ``GPU_SDist``, ``GPU_First_k`` and
        ``GPU_Unresolved``, each one launch carrying every job.

        Each job charges its work at its own thread count (via
        :class:`~repro.simgpu.kernel.JobContext`), so an epoch of one
        costs exactly one per-query launch per kernel, and a larger
        epoch saves launch overheads and transfer latencies, never
        modelled work.  Kernel time is attributed to each participating
        answer as an equal share; the candidate and unresolved sets of
        all jobs return to the host in one staging transfer.
        """
        stats = self.gpu.stats
        n_jobs = len(jobs)
        indices = [i for i, *_ in jobs]

        with span("sdist") as sp:
            before = stats.kernel_time_s
            sdist_jobs = [
                (self.grid.pack_of_cells(cells), entry_costs(self.graph, location))
                for _, location, _, cells, _ in jobs
            ]
            n_elements = sum(len(slab) for slab, _ in sdist_jobs)
            dists = self.gpu.launch_batched(
                "GPU_SDist",
                max(1, n_elements),
                n_jobs,
                sdist_batch_kernel,
                sdist_jobs,
                get_sdist_kernel("GPU_SDist"),
                self.config.delta_v,
                self.config.sdist_early_exit,
            )
            share = (stats.kernel_time_s - before) / n_jobs
            for i in indices:
                answers[i].gpu_phase_s["sdist"] = share
            sp.set_attr("jobs", n_jobs)
            sp.set_attr("elements", n_elements)

        with span("first_k") as sp:
            before = stats.kernel_time_s
            fk_jobs = []
            for (_, location, k, _, occupants), dist in zip(jobs, dists):
                fk_jobs.append((self._score_occupants(location, dist, occupants), k))
            ranked_lists = self.gpu.launch_batched(
                "GPU_First_k",
                max(1, sum(len(od) for od, _ in fk_jobs)),
                n_jobs,
                first_k_batch_kernel,
                fk_jobs,
            )
            share = (stats.kernel_time_s - before) / n_jobs
            for i in indices:
                answers[i].gpu_phase_s["first_k"] = share
            sp.set_attr("jobs", n_jobs)
            sp.set_attr("candidates", sum(len(od) for od, _ in fk_jobs))

        with span("unresolved") as sp:
            before = stats.kernel_time_s
            bounds = []
            un_jobs = []
            for (_, _, k, cells, _), dist, ranked in zip(jobs, dists, ranked_lists):
                l_bound = ranked[k - 1][1] if len(ranked) >= k else _INF
                bounds.append(l_bound)
                un_jobs.append((self.grid.boundary_vertices(cells), dist, l_bound))
            unresolved_lists = self.gpu.launch_batched(
                "GPU_Unresolved",
                max(1, sum(len(b) for b, _, _ in un_jobs)),
                n_jobs,
                unresolved_batch_kernel,
                un_jobs,
            )
            share = (stats.kernel_time_s - before) / n_jobs
            for i in indices:
                answers[i].gpu_phase_s["unresolved"] = share
            sp.set_attr("jobs", n_jobs)
            sp.set_attr("boundary", sum(len(b) for b, _, _ in un_jobs))

        # the whole batch's candidate + unresolved sets travel back to
        # the CPU in one shared staging transfer
        with span("candidates_d2h"):
            payload = sum(
                len(ranked) * MESSAGE_BYTES + len(unresolved) * 8
                for ranked, unresolved in zip(ranked_lists, unresolved_lists)
            )
            try:
                self.gpu.memory.store("knn.candidates", ranked_lists, nbytes=payload)
                self.gpu.from_device("knn.candidates")
            finally:
                # a faulting transfer must not leak the staging allocation
                self.gpu.free("knn.candidates")

        return [
            ({obj: d for obj, d in ranked}, unresolved, l_bound)
            for ranked, unresolved, l_bound in zip(
                ranked_lists, unresolved_lists, bounds
            )
        ]

    def _host_candidates(
        self,
        location: NetworkLocation,
        k: int,
        cells: set[int],
        occupants: dict[int, tuple[int, CleanedLocation]],
        answer: KnnAnswer,
    ) -> tuple[dict[int, float], list[tuple[int, float]], float]:
        """Phase 2 without the device: the degraded ``cpu_sdist`` rung.

        Runs the *same* kernel functions as the device path — the one
        SDist kernel plus First-k and Unresolved — as plain host code
        through a :class:`~repro.simgpu.kernel.HostContext`, so results
        are bit-identical to :meth:`_gpu_candidates_batch`; no launches,
        transfers or allocations touch the simulated device, so a
        faulting GPU cannot interfere.
        """
        ctx = HostContext("cpu_sdist")
        with span("sdist_cpu") as sp:
            t0 = time.perf_counter()
            slab = self.grid.pack_of_cells(cells)
            dist = sdist_kernel(
                ctx,
                slab,
                entry_costs(self.graph, location),
                self.config.delta_v,
                self.config.sdist_early_exit,
            )

            object_distances = self._score_occupants(location, dist, occupants)
            ranked = first_k_kernel(ctx, object_distances, k)
            l_bound = ranked[k - 1][1] if len(ranked) >= k else _INF

            boundary = self.grid.boundary_vertices(cells)
            unresolved = unresolved_kernel(ctx, boundary, dist, l_bound)
            answer.cpu_seconds["sdist_cpu"] = time.perf_counter() - t0
            sp.set_attr("elements", len(slab))
            sp.set_attr("candidates", len(object_distances))

        candidates = {obj: d for obj, d in ranked}
        return candidates, unresolved, l_bound

    # ------------------------------------------------------------------
    # fallback
    # ------------------------------------------------------------------
    def _fallback(
        self, location: NetworkLocation, k: int, answer: KnnAnswer
    ) -> KnnAnswer:
        """Exact one-shot Dijkstra answer for degenerate cases."""
        with span("fallback"):
            t0 = time.perf_counter()
            dist = multi_source_dijkstra(
                self.graph, entry_costs(self.graph, location)
            )
            scored: list[tuple[int, float]] = []
            for obj, entry in self.object_table.objects().items():
                target = NetworkLocation(entry.edge, entry.offset)
                d = location_distance(self.graph, dist, location, target)
                if d < _INF:
                    scored.append((obj, d))
            scored.sort(key=lambda kv: (kv[1], kv[0]))
            answer.entries = [KnnResultEntry(o, d) for o, d in scored[:k]]
            answer.used_fallback = True
            answer.cpu_seconds["fallback"] = time.perf_counter() - t0
        return answer
