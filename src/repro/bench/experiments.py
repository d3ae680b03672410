"""One driver function per paper table/figure (see DESIGN.md §4).

Each function returns a list of flat result rows; the ``benchmarks/``
modules time them with pytest-benchmark and print the tables.  Parameter
grids follow the paper with the dataset scale adjustments documented in
DESIGN.md §2.
"""

from __future__ import annotations

from typing import Any

from repro.bench.harness import ALGORITHMS, build_index, run_point, scaled_objects
from repro.core.costmodel import (
    messages_transferred_bound,
    transfer_bytes_bound,
)
from repro.core.ggrid import GGridIndex
from repro.core.messages import Message
from repro.core.ordering import answer_mismatches
from repro.roadnet.datasets import DATASET_ORDER, dataset_table, load_dataset

#: Parameter grids (paper values, scaled where DESIGN.md §2 says so).
DELTA_B_GRID = (4, 8, 16, 32, 64, 128, 256)
ETA_GRID = (3, 4, 5, 6, 7)  # bundle sizes 8..128
RHO_GRID = (1.4, 1.8, 2.2, 2.6, 3.0)
K_GRID = (8, 16, 32, 64, 128, 256)
OBJECTS_GRID = (100, 300, 1000, 3000, 10000)
FREQ_GRID = (0.2, 0.5, 1.0, 2.0, 5.0)
TRANSFER_K_GRID = (8, 32, 128)


def table2_datasets() -> list[dict[str, Any]]:
    """Table II: the six road networks (paper vs scaled synthetic)."""
    return dataset_table()


#: Tuning runs (Fig. 4) use a message-dense workload: many objects and
#: few queries so the per-cell message lists actually grow to multiple
#: buckets between cleanings, which is the regime delta_b/eta tune.
_TUNING_WORKLOAD = dict(num_objects=2000, duration=30.0, num_queries=5)


def fig4a_bucket_capacity(
    datasets: tuple[str, ...] = ("NY", "FLA", "USA")
) -> list[dict[str, Any]]:
    """Fig. 4a: G-Grid query time vs bucket capacity delta_b."""
    rows = []
    for dataset in datasets:
        for delta_b in DELTA_B_GRID:
            report = run_point("G-Grid", dataset, delta_b=delta_b, **_TUNING_WORKLOAD)
            rows.append(
                {
                    "dataset": dataset,
                    "delta_b": delta_b,
                    "amortized_s": report.amortized_s(),
                    "gpu_s": report.gpu_seconds,
                    "transfer_bytes": report.transfer_bytes,
                }
            )
    return rows


def fig4b_bundle_size(
    datasets: tuple[str, ...] = ("NY", "FLA", "USA")
) -> list[dict[str, Any]]:
    """Fig. 4b: G-Grid query time vs bundle size 2^eta (warp effect)."""
    rows = []
    for dataset in datasets:
        for eta in ETA_GRID:
            report = run_point("G-Grid", dataset, eta=eta, **_TUNING_WORKLOAD)
            rows.append(
                {
                    "dataset": dataset,
                    "bundle": 1 << eta,
                    "amortized_s": report.amortized_s(),
                    "gpu_s": report.gpu_seconds,
                }
            )
    return rows


def fig4c_rho(datasets: tuple[str, ...] = ("NY", "FLA", "USA")) -> list[dict[str, Any]]:
    """Fig. 4c: G-Grid query time vs the CPU/GPU balance factor rho."""
    # rho tunes the candidate-ring expansion, so this sweep needs *sparse*
    # cells: with few objects per cell, a larger rho forces extra cleaning
    # rings (GPU work) while a smaller one shifts work to CPU refinement.
    rows = []
    for dataset in datasets:
        for rho in RHO_GRID:
            report = run_point(
                "G-Grid", dataset, rho=rho, num_objects=150, duration=30.0
            )
            rows.append(
                {
                    "dataset": dataset,
                    "rho": rho,
                    "amortized_s": report.amortized_s(),
                    "gpu_s": report.gpu_seconds,
                }
            )
    return rows


def _vtree_g_fits_paper_device(dataset: str) -> bool:
    """Would V-Tree (G)'s index fit the 5 GB device at *paper* scale?

    The paper omits V-Tree (G) on USA for exactly this reason; we project
    our scaled index size back to the paper's vertex count.
    """
    from repro.roadnet.datasets import DATASET_SPECS
    from repro.simgpu.device import CostModel

    index = build_index("V-Tree", dataset)
    spec = DATASET_SPECS[dataset]
    graph = load_dataset(dataset)
    projected = index.size_bytes()["matrices"] * (
        spec.paper_vertices / graph.num_vertices
    )
    return projected <= CostModel().device_memory_bytes


def fig5_datasets(
    datasets: tuple[str, ...] = DATASET_ORDER
) -> list[dict[str, Any]]:
    """Fig. 5: amortised query time per dataset, all algorithms.

    G-Grid is reported twice: overlapped (``G-Grid``) and per-query
    latency (``G-Grid (L)``), as in the paper.  V-Tree (G) is reported as
    ``None`` where its index would not fit the device at paper scale
    (the paper's USA omission).
    """
    rows = []
    for dataset in datasets:
        for algorithm in ALGORITHMS:
            if algorithm == "V-Tree (G)" and not _vtree_g_fits_paper_device(dataset):
                rows.append(
                    {"dataset": dataset, "algorithm": algorithm, "amortized_s": None}
                )
                continue
            report = run_point(algorithm, dataset)
            rows.append(
                {
                    "dataset": dataset,
                    "algorithm": algorithm,
                    "amortized_s": report.amortized_s(),
                }
            )
            if algorithm == "G-Grid":
                rows.append(
                    {
                        "dataset": dataset,
                        "algorithm": "G-Grid (L)",
                        "amortized_s": report.amortized_latency_s(),
                    }
                )
    return rows


def fig6_index_size(
    datasets: tuple[str, ...] = DATASET_ORDER
) -> list[dict[str, Any]]:
    """Fig. 6: index sizes — G-Grid CPU/GPU/Total vs V-Tree."""
    rows = []
    for dataset in datasets:
        ggrid = build_index("G-Grid", dataset)
        # populate message lists to steady state so the CPU size is honest
        run_point("G-Grid", dataset)
        gsz = ggrid.size_bytes()
        vtree = build_index("V-Tree", dataset)
        run_point("V-Tree", dataset)
        vsz = vtree.size_bytes()
        rows.append(
            {
                "dataset": dataset,
                "ggrid_cpu_B": gsz["cpu"],
                "ggrid_gpu_B": gsz["gpu"],
                "ggrid_total_B": gsz["total"],
                "vtree_B": vsz["total"],
                "vtree_over_ggrid": round(vsz["total"] / max(1, gsz["total"]), 2),
            }
        )
    return rows


def fig7_vary_k(
    datasets: tuple[str, ...] = ("NY", "USA"),
    k_grid: tuple[int, ...] = K_GRID,
) -> list[dict[str, Any]]:
    """Fig. 7: amortised time vs k on the USA and NY networks."""
    rows = []
    for dataset in datasets:
        objects = max(800, scaled_objects(dataset))
        for k in k_grid:
            for algorithm in ALGORITHMS:
                report = run_point(algorithm, dataset, k=k, num_objects=objects)
                rows.append(
                    {
                        "dataset": dataset,
                        "k": k,
                        "algorithm": algorithm,
                        "amortized_s": report.amortized_s(),
                    }
                )
    return rows


def fig8_vary_objects(
    dataset: str = "USA", grid: tuple[int, ...] = OBJECTS_GRID
) -> list[dict[str, Any]]:
    """Fig. 8: amortised time vs the number of objects |O|."""
    rows = []
    for num_objects in grid:
        for algorithm in ALGORITHMS:
            report = run_point(algorithm, dataset, num_objects=num_objects)
            rows.append(
                {
                    "dataset": dataset,
                    "objects": num_objects,
                    "algorithm": algorithm,
                    "amortized_s": report.amortized_s(),
                }
            )
    return rows


def fig9_vary_frequency(
    dataset: str = "FLA", grid: tuple[float, ...] = FREQ_GRID
) -> list[dict[str, Any]]:
    """Fig. 9: amortised time vs update frequency f — the lazy-update
    headline: baselines grow with f, G-Grid barely moves."""
    rows = []
    for f in grid:
        for algorithm in ALGORITHMS:
            report = run_point(algorithm, dataset, update_frequency=f)
            rows.append(
                {
                    "dataset": dataset,
                    "frequency_hz": f,
                    "algorithm": algorithm,
                    "amortized_s": report.amortized_s(),
                    "update_s": report.update_modeled_s,
                }
            )
    return rows


def fig10ab_scalability(
    datasets: tuple[str, ...] = DATASET_ORDER
) -> list[dict[str, Any]]:
    """Fig. 10a/b: G-Grid running time and throughput vs network size."""
    rows = []
    for dataset in datasets:
        graph = load_dataset(dataset)
        report = run_point("G-Grid", dataset)
        rows.append(
            {
                "dataset": dataset,
                "vertices": graph.num_vertices,
                "amortized_s": report.amortized_s(),
                "throughput_qps": report.throughput_qps(),
            }
        )
    return rows


def fig10cd_transfer(
    datasets: tuple[str, ...] = DATASET_ORDER,
    k_grid: tuple[int, ...] = TRANSFER_K_GRID,
) -> list[dict[str, Any]]:
    """Fig. 10c/d: DRAM-GPU transfer size and time vs network size & k."""
    rows = []
    for dataset in datasets:
        graph = load_dataset(dataset)
        for k in k_grid:
            report = run_point("G-Grid", dataset, k=k)
            rows.append(
                {
                    "dataset": dataset,
                    "vertices": graph.num_vertices,
                    "k": k,
                    "transfer_bytes_per_query": report.transfer_bytes
                    / max(1, report.n_queries),
                    "transfer_s": report.gpu_seconds,
                }
            )
    return rows


# ----------------------------------------------------------------------
# ablations beyond the paper's figures (DESIGN.md §6)
# ----------------------------------------------------------------------
class _EagerGGrid(GGridIndex):
    """G-Grid with the lazy strategy ablated: every ingest immediately
    cleans the destination cell, like the eager baselines."""

    name = "G-Grid (eager)"

    def ingest(self, message: Message) -> None:  # noqa: D102 - see class
        super().ingest(message)
        cell = self.grid.cell_of_edge(message.edge)
        self._resilient_clean({cell: self._list_of(cell)}, message.t)


def ablation_lazy_vs_eager(dataset: str = "NY") -> list[dict[str, Any]]:
    """How much does lazy updating buy? Same index, eager cleaning."""
    from repro.bench.harness import cached_workload
    from repro.server.server import QueryServer

    rows = []
    graph = load_dataset(dataset)
    workload = cached_workload(dataset, scaled_objects(dataset), 10.0, 8, 16, 1.0, 7)
    for factory, label in ((GGridIndex, "lazy"), (_EagerGGrid, "eager")):
        index = factory(graph)
        report, _ = QueryServer(index).replay(workload)
        rows.append(
            {
                "variant": label,
                "amortized_s": report.amortized_s(),
                "gpu_s": report.gpu_seconds,
                "kernel_launches": index.stats.kernel_launches,
            }
        )
    return rows


def ablation_pipelining(dataset: str = "FLA") -> list[dict[str, Any]]:
    """Pipelined vs blocking host->device transfers (Section V-A).

    Uses the message-dense tuning workload *and* tiny buckets so each
    cleaning pass ships multiple chunks — otherwise there is nothing to
    overlap.
    """
    rows = []
    for pipelined in (True, False):
        report = run_point(
            "G-Grid",
            dataset,
            pipelined_transfers=pipelined,
            delta_b=4,
            **_TUNING_WORKLOAD,
        )
        rows.append(
            {
                "pipelined": pipelined,
                "amortized_s": report.amortized_s(),
                "gpu_s": report.gpu_seconds,
            }
        )
    return rows


def ablation_sdist_early_exit(dataset: str = "FLA") -> list[dict[str, Any]]:
    """Algorithm 5 as written (|V| rounds) vs converged early exit."""
    rows = []
    for early in (True, False):
        report = run_point("G-Grid", dataset, sdist_early_exit=early)
        rows.append(
            {
                "early_exit": early,
                "amortized_s": report.amortized_s(),
                "gpu_s": report.gpu_seconds,
            }
        )
    return rows


def ablation_batched_queries(dataset: str = "FLA") -> list[dict[str, Any]]:
    """Batched vs individual query processing (the Fig. 5 G-Grid vs
    G-Grid (L) mechanism, measured directly on shared-cleaning GPU
    work)."""
    from repro.bench.harness import cached_workload
    from repro.core.messages import Message

    graph = load_dataset(dataset)
    workload = cached_workload(dataset, scaled_objects(dataset), 20.0, 8, 16, 1.0, 7)
    rows = []
    for batched in (False, True):
        index = build_index("G-Grid", dataset)
        index.reset_objects()
        for obj, loc in workload.initial.items():
            index.ingest(Message(obj, loc.edge_id, loc.offset, 0.0))
        for message in workload.updates:
            index.ingest(message)
        before = index.stats.snapshot()
        queries = [(q.location, q.k) for q in workload.queries]
        if batched:
            index.knn_batch(queries)
        else:
            for location, k in queries:
                index.knn(location, k)
        delta = index.stats.diff(before)
        rows.append(
            {
                "mode": "batched" if batched else "individual",
                "gpu_s": delta.gpu_time_s,
                "bytes_h2d": delta.bytes_h2d,
                "kernel_launches": delta.kernel_launches,
            }
        )
    return rows


def batch_scaling(dataset: str = "NY") -> list[dict[str, Any]]:
    """Batched execution engine (DESIGN.md §10): epoch batching vs
    sequential execution on an overlapping 64-query workload.

    All 64 queries arrive after the last update, so every batch size
    replays the identical event stream and the conformance guarantee
    applies: per-query answers must be byte-identical across batch
    sizes (the ``answers_match`` column).  The dedup columns show what
    batching saves — kernel launches, cell cleanings and host<->device
    transfers — while the modelled work stays the same.
    """
    from repro.bench.harness import cached_workload
    from repro.mobility.workload import Query, Workload, random_locations
    from repro.server import BatchPolicy, QueryServer

    graph = load_dataset(dataset)
    base = cached_workload(dataset, scaled_objects(dataset), 20.0, 1, 16, 1.0, 7)
    locations = random_locations(graph, 64, seed=11)
    queries = [Query(21.0, loc, 16) for loc in locations]
    workload = Workload(base.initial, base.updates, queries)

    rows: list[dict[str, Any]] = []
    baseline_answers: list[list[tuple[int, float]]] | None = None
    baseline_row: dict[str, Any] | None = None
    for batch_size in (1, 8, 64):
        index = build_index("G-Grid", dataset)
        index.reset_objects()
        server = QueryServer(index, batch=BatchPolicy(batch_size))
        report, answers = server.replay(workload, collect_answers=True)
        key = [[(e.obj, e.distance) for e in a.entries] for a in answers]
        stats = index.stats
        row: dict[str, Any] = {
            "batch_size": batch_size,
            "kernel_launches": stats.kernel_launches,
            "cells_cleaned": index.cleaner.cells_cleaned_total,
            "cleaning_passes": index.cleaner.cleanings_total,
            "transfers": stats.transfers_h2d + stats.transfers_d2h,
            "transfer_bytes": stats.total_bytes,
            "batched_launches": stats.batched_launches,
            "batched_jobs": stats.batched_jobs,
            "cells_deduped": report.batch_cells_deduped,
            "amortized_s": report.amortized_s(),
        }
        if baseline_answers is None:
            baseline_answers, baseline_row = key, row
            row["answers_match"] = True
            row["launch_reduction"] = 1.0
            row["cleaning_reduction"] = 1.0
        else:
            row["answers_match"] = key == baseline_answers
            row["launch_reduction"] = baseline_row["kernel_launches"] / max(
                1, row["kernel_launches"]
            )
            row["cleaning_reduction"] = baseline_row["cells_cleaned"] / max(
                1, row["cells_cleaned"]
            )
        rows.append(row)
    return rows


def accuracy_vs_frequency(dataset: str = "FLA") -> list[dict[str, Any]]:
    """Section II quantified: "A smaller t_delta produces more accurate
    results but also brings a higher update workload."

    A dense 8 Hz trace is the ground truth for where objects *really*
    are; the server only ingests every n-th report (update frequency
    f = 8/n Hz).  For each f we measure how well the snapshot answers
    match the true k nearest sets: recall@k and the mean distance error
    of the reported neighbours.
    """
    from repro.baselines.naive import NaiveKnnIndex
    from repro.core.ggrid import GGridIndex
    from repro.mobility.moto import MotoGenerator
    from repro.mobility.workload import random_locations

    graph = load_dataset(dataset)
    objects, duration, k = 300, 24.0, 16
    dense_hz = 8.0
    generator = MotoGenerator(graph, objects, update_frequency=dense_hz, seed=17)
    initial = generator.initial_placements()
    dense = list(generator.messages(duration))
    queries = [
        (6.0 * (i + 1), loc)
        for i, loc in enumerate(random_locations(graph, 4, seed=18))
    ]

    rows = []
    for stride in (16, 8, 4, 2, 1):
        frequency = dense_hz / stride
        index = GGridIndex(graph)
        truth = NaiveKnnIndex(graph)
        index.bulk_load(initial, 0.0)
        truth.bulk_load(initial, 0.0)
        counters: dict[int, int] = {}
        qi = 0
        recalls, errors = [], []
        for message in dense:
            while qi < len(queries) and queries[qi][0] <= message.t:
                t, loc = queries[qi]
                qi += 1
                got = index.knn(loc, k, t_now=t)
                want = truth.knn(loc, k, t_now=t)
                want_set = set(want.objects())
                got_set = set(got.objects())
                recalls.append(len(got_set & want_set) / max(1, len(want_set)))
                # distance error of the reported set vs the true set
                got_sum = sum(got.distances())
                want_sum = sum(want.distances())
                errors.append(abs(got_sum - want_sum) / max(want_sum, 1e-9))
            truth.ingest(message)  # ground truth sees every dense report
            n = counters.get(message.obj, 0)
            counters[message.obj] = n + 1
            if n % stride == 0:  # the server sees only every stride-th
                index.ingest(message)
        rows.append(
            {
                "frequency_hz": frequency,
                "recall_at_k": sum(recalls) / max(1, len(recalls)),
                "mean_distance_error": sum(errors) / max(1, len(errors)),
                "updates_ingested": index.messages_ingested,
            }
        )
    return rows


def costmodel_validation(dataset: str = "FLA") -> list[dict[str, Any]]:
    """Section VI bounds vs measured counters across k."""
    rows = []
    f_delta = 1.0
    rho = 1.8
    for k in (8, 16, 32, 64):
        report = run_point("G-Grid", dataset, k=k)
        per_query_bytes = report.transfer_bytes / max(1, report.n_queries)
        rows.append(
            {
                "k": k,
                "measured_bytes_per_query": per_query_bytes,
                "bound_bytes": transfer_bytes_bound(f_delta, rho, k),
                "bound_messages": messages_transferred_bound(f_delta, rho, k),
            }
        )
    return rows


def recovery_curve(dataset: str = "NY") -> list[dict[str, Any]]:
    """Recovery: snapshot interval vs crash-recovery time (DESIGN.md §11).

    Replays one update stream through a durable index under different
    background snapshot intervals, then "crashes" (drops the in-memory
    index) and times :func:`repro.persist.recover`.  One row per
    interval: how much WAL the run wrote, how many snapshots the policy
    cut, how many records recovery had to replay past the newest
    watermark, and the recovery wall time — the curve that justifies
    paying for compaction (``every_records=0`` is the no-snapshot
    baseline, which must replay the entire log).
    """
    import shutil
    import tempfile
    import time as _time

    from repro.config import GGridConfig
    from repro.mobility.workload import make_workload
    from repro.persist import DurabilityManager, SnapshotPolicy, recover
    from repro.roadnet.datasets import load_dataset

    graph = load_dataset(dataset)
    config = GGridConfig(delta_b=32)
    workload = make_workload(
        graph,
        num_objects=400,
        duration=15.0,
        num_queries=1,  # updates are what recovery replays; queries unused
        k=8,
        update_frequency=1.0,
        seed=11,
    )
    messages = [
        Message(obj, loc.edge_id, loc.offset, 0.0)
        for obj, loc in workload.initial.items()
    ] + list(workload.updates)

    rows = []
    for every_records in (0, 2000, 1000, 500, 250, 100):
        directory = tempfile.mkdtemp(prefix="repro-recovery-")
        try:
            manager = DurabilityManager(
                directory,
                snapshot_policy=SnapshotPolicy(every_records=every_records),
                fsync_every=256,
            )
            index = GGridIndex(graph, config)
            for message in messages:
                manager.log_ingest(message)
                index.ingest(message)
                manager.maybe_snapshot(index)
            manager.close()
            del index  # the crash: only the durable state survives
            started = _time.perf_counter()
            # graph/config feed the no-snapshot (WAL-only) baseline row
            _, report = recover(directory, graph=graph, config=config)
            recovery_s = _time.perf_counter() - started
            rows.append(
                {
                    "snapshot_every": every_records,
                    "wal_records": len(messages),
                    "wal_mb": manager.wal.bytes_appended / 2**20,
                    "snapshots": manager.snapshots.snapshots_written,
                    "replayed": report.records_replayed,
                    "recovery_s": recovery_s,
                }
            )
        finally:
            shutil.rmtree(directory, ignore_errors=True)
    return rows


def chaos_resilience(dataset: str = "NY") -> list[dict[str, Any]]:
    """Resilience: every chaos profile vs the fault-free baseline.

    One row per named profile (see :data:`repro.chaos.PROFILES`): fault
    counts, how far each query degraded, what the retries/backpressure
    cost — and the oracle column ``answers_match``, which must read
    ``True`` on every row (degradation trades latency, not correctness).
    Capacity-pressure profiles run with small buckets so the backlog cap
    is actually reachable within the replay.
    """
    from repro.chaos import PROFILES, FaultPlan
    from repro.chaos.harness import run_chaos_replay
    from repro.config import GGridConfig

    rows = []
    for profile in PROFILES:
        plan = FaultPlan.from_profile(profile, seed=7)
        config = (
            GGridConfig(delta_b=4) if plan.max_buckets_per_cell is not None else None
        )
        outcome = run_chaos_replay(plan, dataset, config=config)
        rows.append(
            {
                "profile": profile,
                "faults": outcome.total_faults,
                "answers_match": outcome.answers_match,
                "retries": outcome.chaos.total_retries,
                "degraded": outcome.chaos.degraded_queries,
                "backpressured": outcome.chaos.updates_backpressured,
                "breaker_trips": outcome.breaker_trips,
                "amortized_s": outcome.chaos.amortized_s(),
                "baseline_amortized_s": outcome.baseline.amortized_s(),
            }
        )
    return rows


def cluster_scaling(dataset: str = "NY") -> list[dict[str, Any]]:
    """Cluster: shard-count sweep plus a mid-replay failover run.

    One row per shard count (1, 2, 4, 8) replaying the identical
    workload through a :class:`~repro.cluster.router.ShardRouter`, then
    one row at 4 shards with a scheduled shard failure and replica
    promotion.  ``answers_match`` compares every per-query answer
    against the unsharded :class:`~repro.server.server.QueryServer`
    baseline under the oracle rule of
    :func:`~repro.core.ordering.same_answer` (distances equal to 9
    decimals, equidistant tie groups the same id sets) and must read
    ``True`` on every row.  ``exact_match`` additionally reports byte-identity;
    under migration-heavy replays a shard's restricted-search subgraph
    differs from the unsharded index's, so last-ulp drift is possible
    (see :func:`repro.core.sdist.sdist_kernel`) and the column may read
    ``False`` while ``answers_match`` stays ``True``.  ``mean_fanout``
    shows the cell-distance lower bound pruning the scatter — the
    acceptance bar is mean fanout strictly below the shard count from 4
    shards up.
    """
    from repro.bench.harness import cached_workload
    from repro.cluster import ShardFailurePlan, ShardRouter
    from repro.server import BatchPolicy, QueryServer

    graph = load_dataset(dataset)
    duration = 20.0
    workload = cached_workload(
        dataset, scaled_objects(dataset), duration, 32, 16, 1.0, 7
    )

    index = build_index("G-Grid", dataset)
    index.reset_objects()
    server = QueryServer(index, batch=BatchPolicy())
    baseline_report, baseline = server.replay(workload, collect_answers=True)

    rows: list[dict[str, Any]] = []
    for num_shards, failover in ((1, False), (2, False), (4, False), (8, False), (4, True)):
        plan = (
            ShardFailurePlan.single(0, duration / 2) if failover else None
        )
        with ShardRouter(
            graph, num_shards=num_shards, failure_plan=plan
        ) as router:
            report, answers = router.replay(workload, collect_answers=True)
            promotions = sum(s.promotions for s in router.shards.values())
        rows.append(
            {
                "shards": num_shards,
                "failover": failover,
                "answers_match": not answer_mismatches(answers, baseline),
                "exact_match": not answer_mismatches(answers, baseline, exact=True),
                "mean_fanout": round(report.mean_fanout, 3),
                "migrations": report.shard_migrations,
                "promotions": promotions,
                "n_updates": report.n_updates,
                "n_queries": report.n_queries,
                "amortized_s": report.amortized_s(),
                "baseline_amortized_s": baseline_report.amortized_s(),
            }
        )
    return rows


def serve_overload(dataset: str = "NY") -> list[dict[str, Any]]:
    """Serving: the front door's graceful-degradation ledger.

    One row per offered-load condition over the canonical serve
    configuration (DESIGN.md §14): the diurnal schedule at its base
    rate, at 2x (deliberate overload), at 2x under the ``mixed`` chaos
    profile, and at 2x closed-loop (each tenant waits for its previous
    answer, so demand self-throttles — the contrast column showing why
    the open-loop generator is the one that proves overload handling).
    ``paid_met`` and ``answers_match`` must read ``True`` on every row:
    the paid tier's SLO survives every condition, and a shed query is
    only ever rejected, never answered wrongly.
    """
    from repro.chaos import FaultPlan
    from repro.serve.harness import OVERLOAD_PROFILE, run_overload_proof

    conditions = [
        ("base", None, {"overload": 1.0}),
        ("2x", None, {}),
        ("2x+chaos", FaultPlan.from_profile(OVERLOAD_PROFILE, seed=7), {}),
        ("2x closed-loop", None, {"closed_loop": True}),
    ]
    rows: list[dict[str, Any]] = []
    for label, plan, overrides in conditions:
        outcome = run_overload_proof(plan, dataset=dataset, **overrides)
        summary = outcome.summary
        paid = summary["slo"].get("paid", {})
        rows.append(
            {
                "condition": label,
                "arrivals": outcome.n_arrivals,
                "admitted_paid": summary["admitted"].get("paid", 0),
                "admitted_free": summary["admitted"].get("free", 0),
                "shed": outcome.shed_total(),
                "suppressed": outcome.suppressed,
                "max_level": summary["max_level_name"],
                "paid_attainment": round(paid.get("attainment", 1.0), 4),
                "paid_met": outcome.paid_slo_met,
                "answers_match": outcome.answers_match,
                "faults": sum(outcome.faults_injected.values()),
                "breaker_trips": outcome.breaker_trips,
            }
        )
    return rows


def subscriptions(dataset: str = "NY") -> list[dict[str, Any]]:
    """Subscriptions: incremental refresh vs full re-query, twin replay.

    One row per fleet shape driving the differential harness
    (:func:`repro.subscribe.harness.run_subscription_replay`): identical
    update streams through an incremental
    :class:`~repro.subscribe.manager.SubscriptionManager` and a
    ``force_all`` twin, entries compared after every tick.  The
    acceptance bars: ``answers_match`` reads ``True`` on every row, and
    on every row ``dirty_fraction`` is strictly below 1.0 with
    ``cells_cleaned`` strictly below ``cells_full`` — the safe-radius
    dirty marking does real work, not just matching the oracle.
    """
    from repro.subscribe.harness import run_subscription_replay

    shapes = [
        # (subs, shards, update_frequency)
        (16, None, 0.05),
        (64, None, 0.05),
        (64, None, 0.02),
        (24, 4, 0.05),
    ]
    rows: list[dict[str, Any]] = []
    for num_subs, shards, freq in shapes:
        out = run_subscription_replay(
            dataset=dataset,
            num_subs=num_subs,
            k=8,
            duration=12.0,
            num_ticks=12,
            update_frequency=freq,
            seed=7,
            num_shards=shards,
        )
        saved = 1.0 - (
            out.cells_cleaned / out.full_cells_cleaned
            if out.full_cells_cleaned
            else 1.0
        )
        rows.append(
            {
                "subs": num_subs,
                "shards": shards or 1,
                "freq": freq,
                "ticks": out.ticks,
                "dirty_fraction": round(out.mean_dirty_fraction, 4),
                "refreshes": out.dirty_refreshes,
                "full_refreshes": out.full_refreshes,
                "delta_events": sum(out.delta_counts.values()),
                "cells_cleaned": out.cells_cleaned,
                "cells_full": out.full_cells_cleaned,
                "clean_savings": round(saved, 4),
                "answers_match": out.answers_match,
            }
        )
    return rows


def _plan_modeled_cost(report: Any, *indexes: Any) -> float:
    """Deterministic modelled seconds of one replay, planner currency.

    Simulated GPU seconds plus every deterministic op counter the
    backends expose (cache touches, labels materialized, lookup pops)
    priced at ``touch_cost_s`` — no wall time anywhere, so the crossover
    table is bit-stable across machines and replays.
    """
    touch = report.timing.touch_cost_s
    ops = 0
    for index in indexes:
        ops += getattr(index, "update_touches", 0)
        ops += getattr(index, "labels_built", 0)
        ops += getattr(index, "query_pops", 0)
    return ops * touch + report.gpu_seconds


#: the planner experiment's traffic mixes: (label, objects, update
#: frequency, queries, duration) — spanning update:query from ~600:1
#: down to ~1:12 so the crossover is inside the sweep, not at its edge
PLANNER_MIXES = (
    ("update-heavy", 300, 1.0, 40, 80.0),
    ("balanced", 300, 0.1, 120, 80.0),
    ("query-dominant", 200, 0.002, 400, 80.0),
)


def planner_crossover(dataset: str = "NY") -> list[dict[str, Any]]:
    """Adaptive planner: the update:query crossover (DESIGN.md §17).

    One row per traffic mix, each replayed three ways over the identical
    workload: always-G-Grid, always-TEN, and the adaptive planner (with
    its delta-invalidated result cache; queries draw from a small
    repeated pool, the traffic shape the cache exists for).  The
    acceptance bars: ``answers_match`` reads ``True`` on every row (the
    planner never trades correctness), the planner majority-routes to
    G-Grid on the update-heavy mix and to TEN on the query-dominant mix
    (``chosen``), and on every mix the planner's deterministic modelled
    cost is within float dust of — or below — the best fixed backend
    (``within_best``): parking makes it *equal* to G-Grid where TEN
    can't win, and cache hits push it *below* both where traffic
    repeats.
    """
    from repro.config import GGridConfig
    from repro.mobility.workload import Query, make_workload, random_locations
    from repro.plan import QueryPlanner, TenIndex
    from repro.server.server import QueryServer

    graph = load_dataset(dataset)
    config = GGridConfig()
    k, k_max, pool_size = 8, 32, 8
    rows: list[dict[str, Any]] = []
    for label, num_objects, freq, num_queries, duration in PLANNER_MIXES:
        workload = make_workload(
            graph,
            num_objects=num_objects,
            duration=duration,
            num_queries=num_queries,
            k=k,
            update_frequency=freq,
            seed=11,
        )
        pool = random_locations(graph, pool_size, seed=23)
        workload.queries = [
            Query(t=q.t, location=pool[i % pool_size], k=q.k)
            for i, q in enumerate(workload.queries)
        ]

        ggrid = GGridIndex(graph, config)
        report_gg, answers_gg = QueryServer(ggrid).replay(
            workload, collect_answers=True
        )
        cost_gg = _plan_modeled_cost(report_gg, ggrid)

        ten = TenIndex(graph, k_max=k_max, t_delta=config.t_delta)
        report_ten, answers_ten = QueryServer(ten).replay(
            workload, collect_answers=True
        )
        cost_ten = _plan_modeled_cost(report_ten, ten)

        planner = QueryPlanner(k_max=k_max)
        primary = GGridIndex(graph, config)
        report_plan, answers_plan = QueryServer(primary, planner=planner).replay(
            workload, collect_answers=True
        )
        cost_plan = _plan_modeled_cost(report_plan, primary, planner.ten)

        answers_match = not answer_mismatches(
            answers_plan, answers_gg
        ) and not answer_mismatches(answers_ten, answers_gg)
        checksum = round(
            sum(round(d, 9) for answer in answers_gg for d in answer.distances()),
            9,
        )
        summary = planner.summary()
        decisions_gg = summary["decisions_ggrid"]
        decisions_ten = summary["decisions_ten"]
        best_fixed = min(cost_gg, cost_ten)
        rows.append(
            {
                "mix": label,
                "updates": report_gg.n_updates,
                "queries": report_gg.n_queries,
                "cost_ggrid_s": round(cost_gg, 9),
                "cost_ten_s": round(cost_ten, 9),
                "cost_planner_s": round(cost_plan, 9),
                "chosen": "ten" if decisions_ten > decisions_gg else "ggrid",
                "decisions_ggrid": int(decisions_gg),
                "decisions_ten": int(decisions_ten),
                "cache_hits": int(summary["cache_hits"]),
                "cache_invalidations": int(summary["cache_invalidations"]),
                "ten_rebuilds": int(summary["ten_rebuilds_full"]),
                "parked": bool(summary["parked"]),
                "within_best": cost_plan <= best_fixed * (1 + 1e-9),
                "answers_match": answers_match,
                "distance_checksum": checksum,
            }
        )
    return rows


# ----------------------------------------------------------------------
# paper-scale data plane (DESIGN.md §16)
# ----------------------------------------------------------------------
def scale_datapath(dataset: str = "NY") -> list[dict[str, Any]]:
    """The array-native data plane at a paper-order slice of ``dataset``.

    Loads the dataset at 1/8 of its paper size (NY -> ~33k vertices, an
    order of magnitude past the default bench scale), builds the index
    with the geometric partitioner, and drives one full cycle — ingest, kNN round, fleet-update rounds,
    re-query — reporting one row per phase.  Every column except
    ``wall_s`` is modelled/deterministic for the fixed seeds, which is
    what lets the ``scale`` trajectory scenario gate them at float dust.
    """
    import random
    import time

    from repro.config import GGridConfig
    from repro.roadnet.location import NetworkLocation

    num_objects = 30_000
    num_queries = 16
    update_rounds = 2
    graph = load_dataset(dataset, scale=1.0 / 8.0)
    config = GGridConfig(delta_c=64, partitioner="geometric")
    rows: list[dict[str, Any]] = []

    started = time.perf_counter()
    index = GGridIndex(graph, config)
    rows.append(
        {
            "phase": "build",
            "wall_s": round(time.perf_counter() - started, 6),
            "vertices": graph.num_vertices,
            "edges": graph.num_edges,
            "cells": index.grid.num_cells,
            "gpu_s": 0.0,
            "cells_cleaned": 0,
            "refine_settled": 0,
            "fallbacks": 0,
            "distance_checksum": 0.0,
        }
    )

    rng = random.Random(1101)
    started = time.perf_counter()
    for obj in range(num_objects):
        e = rng.randrange(graph.num_edges)
        index.ingest(
            Message(obj, e, rng.random() * graph.edge(e).weight * 0.99, t=1.0)
        )
    rows.append(
        {
            "phase": "ingest",
            "wall_s": round(time.perf_counter() - started, 6),
            "vertices": graph.num_vertices,
            "edges": graph.num_edges,
            "cells": index.grid.num_cells,
            "gpu_s": 0.0,
            "cells_cleaned": 0,
            "refine_settled": 0,
            "fallbacks": 0,
            "distance_checksum": 0.0,
        }
    )

    qrng = random.Random(2202)
    queries = []
    for _ in range(num_queries):
        e = qrng.randrange(graph.num_edges)
        queries.append(
            NetworkLocation(e, qrng.random() * graph.edge(e).weight * 0.99)
        )

    def query_phase(phase: str, t_now: float) -> None:
        before = index.stats.snapshot()
        started = time.perf_counter()
        cells = settled = fallbacks = 0
        checksum = 0.0
        for loc in queries:
            answer = index.knn(loc, 10, t_now=t_now)
            cells += answer.cells_cleaned
            settled += answer.refine_settled
            fallbacks += int(answer.used_fallback)
            checksum += sum(answer.distances())
        delta = index.stats.diff(before)
        rows.append(
            {
                "phase": phase,
                "wall_s": round(time.perf_counter() - started, 6),
                "vertices": graph.num_vertices,
                "edges": graph.num_edges,
                "cells": index.grid.num_cells,
                "gpu_s": round(delta.gpu_time_s, 9),
                "cells_cleaned": cells,
                "refine_settled": settled,
                "fallbacks": fallbacks,
                "distance_checksum": round(checksum, 6),
            }
        )

    query_phase("query", t_now=2.0)

    t = 2.0
    started = time.perf_counter()
    for _ in range(update_rounds):
        t += 1.0
        for obj in rng.sample(range(num_objects), num_objects // 10):
            e = rng.randrange(graph.num_edges)
            index.ingest(
                Message(obj, e, rng.random() * graph.edge(e).weight * 0.99, t=t)
            )
    rows.append(
        {
            "phase": "update",
            "wall_s": round(time.perf_counter() - started, 6),
            "vertices": graph.num_vertices,
            "edges": graph.num_edges,
            "cells": index.grid.num_cells,
            "gpu_s": 0.0,
            "cells_cleaned": 0,
            "refine_settled": 0,
            "fallbacks": 0,
            "distance_checksum": 0.0,
        }
    )

    query_phase("requery", t_now=t)
    return rows
