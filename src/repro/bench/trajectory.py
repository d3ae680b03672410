"""Perf-trajectory recording and the regression gate behind it.

Every run of ``python -m repro.bench trajectory`` replays eight small,
fully seeded scenarios — ``single_server``, ``batch``, ``chaos``,
``cluster``, ``serve``, ``subscriptions``, ``scale`` and ``planner`` —
and appends
one row per scenario to ``results/trajectory/BENCH_<scenario>.json``.  A row separates two kinds
of numbers:

* ``counters`` — deterministic modelled outcomes (simulated GPU
  seconds, transfer bytes, update touches, fanout, retries, …).  With
  the same seeds these are bit-stable across machines, so the gate
  holds them to :data:`COUNTER_TOLERANCE` (float dust only) against the
  committed baseline row.
* ``latency`` — modelled p50/p95/p99 and the modelled update/query
  totals.  These divide *measured* Python wall time by
  ``python_speedup`` (see :class:`~repro.server.metrics.TimingModel`),
  so host noise passes straight through; they are gated loosely at
  :data:`LATENCY_TOLERANCE` to catch order-of-magnitude regressions
  without flaking on a busy CI runner.
* ``wall_s`` — raw wall clock, recorded for the trajectory plot but
  never gated.

The gate (:func:`check_regression` / :func:`gate`) compares the newest
row against the file's *first* row — the committed baseline — and only
ever fails on increases: getting faster rewrites nothing and fails
nothing (re-baseline by deleting the file and re-running).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.errors import ConfigError

#: the eight serving shapes whose trajectories are tracked
SCENARIOS: tuple[str, ...] = (
    "single_server",
    "batch",
    "chaos",
    "cluster",
    "serve",
    "subscriptions",
    "scale",
    "planner",
)

#: relative headroom for deterministic counters (float dust only)
COUNTER_TOLERANCE = 1e-9
#: relative headroom for wall-derived modelled latencies: a value may
#: grow to ``baseline * (1 + LATENCY_TOLERANCE)`` before the gate trips
LATENCY_TOLERANCE = 2.0

#: default on-disk home of the ``BENCH_<scenario>.json`` files
TRAJECTORY_DIR = Path(__file__).resolve().parents[3] / "results" / "trajectory"


@dataclass(frozen=True)
class TrajectoryRow:
    """One recorded run of one scenario."""

    scenario: str
    recorded_at: str
    wall_s: float
    counters: dict[str, float] = field(default_factory=dict)
    latency: dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        return {
            "scenario": self.scenario,
            "recorded_at": self.recorded_at,
            "wall_s": round(self.wall_s, 6),
            "counters": dict(self.counters),
            "latency": {k: round(v, 9) for k, v in self.latency.items()},
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "TrajectoryRow":
        try:
            return cls(
                scenario=data["scenario"],
                recorded_at=data["recorded_at"],
                wall_s=float(data["wall_s"]),
                counters={k: float(v) for k, v in data["counters"].items()},
                latency={k: float(v) for k, v in data["latency"].items()},
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed trajectory row: {exc}") from exc


def _report_row(scenario: str, report: Any, wall_s: float) -> TrajectoryRow:
    """Fold a :class:`~repro.server.metrics.ReplayReport` into a row."""
    pct = report.latency_percentiles()
    counters = {
        "n_updates": float(report.n_updates),
        "n_queries": float(report.n_queries),
        "gpu_s": report.gpu_seconds,
        "transfer_bytes": float(report.transfer_bytes),
        "update_touches": float(report.update_touches),
        "n_batches": float(report.n_batches),
        "batch_cells_deduped": float(report.batch_cells_deduped),
        "fallback_queries": float(report.fallback_queries),
        "total_retries": float(report.total_retries),
        "degraded_queries": float(report.degraded_queries),
        "updates_backpressured": float(report.updates_backpressured),
        "mean_fanout": report.mean_fanout,
        "shard_migrations": float(report.shard_migrations),
    }
    latency = {
        "p50_s": pct["p50"],
        "p95_s": pct["p95"],
        "p99_s": pct["p99"],
        "query_modeled_s": report.query_modeled_s,
        "update_modeled_s": report.update_modeled_s,
    }
    return TrajectoryRow(
        scenario=scenario,
        recorded_at=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        wall_s=wall_s,
        counters=counters,
        latency=latency,
    )


# ----------------------------------------------------------------------
# scenarios (small, fully seeded; see module docstring)
# ----------------------------------------------------------------------
def _run_single_server(dataset: str) -> TrajectoryRow:
    from repro.bench.harness import run_point

    started = time.perf_counter()
    report = run_point(
        "G-Grid", dataset, duration=10.0, num_queries=8, seed=7
    )
    return _report_row(
        "single_server", report, time.perf_counter() - started
    )


def _run_batch(dataset: str) -> TrajectoryRow:
    from repro.bench.harness import run_point
    from repro.server import BatchPolicy, batch_context

    started = time.perf_counter()
    with batch_context(BatchPolicy(8)):
        report = run_point(
            "G-Grid", dataset, duration=10.0, num_queries=16, seed=7
        )
    return _report_row("batch", report, time.perf_counter() - started)


def _run_chaos(dataset: str) -> TrajectoryRow:
    from repro.chaos import FaultPlan
    from repro.chaos.harness import run_chaos_replay

    started = time.perf_counter()
    plan = FaultPlan.from_profile("mixed", seed=7)
    outcome = run_chaos_replay(plan, dataset)
    row = _report_row("chaos", outcome.chaos, time.perf_counter() - started)
    row.counters["faults_injected"] = float(outcome.total_faults)
    row.counters["answers_match"] = float(outcome.answers_match)
    return row


def _run_cluster(dataset: str) -> TrajectoryRow:
    from repro.bench.harness import cached_workload, scaled_objects
    from repro.cluster import ShardRouter
    from repro.roadnet.datasets import load_dataset

    started = time.perf_counter()
    graph = load_dataset(dataset)
    workload = cached_workload(
        dataset, scaled_objects(dataset), 10.0, 16, 16, 1.0, 7
    )
    with ShardRouter(graph, num_shards=4) as router:
        report, _ = router.replay(workload)
    return _report_row("cluster", report, time.perf_counter() - started)


def _run_serve(dataset: str) -> TrajectoryRow:
    """The overload-under-chaos serve proof (DESIGN.md §14).

    Every number here is a modelled-clock outcome — shed decisions,
    admissions, SLO breaches and oracle mismatches are all deterministic
    for the fixed seeds — so the whole row rides ``counters`` and is
    held to float dust.  Breach/mismatch counts (not booleans) are what
    get recorded: the gate fails only on increases, and "0 breaches"
    failing on any breach is exactly the acceptance criterion.
    """
    from repro.chaos import FaultPlan
    from repro.serve.harness import OVERLOAD_PROFILE, run_overload_proof

    started = time.perf_counter()
    plan = FaultPlan.from_profile(OVERLOAD_PROFILE, seed=7)
    outcome = run_overload_proof(plan, dataset=dataset)
    summary = outcome.summary
    shed = summary["shed"]

    def shed_for(reason: str) -> float:
        return float(
            sum(n for key, n in shed.items() if key.startswith(f"{reason}:"))
        )

    def breaches(cls: str) -> float:
        state = summary["slo"].get(cls)
        return float(state["breaches"]) if state else 0.0

    counters = {
        "n_arrivals": float(outcome.n_arrivals),
        "n_updates": float(outcome.n_updates),
        "admitted_paid": float(summary["admitted"].get("paid", 0)),
        "admitted_free": float(summary["admitted"].get("free", 0)),
        "shed_quota": shed_for("quota"),
        "shed_deadline": shed_for("deadline"),
        "shed_brownout": shed_for("brownout"),
        "epochs": float(summary["epochs"]),
        "shrunk_epochs": float(summary["shrunk_epochs"]),
        "brownout_epochs": float(summary["brownout_epochs"]),
        "max_level": float(summary["max_level"]),
        "faults_injected": float(sum(outcome.faults_injected.values())),
        "breaker_trips": float(outcome.breaker_trips),
        "paid_breaches": breaches("paid"),
        "free_breaches": breaches("free"),
        "oracle_mismatches": float(len(outcome.mismatches)),
    }
    return TrajectoryRow(
        scenario="serve",
        recorded_at=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        wall_s=time.perf_counter() - started,
        counters=counters,
    )


def _run_subscriptions(dataset: str) -> TrajectoryRow:
    """The standing-query twin replay (DESIGN.md §15).

    Incremental dirty-marked refreshes against a ``force_all`` twin over
    identical seeded update streams: refresh counts, dirty fraction,
    delta-event counts and cleaned-cell totals are all modelled-clock
    deterministic, so the whole row rides ``counters`` at float dust.
    ``answer_mismatches`` recording 0 — and the gate failing on any
    increase — *is* the incremental == from-scratch acceptance
    criterion; ``dirty_refreshes`` and ``cells_cleaned`` regressing
    would mean the safe-radius marking got more conservative.
    """
    from repro.subscribe.harness import run_subscription_replay

    started = time.perf_counter()
    out = run_subscription_replay(
        dataset=dataset,
        num_subs=24,
        k=8,
        duration=12.0,
        num_ticks=12,
        update_frequency=0.05,
        seed=7,
    )
    counters = {
        "n_ticks": float(out.ticks),
        "active_subs": float(out.active),
        "dirty_refreshes": float(out.dirty_refreshes),
        "full_refreshes": float(out.full_refreshes),
        "mean_dirty_fraction": out.mean_dirty_fraction,
        "delta_enter": float(out.delta_counts.get("enter", 0)),
        "delta_leave": float(out.delta_counts.get("leave", 0)),
        "delta_rerank": float(out.delta_counts.get("rerank", 0)),
        "cells_cleaned": float(out.cells_cleaned),
        "full_cells_cleaned": float(out.full_cells_cleaned),
        "answer_mismatches": float(len(out.mismatches)),
    }
    return TrajectoryRow(
        scenario="subscriptions",
        recorded_at=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        wall_s=time.perf_counter() - started,
        counters=counters,
    )


def _run_scale(dataset: str) -> TrajectoryRow:
    """The paper-scale data-plane cycle (DESIGN.md §16).

    Folds the per-phase rows of
    :func:`repro.bench.experiments.scale_datapath` — a 1/8-paper-scale
    build/ingest/query/update/requery sweep on the geometric partitioner
    — into one row.  Everything here is
    modelled/deterministic for the fixed seeds (modelled GPU seconds,
    cleaned-cell and settled-vertex counts, and the rounded sum of all
    returned kNN distances), so the whole row rides ``counters`` at
    float dust: a single changed distance, one extra cleaned cell or any
    charged-work drift in the array layouts trips the gate.
    """
    from repro.bench.experiments import scale_datapath

    started = time.perf_counter()
    rows = {row["phase"]: row for row in scale_datapath(dataset)}
    build = rows["build"]
    counters = {
        "vertices": float(build["vertices"]),
        "edges": float(build["edges"]),
        "cells": float(build["cells"]),
    }
    for phase in ("query", "requery"):
        row = rows[phase]
        counters[f"{phase}_gpu_s"] = float(row["gpu_s"])
        counters[f"{phase}_cells_cleaned"] = float(row["cells_cleaned"])
        counters[f"{phase}_refine_settled"] = float(row["refine_settled"])
        counters[f"{phase}_fallbacks"] = float(row["fallbacks"])
        counters[f"{phase}_distance_checksum"] = float(row["distance_checksum"])
    return TrajectoryRow(
        scenario="scale",
        recorded_at=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        wall_s=time.perf_counter() - started,
        counters=counters,
    )


def _run_planner(dataset: str) -> TrajectoryRow:
    """The adaptive-planner crossover sweep (DESIGN.md §17).

    Folds the per-mix rows of
    :func:`repro.bench.experiments.planner_crossover` — three traffic
    mixes, each replayed through fixed G-Grid, fixed TEN and the
    adaptive planner — into one row.  Costs are the planner's own
    deterministic currency (op counters priced at ``touch_cost_s`` plus
    simulated GPU seconds), and decisions/cache counts ride the modelled
    clock, so the whole row rides ``counters`` at float dust.
    ``answer_mismatches`` recording 0 *is* the byte-identical acceptance
    criterion; a planner cost creeping above its committed value means a
    routing, parking or cache regression.
    """
    from repro.bench.experiments import planner_crossover

    started = time.perf_counter()
    rows = {row["mix"]: row for row in planner_crossover(dataset)}
    counters: dict[str, float] = {
        "answer_mismatches": float(
            sum(0 if row["answers_match"] else 1 for row in rows.values())
        ),
        "off_best_mixes": float(
            sum(0 if row["within_best"] else 1 for row in rows.values())
        ),
    }
    for mix, row in rows.items():
        tag = mix.replace("-", "_")
        counters[f"{tag}_cost_ggrid_s"] = float(row["cost_ggrid_s"])
        counters[f"{tag}_cost_ten_s"] = float(row["cost_ten_s"])
        counters[f"{tag}_cost_planner_s"] = float(row["cost_planner_s"])
        counters[f"{tag}_decisions_ten"] = float(row["decisions_ten"])
        counters[f"{tag}_cache_hits"] = float(row["cache_hits"])
        counters[f"{tag}_distance_checksum"] = float(row["distance_checksum"])
    return TrajectoryRow(
        scenario="planner",
        recorded_at=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        wall_s=time.perf_counter() - started,
        counters=counters,
    )


_RUNNERS: dict[str, Callable[[str], TrajectoryRow]] = {
    "single_server": _run_single_server,
    "batch": _run_batch,
    "chaos": _run_chaos,
    "cluster": _run_cluster,
    "serve": _run_serve,
    "subscriptions": _run_subscriptions,
    "scale": _run_scale,
    "planner": _run_planner,
}


def run_scenario(scenario: str, dataset: str = "NY") -> TrajectoryRow:
    """Replay one named scenario and fold its report into a row."""
    runner = _RUNNERS.get(scenario)
    if runner is None:
        raise ConfigError(
            f"unknown trajectory scenario {scenario!r}; "
            f"expected one of {', '.join(SCENARIOS)}"
        )
    return runner(dataset)


# ----------------------------------------------------------------------
# persistence
# ----------------------------------------------------------------------
def bench_path(scenario: str, directory: str | Path | None = None) -> Path:
    """``<directory>/BENCH_<scenario>.json`` (default committed home)."""
    base = TRAJECTORY_DIR if directory is None else Path(directory)
    return base / f"BENCH_{scenario}.json"


def load_rows(path: str | Path) -> list[TrajectoryRow]:
    """All recorded rows, oldest (the baseline) first; [] if absent."""
    path = Path(path)
    if not path.exists():
        return []
    data = json.loads(path.read_text())
    if not isinstance(data, list):
        raise ConfigError(f"{path} is not a JSON array of trajectory rows")
    return [TrajectoryRow.from_dict(row) for row in data]


def append_row(row: TrajectoryRow, directory: str | Path | None = None) -> Path:
    """Append one row to its scenario's ``BENCH_*.json``; returns path."""
    path = bench_path(row.scenario, directory)
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = load_rows(path)
    rows.append(row)
    path.write_text(
        json.dumps([r.as_dict() for r in rows], indent=2) + "\n"
    )
    return path


# ----------------------------------------------------------------------
# the gate
# ----------------------------------------------------------------------
def check_regression(
    baseline: TrajectoryRow,
    candidate: TrajectoryRow,
    counter_tolerance: float = COUNTER_TOLERANCE,
    latency_tolerance: float = LATENCY_TOLERANCE,
) -> list[str]:
    """Violations of ``candidate`` against ``baseline`` (empty = pass).

    Only *increases* beyond tolerance fail; a metric present in the
    baseline but missing from the candidate also fails (a silently
    dropped counter would otherwise hide a regression forever).
    """
    if baseline.scenario != candidate.scenario:
        raise ConfigError(
            f"cannot gate {candidate.scenario!r} against a "
            f"{baseline.scenario!r} baseline"
        )
    violations: list[str] = []
    for kind, values, base_values, tolerance in (
        ("counter", candidate.counters, baseline.counters, counter_tolerance),
        ("latency", candidate.latency, baseline.latency, latency_tolerance),
    ):
        for name, base in sorted(base_values.items()):
            if name not in values:
                violations.append(
                    f"{candidate.scenario}: {kind} {name!r} missing "
                    f"from candidate row"
                )
                continue
            got = values[name]
            limit = base * (1.0 + tolerance) if base > 0 else tolerance
            if got > limit:
                violations.append(
                    f"{candidate.scenario}: {kind} {name!r} regressed "
                    f"{base:.6g} -> {got:.6g} "
                    f"(limit {limit:.6g}, tolerance {tolerance:g})"
                )
    return violations


def gate(
    directory: str | Path | None = None,
    scenarios: tuple[str, ...] = SCENARIOS,
) -> list[str]:
    """Gate each scenario's newest row against its first (baseline) row.

    Scenarios with fewer than two rows pass vacuously — the first
    recorded row *is* the baseline.
    """
    violations: list[str] = []
    for scenario in scenarios:
        rows = load_rows(bench_path(scenario, directory))
        if len(rows) < 2:
            continue
        violations.extend(check_regression(rows[0], rows[-1]))
    return violations


def record_all(
    dataset: str = "NY",
    directory: str | Path | None = None,
    scenarios: tuple[str, ...] = SCENARIOS,
) -> list[TrajectoryRow]:
    """Run every scenario, append its row, and return the new rows."""
    rows = []
    for scenario in scenarios:
        row = run_scenario(scenario, dataset)
        append_row(row, directory)
        rows.append(row)
    return rows
