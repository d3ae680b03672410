"""One measured run of one workload, in a fresh process.

The order inside a run is fixed: timed set-up (graph generation and the
index, server or cluster build), inputs generated from the seed, timed
bulk load, ``gc.collect(); gc.freeze()`` so the generated inputs do not
inflate collections inside the clock, the timed stream, and last the
untimed oracle check.
"""

from __future__ import annotations

import gc
import resource
import time

import numpy as np

from benchmarks.e2e import tracing
from benchmarks.e2e.workloads import WORKLOADS, StreamResult, make_stack


def run(
    workload: str,
    seed: int,
    seconds: float,
    *,
    smoke: bool = False,
    trace: bool = False,
    setup_only: bool = False,
    spans: str | None = None,
) -> dict:
    """Measure one run; returns its metrics and accounting as a dict.

    ``setup_only`` stops after the timed bulk load (extra set-up samples,
    taken on the same inputs and heap as a full run); ``trace`` installs
    the layer wrappers first and adds ``layers`` and ``profile``;
    ``spans`` also writes the raw spans to that path.
    """
    spec = WORKLOADS[workload]
    size = (spec.smoke if smoke else spec.full).scaled(seconds)
    log = None
    if trace:
        log = tracing.SpanLog()
        log.install()
    out = _run(spec, size, seed, log, setup_only)
    if log is not None and spans:
        log.save(spans)
    out.update(workload=workload, seed=seed, seconds=seconds, smoke=smoke, trace=trace)
    return out


def _run(spec, size, seed: int, log, setup_only: bool) -> dict:
    clock = time.perf_counter
    t0 = clock()
    stack = make_stack(spec, size)
    build_s = clock() - t0
    try:
        initial, events = stack.inputs(seed)
        t0 = clock()
        stack.bulk_load(initial)
        setup_s = build_s + clock() - t0
        if setup_only:
            return {"setup_s": setup_s}
        gc.collect()
        gc.freeze()
        gpu_before = tracing.gpu_totals(stack.gpus())
        if log is not None:
            log.counts.clear()
        result = stack.stream(events)
        gpu_after = tracing.gpu_totals(stack.gpus())
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        compared, mismatches = stack.check(initial, events, result)
        counters = stack.counters()
    finally:
        stack.close()
    out = {
        "setup_s": setup_s,
        "stream_s": result.end - result.start,
        "updates": len(result.update_lat),
        "arrivals": result.arrivals,
        "answered": result.answered,
        "shed": result.shed,
        "raised": result.raised,
        "compared": compared,
        "mismatches": mismatches,
        "attempted": result.attempted,
        "failed": result.raised + mismatches,
        "metrics": e2e_metrics(result, setup_s, rss_mb, mismatches),
    }
    if log is not None:
        rows, coverage = log.profile(result.start, result.end)
        gpu = {key: gpu_after[key] - gpu_before[key] for key in gpu_after}
        out["layers"] = tracing.layer_metrics(rows, coverage, log.counts, counters, gpu)
        out["profile"] = rows
    return out


def e2e_metrics(r: StreamResult, setup_s: float, rss_mb: float, mismatches: int) -> dict:
    """The end-to-end metrics of one run (see README.md for definitions)."""
    upd = np.frombuffer(r.update_lat, dtype=np.float64)
    qry = np.frombuffer(r.query_lat, dtype=np.float64)
    update_wall = float(upd.sum())

    def pct(values: np.ndarray, q: float, scale: float) -> float:
        return float(np.percentile(values, q)) * scale if len(values) else 0.0

    return {
        "setup_s": setup_s,
        "update_rate": len(upd) / update_wall if update_wall else 0.0,
        "update_p50_us": pct(upd, 50, 1e6),
        "update_p99_us": pct(upd, 99, 1e6),
        "query_rate": r.answered / r.query_wall if r.query_wall else 0.0,
        "query_p50_ms": pct(qry, 50, 1e3),
        "query_p95_ms": pct(qry, 95, 1e3),
        "query_p99_ms": pct(qry, 99, 1e3),
        "amortized_ms": (update_wall + r.query_wall) / r.answered * 1e3 if r.answered else 0.0,
        "peak_rss_mb": rss_mb,
        "ops_failed_frac": (r.raised + mismatches) / r.attempted,
        "shed_frac": r.shed / r.arrivals if r.arrivals else 0.0,
    }
