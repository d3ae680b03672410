"""Per-layer spans recorded from outside the library.

A traced worker wraps the public entry points of each layer — class
attributes, and for the kernels and refinement the global of the module
that calls them — before it builds anything.  Each wrapped call appends
one ``(name, start, end, parent)`` span to in-memory arrays; ``parent``
is the span that was open when the call began, so a layer's self time is
its span time minus what its direct child spans cover.  Nothing inside
``src/`` changes, and an untraced worker installs nothing.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array
from collections import Counter

import numpy as np

import repro.core.cleaning as cleaning_mod
import repro.core.knn as knn_mod
from repro.cluster.replica import Replica
from repro.cluster.router import ShardRouter
from repro.cluster.shardmap import CellDistanceBound
from repro.core.ggrid import GGridIndex
from repro.core.graph_grid import GraphGrid
from repro.core.message_list import MessageList
from repro.core.object_table import ObjectTable
from repro.persist.manager import DurabilityManager
from repro.plan.cache import ResultCache
from repro.plan.planner import QueryPlanner
from repro.plan.ten import TenIndex
from repro.roadnet import datasets
from repro.serve.frontdoor import FrontDoor
from repro.server.server import QueryServer


def _count_cleaning(counts: Counter, args: tuple, result) -> None:
    counts["core.cleaning.cells"] += len(result.cells)
    counts["core.cleaning.messages"] += result.messages_processed
    counts["core.cleaning.survivors"] += sum(len(objs) for objs in result.occupants.values())


def _count_xshuffle(counts: Counter, args: tuple, result) -> None:
    counts["core.xshuffle.messages"] += result


def _count_sdist(counts: Counter, args: tuple, result) -> None:
    counts["core.sdist.elements"] += len(args[1])  # (ctx, elements, ...)


def _count_refine(counts: Counter, args: tuple, result) -> None:
    counts["core.refine.settled"] += result[1]


#: (span name, owner, attribute, counter) for every wrapped entry point
TARGETS = (
    ("roadnet.build", datasets, "load_dataset", None),
    ("core.graph_grid.build", GraphGrid, "build", None),
    ("core.graph_grid.pack", GraphGrid, "pack_of_cells", None),
    ("server.update", QueryServer, "update", None),
    ("server.query", QueryServer, "query", None),
    ("server.query", QueryServer, "query_batch", None),
    ("core.ggrid.ingest", GGridIndex, "ingest", None),
    ("core.knn", GGridIndex, "knn", None),
    ("core.knn", GGridIndex, "knn_batch", None),
    ("core.message_list.append", MessageList, "append", None),
    ("core.object_table.put", ObjectTable, "put", None),
    ("core.cleaning", cleaning_mod.MessageCleaner, "clean", _count_cleaning),
    ("core.xshuffle", cleaning_mod, "x_shuffle_kernel", _count_xshuffle),
    ("core.xshuffle.collect", cleaning_mod, "collect_kernel", None),
    ("core.sdist.first_k", knn_mod, "first_k_kernel", None),
    ("core.sdist.first_k", knn_mod, "first_k_batch_kernel", None),
    ("core.sdist.unresolved", knn_mod, "unresolved_kernel", None),
    ("core.sdist.unresolved", knn_mod, "unresolved_batch_kernel", None),
    ("core.refine", knn_mod, "refine_knn", _count_refine),
    ("cluster.router.update", ShardRouter, "update", None),
    ("cluster.router.query", ShardRouter, "query", None),
    ("cluster.router.query", ShardRouter, "query_batch", None),
    ("cluster.bound", CellDistanceBound, "lower_bound_to_cells", None),
    ("cluster.replica.apply", Replica, "apply_buffer", None),
    ("persist.wal", DurabilityManager, "log_ingest", None),
    ("persist.wal", DurabilityManager, "log_remove", None),
    ("serve.update", FrontDoor, "update", None),
    ("serve.admit", FrontDoor, "submit_nowait", None),
    ("serve.flush", FrontDoor, "flush", None),
    ("plan.cache", ResultCache, "lookup", None),
    ("plan.cache", ResultCache, "store", None),
    ("plan.cache", ResultCache, "observe", None),
    ("plan.cache", ResultCache, "observe_remove", None),
    ("plan.decide", QueryPlanner, "plan_query", None),
    ("plan.decide", QueryPlanner, "plan_epoch", None),
    ("plan.observe", QueryPlanner, "observe", None),
    ("plan.observe", QueryPlanner, "observe_remove", None),
    ("plan.ten", TenIndex, "knn", None),
)


class SpanLog:
    """Spans of wrapped calls, kept in flat arrays until the run ends."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        #: work counts taken at the same boundaries (cells, messages, ...)
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def wrap(self, name: str, fn, count=None):
        """``fn`` recording one span per call (and ``count`` of its result)."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, counts, clock = self._open, self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every entry point in :data:`TARGETS` (once per process)."""
        for name, owner, attr, count in TARGETS:
            raw = inspect.getattr_static(owner, attr)
            if isinstance(raw, staticmethod):
                setattr(owner, attr, staticmethod(self.wrap(name, raw.__func__, count)))
            else:
                setattr(owner, attr, self.wrap(name, raw, count))
        # the SDist kernel is resolved per launch from the configured
        # backend: wrap what the resolver returns
        resolve = knn_mod.get_sdist_kernel
        kernels: dict[str, object] = {}

        def get_sdist_kernel(backend: str):
            kernel = kernels.get(backend)
            if kernel is None:
                kernel = kernels[backend] = self.wrap("core.sdist", resolve(backend), _count_sdist)
            return kernel

        knn_mod.get_sdist_kernel = get_sdist_kernel

    def save(self, path: str) -> None:
        """Write the raw spans (``.npz``: names, name_id, parent, start, end)."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )

    def profile(self, t0: float, t1: float) -> tuple[dict[str, dict[str, float]], float]:
        """Per span name over the window ``[t0, t1]``: calls, self and total
        seconds (plus total seconds over the whole run, for set-up spans),
        and the share of the window the top-level spans cover."""
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        n = len(dur)
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=n)
        self_t = dur - covered
        window = (start >= t0) & (start + dur <= t1)
        m = len(self.names)
        calls = np.bincount(name_id[window], minlength=m)
        self_s = np.bincount(name_id[window], weights=self_t[window], minlength=m)
        total_s = np.bincount(name_id[window], weights=dur[window], minlength=m)
        run_total_s = np.bincount(name_id, weights=dur, minlength=m)
        rows = {
            name: {
                "calls": int(calls[i]),
                "self_s": float(self_s[i]),
                "total_s": float(total_s[i]),
                "run_total_s": float(run_total_s[i]),
            }
            for i, name in enumerate(self.names)
        }
        top = window & ~child
        coverage = float(dur[top].sum()) / (t1 - t0) if t1 > t0 else 0.0
        return rows, coverage


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    rows: dict[str, dict[str, float]],
    coverage: float,
    counts: Counter,
    counters: dict[str, float],
    gpu: dict[str, float],
) -> dict[str, float]:
    """The per-layer metrics of one traced run (names as in BENCHMARK.json)."""

    def row(name: str) -> dict[str, float]:
        return rows.get(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "run_total_s": 0.0})

    def self_s(name: str) -> float:
        return row(name)["self_s"]

    def self_us(name: str) -> float:
        r = row(name)
        return _ratio(r["self_s"] * 1e6, r["calls"])

    def calls(name: str) -> float:
        return float(row(name)["calls"])

    return {
        "roadnet.build_s": row("roadnet.build")["run_total_s"],
        "core.graph_grid.build_s": row("core.graph_grid.build")["run_total_s"],
        "core.graph_grid.pack.self_s": self_s("core.graph_grid.pack"),
        "server.update.self_us": self_us("server.update"),
        "server.query.self_us": self_us("server.query"),
        "core.ggrid.ingest.self_us": self_us("core.ggrid.ingest"),
        "core.message_list.append.self_us": self_us("core.message_list.append"),
        "core.object_table.put.self_us": self_us("core.object_table.put"),
        "core.cleaning.calls": calls("core.cleaning"),
        "core.cleaning.self_s": self_s("core.cleaning"),
        "core.cleaning.cells": float(counts["core.cleaning.cells"]),
        "core.cleaning.messages": float(counts["core.cleaning.messages"]),
        "core.cleaning.survivor_ratio": _ratio(
            counts["core.cleaning.survivors"], counts["core.cleaning.messages"]
        ),
        "core.xshuffle.calls": calls("core.xshuffle"),
        "core.xshuffle.self_s": self_s("core.xshuffle"),
        "core.xshuffle.messages": float(counts["core.xshuffle.messages"]),
        "core.xshuffle.collect.self_s": self_s("core.xshuffle.collect"),
        "core.sdist.calls": calls("core.sdist"),
        "core.sdist.self_s": self_s("core.sdist"),
        "core.sdist.elements": float(counts["core.sdist.elements"]),
        "core.sdist.first_k.self_s": self_s("core.sdist.first_k"),
        "core.sdist.unresolved.self_s": self_s("core.sdist.unresolved"),
        "core.refine.self_s": self_s("core.refine"),
        "core.refine.settled": float(counts["core.refine.settled"]),
        "core.knn.fallback_ratio": _ratio(counters["fallbacks"], counters["answers"]),
        "cluster.router.update.self_us": self_us("cluster.router.update"),
        "cluster.router.query.self_s": self_s("cluster.router.query"),
        "cluster.bound.calls": calls("cluster.bound"),
        "cluster.bound.self_s": self_s("cluster.bound"),
        "cluster.fanout": float(counters["fanout"]),
        "cluster.replica.apply.self_s": self_s("cluster.replica.apply"),
        "persist.wal.self_us": self_us("persist.wal"),
        "persist.wal.records": calls("persist.wal"),
        "serve.admit.self_us": self_us("serve.admit"),
        "serve.epoch_size": _ratio(counters["answers"], counters["epochs"]),
        "plan.cache.hit_ratio": _ratio(counters["cache_hits"], counters["cache_lookups"]),
        "plan.cache.self_us": self_us("plan.cache"),
        "plan.decide.self_us": self_us("plan.decide"),
        "plan.observe.self_us": self_us("plan.observe"),
        "plan.ten.self_s": self_s("plan.ten"),
        "plan.ten.rebuilds": float(counters["ten_rebuilds"]),
        **{f"simgpu.{key}": value for key, value in gpu.items()},
        "bench.coverage": coverage,
    }


def gpu_totals(gpus: list) -> dict[str, float]:
    """Modelled device counters summed over every simulated GPU."""
    return {
        "gpu_s": sum(g.stats.gpu_time_s for g in gpus),
        "lane_ops": float(sum(g.stats.lane_ops for g in gpus)),
        "atomic_ops": float(sum(g.stats.atomic_ops for g in gpus)),
        "kernel_launches": float(sum(g.stats.kernel_launches for g in gpus)),
        "transfer_bytes": float(sum(g.stats.total_bytes for g in gpus)),
    }
