"""Adaptive query planning over pluggable index backends (DESIGN.md §17).

The paper hard-wires G-Grid; "Simpler is More" and FliX (PAPERS.md) argue
the *right* index depends on the update:query mix.  This package makes
the choice a runtime decision:

* :mod:`repro.plan.backends` — the :class:`IndexBackend` protocol every
  index speaks (G-Grid, V-Tree, ROAD, Naive, TEN) plus the shared
  argument validation and the :func:`make_backend` factory.
* :mod:`repro.plan.ten` — a TEN-style materialized top-k-neighbor index:
  per-vertex truncated kNN lists rebuilt lazily per dirty region.  Cheap
  on query-dominant traffic, expensive under churn — the foil that makes
  planning meaningful.
* :mod:`repro.plan.standing` — the one staleness rule for a kNN answer
  held across time, shared by the result cache and :mod:`repro.subscribe`.
* :mod:`repro.plan.cache` — a kNN result cache invalidated by that rule.
* :mod:`repro.plan.planner` — the cost-model-driven
  :class:`QueryPlanner` that picks a backend per query, explains itself
  (:class:`QueryPlan`), and re-calibrates from observed counters.

Everything the planner consumes is deterministic over the modelled
clock, so replays plan identically and planner-routed answers are
byte-identical to an always-G-Grid server.
"""

from repro.plan.backends import (
    IndexBackend,
    make_backend,
    supports_batch,
    supports_removal,
    validate_knn_args,
)
from repro.plan.cache import ResultCache
from repro.plan.planner import QueryPlan, QueryPlanner
from repro.plan.ten import TenIndex

__all__ = [
    "IndexBackend",
    "QueryPlan",
    "QueryPlanner",
    "ResultCache",
    "TenIndex",
    "make_backend",
    "supports_batch",
    "supports_removal",
    "validate_knn_args",
]
