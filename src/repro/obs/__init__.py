"""Cross-cutting observability: metrics, spans and slow-query logging.

The instrument the paper's evaluation is built on is the per-phase time
breakdown — lazy caching vs. cleaning cost, kernel time vs. PCIe
transfer volume (Sections IV–V).  This package makes that breakdown a
first-class, opt-in part of the serving layer:

* :mod:`repro.obs.metrics` — a dependency-free registry of counters,
  gauges and log-bucket histograms with Prometheus-text and JSON
  exposition;
* :mod:`repro.obs.tracing` — nested query-lifecycle spans merged with
  the simulated-GPU timeline into one Perfetto-loadable Chrome trace;
* :mod:`repro.obs.slowlog` — the top-N slowest queries with their
  phase splits;
* :mod:`repro.obs.slo` — per-class latency objectives over the modelled
  clock with multi-window error-budget burn rates (``repro_slo_*``);
* :mod:`repro.obs.flight` — a span ring-buffer flight recorder that
  dumps the last N query traces on fault, breaker-open or failover;
* :mod:`repro.obs.hub` — the :class:`Observability` bundle servers
  publish to, plus the process-wide opt-in default the benchmark CLI
  uses.

Example:
    >>> from repro.obs import Observability
    >>> obs = Observability.with_tracing()
    >>> obs.registry.counter("demo_total").default().inc()
    >>> "demo_total 1" in obs.registry.write_prometheus()
    True
"""

from repro.obs.flight import FlightDump, FlightRecorder
from repro.obs.hub import (
    Observability,
    configure,
    configured,
    default_observability,
)
from repro.obs.slo import (
    CLASS_FREE,
    CLASS_PAID,
    DEFAULT_SLO_POLICY,
    SERVE_SLO_POLICY,
    TENANT_CLASSES,
    SloObjective,
    SloPolicy,
    SloTracker,
    classify_fanout,
)
from repro.obs.metrics import (
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    RateLimitedWarner,
    linear_buckets,
    log_scale_buckets,
)
from repro.obs.slowlog import SlowQuery, SlowQueryLog
from repro.obs.tracing import (
    NULL_SPAN,
    Span,
    TraceContext,
    Tracer,
    current_context,
    current_tracer,
    root_span,
    span,
    spans_to_chrome_events,
    write_chrome_trace,
)

__all__ = [
    "Observability",
    "configure",
    "configured",
    "default_observability",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "RateLimitedWarner",
    "LATENCY_BUCKETS",
    "linear_buckets",
    "log_scale_buckets",
    "SlowQuery",
    "SlowQueryLog",
    "FlightDump",
    "FlightRecorder",
    "DEFAULT_SLO_POLICY",
    "SERVE_SLO_POLICY",
    "CLASS_PAID",
    "CLASS_FREE",
    "TENANT_CLASSES",
    "SloObjective",
    "SloPolicy",
    "SloTracker",
    "classify_fanout",
    "Tracer",
    "Span",
    "TraceContext",
    "NULL_SPAN",
    "current_context",
    "current_tracer",
    "root_span",
    "span",
    "spans_to_chrome_events",
    "write_chrome_trace",
]
