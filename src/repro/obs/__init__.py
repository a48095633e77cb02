"""Observability: tracing, metrics, profiling, reporting.

The layers, all zero-dependency:

* :mod:`repro.obs.tracer` -- span-based JSONL tracing with nested span
  IDs, a run-level correlation ID, and dispatch-worker event forwarding
  (off by default);
* :mod:`repro.obs.metrics` -- a counters/gauges/histograms registry the
  solver layers publish into (query latency, verdicts, cache and fault
  counters, per-engine unknown rates), with worker-delta merging and
  bucket-interpolated p50/p95/p99 (off by default); ``--stats`` prints
  its :meth:`~repro.obs.metrics.MetricsRegistry.format_stats` summary;
* :mod:`repro.obs.profile` -- per-phase wall/CPU timers decomposing
  every query's latency into grounding, CNF build, CDCL search, theory,
  cache, and transit time (always on);
* :mod:`repro.obs.report` -- offline rendering of a trace into the
  per-protocol / per-phase / per-query breakdown (``repro report``) and
  the phase-decomposition hotspot view (``--hotspots``).

Engines and solvers instrument through the guarded helpers re-exported
here (``obs.span``, ``obs.point``, ``obs.inc``, ``obs.observe``): with no
tracer or registry installed each call is a single global read, so
untraced runs pay effectively nothing.  The CLI installs the layers from
``--trace`` / ``--metrics`` / ``--stats`` / ``--progress``.
"""

from . import profile
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    count_engine_queries,
    inc,
    install_metrics,
    metrics,
    metrics_enabled,
    observe,
    set_gauge,
)
from .report import (
    ENGINE_SPANS,
    QUERY_SPAN,
    SpanNode,
    TraceParseError,
    build_tree,
    load_trace,
    render_hotspots,
    render_report,
    tree_depth,
)
from .tracer import (
    SCHEMA_VERSION,
    Span,
    SpanRef,
    Tracer,
    active_tracer,
    begin_span,
    current_span_id,
    drain_worker,
    enabled,
    enter_worker,
    exit_worker,
    finish_span,
    forward_events,
    install_tracer,
    point,
    span,
)

__all__ = [
    "Counter",
    "ENGINE_SPANS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "QUERY_SPAN",
    "SCHEMA_VERSION",
    "Span",
    "SpanNode",
    "SpanRef",
    "TraceParseError",
    "Tracer",
    "active_tracer",
    "begin_span",
    "build_tree",
    "count_engine_queries",
    "current_span_id",
    "drain_worker",
    "enabled",
    "enter_worker",
    "exit_worker",
    "finish_span",
    "forward_events",
    "inc",
    "install_metrics",
    "install_tracer",
    "load_trace",
    "metrics",
    "metrics_enabled",
    "observe",
    "point",
    "profile",
    "render_hotspots",
    "render_report",
    "set_gauge",
    "span",
    "tree_depth",
]
