"""A process-local metrics registry: counters, gauges, histograms.

The one place solver work is counted.  The solver and engine layers
publish into the registry unconditionally through the guarded module
helpers (:func:`inc`, :func:`observe`, :func:`set_gauge`), which are
single-global-read no-ops until a registry is installed -- exactly the
same off-by-default contract as :mod:`repro.obs.tracer`.  The CLI
installs one for ``--metrics FILE`` (the JSON snapshot) and for
``--stats`` (the :func:`format_stats` summary).

Metrics are identified by a name plus optional labels, rendered
Prometheus-style (``queries_total{verdict=sat}``) in the JSON snapshot.
Key series:

* ``queries_total{verdict=...}`` -- every answer, by verdict: each EPR
  solve, each cache hit, and each UNKNOWN given up before a solve ran;
* ``cache_hits_total`` / ``cache_misses_total`` / ``cache_evictions_total``;
* ``solver_work_total{counter=...}`` -- summed engine counters of the
  solves (instances, conflicts, decisions, ...);
* ``query_latency_ms`` -- histogram over actual (non-cached) solves;
* ``query_phase_ms{phase=...}`` -- per-phase wall time (:mod:`.profile`);
* ``grounded_instances`` -- histogram over per-query grounding sizes;
* ``dispatched_total``, ``worker_crashes_total``, ``worker_kills_total``,
  ``worker_wedged_total``, ``dispatch_retries_total``,
  ``serial_fallbacks_total``;
* ``engine_queries_total{engine=...}`` / ``engine_unknown_total{engine=...}``
  -- per-engine query volume and budget-exhaustion counts, from which
  :meth:`MetricsRegistry.to_dict` derives the per-engine unknown rate.

Like the tracer, the registry is per-process: dispatch workers fork with
a copy, so each worker publishes into a *fresh per-task registry* and
ships its :meth:`MetricsRegistry.to_dict` delta back over the result
pipe; the parent folds it in with :meth:`MetricsRegistry.merge`
(:mod:`repro.solver.dispatch`), keeping parent-side totals complete
across the pool.
"""

from __future__ import annotations

import threading
import time
from typing import Mapping

#: default histogram bucket upper bounds -- generic log-ish scale that
#: covers milliseconds, seconds, and instance counts alike.
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 50, 100, 500,
    1_000, 5_000, 10_000, 50_000, 100_000, 1_000_000,
)

#: the engine counters of a solve, published as
#: ``solver_work_total{counter=...}`` by :mod:`repro.solver.epr`
WORK_COUNTERS = (
    "instances", "conflicts", "decisions", "propagations", "restarts",
    "sat_vars", "cegar_rounds", "congruence_clauses", "lazy_instances",
)


class Counter:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Fixed-bucket histogram with count/sum/min/max."""

    __slots__ = ("bounds", "buckets", "count", "sum", "min", "max")

    def __init__(self, bounds: tuple = DEFAULT_BUCKETS) -> None:
        self.bounds = tuple(bounds)
        self.buckets = [0] * (len(self.bounds) + 1)  # +inf overflow bucket
        self.count = 0
        self.sum = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.buckets[index] += 1
                return
        self.buckets[-1] += 1

    def quantile(self, q: float) -> float:
        """Estimate the q-quantile (0..1) by linear bucket interpolation.

        Exact only up to bucket resolution; the estimate is clamped into
        ``[min, max]`` so tiny histograms never report a quantile outside
        the observed range (the overflow bucket has no upper bound, and
        a single-sample bucket would otherwise interpolate to its edge).
        """
        if not self.count:
            return 0.0
        rank = q * self.count
        seen = 0
        lower = 0.0
        for index, upper in enumerate(self.bounds + (self.max,)):
            in_bucket = self.buckets[index]
            if in_bucket and seen + in_bucket >= rank:
                fraction = (rank - seen) / in_bucket
                value = lower + (upper - lower) * fraction
                break
            seen += in_bucket
            lower = upper
        else:  # pragma: no cover - rank <= count always lands in a bucket
            value = self.max
        if self.min is not None:
            value = max(value, self.min)
        if self.max is not None:
            value = min(value, self.max)
        return value

    def merge_snapshot(self, snap: Mapping) -> None:
        """Fold a :meth:`snapshot` dict (e.g. a worker's delta) into self.

        Buckets are matched by bound; a bound this histogram does not
        have (shouldn't happen -- both sides use ``DEFAULT_BUCKETS`` --
        but deltas cross a pickle/pipe boundary) folds into the first
        bucket that covers it rather than being dropped.
        """
        count = int(snap.get("count", 0))
        if not count:
            return
        self.count += count
        self.sum += float(snap.get("sum", 0.0))
        for edge in ("min", "max"):
            value = snap.get(edge)
            if value is None:
                continue
            mine = getattr(self, edge)
            if mine is None or (value < mine if edge == "min" else value > mine):
                setattr(self, edge, value)
        for bound, bucket_count in snap.get("buckets", ()):
            if bound == "inf":
                self.buckets[-1] += bucket_count
                continue
            for index, mine in enumerate(self.bounds):
                if bound <= mine:
                    self.buckets[index] += bucket_count
                    break
            else:
                self.buckets[-1] += bucket_count

    def snapshot(self) -> dict:
        mean = self.sum / self.count if self.count else 0.0
        snap = {
            "count": self.count,
            "sum": round(self.sum, 6),
            "mean": round(mean, 6),
            "min": self.min,
            "max": self.max,
            "buckets": [
                [bound, count]
                for bound, count in zip(self.bounds + ("inf",), self.buckets)
                if count
            ],
        }
        if self.count:
            snap["p50"] = round(self.quantile(0.50), 6)
            snap["p95"] = round(self.quantile(0.95), 6)
            snap["p99"] = round(self.quantile(0.99), 6)
        return snap


def _key(name: str, labels: Mapping[str, object]) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


def parse_key(key: str) -> tuple[str, dict[str, str]]:
    """Invert :func:`_key`: ``"a{x=1,y=2}"`` -> ``("a", {"x": "1", ...})``.

    Label *values* produced by this codebase never contain ``,`` or ``=``
    (they are verdicts, engine names, phase names, op names), so a plain
    split is faithful.
    """
    if not key.endswith("}") or "{" not in key:
        return key, {}
    name, _, inner = key[:-1].partition("{")
    labels: dict[str, str] = {}
    for item in inner.split(","):
        k, _, v = item.partition("=")
        labels[k] = v
    return name, labels


class MetricsRegistry:
    """Creates-on-first-use registry of named, labeled metrics."""

    def __init__(self) -> None:
        self.created_unix = time.time()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._lock = threading.Lock()

    def counter(self, name: str, **labels) -> Counter:
        key = _key(name, labels)
        metric = self._counters.get(key)
        if metric is None:
            with self._lock:
                metric = self._counters.setdefault(key, Counter())
        return metric

    def gauge(self, name: str, **labels) -> Gauge:
        key = _key(name, labels)
        metric = self._gauges.get(key)
        if metric is None:
            with self._lock:
                metric = self._gauges.setdefault(key, Gauge())
        return metric

    def histogram(self, name: str, bounds: tuple = DEFAULT_BUCKETS, **labels) -> Histogram:
        key = _key(name, labels)
        metric = self._histograms.get(key)
        if metric is None:
            with self._lock:
                metric = self._histograms.setdefault(key, Histogram(bounds))
        return metric

    # --------------------------------------------------- delta merging

    def counter_by_key(self, key: str) -> Counter:
        metric = self._counters.get(key)
        if metric is None:
            with self._lock:
                metric = self._counters.setdefault(key, Counter())
        return metric

    def gauge_by_key(self, key: str) -> Gauge:
        metric = self._gauges.get(key)
        if metric is None:
            with self._lock:
                metric = self._gauges.setdefault(key, Gauge())
        return metric

    def histogram_by_key(self, key: str) -> Histogram:
        metric = self._histograms.get(key)
        if metric is None:
            with self._lock:
                metric = self._histograms.setdefault(key, Histogram())
        return metric

    def merge(self, delta: Mapping) -> None:
        """Fold another registry's :meth:`to_dict` snapshot into this one.

        This is how pool-worker metrics reach the parent: each worker
        publishes into a fresh per-task registry and ships its
        ``to_dict()`` back with the result; the parent merges, so its
        totals cover the whole pool.  Counters and
        histogram contents add; gauges last-write-win (workers rarely
        set them).  ``derived`` rates are recomputed from the merged
        counters at the next :meth:`to_dict`, never merged.
        """
        for key, value in delta.get("counters", {}).items():
            if value:
                self.counter_by_key(key).inc(value)
        for key, value in delta.get("gauges", {}).items():
            self.gauge_by_key(key).set(value)
        for key, snap in delta.get("histograms", {}).items():
            self.histogram_by_key(key).merge_snapshot(snap)

    # ------------------------------------------------------------ reporting

    def to_dict(self) -> dict:
        """A JSON-able snapshot, with a few derived convenience rates."""
        counters = {key: c.value for key, c in sorted(self._counters.items())}
        derived: dict[str, float] = {}
        hits = counters.get("cache_hits_total", 0)
        misses = counters.get("cache_misses_total", 0)
        if hits + misses:
            derived["cache_hit_rate"] = round(hits / (hits + misses), 4)
        for key, total in counters.items():
            if not key.startswith("engine_queries_total{") or not total:
                continue
            engine = key[len("engine_queries_total") :]
            unknowns = counters.get(f"engine_unknown_total{engine}", 0)
            derived[f"unknown_rate{engine}"] = round(unknowns / total, 4)
        return {
            "schema": 1,
            "created_unix": self.created_unix,
            "counters": counters,
            "gauges": {key: g.value for key, g in sorted(self._gauges.items())},
            "histograms": {
                key: h.snapshot() for key, h in sorted(self._histograms.items())
            },
            "derived": derived,
        }

    def format_stats(self) -> str:
        """The human-readable summary ``--stats`` prints at teardown."""
        snapshot = self.to_dict()
        counters = snapshot["counters"]

        def count(key: str) -> int:
            return counters.get(key, 0)

        sat, unsat, unknown = (
            count(f"queries_total{{verdict={v}}}")
            for v in ("sat", "unsat", "unknown")
        )
        hits, misses = count("cache_hits_total"), count("cache_misses_total")
        verdicts = f"sat {sat}, unsat {unsat}"
        if unknown:
            verdicts += f", unknown {unknown}"
        rate = snapshot["derived"].get("cache_hit_rate", 0.0)
        cache = f"{hits} hits / {misses} misses ({rate:.0%} hit rate)"
        if count("cache_evictions_total"):
            cache += f", {count('cache_evictions_total')} evictions"
        lines = [
            "solver statistics:",
            f"  queries        {sat + unsat + unknown} ({verdicts})",
            f"  cache          {cache}",
            f"  dispatched     {count('dispatched_total')} to worker processes",
        ]
        faults = [
            count(f"{name}_total")
            for name in (
                "worker_crashes", "worker_kills", "worker_wedged",
                "dispatch_retries", "serial_fallbacks",
            )
        ]
        if any(faults):
            lines.append(
                "  faults         {} crashes, {} kills, {} wedged, "
                "{} retries, {} serial fallbacks".format(*faults)
            )
        if any(key.startswith("solver_work_total{") for key in counters):
            for name in sorted(WORK_COUNTERS):
                value = count(f"solver_work_total{{counter={name}}}")
                lines.append(f"  {name:14s} {value}")
        phase_ms: dict[str, float] = {}
        for key, histogram in snapshot["histograms"].items():
            name, labels = parse_key(key)
            if name == "query_phase_ms":
                phase = labels["phase"]
                phase_ms[phase] = phase_ms.get(phase, 0.0) + histogram["sum"]
        for phase in sorted(phase_ms):
            lines.append(f"  [{phase}] {phase_ms[phase]:.1f} ms")
        return "\n".join(lines)


#: the installed registry; ``None`` (the default) disables metrics entirely.
_registry: MetricsRegistry | None = None


def install_metrics(registry: MetricsRegistry | None) -> MetricsRegistry | None:
    """Install (or with ``None`` remove) the process-global registry."""
    global _registry
    old = _registry
    _registry = registry
    return old


def metrics() -> MetricsRegistry | None:
    return _registry


def metrics_enabled() -> bool:
    return _registry is not None


def inc(name: str, amount: int = 1, **labels) -> None:
    """Increment a counter; no-op until a registry is installed."""
    registry = _registry
    if registry is None:
        return
    registry.counter(name, **labels).inc(amount)


def observe(name: str, value: float, **labels) -> None:
    """Record a histogram observation; no-op until a registry is installed."""
    registry = _registry
    if registry is None:
        return
    registry.histogram(name, **labels).observe(value)


def set_gauge(name: str, value: float, **labels) -> None:
    """Set a gauge; no-op until a registry is installed."""
    registry = _registry
    if registry is None:
        return
    registry.gauge(name, **labels).set(value)


def count_engine_queries(engine: str, results) -> None:
    """Record an engine's query volume and unknown count in one shot.

    ``results`` is any iterable of objects with an ``unknown`` attribute
    (:class:`~repro.solver.epr.EprResult`); feeds the per-engine
    ``unknown_rate`` derived metric.  No-op until a registry is installed.
    """
    registry = _registry
    if registry is None:
        return
    total = unknowns = 0
    for result in results:
        total += 1
        if getattr(result, "unknown", False):
            unknowns += 1
    if total:
        registry.counter("engine_queries_total", engine=engine).inc(total)
    if unknowns:
        registry.counter("engine_unknown_total", engine=engine).inc(unknowns)
