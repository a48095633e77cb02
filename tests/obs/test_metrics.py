"""The metrics registry and its guarded module helpers."""

from types import SimpleNamespace

import pytest

from repro import obs
from repro.obs.metrics import _key


@pytest.fixture(autouse=True)
def no_registry():
    old = obs.install_metrics(None)
    yield
    obs.install_metrics(old)


@pytest.fixture
def registry():
    registry = obs.MetricsRegistry()
    obs.install_metrics(registry)
    return registry


class TestHelpersWithoutRegistry:
    def test_all_helpers_are_noops(self):
        assert not obs.metrics_enabled()
        obs.inc("queries_total", verdict="sat")
        obs.observe("query_latency_ms", 12.0)
        obs.set_gauge("frames", 3)
        obs.count_engine_queries("bmc", [SimpleNamespace(unknown=False)])
        assert obs.metrics() is None


class TestRegistry:
    def test_label_keys_are_prometheus_style(self):
        assert _key("queries_total", {}) == "queries_total"
        assert (
            _key("queries_total", {"verdict": "sat", "engine": "bmc"})
            == "queries_total{engine=bmc,verdict=sat}"
        )

    def test_counters_and_gauges(self, registry):
        obs.inc("queries_total", verdict="sat")
        obs.inc("queries_total", 2, verdict="sat")
        obs.set_gauge("frames", 4)
        snapshot = registry.to_dict()
        assert snapshot["schema"] == 1
        assert snapshot["counters"]["queries_total{verdict=sat}"] == 3
        assert snapshot["gauges"]["frames"] == 4

    def test_histogram_snapshot(self, registry):
        for value in (0.5, 2.0, 2.0, 700.0):
            obs.observe("query_latency_ms", value)
        snap = registry.to_dict()["histograms"]["query_latency_ms"]
        assert snap["count"] == 4
        assert snap["min"] == 0.5 and snap["max"] == 700.0
        assert snap["mean"] == pytest.approx(176.125)
        assert [0.5, 1] in snap["buckets"]  # value 0.5 lands on its bound
        assert sum(count for _, count in snap["buckets"]) == 4

    def test_derived_cache_hit_rate(self, registry):
        obs.inc("cache_hits_total", 3)
        obs.inc("cache_misses_total", 1)
        assert registry.to_dict()["derived"]["cache_hit_rate"] == 0.75

    def test_derived_unknown_rate_per_engine(self, registry):
        results = [
            SimpleNamespace(unknown=False),
            SimpleNamespace(unknown=True),
            SimpleNamespace(unknown=False),
            SimpleNamespace(unknown=False),
        ]
        obs.count_engine_queries("bmc", results)
        obs.count_engine_queries("houdini", results[:1])
        derived = registry.to_dict()["derived"]
        assert derived["unknown_rate{engine=bmc}"] == 0.25
        assert derived["unknown_rate{engine=houdini}"] == 0.0

    def test_no_derived_rates_without_traffic(self, registry):
        assert registry.to_dict()["derived"] == {}


class TestFormatStats:
    def test_summary_lines(self, registry):
        obs.inc("queries_total", 3, verdict="unsat")
        obs.inc("queries_total", verdict="unknown")
        obs.inc("cache_hits_total")
        obs.inc("cache_misses_total", 3)
        obs.inc("cache_evictions_total", 2)
        obs.inc("dispatched_total", 4)
        obs.inc("solver_work_total", 7, counter="conflicts")
        obs.observe("query_phase_ms", 1.04, phase="sat")
        obs.observe("query_phase_ms", 0.03900000000000002, phase="sat",
                    engine="bmc")
        lines = registry.format_stats().splitlines()
        assert lines[0] == "solver statistics:"
        assert "4 (sat 0, unsat 3, unknown 1)" in lines[1]
        assert "1 hits / 3 misses (25% hit rate), 2 evictions" in lines[2]
        assert "4 to worker processes" in lines[3]
        assert not any("faults" in line for line in lines)
        work = dict(line.split() for line in lines[4:13])
        assert work["conflicts"] == "7" and work["restarts"] == "0"
        assert lines[13:] == ["  [sat] 1.1 ms"]

    def test_faults_line_only_when_a_fault_happened(self, registry):
        assert "faults" not in registry.format_stats()
        obs.inc("worker_wedged_total")
        obs.inc("dispatch_retries_total", 2)
        assert (
            "0 crashes, 0 kills, 1 wedged, 2 retries, 0 serial fallbacks"
            in registry.format_stats()
        )

    def test_no_work_lines_without_a_solve(self, registry):
        obs.inc("queries_total", 2, verdict="sat")
        obs.inc("cache_hits_total", 2)
        text = registry.format_stats()
        assert "(100% hit rate)" in text and "instances" not in text
