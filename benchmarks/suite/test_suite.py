"""Tests of the benchmark suite itself: ``python -m pytest benchmarks/suite -q``.

The end-to-end tests run each workload for one untraced and one traced
pass on lock_server only (a few seconds each).
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from benchmarks.suite import runner, tracer
from benchmarks.suite.cli import load_benchmark
from benchmarks.suite.compare import compare
from benchmarks.suite.workloads import (
    WORKLOADS,
    load_expected,
    permutation,
    verdict_failures,
)

BENCHMARK = load_benchmark()


def _lock_server_only(name: str):
    return dataclasses.replace(WORKLOADS[name], items=("lock_server",))


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def traced_report(request):
    workload = _lock_server_only(request.param)
    return runner.run_workload(workload, seed=0, seconds=0, traced=True)


def test_report_has_every_benchmark_metric(traced_report):
    assert traced_report["failed"] == 0, traced_report["failures"]
    for spec in BENCHMARK["end_to_end"]:
        metric = traced_report["metrics"][spec["name"]]
        assert metric["value"] > 0
        assert metric["p25"] <= metric["value"] <= metric["p75"]
    for spec in BENCHMARK["per_layer"]:
        assert spec["name"] in traced_report["layers"]
    assert traced_report["missing_layers"] == []


def test_self_times_are_nonnegative_and_within_wall(traced_report):
    layers = traced_report["layers"]
    for name in tracer.LAYERS:
        assert layers[f"{name}.self_s"] >= -1e-9, name
    # Every layer's self time inside items plus the unaccounted rest is
    # the items' traced wall time, so the rest cannot be negative.
    assert layers["unaccounted_s"] >= -1e-9
    assert 0 <= layers["unaccounted_share"] <= 1


def test_summarize_computes_self_time_from_the_span_tree():
    spans = [
        ["item", 0.0, 10.0, -1, "p"],
        ["a", 1.0, 6.0, 0, "p"],
        ["b", 2.0, 3.0, 1, "p"],
        ["b", 4.0, 5.5, 1, "p"],
        ["a", 7.0, 9.0, 0, "p"],
    ]
    summary = tracer.summarize(json.dumps(span) for span in spans)
    assert summary["self_s"] == pytest.approx({"a": 4.5, "b": 2.5})
    assert summary["calls"] == {"a": 2, "b": 2}
    assert summary["item_s"] == 10.0
    assert summary["unaccounted_s"] == pytest.approx(3.0)


def test_missing_targets_are_listed_not_fatal():
    traced = tracer.Tracer()
    traced.install(
        layers={"gone": ("repro.no_such_module:f", "repro.solver.sat:Solver.no_such")},
        counters={},
    )
    assert traced.missing == [
        "repro.no_such_module:f", "repro.solver.sat:Solver.no_such",
    ]


def test_wrong_expected_verdict_counts_as_failure(monkeypatch):
    wrong = {
        name: dict(reference, invariant_holds=not reference["invariant_holds"])
        for name, reference in load_expected().items()
    }
    monkeypatch.setattr(runner, "load_expected", lambda: wrong)
    report = runner.run_workload(
        _lock_server_only("check"), seed=0, seconds=0, traced=False
    )
    assert report["attempted"] == 1
    assert report["failed"] == 1
    assert report["failed_share"] == 1.0


def test_verdict_failures():
    expected = load_expected()
    good = {"success": True, "G": expected["lock_server"]["G"]}
    assert verdict_failures("session", "lock_server", good, expected, 0) == []
    off_by_one = dict(good, G=good["G"] + 1)
    assert verdict_failures("session", "lock_server", off_by_one, expected, 0)
    # G is the published order's count; other seeds only need success.
    assert verdict_failures("session", "lock_server", off_by_one, expected, 3) == []
    assert verdict_failures("check", "chord", {"unknown": True}, expected, 0)
    assert verdict_failures("bmc", "chord", {"error": "boom"}, expected, 0)


def test_seed_permutation_is_deterministic_and_seed_zero_is_identity():
    items = [f"c{index}" for index in range(12)]
    assert permutation(0, 0, "chord", items) == items
    assert permutation(0, 3, "chord", items) == items
    assert permutation(7, 1, "chord", items) == permutation(7, 1, "chord", items)
    assert sorted(permutation(7, 1, "chord", items)) == sorted(items)
    assert permutation(7, 1, "chord", items) != items
    assert permutation(7, 1, "chord", items) != permutation(8, 1, "chord", items)
    assert permutation(7, 1, "chord", items) != permutation(7, 2, "chord", items)


def _report(path, wall, spread, failed_share=0.0):
    metric = {"value": wall, "p25": wall * (1 - spread / 2),
              "p75": wall * (1 + spread / 2), "n": 5}
    metrics = {spec["name"]: metric for spec in BENCHMARK["end_to_end"]}
    path.write_text(json.dumps({"workloads": {"check": {
        "metrics": metrics, "failed_share": failed_share,
    }}}))
    return str(path)


def test_compare(tmp_path, capsys):
    base = _report(tmp_path / "a.json", 10.0, 0.01)
    assert compare(base, _report(tmp_path / "b.json", 10.2, 0.01), BENCHMARK) == 0
    assert "ok" in capsys.readouterr().out
    assert compare(base, _report(tmp_path / "c.json", 13.0, 0.01), BENCHMARK) == 1
    assert "REGRESSION" in capsys.readouterr().out
    assert compare(base, _report(tmp_path / "d.json", 13.0, 0.5), BENCHMARK) == 0
    assert "unresolved" in capsys.readouterr().out
    failing = _report(tmp_path / "e.json", 10.0, 0.01, failed_share=0.1)
    assert compare(base, failing, BENCHMARK) == 1
    assert "FAILED" in capsys.readouterr().out


def test_benchmark_json_matches_the_suite():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    names = [spec["name"] for spec in BENCHMARK["end_to_end"]]
    assert names == list(runner.END_TO_END)
    bounds = {spec["name"]: spec["bound"] for spec in BENCHMARK["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
