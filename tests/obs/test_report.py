"""End-to-end: ``--trace``/``--metrics`` through the CLI, then ``report``.

The ISSUE acceptance criteria live here: a traced run writes valid JSONL
that re-parents into one tree covering the engine -> phase -> query
layers, ``repro report`` renders the Fig. 14-shaped breakdown from it,
and the metrics snapshot carries the documented counters and rates.
"""

import json
import pathlib

import pytest

from repro import obs
from repro.cli import main
from repro.solver import QueryCache, install_cache

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
LOCK_SERVER_RML = REPO_ROOT / "examples" / "lock_server.rml"


@pytest.fixture(autouse=True)
def clean_obs():
    """Fresh query cache per test (so latency histograms see real solves);
    main() tears its own obs layers down -- assert nothing leaks anyway."""
    old_cache = install_cache(QueryCache())
    yield
    install_cache(old_cache)
    assert obs.active_tracer() is None
    assert obs.metrics() is None


def _run_traced(tmp_path, argv):
    trace = tmp_path / "trace.jsonl"
    metrics = tmp_path / "metrics.json"
    code = main(argv + ["--trace", str(trace), "--metrics", str(metrics)])
    assert code == 0
    return trace, metrics


class TestTracedCheck:
    def test_check_produces_single_tree_spanning_all_layers(self, tmp_path, capsys):
        trace, metrics = _run_traced(tmp_path, ["check", "lock_server"])
        events = obs.load_trace(str(trace))  # raises on malformed JSONL
        roots, nodes, header = obs.build_tree(events)
        assert header["v"] == obs.SCHEMA_VERSION and header["run"]
        assert len(roots) == 1
        root = roots[0]
        assert root.name == "repro.check"
        assert root.attrs["protocol"] == "lock_server"
        assert root.attrs["exit_code"] == 0
        assert obs.tree_depth(roots) >= 4  # command -> engine -> phase -> query
        names = {node.name for node in nodes.values()}
        assert "induction" in names
        assert "induction.obligation" in names
        assert "epr.solve" in names
        # every query span sits under the induction engine span
        queries = [n for n in nodes.values() if n.name == obs.QUERY_SPAN]
        assert queries
        for query in queries:
            assert any(a.name == "induction" for a in query.ancestors())

    def test_metrics_snapshot_schema(self, tmp_path, capsys):
        _, metrics = _run_traced(tmp_path, ["check", "lock_server"])
        snapshot = json.loads(metrics.read_text())
        assert snapshot["schema"] == 1
        counters = snapshot["counters"]
        assert counters["queries_total{verdict=unsat}"] > 0
        assert counters["engine_queries_total{engine=induction}"] > 0
        assert "cache_hit_rate" in snapshot["derived"]
        assert snapshot["derived"]["unknown_rate{engine=induction}"] == 0.0
        assert snapshot["histograms"]["query_latency_ms"]["count"] > 0

    def test_report_renders_breakdown(self, tmp_path, capsys):
        trace, _ = _run_traced(tmp_path, ["check", "lock_server"])
        capsys.readouterr()
        assert main(["report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "trace report: run" in out
        assert "per-protocol query breakdown" in out
        assert "lock_server" in out and "induction" in out
        assert "per-phase breakdown" in out
        assert "epr.solve" in out
        assert "slowest queries" in out


class TestTracedWarmRerun:
    def test_warm_hits_are_reported_without_grounding(self, tmp_path, capsys):
        assert main(["check", "lock_server"]) == 0  # fills the query cache
        trace, metrics = _run_traced(
            tmp_path, ["check", "lock_server", "--stats"]
        )
        assert "(100% hit rate)" in capsys.readouterr().out
        _, nodes, _ = obs.build_tree(obs.load_trace(str(trace)))
        names = {node.name for node in nodes.values()}
        assert "epr.prepare" not in names
        solves = [n for n in nodes.values() if n.name == obs.QUERY_SPAN]
        assert solves
        for solve in solves:
            assert solve.attrs == {"verdict": "unsat", "cached": True}
        counters = json.loads(metrics.read_text())["counters"]
        assert counters["cache_hits_total"] == len(solves)
        assert counters["queries_total{verdict=unsat}"] == len(solves)
        assert "cache_misses_total" not in counters
        assert main(["report", str(trace)]) == 0
        row = next(
            line for line in capsys.readouterr().out.splitlines()
            if "lock_server" in line and "induction" in line
        )
        # queries, sat, unsat, unk, cached, time
        queries, sat, unsat, unknown, cached = row.split()[2:7]
        assert queries == unsat == cached == str(len(solves))

    def test_obligation_spans_name_their_source(self, tmp_path, capsys):
        runs = iter(range(4))

        def obligation_spans(argv):
            trace = tmp_path / f"trace{next(runs)}.jsonl"
            assert main(argv + ["--trace", str(trace)]) == 0
            _, nodes, _ = obs.build_tree(obs.load_trace(str(trace)))
            return [
                node.attrs for node in nodes.values()
                if node.name == "induction.obligation"
            ]

        cold = obligation_spans(["check", "lock_server"])
        warm = obligation_spans(["check", "lock_server"])
        assert len(cold) == len(warm) == 19
        assert {span["source"] for span in cold} == {"fresh"}
        for span in warm:
            assert span["source"] == "cache"
            assert span["verdict"] == "unsat" and span["fallback"] is False
        assert [span["description"] for span in warm] == [
            span["description"] for span in cold
        ]
        ledger = ["--ledger-dir", str(tmp_path / "ledger")]
        proved = obligation_spans(["prove", "lock_server", *ledger])
        reproved = obligation_spans(["prove", "lock_server", *ledger])
        assert len(proved) == len(reproved) == 19
        assert {span["source"] for span in reproved} == {"ledger"}


class TestTracedVerify:
    def test_verify_bundled_example(self, tmp_path, capsys):
        assert LOCK_SERVER_RML.exists()
        trace, _ = _run_traced(
            tmp_path, ["verify", str(LOCK_SERVER_RML), "-k", "2"]
        )
        events = obs.load_trace(str(trace))
        roots, nodes, _ = obs.build_tree(events)
        assert len(roots) == 1 and roots[0].name == "repro.verify"
        names = {node.name for node in nodes.values()}
        assert "bmc" in names  # verify runs BMC before induction
        capsys.readouterr()
        assert main(["report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "lock_server.rml" in out


class TestProgressAndErrors:
    def test_progress_echoes_spans_to_stderr(self, capsys):
        assert main(["check", "lock_server", "--progress"]) == 0
        err = capsys.readouterr().err
        assert "> repro.check" in err
        assert "< done in" in err

    def test_report_missing_file(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "absent.jsonl")]) == 1
        assert "cannot read trace" in capsys.readouterr().err

    def test_report_malformed_trace(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"e": "run"}\nnot json\n')
        assert main(["report", str(bad)]) == 1
        assert "malformed trace" in capsys.readouterr().err

    def test_untraced_run_stays_untraced(self, capsys):
        assert main(["check", "lock_server"]) == 0
        assert obs.active_tracer() is None


def _bmc_queries(counters) -> int:
    return counters.get("engine_queries_total{engine=bmc}", 0)


class TestTracedBmc:
    """Every BMC probe, depth and reachability query gets one span in
    both modes, journal replays included, and the engine query count
    covers solver answers only."""

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_probe_spans_name_their_source(self, tmp_path, capsys, jobs):
        argv = [
            "bmc", "lock_server", "-k", "2", "-j", jobs, "--no-cache",
            "--run-dir", str(tmp_path / "rd"),
        ]

        def probes(extra, index):
            trace = tmp_path / f"trace{index}.jsonl"
            metrics = tmp_path / f"metrics{index}.json"
            assert main(
                argv + extra + ["--trace", str(trace), "--metrics", str(metrics)]
            ) == 0
            _, nodes, _ = obs.build_tree(obs.load_trace(str(trace)))
            spans = [n.attrs for n in nodes.values() if n.name == "bmc.probe"]
            return spans, _bmc_queries(json.loads(metrics.read_text())["counters"])

        live, live_queries = probes([], 0)
        resumed, resumed_queries = probes(["--resume"], 1)
        assert live and len(live) == len(resumed) == live_queries
        assert [span["verdict"] for span in live] == ["unsat"] * len(live)
        assert {span["source"] for span in live} == {"fresh"}
        assert [span["verdict"] for span in resumed] == ["unsat"] * len(live)
        assert {span["source"] for span in resumed} == {"journal"}
        assert resumed_queries == 0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_depth_and_reach_spans(self, tmp_path, metrics_registry, jobs):
        import io

        from repro.core.bounded import check_k_invariance
        from repro.core.generalize import check_unreachable
        from repro.logic.partial import PartialStructure
        from repro.protocols import lock_server
        from repro.recovery.journal import Journal

        bundle = lock_server.build()
        program, safety = bundle.program, bundle.safety[0].formula
        install_cache(None)
        sink = io.StringIO()
        obs.install_tracer(obs.Tracer(sink=sink, run_id="bmc"))
        try:
            path = str(tmp_path / "journal.jsonl")
            live = Journal.fresh(path)
            check_k_invariance(program, safety, 2, jobs=jobs, journal=live)
            live.close()
            answered = _bmc_queries(metrics_registry.to_dict()["counters"])
            resumed = Journal.resume(path)
            check_k_invariance(program, safety, 2, jobs=jobs, journal=resumed)
            resumed.close()
            replayed = _bmc_queries(metrics_registry.to_dict()["counters"])
            empty = PartialStructure(program.vocab, {}, {}, {})
            check_unreachable(program, empty, 1, jobs=jobs)
        finally:
            obs.install_tracer(None)
        events = [json.loads(line) for line in sink.getvalue().splitlines()]
        _, nodes, _ = obs.build_tree(events)
        depths = [n.attrs for n in nodes.values() if n.name == "bmc.depth"]
        reach = [n.attrs for n in nodes.values() if n.name == "bmc.reach"]
        assert [span["source"] for span in depths] == ["fresh"] * 3 + ["journal"] * 3
        assert {span["verdict"] for span in depths} == {"unsat"}
        assert answered == replayed == 3
        # the empty diagram is reachable at depth 0: one probe, one answer
        assert [(s["verdict"], s["source"]) for s in reach] == [("sat", "fresh")]
