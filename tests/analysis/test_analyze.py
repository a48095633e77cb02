"""The ``repro analyze`` subcommand: formats, batching, pure-static-ness."""

import json

import pytest

from repro.cli import main


class TestAnalyzeFormats:
    def test_text_report_sections(self, capsys):
        assert main(["analyze", "lock_server"]) == 0
        out = capsys.readouterr().out
        assert "== lock_server ==" in out
        assert "transitions:" in out
        assert "dependency graph:" in out
        assert "slice preview:" in out
        assert "symmetry:" in out
        assert "RML111" in out  # the 'client' sort near-miss

    def test_json_report_schema(self, capsys):
        assert main(["analyze", "db_chain", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        (target,) = payload["targets"]
        assert target["target"] == "db_chain"
        assert target["transitions"] and target["graph"]["edges"]
        assert target["slices"], "no slice preview rows"
        # db_chain's nle_total_order axiom is outside every initiation
        # obligation's cone of influence.
        dropped = {
            label for entry in target["slices"] for label in entry["dropped"]
        }
        assert "axiom nle_total_order" in dropped
        shrunk = [
            entry
            for entry in target["slices"]
            if entry["universe_sliced"] < entry["universe_full"]
        ]
        assert shrunk, "restricted vocabulary never shrank the universe"
        assert target["symmetry"]

    def test_sarif_driver_name(self, tmp_path):
        out_file = tmp_path / "analyze.sarif"
        assert (
            main(
                ["analyze", "lock_server", "--format", "sarif",
                 "--output", str(out_file)]
            )
            == 0
        )
        log = json.loads(out_file.read_text())
        assert log["version"] == "2.1.0"
        assert log["runs"][0]["tool"]["driver"]["name"] == "repro-analyze"
        rules = {r["id"] for r in log["runs"][0]["tool"]["driver"]["rules"]}
        assert "RML111" in rules

    def test_file_target(self, tmp_path, capsys):
        from repro.protocols.base import model_file

        path = tmp_path / "lock_server.rml"
        path.write_text(model_file("lock_server").read_text())
        assert main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"== {path} ==" in out
        assert "slice preview:" in out


class TestAnalyzeBatching:
    def test_unknown_target_is_rml000_not_abort(self, capsys):
        assert main(["analyze", "no_such", "lock_server"]) == 1
        out = capsys.readouterr().out
        assert "RML000" in out and "unknown target" in out
        assert "== lock_server ==" in out  # batch continued

    def test_parse_error_is_rml000(self, tmp_path, capsys):
        bad = tmp_path / "nonsense.rml"
        bad.write_text("sort a\nrelation p : b\n")
        assert main(["analyze", str(bad)]) == 1
        assert "RML000" in capsys.readouterr().out

    def test_default_runs_all_protocols(self, capsys):
        assert main(["analyze"]) == 0
        out = capsys.readouterr().out
        assert "6 target(s)" in out


class TestAnalyzeIsPureStatic:
    def test_zero_sat_queries(self, tmp_path, capsys):
        """The acceptance criterion: analyze never touches a solver."""
        metrics_file = tmp_path / "metrics.json"
        assert main(["analyze", "--metrics", str(metrics_file)]) == 0
        capsys.readouterr()
        snapshot = json.loads(metrics_file.read_text())
        latency = [
            key
            for key in snapshot.get("histograms", {})
            if key.startswith("query_latency_ms")
        ]
        assert not latency, f"repro analyze issued SAT queries: {latency}"
        assert not snapshot["counters"].get("queries_total")
