"""The command-line interface."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[1]


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "leader_election" in out and "chord" in out

    def test_table(self, capsys):
        assert main(["table"]) == 0
        out = capsys.readouterr().out
        assert "lock_server" in out
        assert " 21" in out  # the lock server's I column

    def test_check_lock_server(self, capsys):
        assert main(["check", "lock_server"]) == 0
        out = capsys.readouterr().out
        assert "invariant inductive: True" in out
        assert "C8" in out

    def test_bmc_clean(self, capsys):
        assert main(["bmc", "lock_server", "-k", "2"]) == 0
        out = capsys.readouterr().out
        assert "no assertion violation" in out

    @pytest.mark.slow
    def test_bmc_finds_figure4_bug(self, capsys):
        code = main(["bmc", "leader_election", "-k", "4", "--drop-axiom", "unique_ids"])
        assert code == 1
        out = capsys.readouterr().out
        assert "assertion violation at depth 4" in out
        assert "send" in out

    def test_session_lock_server(self, capsys):
        assert main(["session", "lock_server"]) == 0
        out = capsys.readouterr().out
        assert "G = 8 CTIs" in out

    def test_unknown_protocol(self):
        with pytest.raises(SystemExit, match="unknown protocol"):
            main(["check", "nonexistent"])

    def test_no_symmetry_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["check", "lock_server", "--no-symmetry"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_cache_dir_beats_exported_persist_off(self, tmp_path):
        """``--cache-dir`` implies persistence even over REPRO_CACHE_PERSIST=0."""
        store = tmp_path / "store"
        env = dict(os.environ, REPRO_CACHE_PERSIST="0")
        env.pop("REPRO_CACHE", None)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src"), env.get("PYTHONPATH", "")]
        )
        subprocess.run(
            [sys.executable, "-m", "repro", "check", "lock_server",
             "--cache-dir", str(store)],
            cwd=tmp_path, env=env, capture_output=True, check=True,
        )
        assert any(path.is_file() for path in store.rglob("*"))

    def test_obs_flags_on_every_solving_subcommand(self, tmp_path, capsys):
        # --trace/--metrics/--progress parse everywhere; the end-to-end
        # trace content is covered in tests/obs/test_report.py.
        trace = tmp_path / "t.jsonl"
        assert main(["list", "--trace", str(trace)]) == 0
        assert trace.read_text().startswith('{"e":"run"')
        assert main(["bmc", "lock_server", "-k", "1", "--trace", str(trace)]) == 0
        assert main(["session", "lock_server", "--progress"]) == 0
        assert "> repro.session" in capsys.readouterr().err

    def test_verify_rml_file(self, tmp_path, capsys):
        from repro.protocols.base import model_file

        path = tmp_path / "lock_server.rml"
        path.write_text(model_file("lock_server").read_text())
        code = main(
            [
                "verify",
                str(path),
                "-k",
                "2",
                "--conjecture",
                "forall C1, C2. ~(holds(C1) & holds(C2) & C1 ~= C2)",
                "--conjecture",
                "forall C1, C2. ~(grant_msg(C1) & grant_msg(C2) & C1 ~= C2)",
                "--conjecture",
                "forall C1, C2. ~(unlock_msg(C1) & unlock_msg(C2) & C1 ~= C2)",
                "--conjecture",
                "forall C1, C2. ~(grant_msg(C1) & holds(C2))",
                "--conjecture",
                "forall C1, C2. ~(grant_msg(C1) & unlock_msg(C2))",
                "--conjecture",
                "forall C1, C2. ~(holds(C1) & unlock_msg(C2))",
                "--conjecture",
                "forall C1:client. ~(grant_msg(C1) & server_free)",
                "--conjecture",
                "forall C1:client. ~(holds(C1) & server_free)",
                "--conjecture",
                "forall C1:client. ~(unlock_msg(C1) & server_free)",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "inductive: True" in out

    def test_verify_reports_cti(self, tmp_path, capsys):
        from repro.protocols.base import model_file

        path = tmp_path / "lock_server.rml"
        path.write_text(model_file("lock_server").read_text())
        code = main(
            [
                "verify",
                str(path),
                "-k",
                "1",
                "--conjecture",
                "forall C1, C2. ~(holds(C1) & holds(C2) & C1 ~= C2)",
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "inductive: False" in out


class TestCliBudgets:
    """The --timeout/--conflict-budget flags and the UNKNOWN exit code."""

    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        # Isolate the global query cache: a hit legitimately bypasses the
        # budget, so starved runs must not see earlier tests' answers.
        from repro.solver import QueryCache, install_cache

        old = install_cache(QueryCache())
        yield
        install_cache(old)

    def test_bmc_starved_exits_2_with_degradation_report(self, capsys):
        code = main(["bmc", "lock_server", "-k", "2", "--timeout", "0.000001"])
        assert code == 2
        out = capsys.readouterr().out
        assert "unknown" in out and "timeout" in out

    def test_bmc_generous_budget_unchanged(self, capsys):
        code = main(["bmc", "lock_server", "-k", "1", "--timeout", "120"])
        assert code == 0
        assert "no assertion violation" in capsys.readouterr().out

    def test_check_starved_exits_2(self, capsys):
        code = main(["check", "lock_server", "--timeout", "0.000001", "--stats"])
        assert code == 2
        out = capsys.readouterr().out
        assert "invariant inductive: unknown" in out
        assert "obligations exhausting their budget" in out
        assert "unknown" in out  # stats verdict line includes the count

    def test_retries_flag_sets_env(self, monkeypatch):
        import os

        from repro.cli import build_parser, _budget_of

        monkeypatch.delenv("REPRO_RETRIES", raising=False)
        args = build_parser().parse_args(
            ["bmc", "lock_server", "--retries", "4"]
        )
        _budget_of(args)
        assert os.environ.get("REPRO_RETRIES") == "4"
        monkeypatch.delenv("REPRO_RETRIES", raising=False)


def _stats_numbers(out: str) -> dict[str, int]:
    """The ``--stats`` block's numbers, keyed by their registry series."""
    from repro.obs.metrics import WORK_COUNTERS

    block = out[out.index("solver statistics:"):]

    def number(pattern: str) -> int:
        match = re.search(pattern, block)
        return int(match.group(1)) if match else 0

    numbers = {
        f"queries_total{{verdict={verdict}}}": number(rf"\b{verdict} (\d+)[,)]")
        for verdict in ("sat", "unsat", "unknown")
    }
    numbers["cache_hits_total"] = number(r"(\d+) hits")
    numbers["cache_misses_total"] = number(r"(\d+) misses")
    numbers["cache_evictions_total"] = number(r"(\d+) evictions")
    numbers["dispatched_total"] = number(r"dispatched\s+(\d+)")
    for name in WORK_COUNTERS:
        numbers[f"solver_work_total{{counter={name}}}"] = number(
            rf"\n  {name}\s+(\d+)"
        )
    return numbers


class TestCliStats:
    @pytest.mark.parametrize(
        "argv",
        [["check", "lock_server"], ["check", "chord", "--timeout", "0.05"]],
        ids=["lock_server", "chord-timeout"],
    )
    def test_stats_equal_the_metrics_snapshot(self, argv, tmp_path, capsys):
        metrics = tmp_path / "m.json"
        main([*argv, "--stats", "--metrics", str(metrics)])
        printed = _stats_numbers(capsys.readouterr().out)
        counters = json.loads(metrics.read_text())["counters"]
        assert printed == {key: counters.get(key, 0) for key in printed}
        assert sum(
            value for key, value in printed.items()
            if key.startswith("queries_total")
        ) > 0

    @pytest.mark.parametrize("flag", [True, False], ids=["flag", "env"])
    def test_cache_off_reports_no_cache_activity(
        self, flag, monkeypatch, tmp_path, capsys
    ):
        # --no-cache and REPRO_CACHE=0: no misses and no cache phase
        monkeypatch.setenv("REPRO_CACHE", "1" if flag else "0")
        metrics = tmp_path / "m.json"
        argv = ["check", "lock_server", "--stats", "--metrics", str(metrics)]
        assert main(argv + (["--no-cache"] if flag else [])) == 0
        out = capsys.readouterr().out
        printed = _stats_numbers(out)
        assert printed["cache_hits_total"] == printed["cache_misses_total"] == 0
        assert printed["queries_total{verdict=unsat}"] > 0
        assert "[cache]" not in out
        snapshot = json.loads(metrics.read_text())
        assert "cache_misses_total" not in snapshot["counters"]
        assert not any("phase=cache" in key for key in snapshot["histograms"])

    def test_evictions_reach_stats_and_metrics(
        self, monkeypatch, tmp_path, capsys
    ):
        from repro.solver.cache import install_cache, query_cache

        monkeypatch.setenv("REPRO_CACHE_SIZE", "1")
        old = install_cache(query_cache(refresh=True))
        try:
            metrics = tmp_path / "m.json"
            main(["check", "lock_server", "--stats", "--metrics", str(metrics)])
        finally:
            install_cache(old)
        printed = _stats_numbers(capsys.readouterr().out)
        counters = json.loads(metrics.read_text())["counters"]
        assert printed["cache_evictions_total"] > 0
        assert printed["cache_evictions_total"] == counters[
            "cache_evictions_total"
        ]


class TestLint:
    BAD_SOURCE = """program broken
sort node
sort ghost
relation pending : node, node
axiom bad: forall X:node. exists Y:node. pending(X, Y)
"""

    def test_lint_all_protocols_clean(self, capsys):
        assert main(["lint"]) == 0
        out = capsys.readouterr().out
        # Three advisory warnings across the six bundled protocols and no
        # errors: lock_server's RML111 symmetry near-miss, and RML108 on
        # the relations no declared invariant reads (lock_server's
        # lock_msg, chord's p).
        assert "6 target(s): 0 error(s), 3 warning(s)" in out
        assert "RML111" in out

    def test_lint_file_reports_errors(self, tmp_path, capsys):
        bad = tmp_path / "bad.rml"
        bad.write_text(self.BAD_SOURCE)
        assert main(["lint", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "RML003" in out  # forall-exists axiom
        assert "RML201" in out  # ...and the cycle it induces
        assert "RML101" in out  # unused sort 'ghost'
        assert f"{bad}:" in out  # compiler-style origin prefix

    def test_lint_json_format(self, tmp_path, capsys):
        import json as json_mod

        bad = tmp_path / "bad.rml"
        bad.write_text(self.BAD_SOURCE)
        main(["lint", str(bad), "--format", "json"])
        data = json_mod.loads(capsys.readouterr().out)
        assert data["schema"] == 1
        codes = {d["code"] for d in data["diagnostics"]}
        assert {"RML003", "RML101", "RML201"} <= codes
        spanned = [d for d in data["diagnostics"] if d["span"]]
        assert spanned, "lint diagnostics should carry source spans"

    def test_lint_sarif_to_output_file(self, tmp_path, capsys):
        import json as json_mod

        out_file = tmp_path / "lint.sarif"
        code = main(["lint", "lock_server", "--format", "sarif",
                     "--output", str(out_file)])
        assert code == 0
        log = json_mod.loads(out_file.read_text())
        assert log["version"] == "2.1.0"
        results = log["runs"][0]["results"]
        # Only the advisory RML108 (lock_msg, read by no invariant) and
        # RML111 near-miss warnings; never an error.
        assert [r["ruleId"] for r in results] == ["RML108", "RML111"]
        assert all(r["level"] == "warning" for r in results)

    def test_lint_parse_error_becomes_rml000(self, tmp_path, capsys):
        bad = tmp_path / "nonsense.rml"
        bad.write_text("sort a\nrelation p : b\n")
        assert main(["lint", str(bad)]) == 1
        assert "RML000" in capsys.readouterr().out

    def test_lint_unknown_target(self, capsys):
        # An unknown target is a per-target RML000 error, not an abort.
        assert main(["lint", "no_such_protocol"]) == 1
        out = capsys.readouterr().out
        assert "RML000" in out and "unknown target" in out

    def test_lint_batch_continues_past_failures(self, tmp_path, capsys):
        bad = tmp_path / "nonsense.rml"
        bad.write_text("sort a\nrelation p : b\n")
        assert main(["lint", str(bad), "lock_server", "no_such"]) == 1
        out = capsys.readouterr().out
        # All three targets reported: the two failures as RML000, the
        # good protocol linted normally (its RML111 near-miss shows up).
        assert out.count("RML000") == 2
        assert "RML111" in out
        assert "3 target(s)" in out

    def test_lint_example_file_clean(self, tmp_path, capsys):
        from repro.protocols.base import model_file

        path = tmp_path / "lock_server.rml"
        path.write_text(model_file("lock_server").read_text())
        assert main(["lint", str(path)]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out
