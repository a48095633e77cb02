"""End-to-end crash safety through the CLI, in subprocesses.

Covers the acceptance criterion of the recovery work: a run SIGKILLed at
an arbitrary journal point and resumed must reach the verdict of an
uninterrupted run, reusing journaled work instead of re-solving it; an
interrupted run must exit resumable (75) and leave no orphaned pool
workers behind.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.recovery import EXIT_RESUMABLE

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

needs_fork = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="requires the fork start method"
)


def _run(cwd, argv, extra_env=None, **kwargs):
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("REPRO_FAULT", None)
    env.update(extra_env or {})
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
        **kwargs,
    )


def _reused_ratio(metrics_path):
    with open(metrics_path) as handle:
        return json.load(handle).get("gauges", {}).get("resume_reused_ratio")


class TestResumeFlow:
    def test_torn_journal_resumes_to_the_same_verdict(self, tmp_path):
        cwd = str(tmp_path)
        first = _run(cwd, ["check", "lock_server", "--run-dir", "rd"])
        assert first.returncode == 0, first.stderr

        journal = tmp_path / "rd" / "journal.jsonl"
        blob = journal.read_bytes()
        journal.write_bytes(blob[:-7])  # tear the final append

        second = _run(
            cwd,
            ["check", "lock_server", "--run-dir", "rd", "--resume",
             "--metrics", "m.json"],
        )
        assert second.returncode == 0, second.stderr
        ratio = _reused_ratio(tmp_path / "m.json")
        assert ratio is not None and 0.0 < ratio <= 1.0

    def test_resume_subcommand_reinvokes_the_recorded_argv(self, tmp_path):
        cwd = str(tmp_path)
        first = _run(cwd, ["check", "lock_server", "--run-dir", "rd"])
        assert first.returncode == 0, first.stderr
        resumed = _run(cwd, ["resume", "rd"])
        assert resumed.returncode == 0, resumed.stderr
        assert "resuming: repro check lock_server" in resumed.stderr

    def test_resume_of_a_non_run_dir_fails_cleanly(self, tmp_path):
        result = _run(str(tmp_path), ["resume", "not-a-run"])
        assert result.returncode == 2
        assert "meta.json" in result.stderr


@needs_fork
class TestChaosKill9:
    """SIGKILL the main process at random journal points; resume; compare."""

    def _verdict_after_chaos(self, cwd, argv, run_dir, seed):
        fault = {"REPRO_FAULT": f"kill9:0.5,seed:{seed}"}
        result = _run(cwd, [*argv, "--run-dir", run_dir], extra_env=fault)
        kills = 0
        while result.returncode in (-9, 128 + 9):
            kills += 1
            assert kills < 80, "chaos run makes no progress"
            result = _run(
                cwd, [*argv, "--run-dir", run_dir, "--resume"],
                extra_env=fault,
            )
        return result, kills

    @pytest.mark.slow
    def test_check_survives_arbitrary_kills(self, tmp_path):
        cwd = str(tmp_path)
        argv = ["check", "lock_server"]
        reference = _run(cwd, argv)
        result, kills = self._verdict_after_chaos(cwd, argv, "rd", seed=1)
        assert kills > 0, "kill9:0.5 never fired -- chaos hook is dead"
        assert result.returncode == reference.returncode
        # a fault-free resume of the finished run is pure replay
        final = _run(
            cwd,
            [*argv, "--run-dir", "rd", "--resume", "--metrics", "m.json"],
        )
        assert final.returncode == reference.returncode
        assert _reused_ratio(tmp_path / "m.json") == 1.0

    @pytest.mark.slow
    def test_verify_survives_arbitrary_kills(self, tmp_path):
        cwd = str(tmp_path)
        rml = os.path.join(
            os.path.dirname(SRC), "examples", "lock_server.rml"
        )
        argv = ["verify", rml]
        reference = _run(cwd, argv)
        result, kills = self._verdict_after_chaos(cwd, argv, "rd", seed=2)
        assert result.returncode == reference.returncode
        assert result.stdout.splitlines()[-1] == \
            reference.stdout.splitlines()[-1]


@needs_fork
@pytest.mark.skipif(
    not os.path.isdir("/proc"), reason="orphan scan reads /proc"
)
class TestNoOrphans:
    def _children_of(self, pid):
        children = []
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat") as handle:
                    fields = handle.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            if int(fields[1]) == pid:  # ppid is the field after the state
                children.append(int(entry))
        return children

    def test_interrupt_reaps_every_pool_worker(self, tmp_path):
        """Ctrl-C mid-dispatch: the run exits resumable and no worker
        process outlives it (the orphaned-children bug)."""
        env = dict(
            os.environ,
            PYTHONPATH=SRC,
            # workers hang forever, watchdog off: they stay alive until
            # the shutdown path explicitly reaps them
            REPRO_FAULT="hang:1.0:600",
            REPRO_HEARTBEAT_TIMEOUT="0",
        )
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "check", "lock_server",
             "-j", "2", "--run-dir", "rd"],
            cwd=str(tmp_path), env=env, start_new_session=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                workers = self._children_of(process.pid)
                if workers:
                    break
                time.sleep(0.1)
            assert workers, "pool workers never appeared"
            os.kill(process.pid, signal.SIGINT)
            stderr = process.communicate(timeout=60)[1]
            assert process.returncode == EXIT_RESUMABLE, stderr
            assert "resume with:" in stderr
            deadline = time.monotonic() + 20
            while time.monotonic() < deadline:
                try:
                    os.killpg(process.pid, 0)
                except ProcessLookupError:
                    break  # the whole session is gone: nothing orphaned
                time.sleep(0.1)
            else:
                pytest.fail(f"surviving processes: "
                            f"{self._children_of(process.pid)}")
        finally:
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

    def test_killed_parent_leaves_no_idle_worker(self, tmp_path):
        """SIGKILL of the dispatching process: its idle pool workers
        notice they are orphaned and exit instead of lingering."""
        code = (
            "import time\n"
            "from repro.solver.dispatch import worker_pool\n"
            "worker_pool().ensure(2)\n"
            "print('ready', flush=True)\n"
            "time.sleep(600)\n"
        )
        process = subprocess.Popen(
            [sys.executable, "-c", code],
            cwd=str(tmp_path), env=dict(os.environ, PYTHONPATH=SRC),
            start_new_session=True, stdout=subprocess.PIPE, text=True,
        )
        try:
            assert process.stdout.readline().strip() == "ready"
            workers = self._children_of(process.pid)
            assert len(workers) == 2
            process.kill()
            process.wait(timeout=10)

            def running(pid):
                try:
                    with open(f"/proc/{pid}/stat") as handle:
                        state = handle.read().rsplit(")", 1)[1].split()[0]
                except OSError:
                    return False
                return state != "Z"  # an exited orphan awaiting its reaper

            deadline = time.monotonic() + 20
            while any(map(running, workers)):
                if time.monotonic() > deadline:
                    pytest.fail(f"orphaned workers still running: {workers}")
                time.sleep(0.1)
        finally:
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
