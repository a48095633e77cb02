"""Run directories, meta.json, and the signal-to-exception bridge."""

import json
import os
import signal

import pytest

from repro.recovery.resume import (
    META_FORMAT,
    META_NAME,
    RunMeta,
    default_run_dir,
    load_meta,
    write_meta,
)
from repro.recovery.signals import Interrupted, install_handlers


class TestRunDir:
    def test_deterministic(self, configure):
        configure(runs_dir=".repro-runs")
        first = default_run_dir("verify", "examples/lock_server.rml")
        second = default_run_dir("verify", "examples/lock_server.rml")
        assert first == second
        assert first.startswith(os.path.join(".repro-runs", "verify-"))
        assert "lock_server" in first

    def test_distinguishes_targets_sharing_a_basename(self):
        assert default_run_dir("verify", "a/x.rml") != default_run_dir(
            "verify", "b/x.rml"
        )

    def test_distinguishes_commands(self):
        assert default_run_dir("check", "lock_server") != default_run_dir(
            "bmc", "lock_server"
        )


class TestMeta:
    def test_roundtrip(self, tmp_path):
        run_dir = str(tmp_path / "run")
        written = write_meta(
            run_dir, "verify", ["verify", "x.rml", "--run-dir", run_dir],
            "x.rml",
        )
        loaded = load_meta(run_dir)
        assert loaded is not None
        assert loaded.command == written.command == "verify"
        assert loaded.argv == ("verify", "x.rml", "--run-dir", run_dir)
        assert loaded.target == "x.rml"

    def test_missing_directory_is_none(self, tmp_path):
        assert load_meta(str(tmp_path / "nope")) is None

    def test_foreign_format_is_none(self, tmp_path):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / META_NAME).write_text(
            json.dumps({"format": META_FORMAT + 1, "meta": {}})
        )
        assert load_meta(str(run_dir)) is None

    def test_garbage_is_none(self, tmp_path):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / META_NAME).write_text("{half a json")
        assert load_meta(str(run_dir)) is None

    def test_unwritable_dir_degrades_silently(self):
        meta = write_meta(
            "/proc/definitely-not-writable", "check", ["check"], "x"
        )
        assert isinstance(meta, RunMeta)  # best effort, never raises


class TestSignals:
    def test_sigterm_raises_interrupted(self):
        restore = install_handlers()
        try:
            with pytest.raises(Interrupted) as caught:
                os.kill(os.getpid(), signal.SIGTERM)
                # the handler fires at a bytecode boundary; give it one
                for _ in range(1000):
                    pass
            assert caught.value.signum == signal.SIGTERM
            assert "SIGTERM" in str(caught.value)
        finally:
            restore()

    def test_restore_reinstates_previous_handlers(self):
        before = signal.getsignal(signal.SIGTERM)
        restore = install_handlers()
        assert signal.getsignal(signal.SIGTERM) is not before
        restore()
        assert signal.getsignal(signal.SIGTERM) is before
