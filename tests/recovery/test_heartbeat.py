"""Worker heartbeats and the dispatch wedge watchdog."""

import multiprocessing
import os

import pytest

from repro.logic import RelDecl, Sort, Var, vocabulary
from repro.logic import syntax as s
from repro.recovery import heartbeat
from repro.solver.dispatch import shutdown_pool, solve_queries
from repro.solver.epr import EprSolver


@pytest.fixture(autouse=True)
def _disarmed():
    heartbeat.disarm()
    yield
    heartbeat.disarm()


class TestBeat:
    def test_disarmed_beat_is_a_noop(self):
        heartbeat.beat()  # must not raise, nothing armed

    def test_armed_beat_sends_one_byte(self):
        reader, writer = multiprocessing.Pipe(duplex=False)
        heartbeat.arm(writer)
        heartbeat.beat(force=True)
        assert reader.poll(1.0)
        assert reader.recv_bytes() == b"."
        reader.close()
        writer.close()

    def test_beats_are_rate_limited(self):
        reader, writer = multiprocessing.Pipe(duplex=False)
        heartbeat.arm(writer)
        heartbeat.beat(force=True)
        for _ in range(100):
            heartbeat.beat()  # within the interval: suppressed
        assert reader.recv_bytes() == b"."
        assert not reader.poll(0)
        reader.close()
        writer.close()

    def test_broken_pipe_disarms_quietly(self):
        reader, writer = multiprocessing.Pipe(duplex=False)
        heartbeat.arm(writer)
        reader.close()
        writer.close()
        heartbeat.beat(force=True)  # must not raise
        assert not heartbeat.armed()


class TestTimeout:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_HEARTBEAT_TIMEOUT", raising=False)
        assert heartbeat.heartbeat_timeout() == heartbeat.DEFAULT_TIMEOUT

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_HEARTBEAT_TIMEOUT", "7.5")
        assert heartbeat.heartbeat_timeout() == 7.5

    def test_malformed_falls_back(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_HEARTBEAT_TIMEOUT", "soon")
        assert heartbeat.heartbeat_timeout() == heartbeat.DEFAULT_TIMEOUT
        assert (
            "ignoring malformed REPRO_HEARTBEAT_TIMEOUT='soon'"
            in capsys.readouterr().err
        )
        # warned once: later batches read the default silently
        assert heartbeat.heartbeat_timeout() == heartbeat.DEFAULT_TIMEOUT
        assert capsys.readouterr().err == ""

    def test_non_positive_disables(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_HEARTBEAT_TIMEOUT", "0")
        assert heartbeat.heartbeat_timeout() == 0.0
        assert capsys.readouterr().err == ""


needs_fork = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="requires the fork start method"
)

elem = Sort("elem")
p = RelDecl("p", (elem,))
VOCAB = vocabulary(sorts=[elem], relations=[p], functions=[])
X = Var("X", elem)


def _queries(count):
    out = []
    for index in range(count):
        solver = EprSolver(VOCAB)
        solver.add(s.exists((X,), s.Rel(p, (X,))), name=f"q{index}")
        out.append((solver, None, f"wedge-{index}"))
    return out


@needs_fork
class TestWedgeWatchdog:
    def test_silently_hung_worker_is_killed_and_work_retried(
        self, monkeypatch, metrics_registry
    ):
        """A worker that stops beating is SIGKILLed by the watchdog well
        before any wall deadline, and its query still completes (retry or
        in-process fallback)."""
        monkeypatch.setenv("REPRO_FAULT", "hang:1.0:600,seed:3")
        monkeypatch.setenv("REPRO_HEARTBEAT_TIMEOUT", "1.0")
        monkeypatch.setenv("REPRO_RETRIES", "0")
        try:
            from repro.solver.dispatch import query_of

            queries = [
                query_of(solver, name=name)
                for solver, _, name in _queries(2)
            ]
            results = [
                result
                for (result,) in solve_queries(queries, jobs=2)
            ]
        finally:
            shutdown_pool()
            monkeypatch.delenv("REPRO_FAULT")
        assert all(result.satisfiable for result in results)
        counters = metrics_registry.to_dict()["counters"]
        assert counters.get("worker_wedged_total", 0) >= 1
