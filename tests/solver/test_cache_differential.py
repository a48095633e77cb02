"""Cache off, cold and warm runs give the same answers.

The cold run fills a disk store; the warm run reads it through a fresh
in-memory cache, as a new process would.  Verdicts, unsat cores and CTI
structures must equal the cache-off run, and the warm run must not ground
anything: the key is looked up before grounding.
"""

import io
import json

import pytest

from repro import obs
from repro.core import induction, minimize
from repro.protocols import ALL_PROTOCOLS
from repro.solver import (
    DiskCache,
    EprSolver,
    QueryCache,
    install_cache,
    query_of,
    solve_queries,
)
from repro.solver.dispatch import _fork_context

needs_fork = pytest.mark.skipif(
    _fork_context() is None, reason="fork start method unavailable"
)


def _cases():
    """(label, program, conjectures): two invariants that hold and one
    conjecture that does not, so a SAT answer with a CTI is stored too."""
    lock = ALL_PROTOCOLS["lock_server"].build()
    leader = ALL_PROTOCOLS["leader_election"].build()
    return [
        ("lock_server", lock.program, lock.invariant),
        ("leader_election", leader.program, leader.invariant),
        ("leader_election/safety", leader.program, leader.safety),
    ]


def _answer(result):
    """What a result says, without its statistics or cache flag."""
    return (
        result.verdict, result.core, result.model,
        dict(result.term_to_elem or {}),
    )


@pytest.fixture(autouse=True)
def restore_cache():
    old = install_cache(None)
    yield
    install_cache(old)


@pytest.fixture
def recorder(monkeypatch):
    """Counts groundings and records every answer ``EprSolver.check`` gives."""
    seen = {"prepare": 0, "answers": [], "cached": []}
    prepare, check = EprSolver.prepare, EprSolver.check

    def counting_prepare(self):
        seen["prepare"] += 1
        return prepare(self)

    def recording_check(self, *args, **kwargs):
        result = check(self, *args, **kwargs)
        seen["answers"].append(_answer(result))
        seen["cached"].append(result.cached)
        return result

    monkeypatch.setattr(EprSolver, "prepare", counting_prepare)
    monkeypatch.setattr(EprSolver, "check", recording_check)
    return seen


def _engines(program, conjectures):
    checked = induction.check_inductive(program, conjectures)
    minimal = minimize.find_minimal_cti(program, conjectures)
    return (checked.holds, checked.cti, minimal.cti, minimal.bounds)


@pytest.mark.parametrize("case", range(3))
def test_check_and_minimize_equal_off_cold_warm(case, recorder, tmp_path):
    label, program, conjectures = _cases()[case]
    runs = {}
    for mode in ("off", "cold", "warm"):
        install_cache(
            None if mode == "off" else QueryCache(disk=DiskCache(str(tmp_path)))
        )
        recorder.update(prepare=0, answers=[], cached=[])
        outcome = _engines(program, conjectures)
        runs[mode] = (outcome, list(recorder["answers"]))
        if mode == "warm":
            assert recorder["prepare"] == 0, label
            assert all(recorder["cached"]), label
    assert runs["cold"] == runs["off"], label
    assert runs["warm"] == runs["off"], label
    if label.endswith("safety"):
        assert runs["off"][0][1] is not None  # a CTI went through the store


def _queries():
    queries = []
    for label, program, conjectures in _cases():
        for index, obligation in enumerate(
            induction.obligations(program, conjectures, sliced=False)
        ):
            solver = EprSolver(program.vocab)
            solver.add(obligation.vc, name="vc")
            queries.append(query_of(solver, name=f"{label}#{index}"))
    return queries


def _traced_solve(queries):
    sink = io.StringIO()
    obs.install_tracer(obs.Tracer(sink=sink, run_id="cachediff"))
    try:
        batches = solve_queries(queries, jobs=2)
    finally:
        obs.install_tracer(None)
    events = [json.loads(line) for line in sink.getvalue().splitlines()]
    return batches, {e["name"] for e in events if e.get("e") == "start"}


@needs_fork
def test_pool_workers_share_the_store(tmp_path):
    queries = _queries()
    install_cache(None)
    off = solve_queries(queries, jobs=2)
    install_cache(QueryCache(disk=DiskCache(str(tmp_path))))
    cold = solve_queries(queries, jobs=2)
    install_cache(QueryCache(disk=DiskCache(str(tmp_path))))
    warm, spans = _traced_solve(queries)
    answers = {
        mode: [[_answer(r) for r in batch] for batch in batches]
        for mode, batches in (("off", off), ("cold", cold), ("warm", warm))
    }
    assert answers["cold"] == answers["off"]
    assert answers["warm"] == answers["off"]
    assert any(r.satisfiable for (r,) in off)
    assert all(r.cached for (r,) in warm)
    assert "epr.solve" in spans and "epr.prepare" not in spans
