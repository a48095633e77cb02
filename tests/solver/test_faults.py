"""Chaos tests: verdicts under injected worker faults never change.

The dispatch layer's contract is that crashes, hangs, and slowdowns in
worker processes affect *latency*, never *verdicts*: every query is
retried and ultimately falls back to a fault-free in-process solve, so a
faulted run must return exactly the SAFE/UNSAFE answers of a fault-free
run.  These tests exercise that with deterministic fault plans.
"""

import time

import pytest

from repro.logic import RelDecl, Sort, Var, vocabulary
from repro.logic import syntax as s
from repro.obs import MetricsRegistry, install_metrics
from repro.solver import (
    Budget,
    EprSolver,
    FaultPlan,
    install_cache,
    install_fault_plan,
    parse_fault_spec,
    query_of,
    solve_queries,
)
from repro.solver.dispatch import _fork_context
from repro.solver.faults import CRASH_EXIT_CODE, active_plan

needs_fork = pytest.mark.skipif(
    _fork_context() is None, reason="fork start method unavailable"
)

elem = Sort("elem")
p = RelDecl("p", (elem,))
q = RelDecl("q", (elem,))
VOCAB = vocabulary(sorts=[elem], relations=[p, q], functions=[])
X = Var("X", elem)

SOME_P = s.exists((X,), s.Rel(p, (X,)))
NO_P = s.forall((X,), s.not_(s.Rel(p, (X,))))
SOME_Q = s.exists((X,), s.Rel(q, (X,)))
NO_Q = s.forall((X,), s.not_(s.Rel(q, (X,))))

QUERIES = [
    [SOME_P, NO_P],  # unsat
    [SOME_P, SOME_Q],  # sat
    [SOME_Q],  # sat
    [s.and_(SOME_Q, NO_Q)],  # unsat
]
EXPECTED = [False, True, True, False]


def _total(registry: MetricsRegistry, *names: str, **labels) -> int:
    """Summed value of the named counters in ``registry``."""
    return sum(registry.counter(name, **labels).value for name in names)


#: workers the parent SIGKILLed: past their deadline, or wedged
KILLS = ("worker_kills_total", "worker_wedged_total")


@pytest.fixture(autouse=True)
def no_cache_no_faults():
    """Chaos runs must actually solve, and plans must not leak."""
    old_cache = install_cache(None)
    yield
    install_fault_plan(None)
    install_cache(old_cache)


def _queries(budget=None):
    out = []
    for index, formulas in enumerate(QUERIES):
        solver = EprSolver(VOCAB, budget=budget)
        for findex, formula in enumerate(formulas):
            solver.add(formula, name=f"f{findex}")
        out.append(query_of(solver, name=f"q{index}"))
    return out


class TestFaultPlan:
    def test_parse_valid_spec(self):
        plan = parse_fault_spec("crash:0.2,hang:0.1,slow:0.3:1.5,seed:7")
        assert plan == FaultPlan(
            crash=0.2, hang=0.1, slow=0.3, slow_seconds=1.5, seed=7
        )

    def test_parse_duration_fields(self):
        plan = parse_fault_spec("hang:0.5:12.0")
        assert plan.hang == 0.5 and plan.hang_seconds == 12.0

    @pytest.mark.parametrize(
        "spec",
        ["crash", "crash:no", "explode:0.5", "crash:1.5", "crash:0.7,hang:0.7",
         "crash:0.1:1:2", ""],
    )
    def test_parse_malformed(self, spec):
        assert parse_fault_spec(spec) is None

    def test_decide_is_deterministic(self):
        plan = FaultPlan(crash=0.5, seed=3)
        draws = [plan.decide("q1", attempt) for attempt in range(20)]
        assert draws == [plan.decide("q1", attempt) for attempt in range(20)]
        assert "crash" in draws and None in draws  # both outcomes occur

    def test_installed_plan_beats_env(self, configure):
        configure(fault=FaultPlan(crash=0.9))
        install_fault_plan(FaultPlan())  # hard "no faults"
        assert active_plan() is None
        install_fault_plan(None)
        assert active_plan() == FaultPlan(crash=0.9)

    def test_crash_exit_code_is_distinctive(self):
        assert CRASH_EXIT_CODE not in (0, 1, 2)


@needs_fork
class TestChaos:
    def test_crashes_do_not_flip_verdicts(self, metrics_registry):
        baseline = solve_queries(_queries(), jobs=2)
        install_fault_plan(FaultPlan(crash=0.6, seed=11))
        chaotic = solve_queries(_queries(), jobs=2)
        assert [r.satisfiable for (r,) in chaotic] == EXPECTED
        assert [r.verdict for (r,) in chaotic] == [
            r.verdict for (r,) in baseline
        ]
        assert not any(r.unknown for (r,) in chaotic)
        # the plan actually fired
        assert _total(metrics_registry, "worker_crashes_total") > 0

    def test_hung_worker_killed_within_deadline(self, metrics_registry):
        budget = Budget(wall_seconds=0.5)
        install_fault_plan(FaultPlan(hang=1.0, hang_seconds=3600.0, seed=1))
        start = time.monotonic()
        batches = solve_queries(_queries(budget), jobs=2, retries=0)
        elapsed = time.monotonic() - start
        # External deadline is wall*2+1 = 2s per attempt; with retries=0 a
        # single kill per query then the fault-free serial fallback.
        assert elapsed < 30.0
        assert _total(metrics_registry, *KILLS) > 0
        assert _total(metrics_registry, "serial_fallbacks_total") > 0
        assert [r.satisfiable for (r,) in batches] == EXPECTED

    def test_mixed_crash_hang_preserves_verdicts(self, metrics_registry):
        budget = Budget(wall_seconds=0.5)
        install_fault_plan(
            FaultPlan(crash=0.3, hang=0.1, hang_seconds=30.0, seed=7)
        )
        batches = solve_queries(_queries(budget), jobs=4)
        assert [r.satisfiable for (r,) in batches] == EXPECTED
        assert not any(r.unknown for (r,) in batches)
        assert _total(metrics_registry, "worker_crashes_total", *KILLS) > 0

    def test_no_fallback_reports_typed_unknown(self, metrics_registry):
        install_fault_plan(FaultPlan(crash=1.0, seed=2))
        batches = solve_queries(_queries(), jobs=2, retries=1, fallback=False)
        for (result,) in batches:
            assert result.unknown
            assert result.verdict == "unknown"
            assert result.failure is not None
        unknowns = _total(metrics_registry, "queries_total", verdict="unknown")
        assert unknowns == len(QUERIES)
        assert _total(metrics_registry, "dispatch_retries_total") > 0

    def test_slow_workers_just_finish(self, metrics_registry):
        install_fault_plan(FaultPlan(slow=1.0, slow_seconds=0.05, seed=4))
        batches = solve_queries(_queries(), jobs=2)
        assert [r.satisfiable for (r,) in batches] == EXPECTED
        assert _total(metrics_registry, "worker_crashes_total", *KILLS) == 0

    def test_pool_heals_after_chaotic_batch(self, metrics_registry):
        # The persistent pool loses workers to a chaotic batch; the next
        # (fault-free) batch on the same pool must be served cleanly by
        # replacement workers, not poisoned by the carnage before it.
        install_fault_plan(FaultPlan(crash=0.6, seed=11))
        solve_queries(_queries(), jobs=2)
        assert _total(metrics_registry, "worker_crashes_total") > 0
        install_fault_plan(FaultPlan())  # hard "no faults"
        clean = MetricsRegistry()
        install_metrics(clean)
        batches = solve_queries(_queries(), jobs=2)
        assert [r.satisfiable for (r,) in batches] == EXPECTED
        assert _total(clean, "worker_crashes_total", *KILLS) == 0
        assert _total(clean, "dispatched_total") == len(QUERIES)


@needs_fork
@pytest.mark.slow
class TestChaosAcceptance:
    """ISSUE acceptance: chaos on real protocols matches fault-free runs."""

    # With seed 0 the faults that actually fire for these query names are
    # crashes; the hang-kill path has its own dedicated test above.
    PLAN = "crash:0.3,hang:0.1,seed:0"

    def _chaos_plan(self):
        plan = parse_fault_spec(self.PLAN)
        # Keep injected hangs short: the external deadline still has to
        # kill the worker, the test just shouldn't wait minutes for it.
        from dataclasses import replace

        return replace(plan, hang_seconds=30.0)

    def test_lock_server_bmc_verdict_stable(self, metrics_registry):
        from repro.core.bounded import find_error_trace
        from repro.protocols import lock_server

        program = lock_server.build().program
        baseline = find_error_trace(program, 2, jobs=2)
        install_fault_plan(self._chaos_plan())
        chaotic = find_error_trace(
            program, 2, jobs=2, budget=Budget(wall_seconds=20.0)
        )
        assert chaotic.holds == baseline.holds
        assert not chaotic.unknown
        assert _total(metrics_registry, "worker_crashes_total", *KILLS) > 0

    def test_leader_election_induction_verdict_stable(
        self, leader_bundle, metrics_registry
    ):
        from repro.core.induction import check_inductive

        program = leader_bundle.program
        conjectures = list(leader_bundle.invariant)
        baseline = check_inductive(program, conjectures, jobs=2)
        install_fault_plan(self._chaos_plan())
        chaotic = check_inductive(
            program, conjectures, jobs=2, budget=Budget(wall_seconds=20.0),
        )
        assert chaotic.holds == baseline.holds
        assert not chaotic.unknown_obligations
        assert _total(metrics_registry, "worker_crashes_total", *KILLS) > 0
