"""Budgets: cooperative enforcement, UNKNOWN verdicts, env resolution."""

import pytest

from repro.logic import RelDecl, Sort, Var, vocabulary
from repro.logic import syntax as s
from repro.solver import (
    Budget,
    BudgetExceeded,
    EprSolver,
    FailureReason,
    QueryCache,
    install_cache,
    resolve_budget,
    resolve_retries,
)

elem = Sort("elem")
p = RelDecl("p", (elem,))
r = RelDecl("r", (elem, elem))
VOCAB = vocabulary(sorts=[elem], relations=[p, r], functions=[])
X, Y = Var("X", elem), Var("Y", elem)

SOME_P = s.exists((X,), s.Rel(p, (X,)))
NO_P = s.forall((X,), s.not_(s.Rel(p, (X,))))


@pytest.fixture(autouse=True)
def fresh_cache():
    cache = QueryCache()
    old = install_cache(cache)
    yield cache
    install_cache(old)


def _solver(formulas, budget=None):
    solver = EprSolver(VOCAB, budget=budget)
    for index, formula in enumerate(formulas):
        solver.add(formula, name=f"f{index}")
    return solver


class TestBudgetRecord:
    def test_unlimited(self):
        assert Budget().unlimited
        assert not Budget(wall_seconds=1.0).unlimited
        assert not Budget(conflicts=10).unlimited

    def test_escalated_doubles_every_limit(self):
        budget = Budget(
            wall_seconds=1.5, conflicts=100, decisions=200, instances=50, rss_mb=64
        )
        bigger = budget.escalated()
        assert bigger.wall_seconds == 3.0
        assert bigger.conflicts == 200
        assert bigger.decisions == 400
        assert bigger.instances == 100
        assert bigger.rss_mb == 128

    def test_escalated_keeps_none_unlimited(self):
        bigger = Budget(conflicts=10).escalated()
        assert bigger.wall_seconds is None and bigger.conflicts == 20

    def test_meter_conflict_cap(self):
        meter = Budget(conflicts=2).start()
        meter.charge_conflict()
        meter.charge_conflict()
        with pytest.raises(BudgetExceeded) as err:
            meter.charge_conflict()
        assert err.value.reason is FailureReason.CONFLICT_BUDGET

    def test_meter_instance_cap(self):
        meter = Budget(instances=3).start()
        meter.charge_instances(3)
        with pytest.raises(BudgetExceeded) as err:
            meter.charge_instances()
        assert err.value.reason is FailureReason.GROUNDING_BLOWUP

    def test_meter_expired_deadline(self):
        meter = Budget(wall_seconds=-1.0).start()  # already past
        with pytest.raises(BudgetExceeded) as err:
            meter.check_deadline()
        assert err.value.reason is FailureReason.TIMEOUT


class TestBudgetedSolver:
    def test_instance_budget_yields_grounding_unknown(self):
        some_edge = s.exists((X, Y), s.Rel(r, (X, Y)))
        all_edges = s.forall((X, Y), s.Rel(r, (X, Y)))
        result = _solver(
            [some_edge, all_edges], budget=Budget(instances=1)
        ).check()
        assert result.unknown
        assert result.verdict == "unknown"
        assert result.failure is FailureReason.GROUNDING_BLOWUP
        assert not result.satisfiable and not result.is_unsat

    def test_expired_wall_clock_yields_timeout_unknown(self):
        result = _solver([SOME_P, NO_P], budget=Budget(wall_seconds=-1.0)).check()
        assert result.unknown
        assert result.failure is FailureReason.TIMEOUT

    def test_unlimited_budget_is_ignored(self):
        solver = _solver([SOME_P, NO_P], budget=Budget())
        assert solver.budget is None
        assert solver.check().is_unsat

    def test_generous_budget_does_not_change_verdicts(self):
        budget = Budget(wall_seconds=60.0, conflicts=10_000, instances=100_000)
        assert not _solver([SOME_P, NO_P], budget=budget).check().satisfiable
        assert _solver([SOME_P], budget=budget).check().satisfiable

    def test_unknown_results_never_cached(self, fresh_cache):
        starved = _solver([SOME_P, NO_P], budget=Budget(wall_seconds=-1.0)).check()
        assert starved.unknown
        assert len(fresh_cache) == 0
        # A later unbudgeted run gets the real answer, not a poisoned hit.
        result = _solver([SOME_P, NO_P]).check()
        assert result.is_unsat and "cache_hits" not in result.statistics


class TestUnknownCounting:
    """Every UNKNOWN an engine receives is counted once in the registry."""

    def test_unknown_before_a_solve_is_counted(self, metrics_registry):
        starved = _solver([SOME_P, NO_P], budget=Budget(wall_seconds=-1.0))
        assert starved.check().unknown
        counters = metrics_registry.to_dict()["counters"]
        assert counters["queries_total{verdict=unknown}"] == 1
        assert counters["cache_misses_total"] == 1

    def test_unknown_inside_a_solve_is_counted_once(
        self, metrics_registry, monkeypatch
    ):
        from repro.solver.epr import PreparedEpr

        def exhausted(*_args):
            raise BudgetExceeded(FailureReason.TIMEOUT)

        monkeypatch.setattr(PreparedEpr, "_stable_solve", exhausted)
        result = _solver([SOME_P, NO_P]).check()
        assert result.unknown and result.statistics
        counters = metrics_registry.to_dict()["counters"]
        assert counters["queries_total{verdict=unknown}"] == 1
        assert counters["cache_misses_total"] == 1


class TestEnvResolution:
    def test_explicit_arguments_win(self, monkeypatch):
        monkeypatch.setenv("REPRO_TIMEOUT", "99")
        budget = resolve_budget(wall_seconds=1.0, conflicts=5)
        assert budget.wall_seconds == 1.0 and budget.conflicts == 5

    def test_env_fills_gaps(self, monkeypatch):
        monkeypatch.setenv("REPRO_TIMEOUT", "2.5")
        monkeypatch.setenv("REPRO_CONFLICT_BUDGET", "123")
        monkeypatch.setenv("REPRO_MEMORY_MB", "256")
        budget = resolve_budget()
        assert budget.wall_seconds == 2.5
        assert budget.conflicts == 123
        assert budget.rss_mb == 256

    def test_all_unset_returns_none(self, monkeypatch):
        for name in ("REPRO_TIMEOUT", "REPRO_CONFLICT_BUDGET", "REPRO_MEMORY_MB"):
            monkeypatch.delenv(name, raising=False)
        assert resolve_budget() is None

    def test_malformed_env_warns_and_ignores(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_TIMEOUT", "fast")
        monkeypatch.setenv("REPRO_CONFLICT_BUDGET", "-3")
        assert resolve_budget() is None
        err = capsys.readouterr().err
        assert "REPRO_TIMEOUT" in err and "'fast'" in err
        assert "REPRO_CONFLICT_BUDGET" in err

    def test_resolve_retries(self, monkeypatch):
        monkeypatch.delenv("REPRO_RETRIES", raising=False)
        assert resolve_retries() == 2
        assert resolve_retries(0) == 0
        assert resolve_retries(5) == 5
        monkeypatch.setenv("REPRO_RETRIES", "0")
        assert resolve_retries() == 0
        monkeypatch.setenv("REPRO_RETRIES", "7")
        assert resolve_retries() == 7

    def test_malformed_retries_warns(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_RETRIES", "many")
        assert resolve_retries() == 2
        assert "REPRO_RETRIES" in capsys.readouterr().err
