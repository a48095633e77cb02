"""Budgets: cooperative enforcement and UNKNOWN verdicts."""

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
