"""Per-phase profiler: collection scopes, engine tags, solver integration.

The profiler contract these tests pin down:

* phases accumulate into the active :func:`~repro.obs.profile.collect`
  scope, or publish straight to the ``query_phase_ms`` histogram when no
  scope is open;
* ``attrs_ms`` keeps sub-millisecond precision -- the hotspot report's
  ">= 95% of query wall decomposed" property depends on it;
* a real EPR query's phase timings land on its trace spans and its
  result statistics, and their sum never exceeds the spans' total wall
  (phases are disjoint, never nested);
* chaos runs (injected worker crashes) keep both verdicts and the
  phases-sum-within-wall invariant intact.
"""

import io
import json

import pytest

from repro import obs
from repro.obs import profile
from repro.logic import RelDecl, Sort, Var, vocabulary
from repro.logic import syntax as s
from repro.solver import (
    EprSolver,
    FaultPlan,
    install_cache,
    install_fault_plan,
    query_of,
    solve_queries,
)
from repro.solver.dispatch import _fork_context

needs_fork = pytest.mark.skipif(
    _fork_context() is None, reason="fork start method unavailable"
)

elem = Sort("elem")
p = RelDecl("p", (elem,))
VOCAB = vocabulary(sorts=[elem], relations=[p], functions=[])
X = Var("X", elem)

SOME_P = s.exists((X,), s.Rel(p, (X,)))
NO_P = s.forall((X,), s.not_(s.Rel(p, (X,))))


@pytest.fixture(autouse=True)
def clean_obs():
    old_tracer = obs.install_tracer(None)
    old_metrics = obs.install_metrics(None)
    old_cache = install_cache(None)
    install_fault_plan(FaultPlan())
    yield
    install_fault_plan(None)
    install_cache(old_cache)
    obs.install_metrics(old_metrics)
    obs.install_tracer(old_tracer)


def _solve_traced(queries=None):
    """Run queries under a tracer; returns (parsed events, results)."""
    sink = io.StringIO()
    obs.install_tracer(obs.Tracer(sink=sink, run_id="proftest"))
    if queries is None:
        solver = EprSolver(VOCAB)
        solver.add(SOME_P, name="f0")
        solver.add(NO_P, name="f1")
        results = [solver.check()]
    else:
        results = [r for (r,) in solve_queries(queries, jobs=2)]
    obs.install_tracer(None)
    events = [json.loads(line) for line in sink.getvalue().splitlines()]
    return events, results


def _query_end_events(events):
    """End events of epr.solve/epr.prepare spans (names live on starts)."""
    names = {e["id"]: e["name"] for e in events if e["e"] == "start"}
    return [
        e for e in events
        if e["e"] == "end"
        and names.get(e["id"]) in ("epr.solve", "epr.prepare")
    ]


def _phase_attrs(attrs):
    """phase name -> wall ms, from a span's attribute dict."""
    out = {}
    for key, value in attrs.items():
        if (
            key.startswith(profile.ATTR_PREFIX)
            and key.endswith("_ms")
            and not key.endswith("_cpu_ms")
        ):
            out[key[len(profile.ATTR_PREFIX) : -len("_ms")]] = value
    return out


class TestPhaseProfile:
    def test_add_accumulates_per_phase(self):
        prof = profile.PhaseProfile()
        prof.add("sat", 0.010, 0.008)
        prof.add("sat", 0.005, 0.004)
        prof.add("instantiate", 0.001, 0.001)
        assert prof.wall["sat"] == pytest.approx(0.015)
        assert prof.counts == {"sat": 2, "instantiate": 1}
        assert prof.total_wall() == pytest.approx(0.016)

    def test_attrs_ms_keeps_submillisecond_precision(self):
        prof = profile.PhaseProfile()
        prof.add("ground", 0.0004, 0.0003)
        attrs = prof.attrs_ms()
        # 400us must not truncate to 0ms: coverage accounting needs it.
        assert attrs["phase_ground_ms"] == pytest.approx(0.4)
        assert attrs["phase_ground_cpu_ms"] == pytest.approx(0.3)

    def test_phase_names_are_canonical(self):
        for name in ("normalize", "ground", "instantiate", "cache", "sat",
                     "theory", "extract", "gc", "ledger", "transit"):
            assert name in profile.PHASES


class TestCollectAndPhase:
    def test_phase_inside_collect_accumulates(self):
        with profile.collect() as prof:
            with profile.phase("sat"):
                pass
            with profile.phase("sat"):
                pass
        assert prof.counts["sat"] == 2
        assert prof.wall["sat"] >= 0.0

    def test_phase_outside_collect_publishes_to_metrics(self):
        registry = obs.MetricsRegistry()
        obs.install_metrics(registry)
        with profile.engine("houdini"):
            with profile.phase("ledger"):
                pass
        key = "query_phase_ms{engine=houdini,phase=ledger}"
        assert registry.to_dict()["histograms"][key]["count"] == 1

    def test_publish_feeds_scope_into_histograms(self):
        registry = obs.MetricsRegistry()
        obs.install_metrics(registry)
        prof = profile.PhaseProfile()
        prof.add("instantiate", 0.002, 0.002)
        profile.publish(prof)
        key = "query_phase_ms{phase=instantiate}"
        snap = registry.to_dict()["histograms"][key]
        assert snap["count"] == 1 and snap["sum"] == pytest.approx(2.0)


class TestEngineTag:
    def test_engine_scopes_and_restores(self):
        assert profile.current_engine() is None
        with profile.engine("updr"):
            assert profile.current_engine() == "updr"
            with profile.engine("bmc"):
                assert profile.current_engine() == "bmc"
            assert profile.current_engine() == "updr"
        assert profile.current_engine() is None

    def test_set_engine_is_token_based(self):
        token = profile.set_engine("induction")
        assert profile.current_engine() == "induction"
        profile._engine.reset(token)
        assert profile.current_engine() is None


class TestSolverIntegration:
    def test_phases_land_on_spans_and_sum_within_wall(self):
        events, results = _solve_traced()
        assert not results[0].satisfiable  # SOME_P & NO_P is unsat
        query_spans = _query_end_events(events)
        assert query_spans, "no query spans traced"
        total_wall_ms = sum(e["dur"] for e in query_spans) * 1000
        phase_ms = sum(
            sum(_phase_attrs(e.get("attrs", {})).values()) for e in query_spans
        )
        assert phase_ms > 0, "no phase attributes on query spans"
        # Disjoint phases never exceed the walls they decompose (allow
        # float rounding: attrs are rounded to 1us each).
        assert phase_ms <= total_wall_ms + 0.01 * len(query_spans)

    def test_phases_ride_result_statistics(self):
        solver = EprSolver(VOCAB)
        solver.add(SOME_P, name="f0")
        result = solver.check()
        phase_keys = [
            key for key in result.statistics
            if key.startswith(profile.ATTR_PREFIX)
        ]
        assert any(key == "phase_instantiate_ms" for key in phase_keys)
        assert any(key == "phase_theory_ms" for key in phase_keys)
        assert any(key == "phase_gc_ms" for key in phase_keys)
        assert any(key == "phase_normalize_ms" for key in phase_keys)


@needs_fork
class TestForkAndChaos:
    def _queries(self):
        out = []
        for index, formulas in enumerate(
            [[SOME_P, NO_P], [SOME_P], [NO_P]]
        ):
            solver = EprSolver(VOCAB)
            for findex, formula in enumerate(formulas):
                solver.add(formula, name=f"f{findex}")
            out.append(query_of(solver, name=f"q{index}"))
        return out

    def test_pool_workers_ship_phase_samples(self):
        registry = obs.MetricsRegistry()
        obs.install_metrics(registry)
        results = [r for (r,) in solve_queries(self._queries(), jobs=2)]
        assert [r.satisfiable for r in results] == [False, True, True]
        histograms = registry.to_dict()["histograms"]
        phase_keys = [k for k in histograms if k.startswith("query_phase_ms")]
        assert phase_keys, "worker deltas did not reach the parent registry"
        # Transit is measured by the parent for every delivered result.
        assert any("phase=transit" in key for key in phase_keys)

    def test_chaos_keeps_verdicts_and_profile_invariant(self):
        install_fault_plan(FaultPlan(crash=0.6, seed=11))
        registry = obs.MetricsRegistry()
        obs.install_metrics(registry)
        events, results = _solve_traced(self._queries())
        assert [r.satisfiable for r in results] == [False, True, True]
        query_spans = _query_end_events(events)
        total_wall_ms = sum(e["dur"] for e in query_spans) * 1000
        phase_ms = sum(
            sum(_phase_attrs(e.get("attrs", {})).values()) for e in query_spans
        )
        assert phase_ms <= total_wall_ms + 0.01 * len(query_spans)
        # Crashed workers took their samples with them; the loss is counted.
        counters = registry.to_dict()["counters"]
        assert counters.get("worker_crashes_total", 0) > 0
        assert counters.get("worker_events_lost_total", 0) > 0
