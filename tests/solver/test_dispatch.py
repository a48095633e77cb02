"""Parallel dispatch, query caching, and the solver counters they publish."""

import pytest

from repro.logic import FALSE, TRUE, FuncDecl, RelDecl, Sort, Var, vocabulary
from repro.logic import syntax as s
from repro.solver import (
    EprSolver,
    Query,
    QueryCache,
    install_cache,
    query_of,
    solve_queries,
)

elem = Sort("elem")
p = RelDecl("p", (elem,))
q = RelDecl("q", (elem,))
VOCAB = vocabulary(sorts=[elem], relations=[p, q], functions=[])
X = Var("X", elem)


def _answers(registry) -> dict[str, int]:
    """The ``queries_total`` series of ``registry``, by verdict."""
    return {
        key[len("queries_total{verdict="):-1]: value
        for key, value in registry.to_dict()["counters"].items()
        if key.startswith("queries_total{")
    }


@pytest.fixture(autouse=True)
def fresh_cache():
    """Isolate the process-global query cache per test."""
    cache = QueryCache()
    old = install_cache(cache)
    yield cache
    install_cache(old)


def _solver(formulas, **kw):
    solver = EprSolver(VOCAB, **kw)
    for index, formula in enumerate(formulas):
        solver.add(formula, name=f"f{index}")
    return solver


SOME_P = s.exists((X,), s.Rel(p, (X,)))
NO_P = s.forall((X,), s.not_(s.Rel(p, (X,))))
SOME_Q = s.exists((X,), s.Rel(q, (X,)))


class TestQueryCache:
    def test_identical_query_hits(self, fresh_cache):
        first = _solver([SOME_P, NO_P]).check()
        second = _solver([SOME_P, NO_P]).check()
        assert not first.satisfiable and not second.satisfiable
        assert second.statistics == {"cache_hits": 1}
        assert fresh_cache.hits == 1

    def test_different_queries_miss(self, fresh_cache):
        _solver([SOME_P, NO_P]).check()
        other = _solver([SOME_P, SOME_Q]).check()
        assert other.satisfiable
        assert "cache_hits" not in other.statistics
        assert fresh_cache.hits == 0
        assert len(fresh_cache) == 2

    def test_hit_preserves_answer_and_model(self, fresh_cache):
        first = _solver([SOME_P]).check()
        second = _solver([SOME_P]).check()
        assert second.satisfiable
        assert second.model == first.model
        assert second.core == first.core

    def test_tracked_and_untracked_do_not_collide(self, fresh_cache):
        tracked = EprSolver(VOCAB)
        tracked.add(NO_P, name="all")
        tracked.add(SOME_P, name="some", track=True)
        with_core = tracked.check()
        assert not with_core.satisfiable and with_core.core == {"some"}
        plain = _solver([NO_P, SOME_P]).check()
        assert not plain.satisfiable and plain.core == frozenset()

    def test_assumption_sets_are_separate_keys(self, fresh_cache):
        def prepared():
            solver = EprSolver(VOCAB)
            solver.add(SOME_P, name="base")
            solver.add(NO_P, name="no_p", track=True)
            solver.add(SOME_Q, name="some_q", track=True)
            return solver.prepare()

        assert not prepared().solve({"no_p"}).satisfiable
        assert prepared().solve({"some_q"}).satisfiable
        repeat = prepared().solve({"no_p"})
        assert not repeat.satisfiable
        assert repeat.statistics == {"cache_hits": 1}

    def test_install_none_disables(self):
        install_cache(None)
        _solver([SOME_P]).check()
        result = _solver([SOME_P]).check()
        assert "cache_hits" not in result.statistics

    def test_capacity_evicts_fifo(self):
        cache = QueryCache(capacity=1)
        install_cache(cache)
        _solver([SOME_P]).check()
        _solver([SOME_Q]).check()
        assert len(cache) == 1
        assert cache.evictions == 1
        result = _solver([SOME_P]).check()  # evicted: solved again
        assert "cache_hits" not in result.statistics

    def test_lru_eviction_keeps_recently_used(self):
        cache = QueryCache(capacity=2)
        install_cache(cache)
        _solver([SOME_P]).check()
        _solver([SOME_Q]).check()
        _solver([SOME_P]).check()  # hit: refreshes SOME_P's recency
        _solver([SOME_P, SOME_Q]).check()  # evicts SOME_Q, not SOME_P
        hit = _solver([SOME_P]).check()
        assert hit.statistics == {"cache_hits": 1}
        missed = _solver([SOME_Q]).check()
        assert "cache_hits" not in missed.statistics

    def test_eviction_count_reaches_stats(self, metrics_registry):
        cache = QueryCache(capacity=1)
        install_cache(cache)
        _solver([SOME_P]).check()
        _solver([SOME_Q]).check()
        assert cache.evictions == 1
        assert metrics_registry.counter("cache_evictions_total").value == 1
        assert "1 evictions" in metrics_registry.format_stats()


class TestDispatch:
    QUERIES = [
        [SOME_P, NO_P],  # unsat
        [SOME_P, SOME_Q],  # sat
        [SOME_Q],  # sat
        [s.and_(SOME_Q, s.forall((X,), s.not_(s.Rel(q, (X,)))))],  # unsat
    ]

    def _queries(self):
        return [
            query_of(_solver(formulas), name=f"q{index}")
            for index, formulas in enumerate(self.QUERIES)
        ]

    def test_parallel_matches_serial(self):
        install_cache(None)  # make both paths actually solve
        serial = solve_queries(self._queries(), jobs=1)
        parallel = solve_queries(self._queries(), jobs=4)
        assert [r.satisfiable for (r,) in serial] == [False, True, True, False]
        assert [r.satisfiable for (r,) in parallel] == [
            r.satisfiable for (r,) in serial
        ]
        for (a,), (b,) in zip(serial, parallel):
            assert a.core == b.core
            assert (a.model is None) == (b.model is None)

    def test_multiple_solve_sets_share_grounding(self):
        solver = EprSolver(VOCAB)
        solver.add(SOME_P, name="base")
        solver.add(NO_P, name="no_p", track=True)
        solver.add(SOME_Q, name="some_q", track=True)
        query = query_of(
            solver, solve_sets=[frozenset({"no_p"}), frozenset({"some_q"})]
        )
        (results,) = solve_queries([query], jobs=1)
        assert [r.satisfiable for r in results] == [False, True]

    def test_stats_recorded(self, metrics_registry):
        solve_queries(self._queries(), jobs=2)
        assert _answers(metrics_registry) == {"sat": 2, "unsat": 2}
        assert metrics_registry.counter("dispatched_total").value == 4

    def test_dispatched_counts_every_solve_set(self, metrics_registry):
        install_cache(None)
        solver = EprSolver(VOCAB)
        solver.add(SOME_P, name="base")
        solver.add(NO_P, name="no_p", track=True)
        solver.add(SOME_Q, name="some_q", track=True)
        sets = [frozenset({"no_p"}), frozenset({"some_q"})]
        solve_queries(
            [query_of(solver, solve_sets=sets), self._queries()[0]], jobs=2
        )
        assert _answers(metrics_registry) == {"sat": 1, "unsat": 2}
        assert metrics_registry.counter("dispatched_total").value == 3

    def test_serial_fallback_when_fork_unavailable(
        self, monkeypatch, metrics_registry
    ):
        from repro.solver import dispatch

        monkeypatch.setattr(dispatch, "_fork_context", lambda: None)
        install_cache(None)
        registry = metrics_registry
        batches = solve_queries(self._queries(), jobs=4)
        assert [r.satisfiable for (r,) in batches] == [False, True, True, False]
        assert _answers(registry) == {"sat": 2, "unsat": 2}
        # everything solved in-process
        assert registry.counter("dispatched_total").value == 0

    def test_more_jobs_than_queries(self):
        install_cache(None)
        batches = solve_queries(self._queries(), jobs=32)
        assert [r.satisfiable for (r,) in batches] == [False, True, True, False]

    def test_single_query_runs_serial(self, metrics_registry):
        (batch,) = solve_queries(self._queries()[:1], jobs=8)
        assert not batch[0].satisfiable
        assert metrics_registry.counter("dispatched_total").value == 0


def _serial_and_parallel(run):
    """``run(jobs)`` at jobs=1 and jobs=2, the query cache off for both."""
    install_cache(None)
    return run(1), run(2)


def _same_bounded(serial, parallel):
    """Identical verdict, depth and trace; every trace replays."""
    assert (serial.holds, serial.unknown, serial.depth) == (
        parallel.holds, parallel.unknown, parallel.depth,
    )
    assert str(serial.trace) == str(parallel.trace)
    for result in (serial, parallel):
        if result.trace is not None:
            result.trace.validate()


def _lock_diagram(vocab, *atoms):
    """A lock_server partial structure: ``("holds", "c1")`` asserts
    ``holds(c1)``, ``("server_free",)`` the nullary fact."""
    from repro.logic.partial import PartialStructure
    from repro.logic.structures import Elem

    client = vocab.sorts[0]
    elems = {name: Elem(name, client) for atom in atoms for name in atom[1:]}
    facts: dict = {}
    for name, *args in atoms:
        facts.setdefault(vocab.relation(name), {})[
            tuple(elems[arg] for arg in args)
        ] = True
    universe = {client: tuple(elems[name] for name in sorted(elems))}
    return PartialStructure(vocab, universe, facts, {})


@pytest.mark.slow
class TestParallelEntryPoints:
    """Each engine answers the same at jobs=1 and jobs=2 (cache off)."""

    @pytest.fixture(scope="class")
    def lock_bundle(self):
        from repro.protocols import lock_server

        return lock_server.build()

    def test_check_k_invariance_parallel_matches_serial(self, leader_bundle):
        from repro.core.bounded import check_k_invariance

        program = leader_bundle.program
        safety = leader_bundle.safety[0].formula
        serial, parallel = _serial_and_parallel(
            lambda jobs: check_k_invariance(program, safety, 1, jobs=jobs)
        )
        assert serial.holds and parallel.holds

    def test_violated_k_invariance_matches(self, lock_bundle):
        from repro.core.bounded import check_k_invariance
        from repro.logic import parse_formula

        program = lock_bundle.program
        no_holder = parse_formula("forall C:client. ~holds(C)", program.vocab)
        serial, parallel = _serial_and_parallel(
            lambda jobs: check_k_invariance(program, no_holder, 4, jobs=jobs)
        )
        _same_bounded(serial, parallel)
        assert not serial.holds and serial.depth == 3

    def test_figure4_error_trace_matches(self, leader_bundle):
        from repro.core.bounded import find_error_trace

        buggy = leader_bundle.program.without_axiom("unique_ids")
        serial, parallel = _serial_and_parallel(
            lambda jobs: find_error_trace(buggy, 4, jobs=jobs)
        )
        _same_bounded(serial, parallel)
        assert not serial.holds and serial.depth == 4

    def test_check_unreachable_matches(self, lock_bundle, leader_bundle):
        from repro.core.generalize import check_unreachable
        from repro.logic.partial import PartialStructure

        lock = lock_bundle.program
        cases = [
            # held while the server is free: C7 excludes it at every depth
            (lock, _lock_diagram(lock.vocab, ("holds", "c1"), ("server_free",)), 3),
            # a holder: request, grant, receive -- reachable at depth 3
            (lock, _lock_diagram(lock.vocab, ("holds", "c1")), 3),
            # the empty diagram: every initial state contains it
            (
                leader_bundle.program,
                PartialStructure(leader_bundle.program.vocab, {}, {}, {}),
                1,
            ),
        ]
        verdicts = []
        for program, partial, k in cases:
            serial, parallel = _serial_and_parallel(
                lambda jobs: check_unreachable(program, partial, k, jobs=jobs)
            )
            assert (serial.unreachable, serial.unknown, serial.depth) == (
                parallel.unreachable, parallel.unknown, parallel.depth,
            )
            assert str(serial.trace) == str(parallel.trace)
            for result in (serial, parallel):
                if result.trace is not None:
                    result.trace.validate()
            verdicts.append((serial.unreachable, serial.depth))
        assert verdicts == [(True, None), (False, 3), (False, 0)]

    def test_check_inductive_parallel_matches_serial(self, leader_bundle):
        from repro.core.induction import check_inductive

        program = leader_bundle.program
        conjectures = list(leader_bundle.invariant)
        serial, parallel = _serial_and_parallel(
            lambda jobs: check_inductive(program, conjectures, jobs=jobs)
        )
        assert serial.holds == parallel.holds

    def test_houdini_survivors_match(self, lock_bundle):
        from repro.core.houdini import houdini
        from repro.core.induction import Conjecture
        from repro.logic import parse_formula

        vocab = lock_bundle.program.vocab
        pool = [
            *lock_bundle.invariant,
            Conjecture("junk", parse_formula("forall C:client. ~server_free", vocab)),
            Conjecture("no_holder", parse_formula("forall C:client. ~holds(C)", vocab)),
        ]
        serial, parallel = _serial_and_parallel(
            lambda jobs: houdini(lock_bundle.program, pool, jobs=jobs)
        )
        assert serial.invariant == parallel.invariant
        assert serial.dropped_initiation == parallel.dropped_initiation
        assert serial.dropped_consecution == parallel.dropped_consecution
        assert {c.name for c in serial.invariant} == {
            c.name for c in lock_bundle.invariant
        }

    def test_updr_pushability_matches(self, lock_bundle):
        from repro.core.updr import _Updr

        program = lock_bundle.program
        vocab = program.vocab
        # The nine invariant conjectures as blocked diagrams, plus one
        # (server_free) that F_1 does not keep blocked across a step.
        inductive = [
            _lock_diagram(vocab, *atoms)
            for atoms in (
                (("holds", "c1"), ("holds", "c2")),
                (("grant_msg", "c1"), ("grant_msg", "c2")),
                (("unlock_msg", "c1"), ("unlock_msg", "c2")),
                (("grant_msg", "c1"), ("holds", "c2")),
                (("grant_msg", "c1"), ("holds", "c1")),
                (("grant_msg", "c1"), ("unlock_msg", "c2")),
                (("grant_msg", "c1"), ("unlock_msg", "c1")),
                (("holds", "c1"), ("unlock_msg", "c2")),
                (("holds", "c1"), ("unlock_msg", "c1")),
                (("grant_msg", "c1"), ("server_free",)),
                (("holds", "c1"), ("server_free",)),
                (("unlock_msg", "c1"), ("server_free",)),
            )
        ]
        frame = [*inductive, _lock_diagram(vocab, ("server_free",))]

        def pushable(jobs):
            engine = _Updr(program, 8, 200, jobs=jobs)
            engine.frames = [[], list(frame), []]
            return engine._pushable_batch(frame, 1), engine.statistics

        (serial, serial_stats), (parallel, parallel_stats) = (
            _serial_and_parallel(pushable)
        )
        assert serial == parallel
        assert serial_stats == parallel_stats
        assert serial == [True] * len(inductive) + [False]
