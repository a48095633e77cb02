"""Engines replaying their journal: zero re-execution of completed work.

Every test runs an engine twice against the same journal file: a live
run that records, then a resumed run that must reach the identical
verdict while re-issuing **no solver queries** for journaled-complete
work (asserted through the metrics registry's ``queries_total`` counts
-- the acceptance criterion of the crash-safety work).
"""

import pytest

from repro.core.bounded import check_k_invariance, find_error_trace
from repro.core.houdini import houdini, pool_fingerprint
from repro.core.induction import Conjecture, check_inductive
from repro.core.updr import UpdrStatus, updr
from repro.logic import FuncDecl, RelDecl, Sort, parse_formula, vocabulary
from repro.proof.manager import plan_of, prove
from repro.protocols import lock_server
from repro.recovery.journal import Journal
from repro.rml.ast import Assume, Havoc, Program, choice, seq
from repro.rml.sugar import assert_, insert


@pytest.fixture(scope="module")
def lock_bundle():
    return lock_server.build()


@pytest.fixture()
def journal_path(tmp_path):
    return str(tmp_path / "journal.jsonl")


def _counted(registry, run):
    """``run()``'s result and the solver queries it added to ``registry``."""

    def answers() -> int:
        return sum(
            value
            for key, value in registry.to_dict()["counters"].items()
            if key.startswith("queries_total{")
        )

    before = answers()
    result = run()
    return result, answers() - before


def _monotone_program() -> Program:
    """p only ever grows and q stays within p: safe, UPDR-friendly."""
    elem = Sort("elem")
    p = RelDecl("p", (elem,))
    q = RelDecl("q", (elem,))
    c = FuncDecl("c", (), elem)
    vocab = vocabulary(sorts=[elem], relations=[p, q], functions=[c])
    from repro.logic.parser import parse_term

    fml = lambda src: parse_formula(src, vocab)
    init = seq(
        Assume(fml("forall X. ~p(X)")),
        Assume(fml("forall X. ~q(X)")),
    )
    add_p = seq(Havoc(c), insert(p, parse_term("c", vocab)))
    add_q = seq(
        Havoc(c), Assume(fml("p(c)")), insert(q, parse_term("c", vocab))
    )
    body = seq(
        assert_(fml("forall X. q(X) -> p(X)")),
        choice(add_p, add_q, labels=("add_p", "add_q")),
    )
    return Program(
        name="monotone", vocab=vocab, axioms=(), init=init, body=body
    )


class TestHoudiniResume:
    def test_resume_skips_every_round(
        self, lock_bundle, journal_path, metrics_registry
    ):
        vocab = lock_bundle.program.vocab
        wrong = Conjecture(
            "no_holder", parse_formula("forall C:client. ~holds(C)", vocab)
        )
        pool = [*lock_bundle.invariant, wrong]

        live = Journal.fresh(journal_path)
        first, live_queries = _counted(
            metrics_registry,
            lambda: houdini(lock_bundle.program, pool, journal=live),
        )
        live.close()
        assert live_queries > 0
        assert first.rounds >= 2  # the wrong conjecture forces a real round

        resumed = Journal.resume(journal_path)
        second, resumed_queries = _counted(
            metrics_registry,
            lambda: houdini(lock_bundle.program, pool, journal=resumed),
        )
        assert resumed_queries == 0
        assert [c.name for c in second.invariant] == [
            c.name for c in first.invariant
        ]
        assert second.rounds == first.rounds
        assert second.dropped_consecution == first.dropped_consecution
        assert resumed.reused_ratio() == 1.0
        assert second.statistics["journal_hits"] > 0
        resumed.close()

    def test_pool_fingerprint_is_order_insensitive(self, lock_bundle):
        pool = list(lock_bundle.invariant)
        forward = pool_fingerprint(lock_bundle.program, pool)
        backward = pool_fingerprint(lock_bundle.program, pool[::-1])
        assert forward == backward

    def test_different_pool_does_not_replay(
        self, lock_bundle, journal_path, metrics_registry
    ):
        live = Journal.fresh(journal_path)
        houdini(lock_bundle.program, list(lock_bundle.invariant), journal=live)
        live.close()
        resumed = Journal.resume(journal_path)
        smaller = list(lock_bundle.invariant)[:3]
        _, queries = _counted(
            metrics_registry,
            lambda: houdini(lock_bundle.program, smaller, journal=resumed),
        )
        assert queries > 0  # a different pool is a different run
        resumed.close()


class TestInductionResume:
    def test_resume_discharges_from_journal(
        self, lock_bundle, journal_path, metrics_registry
    ):
        live = Journal.fresh(journal_path)
        first, live_queries = _counted(
            metrics_registry,
            lambda: check_inductive(
                lock_bundle.program, list(lock_bundle.invariant), journal=live
            ),
        )
        live.close()
        assert first.holds and live_queries > 0

        resumed = Journal.resume(journal_path)
        second, resumed_queries = _counted(
            metrics_registry,
            lambda: check_inductive(
                lock_bundle.program, list(lock_bundle.invariant),
                journal=resumed,
            ),
        )
        assert second.holds
        assert resumed_queries == 0
        assert second.statistics["journal_hits"] == live_queries
        resumed.close()


class TestBoundedResume:
    def test_k_invariance_resumes_to_zero_queries(
        self, lock_bundle, journal_path, metrics_registry
    ):
        safety = lock_bundle.safety[0].formula
        live = Journal.fresh(journal_path)
        first, live_queries = _counted(
            metrics_registry,
            lambda: check_k_invariance(
                lock_bundle.program, safety, 3, journal=live
            ),
        )
        live.close()
        assert first.holds and live_queries > 0

        resumed = Journal.resume(journal_path)
        second, resumed_queries = _counted(
            metrics_registry,
            lambda: check_k_invariance(
                lock_bundle.program, safety, 3, journal=resumed
            ),
        )
        assert second.holds == first.holds
        assert resumed_queries == 0
        resumed.close()

    def test_error_trace_resumes_to_zero_queries(
        self, lock_bundle, journal_path, metrics_registry
    ):
        live = Journal.fresh(journal_path)
        first, live_queries = _counted(
            metrics_registry,
            lambda: find_error_trace(lock_bundle.program, 3, journal=live),
        )
        live.close()
        assert first.holds and live_queries > 0

        resumed = Journal.resume(journal_path)
        second, resumed_queries = _counted(
            metrics_registry,
            lambda: find_error_trace(lock_bundle.program, 3, journal=resumed),
        )
        assert second.holds == first.holds
        assert resumed_queries == 0
        resumed.close()


class TestUpdrResume:
    def test_frames_restored_from_snapshot(
        self, journal_path, metrics_registry
    ):
        program = _monotone_program()
        live = Journal.fresh(journal_path)
        first, live_queries = _counted(
            metrics_registry,
            lambda: updr(
                program, max_frames=8, max_obligations=200, journal=live
            ),
        )
        live.close()
        assert first.status == UpdrStatus.SAFE

        resumed = Journal.resume(journal_path)
        second, resumed_queries = _counted(
            metrics_registry,
            lambda: updr(
                program, max_frames=8, max_obligations=200, journal=resumed
            ),
        )
        assert second.status == UpdrStatus.SAFE
        # completed frames and learned clauses come from the journal; only
        # the final fixpoint confirmation may re-solve
        assert resumed_queries < live_queries
        assert resumed.reused > 0
        resumed.close()


class TestProveResume:
    def test_dag_resumes_via_journal(self, lock_bundle, journal_path):
        plan = plan_of(lock_bundle.program)
        live = Journal.fresh(journal_path)
        first = prove(plan, journal=live)
        live.close()
        assert first.ok and first.queries > 0

        resumed = Journal.resume(journal_path)
        second = prove(plan, journal=resumed)
        assert second.ok
        assert second.queries == 0
        assert {outcome.via for outcome in second.outcomes} == {"journal"}
        assert resumed.reused_ratio() == 1.0
        resumed.close()
