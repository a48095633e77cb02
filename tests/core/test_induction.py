"""Inductiveness checking and CTIs (Eq. 2) on the leader election model."""

import pytest

from repro.core.induction import (
    Conjecture,
    check_inductive,
    check_initiation,
    check_obligation,
    obligations,
)
from repro.logic import parse_formula


class TestConjecture:
    def test_universal_required(self, ring_vocab):
        with pytest.raises(ValueError, match="universally"):
            Conjecture("bad", parse_formula("exists N:node. leader(N)", ring_vocab))

    def test_closed_required(self, ring_vocab):
        with pytest.raises(ValueError, match="closed"):
            Conjecture("bad", parse_formula("leader(N)", ring_vocab))

    def test_quantifier_free_closed_ok(self, leader_bundle):
        vocab = leader_bundle.program.vocab
        Conjecture("ok", parse_formula("~leader(n)", vocab))


class TestObligations:
    def test_structure(self, leader_bundle):
        obls = obligations(leader_bundle.program, list(leader_bundle.invariant))
        kinds = [o.kind for o in obls]
        # 4 initiation + 1 body-abort safety + 4 consecution
        assert kinds.count("initiation") == 4
        assert kinds.count("safety") == 1
        assert kinds.count("consecution") == 4

    def test_safety_obligation_only_when_aborts_possible(self, leader_bundle):
        from repro.rml.ast import Program, Skip

        program = Program(
            name="no_asserts",
            vocab=leader_bundle.program.vocab,
            axioms=leader_bundle.program.axioms,
            init=leader_bundle.program.init,
            body=Skip(),
        )
        obls = obligations(program, list(leader_bundle.safety))
        assert all(o.kind != "safety" for o in obls)


class TestLeaderElection:
    @pytest.mark.slow
    def test_full_invariant_inductive(self, leader_bundle):
        result = check_inductive(leader_bundle.program, list(leader_bundle.invariant))
        assert result.holds
        assert result.cti is None

    def test_safety_alone_not_inductive(self, leader_bundle):
        result = check_inductive(leader_bundle.program, list(leader_bundle.safety))
        assert not result.holds
        cti = result.cti
        assert cti.obligation.kind in ("safety", "consecution")
        # The CTI state satisfies the axioms and all current conjectures.
        assert cti.state.satisfies(leader_bundle.program.axiom_formula)
        assert cti.state.satisfies(leader_bundle.safety[0].formula)

    def test_cti_successor_witnesses_violation(self, leader_bundle):
        result = check_inductive(leader_bundle.program, list(leader_bundle.safety))
        cti = result.cti
        if cti.obligation.kind == "consecution":
            assert cti.successor is not None
            assert not cti.successor.satisfies(cti.obligation.post)
        else:
            assert cti.successor is None  # an abort, not a conjecture violation

    @pytest.mark.slow
    def test_dropping_c3_gives_cti_on_c2(self, leader_bundle):
        result = check_inductive(
            leader_bundle.program, list(leader_bundle.invariant[:3])
        )
        assert not result.holds
        # Fig. 9: without C3, consecution of C2 fails via a receive.
        assert result.cti.obligation.target == "C2"
        assert "receive" in result.cti.action

    @pytest.mark.slow
    def test_missing_axiom_breaks_invariant(self, leader_bundle):
        buggy = leader_bundle.program.without_axiom("unique_ids")
        result = check_inductive(buggy, list(leader_bundle.invariant))
        assert not result.holds

    def test_initiation_check(self, leader_bundle):
        vocab = leader_bundle.program.vocab
        good = Conjecture("g", parse_formula("forall N:node. ~leader(N)", vocab))
        assert not check_initiation(leader_bundle.program, good).satisfiable
        bad = Conjecture("b", parse_formula("forall N:node. leader(N)", vocab))
        assert check_initiation(leader_bundle.program, bad).satisfiable

    def test_initiation_check_builds_only_its_obligation(
        self, leader_bundle, monkeypatch
    ):
        from repro.core import induction

        commands = []

        def counting_wp(command, *args):
            commands.append(command)
            return wp(command, *args)

        wp = induction.wp
        monkeypatch.setattr(induction, "wp", counting_wp)
        vocab = leader_bundle.program.vocab
        good = Conjecture("g", parse_formula("forall N:node. ~leader(N)", vocab))
        check_initiation(leader_bundle.program, good)
        assert commands == [leader_bundle.program.init]

    @pytest.mark.slow
    def test_obligation_vc_satisfiability_matches(self, leader_bundle):
        obls = obligations(leader_bundle.program, list(leader_bundle.invariant))
        for obligation in obls:
            result = check_obligation(leader_bundle.program, obligation)
            assert not result.satisfiable  # the invariant is inductive
