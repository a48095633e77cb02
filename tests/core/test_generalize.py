"""Interactive generalization: reachability tests, unsat-core shrinking,
and the Section 2.3 walkthrough ingredients."""

import pytest

from repro.core.bounded import make_unroller
from repro.core.generalize import auto_generalize, check_unreachable
from repro.core.induction import check_inductive
from repro.core.minimize import PositiveTuples, SortSize, find_minimal_cti
from repro.core.policy import violation_subconfiguration
from repro.logic import Sort, and_, not_, parse_formula
from repro.logic.partial import from_structure
from repro.solver import EprSolver


@pytest.fixture(scope="module")
def leader_cti(leader_bundle):
    """The minimal first CTI of the leader election session."""
    program = leader_bundle.program
    measures = [
        SortSize(Sort("node")),
        SortSize(Sort("id")),
        PositiveTuples(program.vocab.relation("pnd")),
        PositiveTuples(program.vocab.relation("leader")),
    ]
    result = find_minimal_cti(program, list(leader_bundle.safety), measures)
    assert result.cti is not None
    return result.cti


@pytest.fixture(scope="module")
def unroller(leader_bundle):
    return make_unroller(leader_bundle.program)


def equivalent_under_axioms(program, f, g) -> bool:
    a = EprSolver(program.vocab)
    a.add(and_(program.axiom_formula, f, not_(g)))
    b = EprSolver(program.vocab)
    b.add(and_(program.axiom_formula, g, not_(f)))
    return not a.check().satisfiable and not b.check().satisfiable


class TestCheckUnreachable:
    @pytest.mark.slow
    def test_full_cti_unreachable(self, leader_bundle, leader_cti, unroller):
        """The CTI state itself (as a diagram) is unreachable within 3."""
        partial = from_structure(leader_cti.state)
        scratch = ("n", "m", "i")
        for name in scratch:
            partial = partial.forget(name)
        result = check_unreachable(leader_bundle.program, partial, 2, unroller)
        assert result.unreachable

    @pytest.mark.slow
    def test_overgeneralization_is_reachable(self, leader_bundle, leader_cti, unroller):
        """Forgetting the pnd information of this CTI leaves only 'a leader
        and a non-leader exist', which *is* reachable -- Ivy would show the
        user the witness trace (Section 4.5's failure path)."""
        partial = from_structure(leader_cti.state)
        for name in ("n", "m", "i", "btw", "pnd"):
            partial = partial.forget(name)
        result = check_unreachable(leader_bundle.program, partial, 3, unroller)
        assert not result.unreachable
        assert result.trace is not None
        result.trace.validate()
        assert result.depth == 3  # election needs send + 2 receives

    def test_empty_partial_reachable(self, leader_bundle, unroller):
        """The empty generalization excludes everything; any initial state
        witnesses reachability at depth 0."""
        from repro.logic.partial import PartialStructure

        vocab = leader_bundle.program.vocab
        empty = PartialStructure(vocab, {}, {}, {})
        result = check_unreachable(leader_bundle.program, empty, 1, unroller)
        assert not result.unreachable
        assert result.depth == 0

    def test_exhausted_budget_is_unknown_not_unreachable(self, leader_bundle):
        """A depth that exhausts its budget answers nothing: the same
        reachable diagram is reported unknown, never unreachable."""
        from repro.logic.partial import PartialStructure
        from repro.solver import install_cache
        from repro.solver.budget import Budget

        program = leader_bundle.program
        empty = PartialStructure(program.vocab, {}, {}, {})
        old = install_cache(None)
        try:
            starved = make_unroller(program, Budget(instances=1))
            result = check_unreachable(program, empty, 1, starved)
        finally:
            install_cache(old)
        assert result.unknown
        assert not result.unreachable and not result
        assert result.depth is None and result.trace is None


@pytest.mark.slow
class TestAutoGeneralize:
    def test_produces_paper_conjecture(self, leader_bundle, leader_cti, unroller):
        """Generalizing the violation slice of the first CTI yields a
        conjecture equivalent (under the axioms) to the paper's C1 or C2."""
        program = leader_bundle.program
        violated = [
            target
            for target in leader_bundle.invariant[1:]
            if not leader_cti.state.satisfies(target.formula)
        ]
        assert violated, "the CTI must falsify one of C1..C3"
        target = violated[0]
        upper = violation_subconfiguration(leader_cti.state, target.formula)
        outcome = auto_generalize(program, upper, 3, unroller)
        assert outcome.ok
        assert equivalent_under_axioms(program, outcome.conjecture, target.formula)

    def test_generalization_is_stronger(self, leader_bundle, leader_cti, unroller):
        """phi(s_m) => phi(s_u): dropping literals strengthens (Sec. 4.4)."""
        from repro.logic.partial import conjecture

        program = leader_bundle.program
        target = next(
            t
            for t in leader_bundle.invariant[1:]
            if not leader_cti.state.satisfies(t.formula)
        )
        upper = violation_subconfiguration(leader_cti.state, target.formula)
        outcome = auto_generalize(program, upper, 3, unroller)
        assert outcome.ok
        solver = EprSolver(program.vocab)
        solver.add(
            and_(program.axiom_formula, outcome.conjecture, not_(conjecture(upper)))
        )
        assert not solver.check().satisfiable

    def test_failure_returns_trace(self, leader_bundle, leader_cti, unroller):
        partial = from_structure(leader_cti.state)
        for name in ("n", "m", "i", "btw", "pnd"):
            partial = partial.forget(name)
        outcome = auto_generalize(leader_bundle.program, partial, 3, unroller)
        assert not outcome.ok
        assert outcome.trace is not None

    def test_bound2_admits_bogus_generalization(self, leader_bundle, unroller):
        """The Section 2.3 anecdote: with BMC bound 2, 'two distinct nodes,
        one a leader' is (wrongly) accepted -- a leader needs 3 steps."""
        program = leader_bundle.program
        vocab = program.vocab
        bogus = parse_formula(
            "forall N1, N2. ~(N1 ~= N2 & leader(N1))", vocab
        )
        from repro.core.bounded import check_k_invariance

        assert check_k_invariance(program, bogus, 2, unroller).holds
        assert not check_k_invariance(program, bogus, 3, unroller).holds
