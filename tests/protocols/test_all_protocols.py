"""Cross-protocol checks: every Figure 14 row loads from its packaged
model, typechecks, and its invariant is genuinely inductive while the bare
safety property is not."""

from importlib import resources

import pytest

from repro.core.induction import check_inductive, check_initiation
from repro.protocols import ALL_PROTOCOLS
from repro.rml.typecheck import check_program

# Figure 14 style statistics for OUR models (paper values noted in
# EXPERIMENTS.md where they differ): sorts, relation/function symbols, and
# the literal counts of the safety conjectures (C) and the invariant (I).
EXPECTED_STATS = {
    "leader_election": {"S": 2, "RF": 5, "C": 3, "I": 12},
    "lock_server": {"S": 1, "RF": 5, "C": 3, "I": 21},
    "distributed_lock": {"S": 2, "RF": 5, "C": 3, "I": 27},
    "learning_switch": {"S": 2, "RF": 7, "C": 3, "I": 20},
    "db_chain": {"S": 4, "RF": 10, "C": 12, "I": 20},
    "chord": {"S": 1, "RF": 6, "C": 4, "I": 23},
}


@pytest.fixture(scope="module", params=sorted(ALL_PROTOCOLS))
def bundle(request):
    return request.param, ALL_PROTOCOLS[request.param].build()


def test_every_protocol_has_a_packaged_model():
    package = resources.files("repro.protocols")
    assert sorted(EXPECTED_STATS) == sorted(ALL_PROTOCOLS)
    for name in ALL_PROTOCOLS:
        assert package.joinpath(f"{name}.rml").is_file(), name


class TestWellFormedness:
    def test_program_checks(self, bundle):
        _, b = bundle
        check_program(b.program)

    def test_vocabulary_stratified(self, bundle):
        _, b = bundle
        b.program.vocab.check_stratified()

    def test_stats_match_model(self, bundle):
        name, b = bundle
        expected = EXPECTED_STATS[name]
        assert b.sort_count() == expected["S"]
        assert b.symbol_count() == expected["RF"]
        assert b.literal_count(b.safety) == expected["C"]
        assert b.literal_count(b.invariant) == expected["I"]

    def test_safety_subset_of_invariant(self, bundle):
        _, b = bundle
        invariant_names = {c.name for c in b.invariant}
        assert {c.name for c in b.safety} <= invariant_names


@pytest.mark.slow
class TestInvariants:
    def test_conjectures_satisfy_initiation(self, bundle):
        _, b = bundle
        for conjecture in b.invariant:
            result = check_initiation(b.program, conjecture)
            assert not result.satisfiable, f"{conjecture.name} fails initiation"

    def test_invariant_is_inductive(self, bundle):
        _, b = bundle
        result = check_inductive(b.program, list(b.invariant))
        assert result.holds, (result.cti and str(result.cti.obligation.description))

    def test_safety_alone_is_not_inductive(self, bundle):
        """The interactive search is necessary: no protocol's assertion set
        is inductive by itself."""
        _, b = bundle
        result = check_inductive(b.program, list(b.safety))
        assert not result.holds
        assert result.cti is not None
        # The CTI state satisfies axioms and the current conjectures
        # (the search-loop invariant of Section 4.2).
        assert result.cti.state.satisfies(b.program.axiom_formula)
        for conjecture in b.safety:
            assert result.cti.state.satisfies(conjecture.formula)


@pytest.mark.slow
class TestBoundedSafety:
    def test_no_error_within_small_bound(self, bundle):
        from repro.core.bounded import find_error_trace

        name, b = bundle
        # Function-heavy unrollings (per-step `ep` versions widening the
        # epoch universe) make deep bounds expensive; depth 1 still
        # exercises init + a full transition + both abort probes.
        bound = 1 if name == "distributed_lock" else 2
        result = find_error_trace(b.program, bound)
        assert result.holds
