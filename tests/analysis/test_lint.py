"""Lint rules (RML101-107) and the collect-all acceptance property."""

import pytest

from repro.analysis import Severity
from repro.analysis import lint as lint_mod
from repro.analysis.lint import equivalent_false, lint_program
from repro.logic import syntax as s
from repro.protocols import ALL_PROTOCOLS
from repro.rml.parser import parse_program


def _codes(diagnostics):
    return [d.code for d in diagnostics]


class TestCollectAll:
    MULTI_ERROR = """program broken
sort node
sort ghost
relation pending : node, node
relation unused_rel : node
variable n : node

axiom total: forall X:node. exists Y:node. pending(X, Y)

init {
    assume forall X:node. ~pending(X, X);
}

safety shadowed: forall X:node. forall X:node. ~pending(X, X)

action step {
    assume forall X:node. exists Y:node. pending(X, Y);
    update pending(A, B) := pending(A, B) | pending(A, n);
}
"""

    def test_one_pass_reports_every_violation(self):
        program = parse_program(self.MULTI_ERROR, check=False)
        diagnostics = lint_program(program, origin="broken.rml")
        codes = set(_codes(diagnostics))
        # >= 3 distinct violations from one pass:
        assert "RML003" in codes  # forall-exists assume
        assert "RML102" in codes  # unused_rel never used
        assert "RML104" in codes  # shadowed binder in the safety
        assert "RML101" in codes  # ghost sort unused
        assert "RML201" in codes  # the AE assume shows up as a QAG cycle
        assert len(diagnostics) >= 3

    def test_every_diagnostic_has_a_span(self):
        program = parse_program(self.MULTI_ERROR, check=False)
        diagnostics = lint_program(program, origin="broken.rml")
        for diagnostic in diagnostics:
            assert diagnostic.span is not None, diagnostic


class TestUnusedDeclarations:
    def test_unused_relation_points_at_declaration(self):
        source = """program toy
sort node
relation used : node
relation never : node
init { assume forall X:node. ~used(X); }
"""
        program = parse_program(source, check=False)
        (diagnostic,) = [
            d for d in lint_program(program) if d.code == "RML102"
        ]
        assert "never" in diagnostic.message
        assert diagnostic.span is not None
        assert diagnostic.span.line == 4  # the declaration line

    def test_unused_variable_flagged(self):
        source = """program toy
sort node
relation r : node
variable ghost : node
init { assume forall X:node. ~r(X); }
"""
        program = parse_program(source, check=False)
        assert "RML103" in _codes(lint_program(program))

    def test_havocked_variable_counts_as_used(self):
        source = """program toy
sort node
relation r : node
variable n : node
action step { havoc n; insert r(n); }
"""
        program = parse_program(source, check=False)
        assert "RML103" not in _codes(lint_program(program))


class TestShadowedBinders:
    def test_nested_same_name(self):
        source = """program toy
sort node
relation r : node, node
axiom shadow: forall X. r(X, X) & (forall X. r(X, X))
"""
        program = parse_program(source, check=False)
        assert "RML104" in _codes(lint_program(program))

    def test_distinct_names_clean(self):
        source = """program toy
sort node
relation r : node, node
axiom fine: forall X. forall Y. r(X, Y) -> r(Y, X)
init { assume forall X:node. ~r(X, X); }
"""
        program = parse_program(source, check=False)
        assert "RML104" not in _codes(lint_program(program))


class TestEquivalentFalse:
    def test_literal_false(self):
        assert equivalent_false(s.FALSE)

    def test_contradiction(self):
        from repro.logic import Sort

        x = s.Var("X", Sort("node"))
        # p & ~p with p an opaque quantified subformula
        p = s.forall((x,), s.eq(x, x))
        assert equivalent_false(s.and_(p, s.not_(p)))

    def test_satisfiable_not_flagged(self):
        assert not equivalent_false(s.TRUE)

    def test_assume_false_and_dead_branch(self):
        source = """program toy
sort node
relation r : node
variable n : node
action live { insert r(n); }
action dead { assume false; insert r(n); }
"""
        program = parse_program(source, check=False)
        codes = _codes(lint_program(program))
        assert "RML105" in codes
        assert "RML106" in codes

    def test_dead_branch_names_label(self):
        source = """program toy
sort node
relation r : node
variable n : node
action live { insert r(n); }
action dead { assume false; }
"""
        program = parse_program(source, check=False)
        (diagnostic,) = [d for d in lint_program(program) if d.code == "RML106"]
        assert "dead" in diagnostic.message


class TestNoopUpdates:
    def test_identity_rel_update_flagged(self):
        source = """program toy
sort node
relation r : node
init { update r(A) := r(A); }
"""
        program = parse_program(source, check=False)
        assert "RML107" in _codes(lint_program(program))

    def test_insert_sugar_not_flagged(self):
        # insert expands to r(X) := r(X) | X = t -- self-referencing but not
        # an identity no-op.
        source = """program toy
sort node
relation r : node
variable n : node
init { insert r(n); }
"""
        program = parse_program(source, check=False)
        assert "RML107" not in _codes(lint_program(program))


# The advisory warnings a bundled protocol is known to carry; nothing else
# may fire.  RML111 is a near-miss report (lock_server's 'client' sort
# is one blocker from interchangeable).  RML108 flags a relation no
# declared invariant reads: lock_server's request messages and chord's
# predecessor pointers are scaffolding that safety does not depend on.
KNOWN_WARNINGS = {
    "lock_server": [("RML108", "'lock_msg'"), ("RML111", "'client'")],
    "chord": [("RML108", "'p'")],
}


class TestBundledProtocolsClean:
    @pytest.mark.parametrize("name", sorted(ALL_PROTOCOLS))
    def test_protocol_lints_clean(self, name):
        bundle = ALL_PROTOCOLS[name].build()
        diagnostics = lint_program(bundle.program, origin=name)
        expected = KNOWN_WARNINGS.get(name, [])
        assert len(diagnostics) == len(expected), [d.message for d in diagnostics]
        for diagnostic, (code, subject) in zip(diagnostics, expected):
            assert diagnostic.code == code and subject in diagnostic.message
        assert all(d.severity is not Severity.ERROR for d in diagnostics)


class TestWellFormednessFoldedIn:
    def test_rml002_with_span_from_lint(self):
        source = """program toy
sort node
relation r : node
init { assume r(X); }
"""
        program = parse_program(source, check=False)
        diagnostics = lint_program(program, origin="toy.rml")
        (closed,) = [d for d in diagnostics if d.code == "RML002"]
        assert closed.severity is Severity.ERROR
        assert closed.span is not None
