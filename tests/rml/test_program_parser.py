"""The RML concrete-syntax parser: a text model must behave identically to
the programmatically built one."""

import pytest

from repro.core.bounded import find_error_trace
from repro.core.induction import Conjecture, check_inductive
from repro.logic.lexer import ParseError
from repro.logic import parse_formula
from repro.rml.parser import parse_program

LEADER_SOURCE = """
program leader_election_text

sort node
sort id

relation le : id, id
relation btw : node, node, node
relation leader : node
relation pnd : id, node

function idn : node -> id

variable n : node
variable m : node
variable i : id

axiom unique_ids: forall N1, N2. N1 ~= N2 -> idn(N1) ~= idn(N2)
axiom le_total_order:
    (forall X:id. le(X, X))
    & (forall X, Y, Z:id. le(X, Y) & le(Y, Z) -> le(X, Z))
    & (forall X, Y:id. le(X, Y) & le(Y, X) -> X = Y)
    & (forall X, Y:id. le(X, Y) | le(Y, X))
axiom ring_topology:
    (forall X, Y, Z. btw(X, Y, Z) -> btw(Y, Z, X))
    & (forall W, X, Y, Z. btw(W, X, Y) & btw(W, Y, Z) -> btw(W, X, Z))
    & (forall W, X, Y. btw(W, X, Y) -> ~btw(W, Y, X))
    & (forall W:node, X:node, Y:node.
       W ~= X & X ~= Y & W ~= Y -> btw(W, X, Y) | btw(W, Y, X))

init {
    assume forall X:node. ~leader(X);
    assume forall X:id, Y:node. ~pnd(X, Y);
}

safety single_leader: forall N1, N2. leader(N1) & leader(N2) -> N1 = N2

action send {
    havoc n;
    havoc m;
    assume forall X. X ~= n & X ~= m -> btw(n, m, X);
    insert pnd(idn(n), m);
}

action receive {
    havoc n;
    havoc m;
    havoc i;
    assume pnd(i, n);
    assume forall X. X ~= n & X ~= m -> btw(n, m, X);
    if i = idn(n) {
        insert leader(n);
    } else {
        if le(idn(n), i) {
            insert pnd(i, m);
        };
    };
}
"""


@pytest.fixture(scope="module")
def text_program():
    return parse_program(LEADER_SOURCE)


class TestParsing:
    def test_declarations(self, text_program):
        vocab = text_program.vocab
        assert {s.name for s in vocab.sorts} == {"node", "id"}
        assert vocab.relation("btw").arity == 3
        assert vocab.function("idn").sort.name == "id"
        assert vocab.function("n").is_constant
        assert len(text_program.axioms) == 3

    def test_body_structure(self, text_program):
        from repro.rml.ast import Choice, Seq, subcommands

        kinds = [type(c).__name__ for c in subcommands(text_program.body)]
        assert "Choice" in kinds  # safety assert + the action choice
        choices = [
            c
            for c in subcommands(text_program.body)
            if isinstance(c, Choice) and c.labels == ("send", "receive")
        ]
        assert len(choices) == 1

    def test_program_name(self, text_program):
        assert text_program.name == "leader_election_text"

    def test_point_update_parsed_as_sugar(self):
        """``ep(n) := e`` in distributed_lock expands to the Figure 12 ite update."""
        from repro.logic import Ite
        from repro.protocols.base import model_file
        from repro.rml.ast import UpdateFunc, subcommands

        program = parse_program(model_file("distributed_lock").read_text())
        updates = [
            c
            for c in subcommands(program.body)
            if isinstance(c, UpdateFunc) and c.func.name == "ep"
        ]
        assert updates
        assert isinstance(updates[0].term, Ite)

    def test_assert_label(self):
        from repro.rml.ast import Choice, subcommands

        program = parse_program(
            "sort node\nrelation r : node\nvariable n : node\n"
            "action step { havoc n; assert r_empty: forall X. ~r(X);"
            " assert forall X. ~r(X); }\n"
        )
        labels = [
            c.labels for c in subcommands(program.body) if isinstance(c, Choice)
        ]
        assert labels == [("violate r_empty", "pass"), ("violate", "pass")]


class TestSemanticEquivalence:
    """The text model verifies exactly like the programmatic Figure 1 model."""

    @pytest.mark.slow
    def test_invariant_inductive(self, text_program):
        vocab = text_program.vocab
        conjectures = [
            Conjecture(
                "C0",
                parse_formula(
                    "forall N1, N2. ~(leader(N1) & leader(N2) & N1 ~= N2)", vocab
                ),
            ),
            Conjecture(
                "C1",
                parse_formula(
                    "forall N1, N2."
                    " ~(N1 ~= N2 & leader(N1) & le(idn(N1), idn(N2)))",
                    vocab,
                ),
            ),
            Conjecture(
                "C2",
                parse_formula(
                    "forall N1, N2."
                    " ~(N1 ~= N2 & pnd(idn(N1), N1) & le(idn(N1), idn(N2)))",
                    vocab,
                ),
            ),
            Conjecture(
                "C3",
                parse_formula(
                    "forall N1, N2, N3."
                    " ~(btw(N1, N2, N3) & pnd(idn(N2), N1)"
                    "   & le(idn(N2), idn(N3)))",
                    vocab,
                ),
            ),
        ]
        result = check_inductive(text_program, conjectures)
        assert result.holds

    @pytest.mark.slow
    def test_bug_reappears_without_axiom(self, text_program):
        buggy = text_program.without_axiom("unique_ids")
        result = find_error_trace(buggy, 4)
        assert not result.holds and result.depth == 4


class TestParseErrors:
    def test_unknown_sort(self):
        with pytest.raises(ParseError, match="unknown sort"):
            parse_program("sort a\nrelation p : b\n")

    def test_unknown_statement(self):
        with pytest.raises(ParseError):
            parse_program(
                "sort a\nvariable v : a\naction act { frobnicate v; }"
            )

    def test_havoc_requires_variable(self):
        with pytest.raises(ParseError, match="not a program variable"):
            parse_program(
                "sort a\nrelation p : a\naction act { havoc p; }"
            )

    def test_update_parameter_shadowing(self):
        with pytest.raises(ParseError, match="shadows"):
            parse_program(
                "sort a\nrelation p : a\nvariable v : a\n"
                "action act { update p(v) := true; }"
            )

    def test_fragment_violation_caught(self):
        from repro.rml.typecheck import ProgramError

        with pytest.raises(ProgramError):
            parse_program(
                "sort a\nrelation r : a, a\n"
                "action act { assume forall X:a. exists Y:a. r(X, Y); }"
            )

    def test_statements_need_semicolons(self):
        with pytest.raises(ParseError):
            parse_program("sort a\nvariable v : a\naction act { havoc v }")


class TestErrorPositions:
    def test_statement_error_cites_line_and_column(self):
        source = "sort a\nvariable v : a\naction act {\n    frobnicate v;\n}"
        with pytest.raises(ParseError) as excinfo:
            parse_program(source)
        error = excinfo.value
        assert "(line 4" in str(error)
        assert error.span is not None
        assert error.span.line == 4

    def test_decl_error_cites_line(self):
        with pytest.raises(ParseError) as excinfo:
            parse_program("sort a\nrelation p : b\n")
        assert "(line 2" in str(excinfo.value)

    def test_sugar_error_carries_statement_span(self):
        # An open assert becomes a ParseError with the safety's position.
        source = "sort a\nrelation r : a\nsafety bad: r(X)\n"
        with pytest.raises(ParseError) as excinfo:
            parse_program(source)
        error = excinfo.value
        assert "closed" in str(error)
        assert error.span is not None and error.span.line == 3
