"""Program-level sort interchangeability; anonymous constants in the solver."""

import pytest

from repro.analysis.symmetry import analyze_program_symmetry
from repro.logic import App, FuncDecl, Rel, RelDecl, Sort, Var, vocabulary
from repro.logic import syntax as s
from repro.rml.parser import parse_program
from repro.solver.epr import EprSolver

elem = Sort("elem")
p = RelDecl("p", (elem,))
q = RelDecl("q", (elem,))
a = FuncDecl("a", (), elem)
b = FuncDecl("b", (), elem)
c = FuncDecl("c", (), elem)
X = Var("X", elem)

SYMMETRIC = """program sym

sort worker

relation busy : worker

variable w1 : worker
variable w2 : worker
variable w3 : worker

init {
    assume forall X:worker. ~busy(X);
}

invariant idle: forall X:worker. ~busy(X)

action tick {
    assume forall X:worker. ~busy(X);
}
"""


class TestProgramLevel:
    def test_interchangeable_sort(self):
        program = parse_program(SYMMETRIC, check=False)
        (report,) = analyze_program_symmetry(program)
        assert report.sort.name == "worker"
        # w1..w3 are declared but never named in any formula: the sort's
        # elements are indistinguishable by the program text.
        assert report.interchangeable
        assert len(report.constants) == 3

    def test_constant_occurrence_blocks(self):
        source = SYMMETRIC.replace(
            "action tick {\n    assume forall X:worker. ~busy(X);\n}",
            "action tick {\n    assume busy(w1);\n}",
        )
        program = parse_program(source, check=False)
        (report,) = analyze_program_symmetry(program)
        assert not report.interchangeable
        assert report.nearly  # exactly one blocker: RML111 territory
        assert "w1" in report.blockers[0].reason

    def test_binary_relation_blocks(self):
        source = SYMMETRIC.replace(
            "relation busy : worker",
            "relation busy : worker\nrelation peer : worker, worker",
        )
        program = parse_program(source, check=False)
        (report,) = analyze_program_symmetry(program)
        assert not report.interchangeable
        assert any("peer" in blocker.reason for blocker in report.blockers)

    def test_conjecture_occurrence_blocks(self):
        program = parse_program(SYMMETRIC, check=False)
        worker = program.vocab.sorts[0]
        w1 = next(f for f in program.vocab.constants() if f.name == "w1")
        busy = program.vocab.relations[0]
        named = [("extra", s.not_(Rel(busy, (App(w1, ()),))))]
        (report,) = analyze_program_symmetry(program, named)
        assert not report.interchangeable


class TestSolverIntegration:
    """Declared constants that occur in no constraint are plain ground
    terms to the solver: they never change a verdict."""

    def _solve(self, formulas, constants):
        vocab = vocabulary(sorts=[elem], relations=[p, q], functions=constants)
        solver = EprSolver(vocab)
        for index, formula in enumerate(formulas):
            solver.add(formula, name=f"f{index}")
        return solver.check()

    @pytest.mark.parametrize(
        "formulas, expect_sat",
        [
            ([s.exists((X,), Rel(p, (X,)))], True),
            (
                [
                    s.exists((X,), Rel(p, (X,))),
                    s.forall((X,), s.not_(Rel(p, (X,)))),
                ],
                False,
            ),
        ],
    )
    def test_verdict_preserved(self, formulas, expect_sat):
        anonymous = self._solve(formulas, [a, b, c])
        bare = self._solve(formulas, [])
        assert anonymous.satisfiable == bare.satisfiable == expect_sat
        assert not anonymous.unknown and not bare.unknown
