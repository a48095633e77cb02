"""The query-cache key: computed from the solver's input, before grounding.

Each test changes one input and asserts the key changes -- or, for
source spans, that it does not.  The key must also be the same in every
interpreter, because the disk tier shares results across processes.
"""

import os
import pathlib
import subprocess
import sys

from repro.logic import App, FuncDecl, RelDecl, Sort, Var, parse_formula, vocabulary
from repro.logic import syntax as s
from repro.solver import EprSolver
from repro.solver.epr import _enabled_key

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

elem = Sort("elem")
other = Sort("other")
p = RelDecl("p", (elem,))
q = RelDecl("q", (elem,))
c = FuncDecl("c", (), elem)
VOCAB = vocabulary(sorts=[elem, other], relations=[p, q], functions=[c])
X = Var("X", elem)


def P(term):
    return s.Rel(p, (term,))


def Q(term):
    return s.Rel(q, (term,))


def adopted(name, sort):
    return App(FuncDecl(name, (), sort))


P_IMPLIES_Q = s.Forall((X,), s.Implies(P(X), Q(X)))
Q_IMPLIES_P = s.Forall((X,), s.Implies(Q(X), P(X)))
# Two adopted constants in an equality: their sorts reach the key only
# through the adopted symbols, never through the formula.
ADOPTED_EQ = s.Eq(adopted("d", elem), adopted("e", elem))

BASE = (
    ("axiom", P_IMPLIES_Q, False),
    ("goal", s.Not(Q(App(c))), True),
    ("fresh", ADOPTED_EQ, True),
)
# Many adopted symbols: set iteration order would differ between hash
# seeds if it leaked into the key.
MANY_ADOPTED = BASE + (
    ("many", s.And(tuple(P(adopted(f"k{i}", elem)) for i in range(8))), False),
)


def key(constraints=BASE, vocab=VOCAB, enabled=None, **options):
    solver = EprSolver(vocab, **options)
    for name, formula, tracked in constraints:
        solver.add(formula, name=name, track=tracked)
    return solver._input_digest(), _enabled_key(enabled)


def replaced(index, **changes):
    constraints = list(BASE)
    name, formula, tracked = constraints[index]
    constraints[index] = (
        changes.get("name", name),
        changes.get("formula", formula),
        changes.get("tracked", tracked),
    )
    return tuple(constraints)


class TestConstraintsChangeTheKey:
    def test_formula(self):
        assert key(replaced(0, formula=Q_IMPLIES_P)) != key()

    def test_constraint_name(self):
        assert key(replaced(0, name="axiom2")) != key()

    def test_tracked_flag(self):
        assert key(replaced(0, tracked=True)) != key()

    def test_constraint_order(self):
        assert key((BASE[1], BASE[0], BASE[2])) != key()


class TestVocabularyChangesTheKey:
    def test_declaration_order(self):
        swapped = vocabulary(sorts=[elem, other], relations=[q, p], functions=[c])
        assert key(vocab=swapped) != key()

    def test_adopted_symbol_sort(self):
        other_eq = s.Eq(adopted("d", other), adopted("e", other))
        assert key(replaced(2, formula=other_eq)) != key()

    def test_declared_constant_vs_adopted(self):
        bare = vocabulary(sorts=[elem, other], relations=[p, q], functions=[])
        assert key(vocab=bare) != key()


class TestPrinterAmbiguitiesChangeTheKey:
    def test_one_argument_and_vs_its_argument(self):
        goal = BASE[1][1]
        wrapped = s.And((goal,))
        assert str(wrapped) == str(goal)  # the printer cannot tell
        assert key(replaced(1, formula=wrapped)) != key()

    def test_var_vs_same_named_constant(self):
        constant = s.Forall((X,), P(adopted("X", elem)))
        variable = s.Forall((X,), P(X))
        assert str(constant) == str(variable)  # the printer cannot tell
        assert key(replaced(0, formula=constant)) != key(
            replaced(0, formula=variable)
        )


class TestOptionsChangeTheKey:
    def test_eager_threshold(self):
        assert key(eager_threshold=10) != key()

    def test_exclusive_tracked(self):
        assert key(exclusive_tracked=True) != key()

    def test_canonical_models(self):
        assert key(canonical_models=True) != key()

    def test_enabled_set(self):
        assert key(enabled={"goal"}) != key()
        assert key(enabled={"goal"}) != key(enabled={"goal", "fresh"})
        assert key(enabled=["fresh", "goal"]) == key(enabled={"goal", "fresh"})


class TestStableKey:
    def test_spans_do_not_reach_the_key(self):
        tight = parse_formula("forall X:elem. p(X) -> q(X)", VOCAB)
        moved = parse_formula("\n\n   forall X:elem.\n  p(X)   ->   q(X)", VOCAB)
        assert tight == moved and tight.span != moved.span
        assert key(replaced(0, formula=tight)) == key(replaced(0, formula=moved))
        assert key(replaced(0, formula=tight)) == key()

    def test_same_key_under_any_hash_seed(self):
        script = (
            "from tests.solver.test_query_key import MANY_ADOPTED, key;"
            " print(key(MANY_ADOPTED)[0])"
        )
        digests = set()
        for seed in ("1", "2", "3"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                [str(REPO_ROOT / "src"), str(REPO_ROOT)]
            )
            out = subprocess.run(
                [sys.executable, "-c", script],
                cwd=REPO_ROOT, env=env, capture_output=True, text=True,
                check=True,
            )
            digests.add(out.stdout.strip())
        assert len(digests) == 1
