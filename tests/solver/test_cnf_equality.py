"""Tseitin conversion and the ground equality theory."""

import random
from collections import deque

import pytest

from repro.logic import (
    FALSE,
    TRUE,
    App,
    Eq,
    FuncDecl,
    Iff,
    Implies,
    Rel,
    RelDecl,
    Sort,
    and_,
    iff,
    implies,
    not_,
    or_,
    vocabulary,
)
from repro.solver.cnf import CnfBuilder, term_key
from repro.solver.equality import EqualityTheory
from repro.solver.sat import Solver

elem = Sort("elem")
p = RelDecl("p", (elem,))
a = FuncDecl("a", (), elem)
b = FuncDecl("b", (), elem)
c = FuncDecl("c", (), elem)
f = FuncDecl("f", (elem,), elem)
A, B, C = App(a, ()), App(b, ()), App(c, ())


def fresh_builder():
    return CnfBuilder(Solver())


class TestTermKey:
    def test_deterministic_and_distinct(self):
        assert term_key(A) == "a"
        assert term_key(App(f, (A,))) == "f(a)"
        assert term_key(App(f, (A,))) != term_key(App(f, (B,)))

    def test_non_ground_rejected(self):
        from repro.logic import Var

        with pytest.raises(ValueError):
            term_key(Var("X", elem))


class TestCnfBuilder:
    def test_eq_canonicalization(self):
        builder = fresh_builder()
        assert builder.eq_lit(A, B) == builder.eq_lit(B, A)
        assert builder.eq_lit(A, A) == builder.true_lit()

    def test_atom_vars_stable(self):
        builder = fresh_builder()
        atom = Rel(p, (A,))
        assert builder.atom_var(atom) == builder.atom_var(atom)

    def test_encode_caches_subformulas(self):
        builder = fresh_builder()
        formula = and_(Rel(p, (A,)), Rel(p, (B,)))
        first = builder.encode(formula)
        before = builder.solver.num_vars
        second = builder.encode(formula)
        assert first == second
        assert builder.solver.num_vars == before

    @pytest.mark.parametrize(
        "make",
        [
            lambda x, y: and_(x, y),
            lambda x, y: or_(x, y),
            lambda x, y: Implies(x, y),
            lambda x, y: Iff(x, y),
            lambda x, y: not_(and_(x, not_(y))),
        ],
    )
    def test_encoding_is_equisatisfiable(self, make):
        """Asserting the formula and solving agrees with truth tables."""
        import itertools

        atom_x, atom_y = Rel(p, (A,)), Rel(p, (B,))
        formula = make(atom_x, atom_y)
        # Brute force over the two atoms.
        def evaluate(vx, vy):
            env = {atom_x: vx, atom_y: vy}

            def go(g):
                if g == TRUE:
                    return True
                if g == FALSE:
                    return False
                if isinstance(g, Rel):
                    return env[g]
                if isinstance(g, type(not_(atom_x))) and hasattr(g, "arg"):
                    return not go(g.arg)
                if isinstance(g, type(and_(atom_x, atom_y))):
                    return all(go(h) for h in g.args)
                if isinstance(g, type(or_(atom_x, atom_y))) and hasattr(g, "args"):
                    return any(go(h) for h in g.args)
                if isinstance(g, Implies):
                    return (not go(g.lhs)) or go(g.rhs)
                if isinstance(g, Iff):
                    return go(g.lhs) == go(g.rhs)
                raise AssertionError(g)

            return go(formula)

        expected_sat = any(
            evaluate(vx, vy) for vx, vy in itertools.product([False, True], repeat=2)
        )
        builder = fresh_builder()
        builder.assert_formula(formula)
        assert builder.solver.solve().satisfiable == expected_sat

    def test_selector_guarding(self):
        builder = fresh_builder()
        selector = builder.solver.new_var()
        builder.assert_formula(Rel(p, (A,)), selector)
        builder.assert_formula(not_(Rel(p, (A,))), None)
        # Without the selector the contradiction is dormant.
        assert builder.solver.solve().satisfiable
        assert not builder.solver.solve([selector]).satisfiable


class TestEqualityTheory:
    def _setup(self, terms):
        vocab = vocabulary(sorts=[elem], relations=[p], functions=[a, b, c, f])
        builder = fresh_builder()
        universe = {elem: terms}
        theory = EqualityTheory(builder, vocab, universe)
        return vocab, builder, theory

    def test_transitivity_enforced_lazily(self):
        vocab, builder, theory = self._setup([A, B, C])
        solver = builder.solver
        solver.add_clause([builder.eq_lit(A, B)])
        solver.add_clause([builder.eq_lit(B, C)])
        solver.add_clause([-builder.eq_lit(A, C)])
        # The raw SAT level accepts; the theory refutes via path clauses.
        for _ in range(10):
            result = solver.solve()
            if not result.satisfiable:
                break
            reps = theory.classes(result.model)
            violations = theory.congruence_violations(result.model, reps)
            assert violations, "theory must object to a broken triangle"
            for clause in violations:
                solver.add_clause(clause)
        assert not solver.solve().satisfiable

    def test_classes_from_model(self):
        vocab, builder, theory = self._setup([A, B, C])
        solver = builder.solver
        solver.add_clause([builder.eq_lit(A, B)])
        solver.add_clause([-builder.eq_lit(A, C)])
        result = solver.solve()
        reps = theory.classes(result.model)
        assert reps[A] == reps[B]
        assert reps[A] != reps[C]

    def test_relation_congruence_violation_detected(self):
        vocab, builder, theory = self._setup([A, B])
        solver = builder.solver
        solver.add_clause([builder.eq_lit(A, B)])
        solver.add_clause([builder.atom_var(Rel(p, (A,)))])
        solver.add_clause([-builder.atom_var(Rel(p, (B,)))])
        result = solver.solve()
        assert result.satisfiable  # the raw SAT level allows it...
        reps = theory.classes(result.model)
        violations = theory.congruence_violations(result.model, reps)
        assert violations  # ...but the theory refutes it
        for clause in violations:
            solver.add_clause(clause)
        assert not solver.solve().satisfiable

    def test_function_congruence_violation_detected(self):
        terms = [A, B, App(f, (A,)), App(f, (B,))]
        vocab, builder, theory = self._setup(terms)
        solver = builder.solver
        solver.add_clause([builder.eq_lit(A, B)])
        solver.add_clause([-builder.eq_lit(App(f, (A,)), App(f, (B,)))])
        result = solver.solve()
        assert result.satisfiable
        reps = theory.classes(result.model)
        violations = theory.congruence_violations(result.model, reps)
        assert violations
        for clause in violations:
            solver.add_clause(clause)
        assert not solver.solve().satisfiable

    def test_large_universe_accepted(self):
        """Lazy equality has no eager per-sort closure, so wide universes
        (function-heavy BMC unrollings) construct cheaply."""
        many = [App(FuncDecl(f"t{i}", (), elem), ()) for i in range(200)]
        vocab, builder, theory = self._setup(many)
        result = builder.solver.solve()
        assert result.satisfiable
        reps = theory.classes(result.model)
        assert len(reps) == 200


def _early_exit_path(start, goal, adjacency):
    """A BFS from ``start`` that stops at ``goal``: one search per atom,
    as transitivity explanations were found before the per-round forest."""
    parents = {start: start}
    queue = deque([start])
    while queue:
        term = queue.popleft()
        if term == goal:
            break
        for neighbor in adjacency.get(term, ()):
            if neighbor not in parents:
                parents[neighbor] = term
                queue.append(neighbor)
    path = [goal]
    while path[-1] != start:
        path.append(parents[path[-1]])
    path.reverse()
    return path


class TestPathForest:
    @pytest.mark.parametrize("seed", range(25))
    def test_forest_paths_equal_early_exit_search(self, seed):
        rng = random.Random(seed)
        terms = [
            App(FuncDecl(f"t{index}", (), elem), ())
            for index in range(rng.randint(2, 14))
        ]
        adjacency = {}
        for _ in range(rng.randint(1, 3 * len(terms))):
            lhs, rhs = rng.sample(terms, 2)
            adjacency.setdefault(lhs, []).append(rhs)
            adjacency.setdefault(rhs, []).append(lhs)
        for start in terms:
            parents = EqualityTheory._parents(start, adjacency)
            for goal in parents:
                assert EqualityTheory._path(start, goal, parents) == (
                    _early_exit_path(start, goal, adjacency)
                )
