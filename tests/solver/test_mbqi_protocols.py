"""Cross-validation: protocol obligations decided identically by the eager
and MBQI instantiation paths, and extracted CTIs really are CTIs."""

import pytest

from repro.core.induction import obligations
from repro.solver.epr import EprSolver


@pytest.mark.parametrize(
    "protocol", ["leader_election", "lock_server", "distributed_lock"]
)
class TestEagerVsLazyOnObligations:
    def test_same_verdicts(self, protocol):
        from repro.protocols import ALL_PROTOCOLS

        bundle = ALL_PROTOCOLS[protocol].build()
        # Mixed conjecture sets exercise both sat and unsat obligations.
        conjectures = list(bundle.invariant[:2])
        for obligation in obligations(bundle.program, conjectures):
            eager = EprSolver(bundle.program.vocab, eager_threshold=10**9)
            eager.add(obligation.vc, name="vc")
            lazy = EprSolver(bundle.program.vocab, eager_threshold=0)
            lazy.add(obligation.vc, name="vc")
            eager_result = eager.check()
            lazy_result = lazy.check()
            assert eager_result.satisfiable == lazy_result.satisfiable, (
                protocol,
                obligation.description,
            )

    def test_models_are_genuine_cti_states(self, protocol):
        """A sat obligation's model satisfies the axioms and premises."""
        from repro.protocols import ALL_PROTOCOLS

        bundle = ALL_PROTOCOLS[protocol].build()
        conjectures = list(bundle.safety)
        found = 0
        for obligation in obligations(bundle.program, conjectures):
            solver = EprSolver(bundle.program.vocab)
            solver.add(obligation.vc, name="vc")
            result = solver.check()
            if not result.satisfiable:
                continue
            found += 1
            model = result.model
            assert model.satisfies(bundle.program.axiom_formula)
            if obligation.kind == "consecution":
                for conjecture in conjectures:
                    assert model.satisfies(conjecture.formula)
        assert found >= 1  # safety alone is never inductive


class TestCompiledScan:
    """The compiled MBQI scan (:mod:`repro.solver.mbqi`) against the
    AST-walking evaluator it replaces: same falsified combinations in the
    same order, hence the same instances, counters and models."""

    @pytest.mark.parametrize("protocol", ["leader_election", "lock_server", "db_chain"])
    def test_same_solves_as_interpreter(self, protocol, monkeypatch):
        from repro.protocols import ALL_PROTOCOLS
        from repro.solver import epr

        bundle = ALL_PROTOCOLS[protocol].build()
        vcs = [o.vc for o in obligations(bundle.program, list(bundle.safety))]

        def run():
            outcomes = []
            for vc in vcs:
                solver = EprSolver(bundle.program.vocab, eager_threshold=0)
                solver.add(vc, name="vc")
                result = solver.check()
                counters = {
                    key: value
                    for key, value in result.statistics.items()
                    if not key.endswith("_ms")
                }
                outcomes.append((result.satisfiable, counters, str(result.model)))
            return outcomes

        from repro.solver import install_cache

        old_cache = install_cache(None)  # every check below really solves
        try:
            compiled = run()
            monkeypatch.setattr(epr, "compile_block", lambda vars_, matrix: None)
            assert run() == compiled
        finally:
            install_cache(old_cache)
        assert any(counters["lazy_instances"] for _, counters, _ in compiled)

    def test_random_matrices_match_interpreter(self):
        import itertools
        import random

        from repro.logic import App, Eq, FuncDecl, RelDecl, Sort, Var
        from repro.logic import syntax as s
        from repro.solver.mbqi import compile_block

        elem = Sort("elem")
        p = RelDecl("p", (elem,))
        r = RelDecl("r", (elem, elem))
        q = RelDecl("q", ())
        f = FuncDecl("f", (elem,), elem)
        g = FuncDecl("g", (elem, elem), elem)
        consts = [App(FuncDecl(f"k{i}", (), elem)) for i in range(4)]
        x, y = Var("X", elem), Var("Y", elem)
        rng = random.Random(7)

        def term(depth):
            choice = rng.randrange(5 if depth < 2 else 2)
            if choice == 0:
                return rng.choice([x, y])
            if choice == 1:
                return rng.choice(consts)
            if choice in (2, 3):
                return App(f, (term(depth + 1),))
            return App(g, (term(depth + 1), term(depth + 1)))

        def formula(depth):
            choice = rng.randrange(4 if depth > 2 else 9)
            if choice == 0:
                return s.Rel(p, (term(depth),))
            if choice == 1:
                return s.Rel(r, (term(depth), term(depth)))
            if choice == 2:
                return Eq(term(depth), term(depth))
            if choice == 3:
                return s.Rel(q, ())
            if choice == 4:
                return s.Not(formula(depth + 1))
            if choice == 5:
                return s.And(tuple(formula(depth + 1) for _ in range(rng.randrange(3))))
            if choice == 6:
                return s.Or(tuple(formula(depth + 1) for _ in range(rng.randrange(3))))
            if choice == 7:
                return s.Implies(formula(depth + 1), formula(depth + 1))
            return s.Iff(formula(depth + 1), formula(depth + 1))

        # A quotient over consts and every f/g application on them: three
        # classes, each term mapped to a representative constant.
        universe = list(consts)
        universe += [App(f, (c,)) for c in consts]
        universe += [App(g, pair) for pair in itertools.product(consts, consts)]
        solver = EprSolver(vocabulary_of(elem, [p, r, q], [f, g]))
        checked = 0
        for _ in range(200):
            reps = {t: consts[rng.randrange(3)] for t in universe}
            for c in consts[:3]:
                reps[c] = c
            domain = consts[:3]
            true_canon = {(p, (c,)) for c in domain if rng.random() < 0.5}
            true_canon |= {
                (r, pair)
                for pair in itertools.product(domain, domain)
                if rng.random() < 0.5
            }
            if rng.random() < 0.5:
                true_canon.add((q, ()))
            matrix = formula(0)
            compiled = compile_block((x, y), matrix)
            assert compiled is not None
            expected = [
                combo
                for combo in itertools.product(domain, domain)
                if not solver._eval_in_env(
                    matrix, dict(zip((x, y), combo)), true_canon, reps
                )
            ]
            ids = {c: i for i, c in enumerate(domain)}
            tables = {f: {}, g: {}}
            for t, rep in reps.items():
                if t.args and all(a in ids for a in t.args):
                    key = tuple(ids[a] for a in t.args)
                    tables[t.func][key[0] if len(key) == 1 else key] = ids[rep]
            rels = {p: set(), r: set(), q: set()}
            for rel, args in true_canon:
                key = tuple(ids[a] for a in args)
                rels[rel].add(key[0] if len(key) == 1 else key)
            counter = [0]
            found = compiled.scan(
                [list(range(3)), list(range(3))],
                [rels[rel] for rel in compiled.rels],
                [tables[func] for func in compiled.funcs],
                [ids[reps[c]] for c in compiled.consts],
                None,
                counter,
            )
            assert [tuple(domain[i] for i in combo) for combo in found] == expected
            assert counter[0] == 9
            checked += bool(expected)
        assert checked > 20  # the random matrices are not all valid

    def test_uncompilable_matrices_fall_back(self):
        from repro.logic import RelDecl, Sort, Var
        from repro.logic import syntax as s
        from repro.solver.mbqi import MAX_DEPTH, compile_block

        elem = Sort("elem")
        p = RelDecl("p", (elem,))
        x, y = Var("X", elem), Var("Y", elem)
        assert compile_block((x,), s.Rel(p, (y,))) is None  # free variable
        deep = s.Rel(p, (x,))
        for _ in range(MAX_DEPTH + 1):
            deep = s.Not(deep)
        assert compile_block((x,), deep) is None
        assert compile_block((x,), s.Forall((y,), s.Rel(p, (y,)))) is None


class TestLazyTemplates:
    """Falsified lazy instances asserted through the clause templates
    against the AST path (``substitute`` plus an AST-keyed encoder): the
    same clauses in the same order, hence the same solves."""

    @pytest.mark.parametrize("protocol", ["leader_election", "lock_server", "db_chain"])
    @pytest.mark.parametrize("compiled_scan", [True, False])
    def test_same_solves_as_ast_path(self, protocol, compiled_scan, monkeypatch):
        import hashlib

        from repro.protocols import ALL_PROTOCOLS
        from repro.solver import epr, install_cache

        from .ast_grounding import RecordingSolver, ast_grounding

        bundle = ALL_PROTOCOLS[protocol].build()
        vcs = [o.vc for o in obligations(bundle.program, list(bundle.safety))]

        def run():
            outcomes = []
            for vc in vcs:
                solver = EprSolver(bundle.program.vocab, eager_threshold=0)
                solver.add(vc, name="vc")
                prepared = solver.prepare()
                result = prepared.solve()
                counters = {
                    key: value
                    for key, value in result.statistics.items()
                    if not key.endswith("_ms")
                }
                log = hashlib.sha256(repr(prepared.sat.log).encode()).hexdigest()
                atoms = list(prepared.builder.atoms.items())
                outcomes.append(
                    (result.satisfiable, counters, str(result.model), log, atoms)
                )
            return outcomes

        old_cache = install_cache(None)  # every check below really solves
        try:
            monkeypatch.setattr(epr, "Solver", RecordingSolver)
            if not compiled_scan:
                monkeypatch.setattr(epr, "compile_block", lambda vars_, matrix: None)
            templates = run()
            with ast_grounding(monkeypatch):
                assert run() == templates
        finally:
            install_cache(old_cache)
        assert any(counters["lazy_instances"] for _, counters, *_ in templates)


def vocabulary_of(sort, relations, functions):
    from repro.logic import vocabulary

    return vocabulary(sorts=[sort], relations=relations, functions=functions)
