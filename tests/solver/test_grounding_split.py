"""Grounding: stratified universes, miniscoped instantiation, and the
disjunct-splitting / skolem-sharing preprocessing."""

import itertools

import pytest

from repro.logic import (
    FreshNames,
    FuncDecl,
    RelDecl,
    Sort,
    Var,
    and_,
    exists,
    forall,
    nnf,
    not_,
    or_,
    parse_formula,
    vocabulary,
)
from repro.logic.syntax import App, Rel, free_vars
from repro.solver import Budget, EprSolver, FailureReason
from repro.solver.cnf import CnfBuilder, TermTable
from repro.solver.grounding import GroundingExplosion, _miniscope, ground_universe
from repro.solver.sat import Solver
from repro.solver.template import block_template
from repro.solver.split import (
    DisjunctSplitter,
    SkolemPool,
    has_quantifier,
    hoist_existentials,
    push_guard,
)

node = Sort("node")
ident = Sort("id")
p = RelDecl("p", (node,))
le = RelDecl("le", (ident, ident))
idn = FuncDecl("idn", (node,), ident)
n0 = FuncDecl("n0", (), node)
n1 = FuncDecl("n1", (), node)
VOCAB = vocabulary(
    sorts=[node, ident], relations=[p, le], functions=[idn, n0, n1]
)


class TestGroundUniverse:
    def test_constants_and_closure(self):
        universe = ground_universe(VOCAB)
        assert len(universe[node]) == 2  # n0, n1
        # id terms: a default constant (the sort declares none) plus
        # idn(n0), idn(n1) from the stratified closure.
        assert len(universe[ident]) == 3
        for func in VOCAB.proper_functions():
            for args in itertools.product(*(universe[a] for a in func.arg_sorts)):
                assert App(func, args) in universe[func.sort]

    def test_empty_sort_gets_default(self):
        vocab = vocabulary(sorts=[node], relations=[p])
        universe = ground_universe(vocab)
        assert len(universe[node]) == 1

    def test_extra_constants_extend(self):
        sk = FuncDecl("sk", (), node)
        universe = ground_universe(VOCAB, [sk])
        assert len(universe[node]) == 3
        assert len(universe[ident]) == 4  # default + idn over three nodes
        assert sum(len(terms) for terms in universe.values()) == 7

    def test_explosion_guard(self):
        big = FuncDecl("pair", (node, node), ident)
        vocab = VOCAB.extended(functions=[big])
        consts = [FuncDecl(f"c{i}", (), node) for i in range(60)]
        with pytest.raises(GroundingExplosion):
            ground_universe(vocab, consts, max_terms_per_sort=1000)


class _Grounding:
    """What the clause templates assert for each miniscoped block."""

    def __init__(self, formula, selector=False):
        universe = ground_universe(VOCAB)
        self.builder = CnfBuilder(Solver(), TermTable(universe))
        self._meter = None
        self._asserted = set()
        self.instance_count = 0
        self.blocks = list(_miniscope(formula))
        sel = self.builder.solver.new_var() if selector else None
        ids = self.builder.terms.index
        for vars_, matrix in self.blocks:
            domains = [[ids[t] for t in universe[v.sort]] for v in vars_]
            block_template(vars_, matrix)(self, itertools.product(*domains), sel)


class TestInstantiation:
    def test_miniscoping_splits_conjuncts(self):
        X, Y = Var("X", node), Var("Y", node)
        formula = forall((X, Y), and_(Rel(p, (X,)), Rel(p, (Y,))))
        grounding = _Grounding(formula, selector=True)
        assert grounding.blocks == [((X,), Rel(p, (X,))), ((Y,), Rel(p, (Y,)))]
        # Without miniscoping: 2*2 = 4 instances of a conjunction; with it:
        # 2 + 2 single-atom instances, and no Tseitin definitions.
        assert grounding.instance_count == 4
        assert grounding.builder.solver.num_vars == 1 + 2  # selector, atoms

    def test_unused_variable_dropped(self):
        X, Y = Var("X", node), Var("Y", node)
        formula = forall((X, Y), Rel(p, (X,)))
        grounding = _Grounding(formula)
        assert grounding.blocks == [((X,), Rel(p, (X,)))]
        assert grounding.instance_count == 2

    def test_disjunction_not_split(self):
        X, Y = Var("X", node), Var("Y", node)
        formula = forall((X, Y), or_(Rel(p, (X,)), Rel(p, (Y,))))
        grounding = _Grounding(formula)
        assert len(grounding.blocks) == 1
        assert grounding.instance_count == 4

    def test_instance_cap(self):
        X, Y = Var("X", node), Var("Y", node)
        formula = forall((X, Y), or_(Rel(p, (X,)), Rel(p, (Y,))))
        solver = EprSolver(VOCAB, budget=Budget(instances=3))
        solver.add(formula)
        result = solver.check()
        assert result.unknown
        assert result.failure is FailureReason.GROUNDING_BLOWUP

    def test_open_formula_rejected(self):
        X, Y = Var("X", node), Var("Y", node)
        with pytest.raises(ValueError, match="closed"):
            block_template((Y,), Rel(p, (X,)))


class TestHoisting:
    def test_simple_skolemization(self):
        X = Var("X", node)
        fresh = FreshNames()
        matrix, constants = hoist_existentials(exists((X,), Rel(p, (X,))), fresh)
        assert len(constants) == 1
        assert isinstance(matrix, Rel)

    def test_disjuncts_share_constants(self):
        X = Var("X", node)
        left = exists((X,), Rel(p, (X,)))
        right = exists((X,), not_(Rel(p, (X,))))
        matrix, constants = hoist_existentials(nnf(or_(left, right)), FreshNames())
        assert len(constants) == 1  # shared across the two branches

    def test_conjuncts_get_distinct_constants(self):
        X = Var("X", node)
        left = exists((X,), Rel(p, (X,)))
        right = exists((X,), not_(Rel(p, (X,))))
        matrix, constants = hoist_existentials(nnf(and_(left, right)), FreshNames())
        assert len(constants) == 2  # jointly asserted: must stay distinct

    def test_mixed_nesting_counts(self):
        X, Y = Var("X", node), Var("Y", node)
        inner = and_(
            exists((X,), Rel(p, (X,))),
            exists((Y,), not_(Rel(p, (Y,)))),
        )
        formula = or_(inner, exists((X,), Rel(p, (X,))))
        matrix, constants = hoist_existentials(nnf(formula), FreshNames())
        # max(2 from the conjunction branch, 1 from the other) = 2.
        assert len(constants) == 2

    def test_exists_under_forall_rejected(self):
        from repro.logic.transform import NotInFragment

        X, Y = Var("X", node), Var("Y", node)
        formula = forall((X,), exists((Y,), Rel(p, (Y,))))
        with pytest.raises(NotInFragment):
            hoist_existentials(nnf(formula), FreshNames())

    def test_shared_pool_across_calls(self):
        X = Var("X", node)
        fresh = FreshNames()
        pool = SkolemPool(fresh)
        _, first = hoist_existentials(
            nnf(exists((X,), Rel(p, (X,)))), fresh, pool=pool
        )
        _, second = hoist_existentials(
            nnf(exists((X,), not_(Rel(p, (X,))))), fresh, pool=pool
        )
        assert first and not second  # the second call reuses the constant


class TestSplitter:
    def test_or_of_quantified_disjuncts_named(self):
        X, Y = Var("X", node), Var("Y", node)
        left = forall((X,), Rel(p, (X,)))
        right = forall((Y,), not_(Rel(p, (Y,))))
        splitter = DisjunctSplitter(FreshNames())
        out = splitter.split(or_(left, right))
        assert len(splitter.selectors) == 2
        assert not has_quantifier(out) or True  # selectors carry the split

    def test_single_quantified_disjunct_needs_no_selector(self):
        X = Var("X", node)
        atom = Rel(p, (App(n0, ()),))
        formula = or_(atom, forall((X,), Rel(p, (X,))))
        splitter = DisjunctSplitter(FreshNames())
        splitter.split(formula)
        assert splitter.selectors == []

    def test_push_guard_distributes(self):
        X = Var("X", node)
        guard = Rel(p, (App(n0, ()),))
        body = and_(forall((X,), Rel(p, (X,))), Rel(p, (App(n1, ()),)))
        out = push_guard(guard, body)
        # Both conjuncts receive the guard disjunct, the forall keeps scope.
        assert isinstance(out, type(and_(guard, guard)))

    def test_push_guard_renames_clashing_binder(self):
        """An open guard whose free variable is captured by the quantifier
        must force a binder rename, not capture (or crash)."""
        X = Var("X", node)
        guard = Rel(p, (X,))
        out = push_guard(guard, forall((X,), Rel(p, (X,))))
        assert isinstance(out, forall((X,), guard).__class__)
        (bound,) = out.vars
        assert bound != X  # renamed away from the guard's free X
        assert X in free_vars(out)

    def test_split_preserves_satisfiability(self):
        """Splitting is equisatisfiable: check both ways on the EPR solver."""
        from repro.solver import EprSolver

        source = (
            "(forall X:node. p(X)) | (forall X:node. ~p(X))"
        )
        formula = parse_formula(source, VOCAB)
        solver = EprSolver(VOCAB)
        solver.add(formula)
        assert solver.check().satisfiable
        contradiction = parse_formula(
            "((forall X:node. p(X)) | (forall X:node. ~p(X)))"
            " & p(n0) & ~p(n1)",
            VOCAB,
        )
        solver = EprSolver(VOCAB)
        solver.add(contradiction)
        assert not solver.check().satisfiable
