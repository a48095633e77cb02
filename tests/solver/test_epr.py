"""The EPR decision procedure: decidability, models, cores, MBQI, equality."""

import pytest

from repro.logic import (
    FuncDecl,
    RelDecl,
    Sort,
    parse_formula,
    vocabulary,
)
from repro.solver import EprSolver, solve_epr

node = Sort("node")
ident = Sort("id")


@pytest.fixture(scope="module")
def vocab(request):
    return vocabulary(
        sorts=[node, ident],
        relations=[
            RelDecl("le", (ident, ident)),
            RelDecl("btw", (node, node, node)),
            RelDecl("leader", (node,)),
            RelDecl("pnd", (ident, node)),
        ],
        functions=[FuncDecl("idn", (node,), ident)],
    )


def fml(source, vocab, **kw):
    return parse_formula(source, vocab, **kw)


TOTAL_ORDER = (
    "(forall X:id. le(X, X))"
    " & (forall X, Y, Z:id. le(X, Y) & le(Y, Z) -> le(X, Z))"
    " & (forall X, Y:id. le(X, Y) & le(Y, X) -> X = Y)"
    " & (forall X, Y:id. le(X, Y) | le(Y, X))"
)

RING = (
    "(forall X, Y, Z. btw(X, Y, Z) -> btw(Y, Z, X))"
    " & (forall W, X, Y, Z. btw(W, X, Y) & btw(W, Y, Z) -> btw(W, X, Z))"
    " & (forall W, X, Y. btw(W, X, Y) -> ~btw(W, Y, X))"
    " & (forall W:node, X:node, Y:node. W ~= X & X ~= Y & W ~= Y ->"
    "    btw(W, X, Y) | btw(W, Y, X))"
)


class TestSatAndModels:
    def test_trivial_sat(self, vocab):
        result = solve_epr(vocab, [fml("exists N:node. leader(N)", vocab)])
        assert result.satisfiable
        assert result.model.satisfies(fml("exists N:node. leader(N)", vocab))

    def test_model_satisfies_all_constraints(self, vocab):
        formulas = [
            fml(TOTAL_ORDER, vocab),
            fml("forall N1, N2. N1 ~= N2 -> idn(N1) ~= idn(N2)", vocab),
            fml("exists M, N. M ~= N & leader(M) & ~leader(N)", vocab),
        ]
        result = solve_epr(vocab, formulas)
        assert result.satisfiable
        for formula in formulas:
            assert result.model.satisfies(formula)

    def test_unsat_injectivity(self, vocab):
        result = solve_epr(
            vocab,
            [
                fml("forall N1, N2. N1 ~= N2 -> idn(N1) ~= idn(N2)", vocab),
                fml("exists M, N. M ~= N & idn(M) = idn(N)", vocab),
            ],
        )
        assert not result.satisfiable

    def test_total_order_antisymmetry_unsat(self, vocab):
        result = solve_epr(
            vocab,
            [
                fml(TOTAL_ORDER, vocab),
                fml("exists X:id, Y:id. X ~= Y & le(X, Y) & le(Y, X)", vocab),
            ],
        )
        assert not result.satisfiable

    def test_finite_model_property_small_model(self, vocab):
        """Two existential node witnesses -> at most a handful of elements."""
        result = solve_epr(vocab, [fml("exists M:node, N:node. M ~= N", vocab)])
        assert result.satisfiable
        assert 2 <= result.model.sort_size(node) <= 3

    def test_skolems_can_merge(self, vocab):
        result = solve_epr(
            vocab,
            [
                fml("forall M, N:node. M = N", vocab),
                fml("exists M, N:node. leader(M) & leader(N)", vocab),
            ],
        )
        assert result.satisfiable
        assert result.model.sort_size(node) == 1

    def test_ring_axioms_consistent_with_three_nodes(self, vocab):
        result = solve_epr(
            vocab,
            [
                fml(RING, vocab),
                fml("exists X, Y, Z:node. X~=Y & Y~=Z & X~=Z & btw(X,Y,Z)", vocab),
            ],
        )
        assert result.satisfiable
        assert result.model.satisfies(fml(RING, vocab))
        assert result.model.sort_size(node) >= 3

    def test_ring_antisymmetry_unsat(self, vocab):
        result = solve_epr(
            vocab,
            [
                fml(RING, vocab),
                fml("exists X, Y, Z:node. btw(X, Y, Z) & btw(X, Z, Y)", vocab),
            ],
        )
        assert not result.satisfiable

    def test_function_congruence(self, vocab):
        """Equal arguments force equal function values (lazy congruence)."""
        result = solve_epr(
            vocab,
            [
                fml("exists M, N. M = N & idn(M) ~= idn(N)", vocab),
            ],
        )
        assert not result.satisfiable

    def test_relation_congruence(self, vocab):
        result = solve_epr(
            vocab,
            [fml("exists M, N. M = N & leader(M) & ~leader(N)", vocab)],
        )
        assert not result.satisfiable

    def test_term_to_elem_mapping(self, vocab):
        solver = EprSolver(vocab)
        solver.add(fml("exists M, N. M ~= N & leader(M) & ~leader(N)", vocab))
        result = solver.check()
        assert result.satisfiable
        assert result.term_to_elem
        leaders = result.model.rels[vocab.relation("leader")]
        assert len(leaders) >= 1


class TestUnsatCores:
    def test_core_excludes_irrelevant(self, vocab):
        solver = EprSolver(vocab)
        solver.add(fml(TOTAL_ORDER, vocab), name="order")
        solver.add(
            fml("exists X:id, Y:id. ~le(X, Y) & ~le(Y, X)", vocab),
            name="bad",
            track=True,
        )
        solver.add(
            fml("exists N:node. leader(N)", vocab), name="irrelevant", track=True
        )
        result = solver.check()
        assert not result.satisfiable
        assert "bad" in result.core
        assert "irrelevant" not in result.core

    def test_core_with_multiple_needed(self, vocab):
        solver = EprSolver(vocab)
        solver.add(fml("forall N:node. leader(N)", vocab), name="all", track=True)
        solver.add(
            fml("exists N:node. ~leader(N)", vocab), name="some_not", track=True
        )
        result = solver.check()
        assert not result.satisfiable
        assert result.core == {"all", "some_not"}

    def test_untracked_unsat_gives_empty_core(self, vocab):
        solver = EprSolver(vocab)
        solver.add(fml("forall N:node. leader(N)", vocab))
        solver.add(fml("exists N:node. ~leader(N)", vocab))
        result = solver.check()
        assert not result.satisfiable
        assert result.core == frozenset()

    def test_duplicate_names_rejected(self, vocab):
        solver = EprSolver(vocab)
        solver.add(fml("exists N:node. leader(N)", vocab), name="a")
        with pytest.raises(ValueError):
            solver.add(fml("exists N:node. leader(N)", vocab), name="a")


class TestMbqi:
    def test_low_threshold_forces_lazy_path(self, vocab):
        """Same answers with eager_threshold=0 (everything lazy)."""
        formulas = [
            fml(TOTAL_ORDER, vocab),
            fml(RING, vocab),
            fml("forall N1, N2. N1 ~= N2 -> idn(N1) ~= idn(N2)", vocab),
            fml("exists M, N. M ~= N & pnd(idn(M), N)", vocab),
        ]
        eager = EprSolver(vocab)
        lazy = EprSolver(vocab, eager_threshold=0)
        for formula in formulas:
            eager.add(formula)
            lazy.add(formula)
        eager_result = eager.check()
        lazy_result = lazy.check()
        assert eager_result.satisfiable == lazy_result.satisfiable is True
        for formula in formulas:
            assert lazy_result.model.satisfies(formula)
        assert lazy_result.statistics["lazy_instances"] >= 0

    def test_lazy_unsat_matches_eager(self, vocab):
        formulas = [
            fml(TOTAL_ORDER, vocab),
            fml("exists X:id, Y:id. X ~= Y & le(X, Y) & le(Y, X)", vocab),
        ]
        lazy = EprSolver(vocab, eager_threshold=0)
        for formula in formulas:
            lazy.add(formula)
        assert not lazy.check().satisfiable


class TestAdoptedSymbols:
    def test_foreign_constants_join_universe(self, vocab):
        """Constants minted by callers (diagram witnesses) are adopted."""
        from repro.logic import App, and_, not_, Rel

        e1 = FuncDecl("diag_n1", (), node)
        e2 = FuncDecl("diag_n2", (), node)
        leader = vocab.relation("leader")
        formula = and_(
            Rel(leader, (App(e1, ()),)),
            not_(Rel(leader, (App(e2, ()),))),
        )
        result = solve_epr(vocab, [formula])
        assert result.satisfiable
        assert result.model.sort_size(node) >= 2

    def test_conflicting_symbol_names_rejected(self, vocab):
        from repro.logic import App, Rel

        fake_leader = RelDecl("leader", (ident,))  # wrong sort, same name
        x = FuncDecl("x", (), ident)
        solver = EprSolver(vocab)
        solver.add(Rel(fake_leader, (App(x, ()),)))
        with pytest.raises(ValueError, match="conflicts"):
            solver.check()


class TestEmptySortHandling:
    def test_unconstrained_sort_gets_default_element(self, vocab):
        result = solve_epr(vocab, [fml("exists X:id. le(X, X)", vocab)])
        assert result.satisfiable
        assert result.model.sort_size(node) >= 1  # non-empty domains


class TestCollectorPause:
    """Grounding and solving run with the cyclic collector paused."""

    def test_collector_paused_inside_and_restored_after(self, vocab, monkeypatch):
        import gc

        from repro.solver import install_cache
        from repro.solver.epr import PreparedEpr

        seen = []
        original = PreparedEpr._solve

        def spy(self, *args, **kwargs):
            seen.append(gc.isenabled())
            return original(self, *args, **kwargs)

        monkeypatch.setattr(PreparedEpr, "_solve", spy)
        # An earlier test may have cached this query, and a hit solves
        # nothing: run with the cache off so the solve being spied on runs.
        old_cache = install_cache(None)
        try:
            assert gc.isenabled()
            result = solve_epr(vocab, [fml("exists N:node. leader(N)", vocab)])
        finally:
            install_cache(old_cache)
        assert result.satisfiable
        assert seen == [False]
        assert gc.isenabled()

    def test_disabled_collector_stays_disabled(self, vocab):
        import gc

        gc.disable()
        try:
            result = solve_epr(vocab, [fml(TOTAL_ORDER, vocab)])
            assert result.satisfiable
            assert not gc.isenabled()
        finally:
            gc.enable()
