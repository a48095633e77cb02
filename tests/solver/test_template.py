"""Clause templates (:mod:`repro.solver.template`) against the AST path.

The reference, kept in :mod:`.ast_grounding`, substitutes each combination
into the matrix and Tseitin-encodes the instance AST with AST-keyed caches.
Grounding through the templates must give the same SAT variable count, the
same clauses in the same order, the same atoms in the same order and the
same instance count.
"""

import hashlib
import itertools

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.logic import App, Eq, FuncDecl, Rel, Var
from repro.logic import syntax as s
from repro.solver import epr, install_cache
from repro.solver.cnf import CnfBuilder, TermTable
from repro.solver.grounding import ground_universe
from repro.solver.template import block_template

from .ast_grounding import (
    AstCnfBuilder,
    RecordingSolver,
    assert_ast_instance,
    ast_grounding,
    substituting_template,
)
from .test_epr_properties import N1, N2, VOCAB, idn, le, leader, literals, node

SIX = (
    "lock_server", "leader_election", "db_chain",
    "distributed_lock", "learning_switch", "chord",
)


class _Prepared:
    """The parts of a PreparedEpr a template reads and writes."""

    def __init__(self, builder) -> None:
        self.builder = builder
        self._meter = None
        self._asserted = set()
        self.instance_count = 0


def _ground(builder_class, blocks, universe, selector):
    builder = builder_class(RecordingSolver(), TermTable(universe))
    prepared = _Prepared(builder)
    sel = builder.solver.new_var() if selector else None
    ids = builder.terms.index
    make = block_template if builder_class is CnfBuilder else substituting_template
    for vars_, matrix in blocks:
        domains = [[ids[t] for t in universe[v.sort]] for v in vars_]
        make(vars_, matrix)(prepared, itertools.product(*domains), sel)
    # A repeated block: duplicates are skipped, guarded ones re-asserted.
    vars_, matrix = blocks[0]
    domains = [[ids[t] for t in universe[v.sort]] for v in vars_]
    make(vars_, matrix)(prepared, itertools.product(*domains), sel)
    return (
        builder.solver.num_vars,
        builder.solver.log,
        list(builder.atoms.items()),
        prepared.instance_count,
    )


# Matrices over the literals of the EPR property tests: repeated subterms,
# equalities in both orientations, nested negation, empty And/Or.
def _extend(children):
    return st.one_of(
        children.map(s.Not),
        st.lists(children, max_size=3).map(lambda xs: s.And(tuple(xs))),
        st.lists(children, max_size=3).map(lambda xs: s.Or(tuple(xs))),
        children.map(lambda x: s.And((x, x))),
        children.map(lambda x: s.Or((x, s.Not(x)))),
        st.tuples(children, children).map(lambda xy: s.Implies(*xy)),
        st.tuples(children, children).map(lambda xy: s.Iff(*xy)),
    )


_IDS = [App(idn, (N1,)), App(idn, (N2,))]
_ATOMS = st.one_of(
    literals(),
    st.sampled_from(_IDS).map(lambda t: Eq(t, t)),
    st.sampled_from([Eq(N1, N2), Eq(N2, N1), Eq(_IDS[1], _IDS[0])]),
    st.sampled_from([Rel(le, (_IDS[0], _IDS[0])), Rel(leader, (N2,))]),
)
matrices = st.recursive(_ATOMS, _extend, max_leaves=8)


class TestRandomMatrices:
    @given(
        st.lists(matrices, min_size=1, max_size=3),
        st.booleans(),
        st.sampled_from([(N1, N2), (N2, N1)]),
    )
    @settings(
        max_examples=200,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_same_encoding_as_ast_path(self, formulas, selector, vars_):
        extra = [FuncDecl(f"k{i}", (), node) for i in range(2)]
        universe = ground_universe(VOCAB, extra)
        blocks = [(vars_, formula) for formula in formulas]
        expected = _ground(AstCnfBuilder, blocks, universe, selector)
        assert _ground(CnfBuilder, blocks, universe, selector) == expected

    def test_constant_terms_and_subformulas(self):
        k = App(FuncDecl("k0", (), node))
        universe = ground_universe(VOCAB, [k.func])
        matrix = s.Or((
            Rel(leader, (k,)),
            s.Not(Rel(le, (App(idn, (k,)), App(idn, (N1,))))),
            s.And((Eq(App(idn, (k,)), App(idn, (N2,))), Rel(leader, (k,)))),
        ))
        for selector in (False, True):
            blocks = [((N1, N2), matrix)]
            expected = _ground(AstCnfBuilder, blocks, universe, selector)
            assert _ground(CnfBuilder, blocks, universe, selector) == expected


class TestTemplateErrors:
    def test_quantified_matrix_rejected(self):
        with pytest.raises(ValueError, match="quantified"):
            block_template((N1,), s.Forall((N2,), Rel(leader, (N2,))))

    def test_free_variable_rejected(self):
        with pytest.raises(ValueError, match="closed"):
            block_template((N1,), Rel(leader, (N2,)))

    def test_templates_are_shared(self):
        matrix = Rel(leader, (N1,))
        assert block_template((N1,), matrix) is block_template(
            (Var("N1", node),), Rel(leader, (N1,))
        )


def _check_all(monkeypatch):
    """Every grounding of check_inductive on the six protocols."""
    from repro.core.induction import check_inductive
    from repro.protocols import ALL_PROTOCOLS

    groundings = []
    original = epr.EprSolver.prepare

    def prepare(self):
        prepared = original(self)
        digest = hashlib.sha256(repr(prepared.sat.log).encode()).hexdigest()
        groundings.append((
            prepared.sat.num_vars,
            digest,
            list(prepared.builder.atoms.items()),
            prepared.instance_count,
        ))
        return prepared

    verdicts = []
    with monkeypatch.context() as patch:
        patch.setattr(epr, "Solver", RecordingSolver)
        patch.setattr(epr.EprSolver, "prepare", prepare)
        for name in SIX:
            bundle = ALL_PROTOCOLS[name].build()
            result = check_inductive(bundle.program, list(bundle.invariant), jobs=1)
            verdicts.append((name, result.holds))
    return verdicts, groundings


def test_check_inductive_groundings_match_ast_path(monkeypatch):
    old_cache = install_cache(None)  # every obligation really grounds
    try:
        verdicts, groundings = _check_all(monkeypatch)
        with ast_grounding(monkeypatch):
            assert _check_all(monkeypatch) == (verdicts, groundings)
    finally:
        install_cache(old_cache)
    assert all(holds for _, holds in verdicts)
    assert len(groundings) >= 60
    assert sum(instances for *_, instances in groundings) > 10_000


def test_ast_instances_deduplicate_by_formula_id():
    universe = ground_universe(VOCAB, [FuncDecl(f"k{i}", (), node) for i in range(2)])
    builder = CnfBuilder(RecordingSolver(), TermTable(universe))
    prepared = epr.PreparedEpr(None, VOCAB, universe, builder.solver, builder, None)
    a, b = universe[node][0], universe[node][-1]
    counts = []
    for formula in (Eq(a, b), Eq(a, b), Eq(b, a)):  # Eq(b, a): another formula
        prepared.assert_instance(formula, None)
        counts.append(prepared.instance_count)
    assert counts == [1, 1, 2]
    reference = _Prepared(AstCnfBuilder(RecordingSolver()))
    for formula in (Eq(a, b), Eq(a, b), Eq(b, a)):
        assert_ast_instance(reference, formula, None)
    assert reference.builder.solver.log == builder.solver.log
