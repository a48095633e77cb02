"""The AST grounding path, kept as the reference the clause templates match.

Instances are built with ``substitute`` over the block's combinations and
Tseitin-encoded by :class:`AstCnfBuilder`, a CnfBuilder whose caches are
keyed on the formula ASTs themselves.  :func:`ast_grounding` installs the
whole path into :mod:`repro.solver.epr`; :class:`RecordingSolver` logs the
clauses either path adds, in order.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.logic import syntax as s
from repro.logic.subst import substitute
from repro.solver import epr
from repro.solver.cnf import TermTable, term_key
from repro.solver.sat import Solver


class RecordingSolver(Solver):
    """A SAT solver that logs every clause it is given."""

    def __init__(self) -> None:
        super().__init__()
        self.log: list[list[int]] = []

    def add_clause(self, lits) -> None:
        lits = list(lits)
        self.log.append(lits)
        super().add_clause(lits)


class AstCnfBuilder:
    """Top-down Tseitin encoding with one cache entry per formula AST.

    ``terms`` numbers terms for the equality theory and the MBQI scan;
    the encoding never reads it.
    """

    def __init__(self, solver: Solver, terms: TermTable | None = None) -> None:
        self.solver = solver
        self.terms = terms if terms is not None else TermTable()
        self.atoms: dict[s.Formula, int] = {}
        self._cache: dict[s.Formula, int] = {}
        self._eq_lits: dict[tuple[s.Term, s.Term], int] = {}
        self._true_lit: int | None = None

    def true_lit(self) -> int:
        if self._true_lit is None:
            self._true_lit = self.solver.new_var()
            self.solver.add_clause([self._true_lit])
        return self._true_lit

    def atom_var(self, atom: s.Formula) -> int:
        var = self.atoms.get(atom)
        if var is None:
            var = self.atoms[atom] = self.solver.new_var()
        return var

    def eq_lit(self, lhs: s.Term, rhs: s.Term) -> int:
        pair = (lhs, rhs)
        lit = self._eq_lits.get(pair)
        if lit is None:
            if lhs == rhs:
                lit = self.true_lit()
            else:
                if term_key(rhs) < term_key(lhs):
                    lhs, rhs = rhs, lhs
                lit = self.atom_var(s.Eq(lhs, rhs))
            self._eq_lits[pair] = lit
        return lit

    def encode(self, formula: s.Formula) -> int:
        lit = self._cache.get(formula)
        if lit is None:
            lit = self._cache[formula] = self._encode(formula)
        return lit

    def _encode(self, formula: s.Formula) -> int:
        if isinstance(formula, s.Rel):
            return self.atom_var(formula)
        if isinstance(formula, s.Eq):
            return self.eq_lit(formula.lhs, formula.rhs)
        if isinstance(formula, s.Not):
            return -self.encode(formula.arg)
        if isinstance(formula, s.And):
            return self._define_and([self.encode(a) for a in formula.args])
        if isinstance(formula, s.Or):
            return -self._define_and([-self.encode(a) for a in formula.args])
        if isinstance(formula, s.Implies):
            return -self._define_and(
                [self.encode(formula.lhs), -self.encode(formula.rhs)]
            )
        if isinstance(formula, s.Iff):
            lhs = self.encode(formula.lhs)
            rhs = self.encode(formula.rhs)
            out = self.solver.new_var()
            self.solver.add_clauses(
                [[-out, -lhs, rhs], [-out, lhs, -rhs], [out, lhs, rhs], [out, -lhs, -rhs]]
            )
            return out
        raise ValueError(f"cannot encode {formula}")

    def _define_and(self, lits: list[int]) -> int:
        if not lits:
            return self.true_lit()
        if len(lits) == 1:
            return lits[0]
        out = self.solver.new_var()
        for lit in lits:
            self.solver.add_clause([-out, lit])
        self.solver.add_clause([out] + [-lit for lit in lits])
        return out


def assert_ast_instance(prepared, instance: s.Formula, selector: int | None) -> bool:
    """Assert one instance AST: charge, deduplicate by AST, encode."""
    if prepared._meter is not None:
        prepared._meter.charge_instances()
    if selector is None:
        if instance in prepared._asserted:
            return False
        prepared._asserted.add(instance)
    lit = prepared.builder.encode(instance)
    prepared.builder.solver.add_clause([lit] if selector is None else [-selector, lit])
    prepared.instance_count += 1
    return True


def substituting_template(vars_, matrix):
    """A template's contract, met by ``substitute`` over each combination."""

    def ground(prepared, combos, selector) -> int:
        terms = prepared.builder.terms.terms
        added = 0
        for combo in combos:
            instance = substitute(matrix, dict(zip(vars_, (terms[i] for i in combo))))
            added += assert_ast_instance(prepared, instance, selector)
        return added

    return ground


@contextmanager
def ast_grounding(monkeypatch):
    """Route every solver built inside the block through the AST path."""
    with monkeypatch.context() as patch:
        patch.setattr(epr, "CnfBuilder", AstCnfBuilder)
        patch.setattr(epr, "block_template", substituting_template)
        patch.setattr(epr.PreparedEpr, "assert_instance", assert_ast_instance)
        yield
