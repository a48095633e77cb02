"""Tseitin conversion of ground first-order formulas to CNF.

After grounding (see :mod:`repro.solver.grounding`) verification conditions
are boolean combinations of *ground atoms*: relation atoms over ground terms
and equalities between ground terms.  :class:`CnfBuilder` maps each atom to a
SAT variable, introduces Tseitin definition variables for composite
subformulas (with caching, so shared subtrees are encoded once), and installs
the clauses into a :class:`repro.solver.sat.Solver`.

Equality atoms are canonicalized (argument order normalized, ``t = t``
folded to true) so that each semantic equality has exactly one variable --
the equality theory in :mod:`repro.solver.equality` relies on this.
"""

from __future__ import annotations

from typing import Callable

from ..logic import syntax as s
from .sat import Solver

_TRUE_LIT_CLAUSES_INSTALLED = "_cnf_true_lit"


def term_key(term: s.Term) -> str:
    """A deterministic total order key on ground terms."""
    if isinstance(term, s.App):
        if not term.args:
            return term.func.name
        return f"{term.func.name}({','.join(term_key(a) for a in term.args)})"
    raise ValueError(f"not a ground term: {term!r}")


class CnfBuilder:
    """Encodes ground formulas into a SAT solver, one literal per formula."""

    def __init__(self, solver: Solver) -> None:
        self.solver = solver
        self._atom_vars: dict[s.Formula, int] = {}
        self._cache: dict[s.Formula, int] = {}
        self._eq_lits: dict[tuple[s.Term, s.Term], int] = {}
        self._true_lit: int | None = None

    # ---------------------------------------------------------------- atoms

    @property
    def atoms(self) -> dict[s.Formula, int]:
        """The canonical ground atoms and their SAT variables."""
        return self._atom_vars

    def true_lit(self) -> int:
        """A literal fixed to true (used for degenerate encodings)."""
        if self._true_lit is None:
            self._true_lit = self.solver.new_var()
            self.solver.add_clause([self._true_lit])
        return self._true_lit

    def atom_var(self, atom: s.Formula) -> int:
        """The SAT variable of a canonical ground atom (created on demand)."""
        var = self._atom_vars.get(atom)
        if var is None:
            var = self.solver.new_var()
            self._atom_vars[atom] = var
        return var

    def eq_lit(self, lhs: s.Term, rhs: s.Term) -> int:
        """The literal of the canonicalized equality ``lhs = rhs``."""
        # Memoized per argument pair: the equality theory asks for the same
        # equalities every refinement round.
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

    def rel_lit(self, rel: s.Rel) -> int:
        return self.atom_var(rel)

    # ------------------------------------------------------------- encoding

    def encode(self, formula: s.Formula) -> int:
        """Return a literal equivalid with the ground formula ``formula``.

        Definition clauses for composite subformulas are added to the solver
        as they are created; the returned literal is *not* asserted.
        """
        cached = self._cache.get(formula)
        if cached is not None:
            return cached
        lit = self._encode(formula)
        self._cache[formula] = lit
        return lit

    def _encode(self, formula: s.Formula) -> int:
        # TRUE and FALSE are the empty And/Or: ``_define_and([])`` maps them
        # to the true literal and its negation.
        if isinstance(formula, s.Rel):
            return self.rel_lit(formula)
        if isinstance(formula, s.Eq):
            return self.eq_lit(formula.lhs, formula.rhs)
        if isinstance(formula, s.Not):
            return -self.encode(formula.arg)
        if isinstance(formula, s.And):
            return self._define_and([self.encode(a) for a in formula.args])
        if isinstance(formula, s.Or):
            return -self._define_and([-self.encode(a) for a in formula.args])
        if isinstance(formula, s.Implies):
            return -self._define_and([self.encode(formula.lhs), -self.encode(formula.rhs)])
        if isinstance(formula, s.Iff):
            lhs = self.encode(formula.lhs)
            rhs = self.encode(formula.rhs)
            out = self.solver.new_var()
            self.solver.add_clauses(
                [[-out, -lhs, rhs], [-out, lhs, -rhs], [out, lhs, rhs], [out, -lhs, -rhs]]
            )
            return out
        if isinstance(formula, (s.Forall, s.Exists)):
            raise ValueError(f"cannot encode a quantified formula: {formula}")
        raise TypeError(f"not a formula: {formula!r}")

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

    # ------------------------------------------------------------ asserting

    def assert_formula(self, formula: s.Formula, selector: int | None = None) -> None:
        """Assert ``formula``; with ``selector`` the assertion is conditional
        on the selector literal (enabling assumption-based unsat cores)."""
        lit = self.encode(formula)
        if selector is None:
            self.solver.add_clause([lit])
        else:
            self.solver.add_clause([-selector, lit])

    def value_of(self, atom: s.Formula, model: dict[int, bool]) -> bool:
        """Read a canonical atom's value from a SAT model (default false)."""
        var = self._atom_vars.get(atom)
        if var is None:
            return False
        return model[var]
