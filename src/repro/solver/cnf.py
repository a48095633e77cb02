"""Tseitin conversion of ground first-order formulas to CNF.

After grounding (see :mod:`repro.solver.grounding`) verification conditions
are boolean combinations of *ground atoms*: relation atoms over ground terms
and equalities between ground terms.  :class:`CnfBuilder` maps each atom to a
SAT variable, introduces Tseitin definition variables for composite
subformulas (with caching, so shared subtrees are encoded once), and installs
the clauses into a :class:`repro.solver.sat.Solver`.

Ground terms and formulas are *interned* as small integers instead of being
kept as ASTs:

* :class:`TermTable` numbers ground terms -- the universe first, in universe
  order -- and maps ``(function, argument ids)`` to the application's id;
* each ground formula gets a formula id from its ``(kind, child ids)`` key,
  so two formulas get the same id exactly when their ASTs are equal, and
  :attr:`CnfBuilder.lits` holds each formula id's literal.

The formula tables *are* the Tseitin cache: a formula is encoded when its
id is created, after its children's, so the clause and variable sequence is
that of a top-down encoder that caches every subformula.  The clause
templates of :mod:`repro.solver.template` ground universal blocks straight
into these tables; AST inputs go through :meth:`CnfBuilder.intern`.  An
atom's AST is built once, when the atom gets its SAT variable, and kept in
:attr:`CnfBuilder.atoms` for the equality theory and model extraction.

Equality atoms are canonicalized (argument order normalized, ``t = t``
folded to true) so that each semantic equality has exactly one variable --
the equality theory in :mod:`repro.solver.equality` relies on this.
"""

from __future__ import annotations

from typing import Mapping

from ..logic import syntax as s
from ..logic.sorts import FuncDecl, RelDecl, Sort
from .sat import Solver


def term_key(term: s.Term) -> str:
    """A deterministic total order key on ground terms."""
    if isinstance(term, s.App):
        if not term.args:
            return term.func.name
        return f"{term.func.name}({','.join(term_key(a) for a in term.args)})"
    raise ValueError(f"not a ground term: {term!r}")


class TermTable:
    """Ground terms numbered ``0, 1, ...``: the universe first, in order.

    ``terms[id]`` is the term's AST, ``index`` the inverse map, and
    ``keys[id]`` its :func:`term_key` (the order equality atoms are
    oriented by).  ``apps[f]`` maps the argument id (unary ``f``) or id
    tuple of each numbered application of ``f`` to its id; the universe is
    closed under its functions, so every application a clause template
    builds over universe terms is in it.
    """

    def __init__(self, universe: Mapping[Sort, list[s.Term]] | None = None) -> None:
        self.terms: list[s.Term] = []
        self.index: dict[s.Term, int] = {}
        self.keys: list[str] = []
        self.apps: dict[FuncDecl, dict] = {}
        if universe:
            self.add_universe(universe)

    def add_universe(self, universe: Mapping[Sort, list[s.Term]]) -> None:
        """Number the universe's terms not numbered yet, in universe order."""
        for terms in universe.values():
            for term in terms:
                self.id_of(term)

    def id_of(self, term: s.Term) -> int:
        """The id of a ground term, numbering it (and its arguments) if new."""
        tid = self.index.get(term)
        if tid is not None:
            return tid
        if not isinstance(term, s.App):
            raise ValueError(f"not a ground term: {term!r}")
        ids = tuple(self.id_of(arg) for arg in term.args)
        tid = len(self.terms)
        self.terms.append(term)
        self.index[term] = tid
        keys, name = self.keys, term.func.name
        keys.append(f"{name}({','.join([keys[i] for i in ids])})" if ids else name)
        if ids:
            table = self.apps.setdefault(term.func, {})
            table[ids[0] if len(ids) == 1 else ids] = tid
        return tid


class CnfBuilder:
    """Encodes ground formulas into a SAT solver, one literal per formula.

    The formula tables map a formula's key to its id: per relation,
    argument id (unary), id tuple or ``()`` (nullary); ``eqs`` the
    ``(lhs, rhs)`` id pair; ``nots`` the argument's formula id; ``ands``
    and ``ors`` the tuple of argument formula ids; ``implies`` and
    ``iffs`` the ``(lhs, rhs)`` formula id pair.  The ``intern_*`` methods
    return a key's id, creating (encoding) the formula when the key is
    new.
    """

    def __init__(self, solver: Solver, terms: TermTable | None = None) -> None:
        self.solver = solver
        self.terms = terms if terms is not None else TermTable()
        self._atom_vars: dict[s.Formula, int] = {}
        #: formula id -> its literal; ids start at 1, so every id is truthy
        self.lits: list[int] = [0]
        self._rels: dict[RelDecl, dict] = {}
        self.eqs: dict[tuple[int, int], int] = {}
        self.nots: dict[int, int] = {}
        self.ands: dict[tuple[int, ...], int] = {}
        self.ors: dict[tuple[int, ...], int] = {}
        self.implies: dict[tuple[int, int], int] = {}
        self.iffs: dict[tuple[int, int], int] = {}
        #: oriented ``(lhs, rhs)`` term ids -> the equality atom's variable
        self._eq_vars: dict[tuple[int, int], int] = {}
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
        return self.lits[self.intern(atom)]

    def eq_lit(self, lhs: s.Term, rhs: s.Term) -> int:
        """The literal of the canonicalized equality ``lhs = rhs``."""
        ids = self.terms.id_of
        return self.lits[self.intern_eq((ids(lhs), ids(rhs)))]

    def rel_table(self, rel: RelDecl) -> dict:
        """The formula table of one relation's atoms (see the class doc)."""
        table = self._rels.get(rel)
        if table is None:
            table = self._rels[rel] = {}
        return table

    def _add(self, lit: int) -> int:
        fid = len(self.lits)
        self.lits.append(lit)
        return fid

    # ------------------------------------------------- formula construction

    def intern_rel(self, rel: RelDecl, table: dict, key) -> int:
        fid = table.get(key)
        if fid is None:
            var = self.solver.new_var()
            if type(key) is int:
                args = (self.terms.terms[key],)
            else:
                terms = self.terms.terms
                args = tuple([terms[i] for i in key])
            self._atom_vars[s.Rel(rel, args)] = var
            fid = table[key] = self._add(var)
        return fid

    def intern_eq(self, key: tuple[int, int]) -> int:
        fid = self.eqs.get(key)
        if fid is None:
            lhs, rhs = key
            if lhs == rhs:
                lit = self.true_lit()
            else:
                keys = self.terms.keys
                if keys[rhs] < keys[lhs]:
                    lhs, rhs = rhs, lhs
                lit = self._eq_vars.get((lhs, rhs))
                if lit is None:
                    lit = self._eq_vars[lhs, rhs] = self.solver.new_var()
                    terms = self.terms.terms
                    self._atom_vars[s.Eq(terms[lhs], terms[rhs])] = lit
            fid = self.eqs[key] = self._add(lit)
        return fid

    def intern_not(self, arg: int) -> int:
        fid = self.nots.get(arg)
        if fid is None:
            fid = self.nots[arg] = self._add(-self.lits[arg])
        return fid

    def intern_and(self, key: tuple[int, ...]) -> int:
        fid = self.ands.get(key)
        if fid is None:
            lits = self.lits
            fid = self.ands[key] = self._add(self._define_and([lits[a] for a in key]))
        return fid

    def intern_or(self, key: tuple[int, ...]) -> int:
        fid = self.ors.get(key)
        if fid is None:
            lits = self.lits
            lit = -self._define_and([-lits[a] for a in key])
            fid = self.ors[key] = self._add(lit)
        return fid

    def intern_implies(self, key: tuple[int, int]) -> int:
        fid = self.implies.get(key)
        if fid is None:
            lits = self.lits
            lit = -self._define_and([lits[key[0]], -lits[key[1]]])
            fid = self.implies[key] = self._add(lit)
        return fid

    def intern_iff(self, key: tuple[int, int]) -> int:
        fid = self.iffs.get(key)
        if fid is None:
            lhs, rhs = self.lits[key[0]], self.lits[key[1]]
            out = self.solver.new_var()
            self.solver.add_clauses(
                [[-out, -lhs, rhs], [-out, lhs, -rhs], [out, lhs, rhs], [out, -lhs, -rhs]]
            )
            fid = self.iffs[key] = self._add(out)
        return fid

    def _define_and(self, lits: list[int]) -> int:
        # TRUE and FALSE are the empty And/Or: they encode to the true
        # literal and its negation.
        if not lits:
            return self.true_lit()
        if len(lits) == 1:
            return lits[0]
        out = self.solver.new_var()
        for lit in lits:
            self.solver.add_clause([-out, lit])
        self.solver.add_clause([out] + [-lit for lit in lits])
        return out

    # ------------------------------------------------------------- encoding

    def intern(self, formula: s.Formula) -> int:
        """The formula id of a ground formula AST, encoding it if new.

        Children are interned before their parent, left to right: a
        formula that already has an id was encoded together with all its
        subformulas, so visiting them again has no effect, and a new one
        is encoded in the order a top-down caching encoder would use.
        """
        kind = type(formula)
        if kind is s.Rel:
            ids = [self.terms.id_of(arg) for arg in formula.args]
            key = ids[0] if len(ids) == 1 else tuple(ids)
            return self.intern_rel(formula.rel, self.rel_table(formula.rel), key)
        if kind is s.Eq:
            ids = self.terms.id_of
            return self.intern_eq((ids(formula.lhs), ids(formula.rhs)))
        if kind is s.Not:
            return self.intern_not(self.intern(formula.arg))
        if kind is s.And:
            return self.intern_and(tuple([self.intern(a) for a in formula.args]))
        if kind is s.Or:
            return self.intern_or(tuple([self.intern(a) for a in formula.args]))
        if kind is s.Implies or kind is s.Iff:
            key = (self.intern(formula.lhs), self.intern(formula.rhs))
            if kind is s.Implies:
                return self.intern_implies(key)
            return self.intern_iff(key)
        if kind is s.Forall or kind is s.Exists:
            raise ValueError(f"cannot encode a quantified formula: {formula}")
        raise TypeError(f"not a formula: {formula!r}")

    def encode(self, formula: s.Formula) -> int:
        """Return a literal equivalid with the ground formula ``formula``.

        Definition clauses for composite subformulas are added to the solver
        as they are created; the returned literal is *not* asserted.
        """
        return self.lits[self.intern(formula)]

    # ------------------------------------------------------------ asserting

    def assert_formula(self, formula: s.Formula, selector: int | None = None) -> None:
        """Assert ``formula``; with ``selector`` the assertion is conditional
        on the selector literal (enabling assumption-based unsat cores)."""
        lit = self.encode(formula)
        if selector is None:
            self.solver.add_clause([lit])
        else:
            self.solver.add_clause([-selector, lit])
