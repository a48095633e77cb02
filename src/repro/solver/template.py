"""Clause templates: universal blocks grounded over integer term ids.

Exhaustive instantiation (step 3 of :mod:`repro.solver.epr`) asserts one
ground instance of a block's quantifier-free matrix per combination of
universe terms.  Building each instance as an AST and Tseitin-encoding it
costs an allocation and a structural hash per node; a *template* does the
same work on integers instead.  :func:`block_template` compiles a
``(variables, matrix)`` pair once into a Python function whose loop body
is the matrix in post-order, one statement per node:

* a variable is the combination's term id, a constant its id in the
  query's :class:`~repro.solver.cnf.TermTable`, and ``f(t..)`` a lookup in
  the function's ``argument ids -> id`` table;
* a formula node looks its ``(kind, child ids)`` key up in the
  :class:`~repro.solver.cnf.CnfBuilder` formula tables and, when the key is
  new, has the builder create (encode) it.

Children come before their parent, left to right, so each instance is
encoded in exactly the order -- SAT variables, clauses, atoms -- that
interning its AST would give, and an instance whose formula id was
asserted before is skipped as a duplicate, as before.  Terms and
subformulas that mention no variable are looked up once per call rather
than once per combination.

Compiled templates are kept per process, keyed by the pair: the same
axioms and invariant clauses recur across the queries of a run, with their
constants resolved to ids on each call.  Exhaustive grounding and the MBQI
refinement (:meth:`repro.solver.epr.EprSolver._refine_lazy`) both assert
instances through the templates.
"""

from __future__ import annotations

from typing import Callable

from ..logic import syntax as s

#: Compiled templates kept per process; the memo is emptied when full.
MEMO_LIMIT = 2048

_memo: dict[tuple, Callable] = {}


def block_template(vars_: tuple[s.Var, ...], matrix: s.Formula) -> Callable:
    """The compiled template of a universal block.

    ``ground(prepared, combos, selector)`` asserts the instance of every
    combination in ``combos`` (tuples of term ids, one per variable) into
    ``prepared``'s builder -- guarded by ``selector``, or deduplicated
    against ``prepared._asserted`` when it is None -- charges each
    combination to ``prepared._meter``, adds the asserted instances to
    ``prepared.instance_count`` and returns their number.

    Raises ValueError for a matrix with a free variable or a quantifier.
    """
    key = (vars_, matrix)
    ground = _memo.get(key)
    if ground is None:
        if len(_memo) >= MEMO_LIMIT:
            _memo.clear()
        ground = _memo[key] = _Compiler(vars_).compile(matrix)
    return ground


#: formula kind -> the builder's table and constructor
_CONNECTIVES = {
    s.And: ("ands", "intern_and"),
    s.Or: ("ors", "intern_or"),
    s.Implies: ("implies", "intern_implies"),
    s.Iff: ("iffs", "intern_iff"),
}


class _Compiler:
    def __init__(self, vars_: tuple[s.Var, ...]) -> None:
        self.arity = len(vars_)
        self.vars = {var: f"v{index}" for index, var in enumerate(vars_)}
        self.rels: list = []
        self.funcs: list = []
        self.consts: list = []
        self.setup: list[str] = []
        self.body: list[str] = []
        self.tables: set[str] = set()
        self._slots: dict = {}
        #: AST node -> (local name, mentions a variable)
        self._names: dict = {}

    def _slot(self, kind: list, prefix: str, symbol) -> str:
        key = (prefix, symbol)
        name = self._slots.get(key)
        if name is None:
            name = self._slots[key] = f"{prefix}{len(kind)}"
            kind.append(symbol)
        return name

    @staticmethod
    def _key(args: list[str]) -> str:
        return args[0] if len(args) == 1 else f"({', '.join(args)},)"

    def term(self, term: s.Term) -> tuple[str, bool]:
        if isinstance(term, s.Var):
            name = self.vars.get(term)
            if name is None:
                raise ValueError(f"matrix is not closed: free variable {term}")
            return name, True
        found = self._names.get(term)
        if found is not None:
            return found
        if not isinstance(term, s.App):
            raise ValueError(f"not a ground term: {term!r}")
        if not term.args:
            found = (self._slot(self.consts, "c", term), False)
        else:
            args = [self.term(arg) for arg in term.args]
            dynamic = any(d for _, d in args)
            table = self._slot(self.funcs, "f", term.func)
            name = f"t{len(self._names)}"
            line = f"{name} = {table}[{self._key([a for a, _ in args])}]"
            # Terms have no side effects: static ones are computed once.
            (self.body if dynamic else self.setup).append(line)
            found = (name, dynamic)
        self._names[term] = found
        return found

    def formula(self, formula: s.Formula) -> tuple[str, bool]:
        found = self._names.get(formula)
        if found is not None:
            return found  # a repeated subformula is a table hit
        kind = type(formula)
        if kind is s.Rel:
            args = [self.term(arg) for arg in formula.args]
            table = self._slot(self.rels, "r", formula.rel)
            decl = "p" + table[1:]
            key = self._key([a for a, _ in args]) if args else "()"
            lookup = f"{table}.get({{k}}) or intern_rel({decl}, {table}, {{k}})"
            self.tables.add("intern_rel")
        elif kind is s.Eq:
            args = [self.term(formula.lhs), self.term(formula.rhs)]
            key = self._key([a for a, _ in args])
            lookup = "eqs.get({k}) or intern_eq({k})"
            self.tables.update(("eqs", "intern_eq"))
        elif kind is s.Not:
            args = [self.formula(formula.arg)]
            key = args[0][0]
            lookup = "nots.get({k}) or intern_not({k})"
            self.tables.update(("nots", "intern_not"))
        elif kind in _CONNECTIVES:
            if kind is s.Implies or kind is s.Iff:
                args = [self.formula(formula.lhs), self.formula(formula.rhs)]
            else:
                args = [self.formula(arg) for arg in formula.args]
            key = f"({''.join(f'{a}, ' for a, _ in args)})"
            table, new = _CONNECTIVES[kind]
            lookup = f"{table}.get({{k}}) or {new}({{k}})"
            self.tables.update((table, new))
        elif kind is s.Forall or kind is s.Exists:
            raise ValueError(f"cannot encode a quantified formula: {formula}")
        else:
            raise TypeError(f"not a formula: {formula!r}")
        index = len(self._names)
        name = f"n{index}"
        if key.isidentifier():
            lines = [f"{name} = {lookup.format(k=key)}"]
        else:
            lines = [f"k{index} = {key}", f"{name} = {lookup.format(k=f'k{index}')}"]
        dynamic = any(d for _, d in args)
        if not dynamic:
            # Looked up in the first combination, at its place in the
            # encoding order; a hit in every later one.
            self.setup.append(f"{name} = 0")
            lines = [f"if not {name}:"] + [f"    {line}" for line in lines]
        self.body.extend(lines)
        found = self._names[formula] = (name, dynamic)
        return found

    def compile(self, matrix: s.Formula) -> Callable:
        root, _ = self.formula(matrix)
        lines = [
            "def ground(P, combos, sel):",
            "    b = P.builder",
            "    L = b.lits",
            "    T = b.terms",
        ]
        for i in range(len(self.rels)):
            lines += [f"    p{i} = R[{i}]", f"    r{i} = b.rel_table(p{i})"]
        lines += [f"    f{i} = T.apps[F[{i}]]" for i in range(len(self.funcs))]
        lines += [f"    c{i} = T.id_of(K[{i}])" for i in range(len(self.consts))]
        lines += [f"    {name} = b.{name}" for name in sorted(self.tables)]
        lines += [f"    {line}" for line in self.setup]
        lines += [
            "    add_clause = b.solver.add_clause",
            "    meter = P._meter",
            "    charge = None if meter is None else meter.charge_instances",
            "    asserted = P._asserted",
            "    added = 0",
            "    try:",
            f"        for {''.join(f'v{i}, ' for i in range(self.arity))}in combos:",
            "            if charge is not None:",
            "                charge()",
        ]
        lines += [f"            {line}" for line in self.body]
        lines += [
            "            if sel is None:",
            f"                if {root} in asserted:",
            "                    continue",
            f"                asserted.add({root})",
            f"                add_clause([L[{root}]])",
            "            else:",
            f"                add_clause([-sel, L[{root}]])",
            "            added += 1",
            "    finally:",
            "        P.instance_count += added",
            "    return added",
        ]
        namespace = {"R": self.rels, "F": self.funcs, "K": self.consts}
        exec(compile("\n".join(lines) + "\n", "<clause template>", "exec"), namespace)
        return namespace["ground"]
