"""Substitution on terms and formulas.

Three substitution operations are needed by the paper's machinery:

* :func:`substitute` -- capture-avoiding substitution of terms for free
  logical variables (quantifier instantiation, diagram construction).
* :func:`replace_rel` / :func:`replace_func` -- the substitutions
  ``Q[phi(s)/r(s)]`` and ``Q[t(s)/f(s)]`` of the weakest-precondition rules
  (Figure 13): every occurrence of an atom ``r(s)`` (resp. term ``f(s)``) is
  replaced by the update formula (resp. term) with its parameters
  instantiated to ``s``.  The replacement is *simultaneous*: symbol
  occurrences inside the replacement body itself denote the pre-state symbol
  and are not rewritten again.
* :func:`rename_symbols` -- uniform renaming of relation/function symbols,
  used to build the timestamped vocabulary copies of the bounded-verification
  encoding.
"""

from __future__ import annotations

import operator
from typing import Callable, Iterable, Mapping

from . import syntax as s
from .sorts import FuncDecl, RelDecl, Sort


class FreshNames:
    """Generates names that are fresh with respect to a set of used names."""

    def __init__(self, used: Iterable[str] = ()) -> None:
        self._used = set(used)

    def add(self, name: str) -> None:
        self._used.add(name)

    def __call__(self, base: str) -> str:
        """Return ``base`` if unused, else ``base'``, ``base''``... variants."""
        name = base
        counter = 0
        while name in self._used:
            counter += 1
            name = f"{base}_{counter}"
        self._used.add(name)
        return name


def fresh_var(base: str, sort: Sort, avoid: Iterable[s.Var]) -> s.Var:
    """A variable named after ``base`` distinct from every variable in ``avoid``."""
    taken = {v.name for v in avoid}
    name = base
    counter = 0
    while name in taken:
        counter += 1
        name = f"{base}_{counter}"
    return s.Var(name, sort)


# ---------------------------------------------------------------------------
# Variable substitution
# ---------------------------------------------------------------------------


def _same(new: tuple, old: tuple) -> bool:
    """Whether a rebuilt child tuple holds exactly the old child objects."""
    return all(map(operator.is_, new, old))


def substitute_term(term: s.Term, mapping: Mapping[s.Var, s.Term]) -> s.Term:
    # A node none of whose children changed is returned as it is: nodes
    # are immutable and compare structurally, so only allocation differs.
    if isinstance(term, s.Var):
        return mapping.get(term, term)
    if isinstance(term, s.App):
        if not term.args:
            return term
        args = tuple(substitute_term(a, mapping) for a in term.args)
        if _same(args, term.args):
            return term
        return s.App(term.func, args, span=term.span)
    if isinstance(term, s.Ite):
        return s.Ite(
            substitute(term.cond, mapping),
            substitute_term(term.then, mapping),
            substitute_term(term.els, mapping),
            span=term.span,
        )
    raise TypeError(f"not a term: {term!r}")


def substitute(formula: s.Formula, mapping: Mapping[s.Var, s.Term]) -> s.Formula:
    """Capture-avoiding substitution of free variables in ``formula``."""
    if not mapping:
        return formula
    if isinstance(formula, s.Rel):
        args = tuple(substitute_term(a, mapping) for a in formula.args)
        if _same(args, formula.args):
            return formula
        return s.Rel(formula.rel, args, span=formula.span)
    if isinstance(formula, s.Eq):
        lhs = substitute_term(formula.lhs, mapping)
        rhs = substitute_term(formula.rhs, mapping)
        if lhs is formula.lhs and rhs is formula.rhs:
            return formula
        return s.Eq(lhs, rhs, span=formula.span)
    if isinstance(formula, s.Not):
        arg = substitute(formula.arg, mapping)
        if arg is formula.arg:
            return formula
        return s.Not(arg, span=formula.span)
    if isinstance(formula, (s.And, s.Or)):
        args = tuple(substitute(a, mapping) for a in formula.args)
        if _same(args, formula.args):
            return formula
        return type(formula)(args, span=formula.span)
    if isinstance(formula, s.Implies):
        return s.Implies(
            substitute(formula.lhs, mapping),
            substitute(formula.rhs, mapping),
            span=formula.span,
        )
    if isinstance(formula, s.Iff):
        return s.Iff(
            substitute(formula.lhs, mapping),
            substitute(formula.rhs, mapping),
            span=formula.span,
        )
    if isinstance(formula, (s.Forall, s.Exists)):
        # Drop bindings shadowed by the quantifier.
        inner = {v: t for v, t in mapping.items() if v not in formula.vars}
        if not inner:
            return formula
        # Rename bound variables that would capture free variables of the
        # replacement terms.
        replacement_frees: set[s.Var] = set()
        for repl in inner.values():
            replacement_frees |= s.free_vars(repl)
        bound = list(formula.vars)
        body = formula.body
        if replacement_frees & set(bound):
            avoid = replacement_frees | s.free_vars(body) | set(bound)
            renaming: dict[s.Var, s.Term] = {}
            new_bound: list[s.Var] = []
            for var in bound:
                if var in replacement_frees:
                    new = fresh_var(var.name, var.sort, avoid)
                    avoid = avoid | {new}
                    renaming[var] = new
                    new_bound.append(new)
                else:
                    new_bound.append(var)
            body = substitute(body, renaming)
            bound = new_bound
        body = substitute(body, inner)
        ctor = s.Forall if isinstance(formula, s.Forall) else s.Exists
        return ctor(tuple(bound), body, span=formula.span)
    raise TypeError(f"not a formula: {formula!r}")


def instantiate(quantified: s.Forall | s.Exists, terms: tuple[s.Term, ...]) -> s.Formula:
    """Plug ``terms`` in for the bound variables of a quantified formula."""
    if len(terms) != len(quantified.vars):
        raise ValueError("arity mismatch in quantifier instantiation")
    return substitute(quantified.body, dict(zip(quantified.vars, terms)))


# ---------------------------------------------------------------------------
# Symbol replacement (wp substitutions)
# ---------------------------------------------------------------------------


def replace_rel(
    formula: s.Formula,
    rel: RelDecl,
    params: tuple[s.Var, ...],
    definition: s.Formula,
) -> s.Formula:
    """Compute ``formula[definition(s)/rel(s)]``.

    Every atom ``rel(t1..tn)`` becomes ``definition[t1..tn / params]``; the
    arguments ``ti`` are rewritten first, so nested occurrences of ``rel``
    inside ``ite`` conditions are handled, while occurrences of ``rel``
    inside ``definition`` itself are left alone (they denote the old value).
    """
    if len(params) != rel.arity:
        raise ValueError("parameter arity mismatch")

    def on_term(term: s.Term) -> s.Term:
        if isinstance(term, s.Var):
            return term
        if isinstance(term, s.App):
            return s.App(term.func, tuple(on_term(a) for a in term.args), span=term.span)
        if isinstance(term, s.Ite):
            return s.Ite(
                on_formula(term.cond), on_term(term.then), on_term(term.els), span=term.span
            )
        raise TypeError(f"not a term: {term!r}")

    def on_formula(fml: s.Formula) -> s.Formula:
        if isinstance(fml, s.Rel):
            args = tuple(on_term(a) for a in fml.args)
            if fml.rel == rel:
                return substitute(definition, dict(zip(params, args)))
            return s.Rel(fml.rel, args, span=fml.span)
        if isinstance(fml, s.Eq):
            return s.Eq(on_term(fml.lhs), on_term(fml.rhs), span=fml.span)
        if isinstance(fml, s.Not):
            return s.Not(on_formula(fml.arg), span=fml.span)
        if isinstance(fml, s.And):
            return s.And(tuple(on_formula(a) for a in fml.args), span=fml.span)
        if isinstance(fml, s.Or):
            return s.Or(tuple(on_formula(a) for a in fml.args), span=fml.span)
        if isinstance(fml, s.Implies):
            return s.Implies(on_formula(fml.lhs), on_formula(fml.rhs), span=fml.span)
        if isinstance(fml, s.Iff):
            return s.Iff(on_formula(fml.lhs), on_formula(fml.rhs), span=fml.span)
        if isinstance(fml, (s.Forall, s.Exists)):
            clash = set(fml.vars) & (s.free_vars(definition) | set(params))
            if clash:
                # Rename the bound variables out of the way first.
                avoid = set(fml.vars) | s.free_vars(fml.body) | s.free_vars(definition) | set(params)
                renaming: dict[s.Var, s.Term] = {}
                new_vars = []
                for var in fml.vars:
                    if var in clash:
                        new = fresh_var(var.name, var.sort, avoid)
                        avoid.add(new)
                        renaming[var] = new
                        new_vars.append(new)
                    else:
                        new_vars.append(var)
                body = substitute(fml.body, renaming)
            else:
                new_vars = list(fml.vars)
                body = fml.body
            ctor = s.Forall if isinstance(fml, s.Forall) else s.Exists
            return ctor(tuple(new_vars), on_formula(body), span=fml.span)
        raise TypeError(f"not a formula: {fml!r}")

    return on_formula(formula)


def replace_func(
    formula: s.Formula,
    func: FuncDecl,
    params: tuple[s.Var, ...],
    definition: s.Term,
) -> s.Formula:
    """Compute ``formula[definition(s)/func(s)]`` (function-update wp rule)."""
    if len(params) != func.arity:
        raise ValueError("parameter arity mismatch")

    def on_term(term: s.Term) -> s.Term:
        if isinstance(term, s.Var):
            return term
        if isinstance(term, s.App):
            args = tuple(on_term(a) for a in term.args)
            if term.func == func:
                return substitute_term(definition, dict(zip(params, args)))
            return s.App(term.func, args, span=term.span)
        if isinstance(term, s.Ite):
            return s.Ite(
                on_formula(term.cond), on_term(term.then), on_term(term.els), span=term.span
            )
        raise TypeError(f"not a term: {term!r}")

    def on_formula(fml: s.Formula) -> s.Formula:
        if isinstance(fml, s.Rel):
            return s.Rel(fml.rel, tuple(on_term(a) for a in fml.args), span=fml.span)
        if isinstance(fml, s.Eq):
            return s.Eq(on_term(fml.lhs), on_term(fml.rhs), span=fml.span)
        if isinstance(fml, s.Not):
            return s.Not(on_formula(fml.arg), span=fml.span)
        if isinstance(fml, s.And):
            return s.And(tuple(on_formula(a) for a in fml.args), span=fml.span)
        if isinstance(fml, s.Or):
            return s.Or(tuple(on_formula(a) for a in fml.args), span=fml.span)
        if isinstance(fml, s.Implies):
            return s.Implies(on_formula(fml.lhs), on_formula(fml.rhs), span=fml.span)
        if isinstance(fml, s.Iff):
            return s.Iff(on_formula(fml.lhs), on_formula(fml.rhs), span=fml.span)
        if isinstance(fml, (s.Forall, s.Exists)):
            clash = set(fml.vars) & (s.free_vars(definition) | set(params))
            if clash:
                avoid = set(fml.vars) | s.free_vars(fml.body) | s.free_vars(definition) | set(params)
                renaming: dict[s.Var, s.Term] = {}
                new_vars = []
                for var in fml.vars:
                    if var in clash:
                        new = fresh_var(var.name, var.sort, avoid)
                        avoid.add(new)
                        renaming[var] = new
                        new_vars.append(new)
                    else:
                        new_vars.append(var)
                body = substitute(fml.body, renaming)
            else:
                new_vars = list(fml.vars)
                body = fml.body
            ctor = s.Forall if isinstance(fml, s.Forall) else s.Exists
            return ctor(tuple(new_vars), on_formula(body), span=fml.span)
        raise TypeError(f"not a formula: {fml!r}")

    return on_formula(formula)


# ---------------------------------------------------------------------------
# Symbol renaming
# ---------------------------------------------------------------------------


def rename_symbols(
    node: s.Formula | s.Term,
    mapping: Mapping[RelDecl | FuncDecl, RelDecl | FuncDecl],
) -> s.Formula | s.Term:
    """Uniformly rename relation/function symbols according to ``mapping``.

    The renamed declarations must have identical sorts and arities; used for
    the per-step vocabulary copies of the transition-relation encoding.
    """
    for old, new in mapping.items():
        if type(old) is not type(new):
            raise ValueError(f"cannot rename {old.name!r} across symbol kinds")
        if old.arg_sorts != new.arg_sorts:
            raise ValueError(f"arity/sort mismatch renaming {old.name!r}")

    def on_term(term: s.Term) -> s.Term:
        if isinstance(term, s.Var):
            return term
        if isinstance(term, s.App):
            func = mapping.get(term.func, term.func)
            return s.App(func, tuple(on_term(a) for a in term.args), span=term.span)
        if isinstance(term, s.Ite):
            return s.Ite(
                on_formula(term.cond), on_term(term.then), on_term(term.els), span=term.span
            )
        raise TypeError(f"not a term: {term!r}")

    def on_formula(fml: s.Formula) -> s.Formula:
        if isinstance(fml, s.Rel):
            rel = mapping.get(fml.rel, fml.rel)
            return s.Rel(rel, tuple(on_term(a) for a in fml.args), span=fml.span)
        if isinstance(fml, s.Eq):
            return s.Eq(on_term(fml.lhs), on_term(fml.rhs), span=fml.span)
        if isinstance(fml, s.Not):
            return s.Not(on_formula(fml.arg), span=fml.span)
        if isinstance(fml, s.And):
            return s.And(tuple(on_formula(a) for a in fml.args), span=fml.span)
        if isinstance(fml, s.Or):
            return s.Or(tuple(on_formula(a) for a in fml.args), span=fml.span)
        if isinstance(fml, s.Implies):
            return s.Implies(on_formula(fml.lhs), on_formula(fml.rhs), span=fml.span)
        if isinstance(fml, s.Iff):
            return s.Iff(on_formula(fml.lhs), on_formula(fml.rhs), span=fml.span)
        if isinstance(fml, (s.Forall, s.Exists)):
            ctor = s.Forall if isinstance(fml, s.Forall) else s.Exists
            return ctor(fml.vars, on_formula(fml.body), span=fml.span)
        raise TypeError(f"not a formula: {fml!r}")

    if isinstance(node, (s.Var, s.App, s.Ite)):
        return on_term(node)
    return on_formula(node)


TransformFn = Callable[[s.Formula], s.Formula]
