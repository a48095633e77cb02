"""Finite first-order structures and formula evaluation (paper Definition 1).

A state of an RML program is a finite sorted structure: a finite domain per
sort plus interpretations for every relation, function and program variable
of the vocabulary.  This module provides:

* :class:`Elem` -- a named domain element of a given sort;
* :class:`Structure` -- a total structure with full formula evaluation
  (quantifiers range over the finite universe);
* helpers to build and modify structures functionally.

Evaluation is the ground truth the rest of the system is tested against: the
EPR solver's extracted models, the concrete RML interpreter, and the wp
calculus are all differentially checked using :meth:`Structure.satisfies`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from . import syntax as s
from .sorts import FuncDecl, RelDecl, Sort, Vocabulary


@dataclass(frozen=True, slots=True)
class Elem:
    """A domain element, identified by name and sort."""

    name: str
    sort: Sort

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"Elem({self.name!r}, {self.sort.name!r})"


Assignment = Mapping[s.Var, Elem]


class EvaluationError(Exception):
    """Raised when evaluating over an ill-formed or incomplete structure."""


@dataclass(frozen=True)
class Structure:
    """A total finite structure over a vocabulary.

    ``universe`` maps each sort to its (non-empty) domain; ``rels`` maps each
    relation symbol to the set of tuples where it holds; ``funcs`` maps each
    function symbol to a total map from argument tuples to a result element
    (constants are keyed by the empty tuple).
    """

    vocab: Vocabulary
    universe: Mapping[Sort, tuple[Elem, ...]]
    rels: Mapping[RelDecl, frozenset[tuple[Elem, ...]]]
    funcs: Mapping[FuncDecl, Mapping[tuple[Elem, ...], Elem]]

    def __post_init__(self) -> None:
        for sort in self.vocab.sorts:
            if not self.universe.get(sort):
                raise EvaluationError(f"empty or missing domain for sort {sort.name!r}")
        for rel in self.vocab.relations:
            for tup in self.rels.get(rel, frozenset()):
                self._check_tuple(rel.name, tup, rel.arg_sorts)
        for func in self.vocab.functions:
            table = self.funcs.get(func)
            if table is None:
                raise EvaluationError(f"missing interpretation for function {func.name!r}")
            expected = itertools.product(*(self.universe[sort] for sort in func.arg_sorts))
            for args in expected:
                if args not in table:
                    raise EvaluationError(
                        f"function {func.name!r} undefined on {tuple(e.name for e in args)}"
                    )
                result = table[args]
                if result.sort != func.sort or result not in self.universe[func.sort]:
                    raise EvaluationError(
                        f"function {func.name!r} maps outside its result domain"
                    )
            self._check_no_extra(func, table)

    def _check_tuple(self, name: str, tup: tuple[Elem, ...], sorts: tuple[Sort, ...]) -> None:
        if len(tup) != len(sorts):
            raise EvaluationError(f"arity mismatch in interpretation of {name!r}")
        for elem, sort in zip(tup, sorts):
            if elem.sort != sort or elem not in self.universe[sort]:
                raise EvaluationError(f"element {elem.name!r} outside domain in {name!r}")

    def _check_no_extra(self, func: FuncDecl, table: Mapping[tuple[Elem, ...], Elem]) -> None:
        domain_size = 1
        for sort in func.arg_sorts:
            domain_size *= len(self.universe[sort])
        if len(table) != domain_size:
            raise EvaluationError(f"function {func.name!r} has out-of-domain entries")

    # ----------------------------------------------------------- accessors

    def sort_size(self, sort: Sort) -> int:
        return len(self.universe[sort])

    def elements(self) -> Iterator[Elem]:
        for sort in self.vocab.sorts:
            yield from self.universe[sort]

    def rel_holds(self, rel: RelDecl, args: tuple[Elem, ...]) -> bool:
        return args in self.rels.get(rel, frozenset())

    def func_value(self, func: FuncDecl, args: tuple[Elem, ...] = ()) -> Elem:
        return self.funcs[func][args]

    # ---------------------------------------------------------- evaluation

    def eval_term(self, term: s.Term, assignment: Assignment | None = None) -> Elem:
        assignment = assignment or {}
        if isinstance(term, s.Var):
            try:
                return assignment[term]
            except KeyError:
                raise EvaluationError(f"unbound variable {term.name!r}") from None
        if isinstance(term, s.App):
            args = tuple(self.eval_term(a, assignment) for a in term.args)
            try:
                return self.funcs[term.func][args]
            except KeyError:
                raise EvaluationError(
                    f"function {term.func.name!r} undefined on given arguments"
                ) from None
        if isinstance(term, s.Ite):
            if self.eval_formula(term.cond, assignment):
                return self.eval_term(term.then, assignment)
            return self.eval_term(term.els, assignment)
        raise TypeError(f"not a term: {term!r}")

    def eval_formula(self, formula: s.Formula, assignment: Assignment | None = None) -> bool:
        assignment = assignment or {}
        if isinstance(formula, s.Rel):
            args = tuple(self.eval_term(a, assignment) for a in formula.args)
            return args in self.rels.get(formula.rel, frozenset())
        if isinstance(formula, s.Eq):
            return self.eval_term(formula.lhs, assignment) == self.eval_term(
                formula.rhs, assignment
            )
        if isinstance(formula, s.Not):
            return not self.eval_formula(formula.arg, assignment)
        if isinstance(formula, s.And):
            return all(self.eval_formula(a, assignment) for a in formula.args)
        if isinstance(formula, s.Or):
            return any(self.eval_formula(a, assignment) for a in formula.args)
        if isinstance(formula, s.Implies):
            return (not self.eval_formula(formula.lhs, assignment)) or self.eval_formula(
                formula.rhs, assignment
            )
        if isinstance(formula, s.Iff):
            return self.eval_formula(formula.lhs, assignment) == self.eval_formula(
                formula.rhs, assignment
            )
        if isinstance(formula, (s.Forall, s.Exists)):
            domains = [self.universe[v.sort] for v in formula.vars]
            want_all = isinstance(formula, s.Forall)
            for combo in itertools.product(*domains):
                extended = dict(assignment)
                extended.update(zip(formula.vars, combo))
                holds = self.eval_formula(formula.body, extended)
                if want_all and not holds:
                    return False
                if not want_all and holds:
                    return True
            return want_all
        raise TypeError(f"not a formula: {formula!r}")

    def satisfies(self, formula: s.Formula) -> bool:
        """Evaluate a closed formula."""
        return self.eval_formula(formula, {})

    # -------------------------------------------------------- modification

    def with_rel(self, rel: RelDecl, tuples: Iterable[tuple[Elem, ...]]) -> "Structure":
        """A copy of this structure with relation ``rel`` reinterpreted."""
        rels = dict(self.rels)
        rels[rel] = frozenset(tuples)
        return Structure(self.vocab, self.universe, rels, self.funcs)

    def with_func(
        self, func: FuncDecl, table: Mapping[tuple[Elem, ...], Elem]
    ) -> "Structure":
        """A copy of this structure with function ``func`` reinterpreted."""
        funcs = dict(self.funcs)
        funcs[func] = dict(table)
        return Structure(self.vocab, self.universe, funcs=funcs, rels=self.rels)

    # -------------------------------------------------------------- counts

    def positive_count(self, rel: RelDecl) -> int:
        """Number of tuples in ``rel`` (a minimization measure, Sec. 4.3)."""
        return len(self.rels.get(rel, frozenset()))

    def negative_count(self, rel: RelDecl) -> int:
        """Number of tuples *not* in ``rel`` (a minimization measure)."""
        total = 1
        for sort in rel.arg_sorts:
            total *= len(self.universe[sort])
        return total - self.positive_count(rel)

    def __str__(self) -> str:
        from ..viz.text import structure_to_text

        return structure_to_text(self)


def make_structure(
    vocab: Vocabulary,
    universe: Mapping[Sort, Iterable[Elem] | Iterable[str] | int],
    rels: Mapping[RelDecl | str, Iterable[tuple[Elem, ...]]] | None = None,
    funcs: Mapping[FuncDecl | str, Mapping[tuple[Elem, ...], Elem]] | None = None,
) -> Structure:
    """Convenience constructor.

    ``universe`` values may be element iterables, name iterables, or a bare
    integer ``n`` (producing elements ``<sort>0 .. <sort>{n-1}``).  Relation
    and function keys may be declarations or names.  Missing relations
    default to empty; missing *constants* must still be supplied.
    """
    dom: dict[Sort, tuple[Elem, ...]] = {}
    for sort in vocab.sorts:
        spec = universe.get(sort, None)
        if spec is None:
            raise EvaluationError(f"no domain given for sort {sort.name!r}")
        if isinstance(spec, int):
            dom[sort] = tuple(Elem(f"{sort.name}{i}", sort) for i in range(spec))
        else:
            elems = []
            for item in spec:
                elems.append(item if isinstance(item, Elem) else Elem(item, sort))
            dom[sort] = tuple(elems)

    rel_interp: dict[RelDecl, frozenset[tuple[Elem, ...]]] = {}
    for key, tuples in (rels or {}).items():
        decl = vocab.relation(key) if isinstance(key, str) else key
        rel_interp[decl] = frozenset(tuples)
    for rel in vocab.relations:
        rel_interp.setdefault(rel, frozenset())

    func_interp: dict[FuncDecl, dict[tuple[Elem, ...], Elem]] = {}
    for key, table in (funcs or {}).items():
        decl = vocab.function(key) if isinstance(key, str) else key
        func_interp[decl] = dict(table)
    return Structure(vocab, dom, rel_interp, func_interp)


def all_structures(
    vocab: Vocabulary, sizes: Mapping[Sort, int], max_count: int | None = None
) -> Iterator[Structure]:
    """Enumerate every structure with the given domain sizes.

    Used by exhaustive differential tests on tiny vocabularies; the count is
    exponential, so ``max_count`` can cap the enumeration.
    """
    universe = {
        sort: tuple(Elem(f"{sort.name}{i}", sort) for i in range(sizes[sort]))
        for sort in vocab.sorts
    }
    rel_spaces = []
    for rel in vocab.relations:
        tuples = list(itertools.product(*(universe[sort] for sort in rel.arg_sorts)))
        subsets = []
        for mask in range(2 ** len(tuples)):
            subsets.append(frozenset(t for i, t in enumerate(tuples) if mask >> i & 1))
        rel_spaces.append(subsets)
    func_spaces = []
    for func in vocab.functions:
        arg_tuples = list(itertools.product(*(universe[sort] for sort in func.arg_sorts)))
        results = universe[func.sort]
        tables = [
            dict(zip(arg_tuples, choice))
            for choice in itertools.product(results, repeat=len(arg_tuples))
        ]
        func_spaces.append(tables)
    count = 0
    for rel_choice in itertools.product(*rel_spaces):
        for func_choice in itertools.product(*func_spaces):
            yield Structure(
                vocab,
                universe,
                dict(zip(vocab.relations, rel_choice)),
                dict(zip(vocab.functions, func_choice)),
            )
            count += 1
            if max_count is not None and count >= max_count:
                return
