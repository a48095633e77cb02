"""Terms and formulas of sorted first-order logic (paper Figure 11).

The grammar follows Figure 11 of the paper:

* terms: logical variables, program variables / constants (nullary function
  application), function application, and ``ite`` terms;
* formulas: relation membership, equality, boolean connectives, and
  quantifiers.

All AST nodes are immutable.  Equality is structural and hashes are cached so
formulas can be used freely as dictionary keys during substitution, grounding
and hash-consed rewriting.

The module-level smart constructors (:func:`and_`, :func:`or_`, :func:`not_`,
:func:`implies`, :func:`iff`, :func:`forall`, :func:`exists`, :func:`eq`)
perform light, semantics-preserving simplification (flattening of nested
conjunctions, boolean unit laws, empty quantifier elimination) and are the
recommended way to build formulas.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Iterable, Iterator, Union

from .lexer import Span
from .sorts import FuncDecl, RelDecl, Sort


def _span_field() -> Span | None:
    """The optional source-span slot every AST node carries.

    Spans are provenance only: they are excluded from structural equality
    and hashing, so two occurrences of the same formula parsed from
    different places still compare (and dedupe) as equal.
    """
    return field(default=None, compare=False, repr=False)


#: Per node class, the names of the fields that take part in equality.
_COMPARED_FIELDS: dict[type, tuple[str, ...]] = {}


def compared_fields(cls: type) -> tuple[str, ...]:
    """The names of an AST node class's fields that take part in equality."""
    names = _COMPARED_FIELDS.get(cls)
    if names is None:
        names = tuple(f.name for f in fields(cls) if f.compare)
        _COMPARED_FIELDS[cls] = names
    return names


class _Node:
    """Base class giving all AST nodes a cached structural hash."""

    __hash_cache: int

    def __hash__(self) -> int:
        try:
            return self.__hash_cache
        except AttributeError:
            cls = type(self)
            names = compared_fields(cls)
            value = hash(tuple(getattr(self, name) for name in names))
            value ^= hash(cls.__name__)
            object.__setattr__(self, "_Node__hash_cache", value)
            return value

    def __str__(self) -> str:
        from .printer import to_str

        return to_str(self)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self}>"


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=True, repr=False)
class Var(_Node):
    """A sorted logical variable (distinct from RML program variables)."""

    name: str
    sort: Sort
    span: Span | None = _span_field()

    __hash__ = _Node.__hash__


@dataclass(frozen=True, eq=True, repr=False)
class App(_Node):
    """Application ``f(t1, ..., tn)`` of a function symbol.

    With ``args == ()`` this is a constant / program-variable occurrence.
    """

    func: FuncDecl
    args: tuple["Term", ...] = ()
    span: Span | None = _span_field()

    __hash__ = _Node.__hash__

    def __post_init__(self) -> None:
        if len(self.args) != self.func.arity:
            raise ValueError(
                f"function {self.func.name!r} expects {self.func.arity} "
                f"arguments, got {len(self.args)}"
            )

    @property
    def sort(self) -> Sort:
        return self.func.sort


@dataclass(frozen=True, eq=True, repr=False)
class Ite(_Node):
    """The if-then-else term ``ite(cond, then, els)`` of Figure 11."""

    cond: "Formula"
    then: "Term"
    els: "Term"
    span: Span | None = _span_field()

    __hash__ = _Node.__hash__

    def __post_init__(self) -> None:
        if self.then.sort != self.els.sort:
            raise ValueError(
                f"ite branches have different sorts: "
                f"{self.then.sort.name} vs {self.els.sort.name}"
            )

    @property
    def sort(self) -> Sort:
        return self.then.sort


Term = Union[Var, App, Ite]


# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=True, repr=False)
class Rel(_Node):
    """Membership ``r(t1, ..., tn)`` in relation ``r``."""

    rel: RelDecl
    args: tuple[Term, ...] = ()
    span: Span | None = _span_field()

    __hash__ = _Node.__hash__

    def __post_init__(self) -> None:
        if len(self.args) != self.rel.arity:
            raise ValueError(
                f"relation {self.rel.name!r} expects {self.rel.arity} "
                f"arguments, got {len(self.args)}"
            )


@dataclass(frozen=True, eq=True, repr=False)
class Eq(_Node):
    """Equality between two terms of the same sort."""

    lhs: Term
    rhs: Term
    span: Span | None = _span_field()

    __hash__ = _Node.__hash__

    def __post_init__(self) -> None:
        if self.lhs.sort != self.rhs.sort:
            raise ValueError(
                f"equality between different sorts: "
                f"{self.lhs.sort.name} vs {self.rhs.sort.name}"
            )


@dataclass(frozen=True, eq=True, repr=False)
class Not(_Node):
    arg: "Formula"
    span: Span | None = _span_field()

    __hash__ = _Node.__hash__


@dataclass(frozen=True, eq=True, repr=False)
class And(_Node):
    """N-ary conjunction; ``And(())`` is the constant *true*."""

    args: tuple["Formula", ...] = ()
    span: Span | None = _span_field()

    __hash__ = _Node.__hash__


@dataclass(frozen=True, eq=True, repr=False)
class Or(_Node):
    """N-ary disjunction; ``Or(())`` is the constant *false*."""

    args: tuple["Formula", ...] = ()
    span: Span | None = _span_field()

    __hash__ = _Node.__hash__


@dataclass(frozen=True, eq=True, repr=False)
class Implies(_Node):
    lhs: "Formula"
    rhs: "Formula"
    span: Span | None = _span_field()

    __hash__ = _Node.__hash__


@dataclass(frozen=True, eq=True, repr=False)
class Iff(_Node):
    lhs: "Formula"
    rhs: "Formula"
    span: Span | None = _span_field()

    __hash__ = _Node.__hash__


@dataclass(frozen=True, eq=True, repr=False)
class Forall(_Node):
    vars: tuple[Var, ...]
    body: "Formula"
    span: Span | None = _span_field()

    __hash__ = _Node.__hash__

    def __post_init__(self) -> None:
        if not self.vars:
            raise ValueError("quantifier must bind at least one variable")


@dataclass(frozen=True, eq=True, repr=False)
class Exists(_Node):
    vars: tuple[Var, ...]
    body: "Formula"
    span: Span | None = _span_field()

    __hash__ = _Node.__hash__

    def __post_init__(self) -> None:
        if not self.vars:
            raise ValueError("quantifier must bind at least one variable")


Formula = Union[Rel, Eq, Not, And, Or, Implies, Iff, Forall, Exists]
Quantifier = (Forall, Exists)

TRUE: Formula = And(())
FALSE: Formula = Or(())


# ---------------------------------------------------------------------------
# Smart constructors
# ---------------------------------------------------------------------------


def and_(*args: Formula) -> Formula:
    """Conjunction with flattening, deduplication-free unit/zero laws."""
    flat: list[Formula] = []
    for arg in args:
        if isinstance(arg, And):
            flat.extend(arg.args)
        elif arg == FALSE:
            return FALSE
        else:
            flat.append(arg)
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def or_(*args: Formula) -> Formula:
    """Disjunction with flattening and unit/zero laws."""
    flat: list[Formula] = []
    for arg in args:
        if isinstance(arg, Or):
            flat.extend(arg.args)
        elif arg == TRUE:
            return TRUE
        else:
            flat.append(arg)
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))


def not_(arg: Formula) -> Formula:
    """Negation with double-negation and constant elimination."""
    if isinstance(arg, Not):
        return arg.arg
    if arg == TRUE:
        return FALSE
    if arg == FALSE:
        return TRUE
    return Not(arg)


def implies(lhs: Formula, rhs: Formula) -> Formula:
    if lhs == TRUE:
        return rhs
    if lhs == FALSE or rhs == TRUE:
        return TRUE
    if rhs == FALSE:
        return not_(lhs)
    return Implies(lhs, rhs)


def iff(lhs: Formula, rhs: Formula) -> Formula:
    if lhs == TRUE:
        return rhs
    if rhs == TRUE:
        return lhs
    if lhs == FALSE:
        return not_(rhs)
    if rhs == FALSE:
        return not_(lhs)
    if lhs == rhs:
        return TRUE
    return Iff(lhs, rhs)


def eq(lhs: Term, rhs: Term) -> Formula:
    if lhs == rhs:
        return TRUE
    return Eq(lhs, rhs)


def forall(vars: Iterable[Var], body: Formula) -> Formula:
    """Universal quantification; merges directly-nested foralls."""
    bound = tuple(vars)
    if not bound:
        return body
    if isinstance(body, Forall):
        return Forall(bound + body.vars, body.body)
    return Forall(bound, body)


def exists(vars: Iterable[Var], body: Formula) -> Formula:
    """Existential quantification; merges directly-nested exists."""
    bound = tuple(vars)
    if not bound:
        return body
    if isinstance(body, Exists):
        return Exists(bound + body.vars, body.body)
    return Exists(bound, body)


def distinct(*terms: Term) -> Formula:
    """Pairwise disequality, as used by the diagram construction (Def. 4)."""
    parts = [not_(eq(a, b)) for i, a in enumerate(terms) for b in terms[i + 1 :]]
    return and_(*parts)


def literal(atom: Formula, positive: bool) -> Formula:
    """Build a literal from an atom and a polarity."""
    return atom if positive else not_(atom)


# ---------------------------------------------------------------------------
# Span helpers
# ---------------------------------------------------------------------------


def with_span(node: Formula | Term, span: Span | None) -> Formula | Term:
    """Attach ``span`` to ``node`` in place (spans never affect equality).

    Only call this on freshly-constructed nodes (e.g. the output of a smart
    constructor during parsing): AST nodes are shared freely, and mutating
    the span of a shared node -- in particular the ``TRUE``/``FALSE``
    singletons -- would corrupt unrelated provenance.  Nodes that already
    carry a span keep it.
    """
    if span is not None and node.span is None and node not in (TRUE, FALSE):
        object.__setattr__(node, "span", span)
    return node


def span_of(node: Formula | Term) -> Span | None:
    """The node's own span, or the first span found in its subtree.

    Generated formulas (wp output, substitution results) keep the spans of
    the source fragments embedded in them; this digs one out so diagnostics
    on derived formulas can still point somewhere useful.
    """
    found = node.span
    if found is not None:
        return found
    if isinstance(node, (App,)):
        children: tuple = node.args
    elif isinstance(node, Ite):
        children = (node.cond, node.then, node.els)
    elif isinstance(node, Rel):
        children = node.args
    elif isinstance(node, Eq):
        children = (node.lhs, node.rhs)
    elif isinstance(node, Not):
        children = (node.arg,)
    elif isinstance(node, (And, Or)):
        children = node.args
    elif isinstance(node, (Implies, Iff)):
        children = (node.lhs, node.rhs)
    elif isinstance(node, (Forall, Exists)):
        children = (node.body,)
    else:
        children = ()
    for child in children:
        found = span_of(child)
        if found is not None:
            return found
    return None


# ---------------------------------------------------------------------------
# Traversal helpers
# ---------------------------------------------------------------------------


def subterms(term: Term) -> Iterator[Term]:
    """Yield ``term`` and all its transitive subterms (pre-order)."""
    yield term
    if isinstance(term, App):
        for arg in term.args:
            yield from subterms(arg)
    elif isinstance(term, Ite):
        for arg in terms_of(term.cond):
            yield from subterms(arg)
        yield from subterms(term.then)
        yield from subterms(term.els)


def terms_of(formula: Formula) -> Iterator[Term]:
    """Yield the top-level terms occurring in ``formula``."""
    if isinstance(formula, Rel):
        yield from formula.args
    elif isinstance(formula, Eq):
        yield formula.lhs
        yield formula.rhs
    elif isinstance(formula, Not):
        yield from terms_of(formula.arg)
    elif isinstance(formula, (And, Or)):
        for arg in formula.args:
            yield from terms_of(arg)
    elif isinstance(formula, (Implies, Iff)):
        yield from terms_of(formula.lhs)
        yield from terms_of(formula.rhs)
    elif isinstance(formula, (Forall, Exists)):
        yield from terms_of(formula.body)
    else:  # pragma: no cover - exhaustive match
        raise TypeError(f"not a formula: {formula!r}")


def free_vars(node: Formula | Term) -> frozenset[Var]:
    """The free logical variables of a formula or term."""
    if isinstance(node, Var):
        return frozenset((node,))
    if isinstance(node, App):
        out: frozenset[Var] = frozenset()
        for arg in node.args:
            out |= free_vars(arg)
        return out
    if isinstance(node, Ite):
        return free_vars(node.cond) | free_vars(node.then) | free_vars(node.els)
    if isinstance(node, Rel):
        out = frozenset()
        for arg in node.args:
            out |= free_vars(arg)
        return out
    if isinstance(node, Eq):
        return free_vars(node.lhs) | free_vars(node.rhs)
    if isinstance(node, Not):
        return free_vars(node.arg)
    if isinstance(node, (And, Or)):
        out = frozenset()
        for arg in node.args:
            out |= free_vars(arg)
        return out
    if isinstance(node, (Implies, Iff)):
        return free_vars(node.lhs) | free_vars(node.rhs)
    if isinstance(node, (Forall, Exists)):
        return free_vars(node.body) - frozenset(node.vars)
    raise TypeError(f"not a formula or term: {node!r}")


def is_closed(formula: Formula) -> bool:
    """True when the formula has no free logical variables (an *assertion*)."""
    return not free_vars(formula)


def symbols_of(node: Formula | Term) -> frozenset[RelDecl | FuncDecl]:
    """All relation and function symbols occurring in ``node``."""
    out: set[RelDecl | FuncDecl] = set()

    def visit_term(term: Term) -> None:
        if isinstance(term, App):
            out.add(term.func)
            for arg in term.args:
                visit_term(arg)
        elif isinstance(term, Ite):
            visit(term.cond)
            visit_term(term.then)
            visit_term(term.els)

    def visit(fml: Formula) -> None:
        if isinstance(fml, Rel):
            out.add(fml.rel)
            for arg in fml.args:
                visit_term(arg)
        elif isinstance(fml, Eq):
            visit_term(fml.lhs)
            visit_term(fml.rhs)
        elif isinstance(fml, Not):
            visit(fml.arg)
        elif isinstance(fml, (And, Or)):
            for arg in fml.args:
                visit(arg)
        elif isinstance(fml, (Implies, Iff)):
            visit(fml.lhs)
            visit(fml.rhs)
        elif isinstance(fml, (Forall, Exists)):
            visit(fml.body)

    if isinstance(node, (Var, App, Ite)):
        visit_term(node)
    else:
        visit(node)
    return frozenset(out)


def constant(func: FuncDecl) -> App:
    """Shorthand for a nullary application."""
    if not func.is_constant:
        raise ValueError(f"{func.name!r} is not nullary")
    return App(func, ())
