"""Semantic dependency analysis: footprints, the symbol graph, VC slicing.

Three static analyses over RML programs and their wlp-derived VCs, all
solver-free (Relational Action Bases shows read/write footprints of
relational actions are statically computable; we use them the same way):

* **Footprints** -- which relations/functions a formula or command reads,
  writes, and which sorts it quantifies over, computed by a polarity-aware
  walk mirroring :mod:`repro.analysis.qag`;
* the **dependency graph** -- symbols connected whenever they co-occur in
  an axiom, invariant, or transition, with provenance labels and spans
  (the ``repro analyze`` graph view, and the substrate of RML108--RML110);
* **cone-of-influence slicing** -- given an obligation's goal conjunct,
  drop hypothesis-pool conjuncts (axioms, assumed lemmas, invariant
  conjuncts) whose footprint is disjoint from the goal's transitively
  reachable symbol set, and restrict the grounding vocabulary to the
  symbols the sliced VC actually mentions.

Soundness of the slice (see DESIGN.md): the sliced VC is a *weakening*
(a subset of conjuncts), so an UNSAT answer for the slice refutes the
full VC too -- exactly the direction that certifies "obligation holds".
A SAT answer proves nothing about the full VC; callers fall back to the
unsliced query (:func:`repro.core.induction.check_obligation`), which
also keeps CTI models bit-identical to ``--no-slice`` runs.  The one
coupling channel symbol-disjointness misses is sort *cardinality*:
``forall X,Y:S. X = Y`` mentions no symbol yet bounds ``S``.  The walk
records variable-variable equalities as a cardinality footprint on their
sort and the closure treats any shared sort with such a conjunct as a
connection, so those hypotheses are never sliced away from formulas that
touch the sort.

This module depends only on the logic and rml layers (and on
:func:`repro.solver.budget.env_flag` to read ``REPRO_SLICE``); the
engines import *it*, never the reverse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from ..logic import syntax as s
from ..logic.lexer import Span
from ..logic.sorts import FuncDecl, RelDecl, Sort, Vocabulary
from ..rml.ast import (
    Assume,
    Choice,
    Command,
    Havoc,
    Program,
    Seq,
    UpdateFunc,
    UpdateRel,
    assigned_symbols,
    subcommands,
)
from ..solver.budget import env_flag

Decl = RelDecl | FuncDecl

#: polarity lattice, shared with :mod:`repro.analysis.qag`
POSITIVE = 1
NEGATIVE = -1
BOTH = 0


def slicing_enabled() -> bool:
    """Is cone-of-influence slicing on?  ``REPRO_SLICE`` gates it, default on."""
    return env_flag("REPRO_SLICE", True)


# ------------------------------------------------------------------ footprints


@dataclass(frozen=True)
class Footprint:
    """What a formula or command touches.

    ``reads`` is every relation/function occurring; ``positive`` /
    ``negative`` split the relations by the polarity of their atom
    occurrences (a relation under an ``Iff`` lands in both); ``writes``
    is non-empty only for commands; ``quantified`` are the sorts bound by
    quantifiers; ``cardinality`` are the sorts constrained by pure
    variable-variable (in)equalities -- the symbol-free coupling channel
    the slicer must respect.
    """

    reads: frozenset[Decl] = frozenset()
    writes: frozenset[Decl] = frozenset()
    positive: frozenset[Decl] = frozenset()
    negative: frozenset[Decl] = frozenset()
    quantified: frozenset[Sort] = frozenset()
    cardinality: frozenset[Sort] = frozenset()

    def sorts(self) -> frozenset[Sort]:
        """Every sort the footprint touches, through any channel."""
        out: set[Sort] = set(self.quantified) | set(self.cardinality)
        for decl in self.reads | self.writes:
            out.update(decl.arg_sorts)
            if isinstance(decl, FuncDecl):
                out.add(decl.sort)
        return frozenset(out)

    def union(self, other: "Footprint") -> "Footprint":
        return Footprint(
            self.reads | other.reads,
            self.writes | other.writes,
            self.positive | other.positive,
            self.negative | other.negative,
            self.quantified | other.quantified,
            self.cardinality | other.cardinality,
        )


class _Acc:
    __slots__ = ("reads", "positive", "negative", "quantified", "cardinality")

    def __init__(self) -> None:
        self.reads: set[Decl] = set()
        self.positive: set[Decl] = set()
        self.negative: set[Decl] = set()
        self.quantified: set[Sort] = set()
        self.cardinality: set[Sort] = set()

    def footprint(self, writes: frozenset[Decl] = frozenset()) -> Footprint:
        return Footprint(
            frozenset(self.reads),
            writes,
            frozenset(self.positive),
            frozenset(self.negative),
            frozenset(self.quantified),
            frozenset(self.cardinality),
        )


def _walk_term(term: s.Term, polarity: int, acc: _Acc) -> None:
    if isinstance(term, s.Var):
        return
    if isinstance(term, s.App):
        acc.reads.add(term.func)
        _record_polarity(term.func, polarity, acc)
        for arg in term.args:
            _walk_term(arg, polarity, acc)
        return
    assert isinstance(term, s.Ite)
    _walk_formula(term.cond, BOTH, acc)
    _walk_term(term.then, polarity, acc)
    _walk_term(term.els, polarity, acc)


def _record_polarity(decl: Decl, polarity: int, acc: _Acc) -> None:
    if polarity in (POSITIVE, BOTH):
        acc.positive.add(decl)
    if polarity in (NEGATIVE, BOTH):
        acc.negative.add(decl)


def _walk_formula(formula: s.Formula, polarity: int, acc: _Acc) -> None:
    if isinstance(formula, s.Rel):
        acc.reads.add(formula.rel)
        _record_polarity(formula.rel, polarity, acc)
        for arg in formula.args:
            _walk_term(arg, polarity, acc)
        return
    if isinstance(formula, s.Eq):
        if isinstance(formula.lhs, s.Var) and isinstance(formula.rhs, s.Var):
            acc.cardinality.add(formula.lhs.sort)
        _walk_term(formula.lhs, polarity, acc)
        _walk_term(formula.rhs, polarity, acc)
        return
    if isinstance(formula, s.Not):
        flipped = -polarity if polarity else BOTH
        _walk_formula(formula.arg, flipped, acc)
        return
    if isinstance(formula, (s.And, s.Or)):
        for arg in formula.args:
            _walk_formula(arg, polarity, acc)
        return
    if isinstance(formula, s.Implies):
        _walk_formula(formula.lhs, -polarity if polarity else BOTH, acc)
        _walk_formula(formula.rhs, polarity, acc)
        return
    if isinstance(formula, s.Iff):
        _walk_formula(formula.lhs, BOTH, acc)
        _walk_formula(formula.rhs, BOTH, acc)
        return
    if isinstance(formula, (s.Forall, s.Exists)):
        for var in formula.vars:
            acc.quantified.add(var.sort)
        _walk_formula(formula.body, polarity, acc)
        return
    raise TypeError(f"not a formula: {formula!r}")


def formula_footprint(formula: s.Formula, polarity: int = POSITIVE) -> Footprint:
    """Polarity-aware footprint of one formula (``writes`` is empty)."""
    acc = _Acc()
    _walk_formula(formula, polarity, acc)
    return acc.footprint()


def command_footprint(command: Command) -> Footprint:
    """Footprint of a command: writes from assignments, reads from formulas.

    An assigned symbol also counts as read when its update formula/term
    mentions it (e.g. ``pending := pending \\ {...}``).
    """
    acc = _Acc()
    for sub in subcommands(command):
        if isinstance(sub, Assume):
            _walk_formula(sub.formula, POSITIVE, acc)
        elif isinstance(sub, UpdateRel):
            _walk_formula(sub.formula, BOTH, acc)
            for var in sub.params:
                acc.quantified.add(var.sort)
        elif isinstance(sub, UpdateFunc):
            _walk_term(sub.term, BOTH, acc)
            for var in sub.params:
                acc.quantified.add(var.sort)
    return acc.footprint(writes=assigned_symbols(command))


def transition_footprints(program: Program) -> list[tuple[str, Footprint]]:
    """Per-transition footprints: one entry per labeled body branch.

    A body that is a labeled :class:`Choice` (the idiomatic RML shape)
    yields one footprint per branch under its label; any other body is a
    single ``body`` transition.  ``init`` and ``final`` are appended when
    non-trivial.
    """
    out: list[tuple[str, Footprint]] = []
    body = program.body
    if isinstance(body, Choice) and body.branches:
        for index, branch in enumerate(body.branches):
            out.append((body.branch_label(index), command_footprint(branch)))
    else:
        out.append(("body", command_footprint(body)))
    for label, command in (("init", program.init), ("final", program.final)):
        footprint = command_footprint(command)
        if footprint.reads or footprint.writes:
            out.append((label, footprint))
    return out


# ------------------------------------------------------------ dependency graph


@dataclass(frozen=True)
class DepEdge:
    """Two symbols co-occurring in one source, with provenance."""

    src: str
    dst: str
    via: str  # "axiom a" / "invariant inv" / "transition send" / ...
    span: Span | None = None


@dataclass(frozen=True)
class DependencyGraph:
    """The program-level symbol-dependency graph (undirected, labeled)."""

    edges: tuple[DepEdge, ...]
    symbols: tuple[str, ...]

    def neighbors(self, name: str) -> frozenset[str]:
        out = set()
        for edge in self.edges:
            if edge.src == name:
                out.add(edge.dst)
            elif edge.dst == name:
                out.add(edge.src)
        return frozenset(out)

    def reachable(self, seeds: Iterable[str]) -> frozenset[str]:
        """Symbols transitively connected to any seed."""
        frontier = list(seeds)
        seen = set(frontier)
        adjacency: dict[str, set[str]] = {}
        for edge in self.edges:
            adjacency.setdefault(edge.src, set()).add(edge.dst)
            adjacency.setdefault(edge.dst, set()).add(edge.src)
        while frontier:
            name = frontier.pop()
            for other in adjacency.get(name, ()):
                if other not in seen:
                    seen.add(other)
                    frontier.append(other)
        return frozenset(seen)


def _labeled_sources(
    program: Program,
    conjectures: Sequence[tuple[str, s.Formula]] = (),
) -> Iterator[tuple[str, Footprint, Span | None]]:
    for axiom in program.axioms:
        yield (
            f"axiom {axiom.name}",
            formula_footprint(axiom.formula),
            axiom.span or s.span_of(axiom.formula),
        )
    for invariant in program.invariants:
        yield (
            f"invariant {invariant.name}",
            formula_footprint(invariant.formula),
            invariant.span or s.span_of(invariant.formula),
        )
    for name, formula in conjectures:
        yield f"conjecture {name}", formula_footprint(formula), s.span_of(formula)
    for label, footprint in transition_footprints(program):
        yield f"transition {label}", footprint, None


def build_dependency_graph(
    program: Program,
    conjectures: Sequence[tuple[str, s.Formula]] = (),
) -> DependencyGraph:
    """Connect symbols that co-occur in an axiom, invariant, or transition."""
    edges: dict[tuple[str, str, str], DepEdge] = {}
    symbols: set[str] = set()
    for via, footprint, span in _labeled_sources(program, conjectures):
        names = sorted({decl.name for decl in footprint.reads | footprint.writes})
        symbols.update(names)
        for i, src in enumerate(names):
            for dst in names[i + 1 :]:
                key = (src, dst, via)
                if key not in edges:
                    edges[key] = DepEdge(src, dst, via, span)
    ordered = tuple(edges[key] for key in sorted(edges))
    return DependencyGraph(ordered, tuple(sorted(symbols)))


# ------------------------------------------------------------------- slicing


@dataclass(frozen=True)
class SliceResult:
    """Outcome of cone-of-influence slicing for one obligation."""

    kept: tuple[tuple[str, s.Formula], ...]
    dropped: tuple[tuple[str, s.Formula], ...]
    relevant: frozenset[Decl]

    @property
    def dropped_labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.dropped)

    @property
    def ratio(self) -> float:
        """Fraction of hypothesis conjuncts dropped (0.0 when none)."""
        total = len(self.kept) + len(self.dropped)
        return len(self.dropped) / total if total else 0.0


def slice_hypotheses(
    goal: s.Formula,
    hypotheses: Sequence[tuple[str, s.Formula]],
) -> SliceResult:
    """Drop hypothesis conjuncts outside the goal's cone of influence.

    The closure connects a hypothesis when (a) it shares a symbol with the
    relevant set, (b) it cardinality-constrains a sort the relevant set
    touches, (c) a relevant conjunct cardinality-constrains a sort it
    touches, or (d) it mentions no symbol at all but touches a relevant
    sort (pure-equality formulas).  Everything else is provably outside
    the connected component containing the goal -- though the *engine*
    still re-solves the full VC on SAT, so even this guard is about
    avoiding fallbacks, not about soundness.
    """
    annotated = [
        (label, formula, formula_footprint(formula))
        for label, formula in hypotheses
    ]
    goal_fp = formula_footprint(goal)
    relevant: set[Decl] = set(goal_fp.reads)
    relevant_sorts: set[Sort] = set(goal_fp.sorts())
    card_sorts: set[Sort] = set(goal_fp.cardinality)
    kept_indices: set[int] = set()
    changed = True
    while changed:
        changed = False
        for index, (_, _, fp) in enumerate(annotated):
            if index in kept_indices:
                continue
            fp_sorts = fp.sorts()
            connected = bool(
                (fp.reads & relevant)
                or (fp.cardinality & relevant_sorts)
                or (card_sorts & fp_sorts)
                or (not fp.reads and fp_sorts & relevant_sorts)
            )
            if connected:
                kept_indices.add(index)
                relevant |= fp.reads
                relevant_sorts |= fp_sorts
                card_sorts |= fp.cardinality
                changed = True
    kept = tuple(
        (label, formula)
        for index, (label, formula, _) in enumerate(annotated)
        if index in kept_indices
    )
    dropped = tuple(
        (label, formula)
        for index, (label, formula, _) in enumerate(annotated)
        if index not in kept_indices
    )
    return SliceResult(kept, dropped, frozenset(relevant))


def slice_vc(
    vocab: Vocabulary,
    hypotheses: Sequence[tuple[str, s.Formula]],
    goal: s.Formula,
) -> tuple[s.Formula, Vocabulary, SliceResult]:
    """Sliced VC + restricted grounding vocabulary for one obligation.

    Returns ``(sliced_vc, restricted_vocab, slice_result)``.  The
    vocabulary restriction is the larger lever: ``ground_universe``
    builds the Herbrand universe from every *declared* constant and
    closes it under every declared function, so dropping the symbols the
    sliced VC never mentions shrinks the instantiation domains directly.
    That is complete for the sliced formula (its Herbrand models only
    need its own constants, function images, and one default element per
    empty sort) and soundness of the whole scheme never rests on it: SAT
    answers are re-checked against the full VC over the full vocabulary.
    """
    result = slice_hypotheses(goal, hypotheses)
    sliced = s.and_(*(formula for _, formula in result.kept), goal)
    restricted = vocab.restricted(s.symbols_of(sliced))
    return sliced, restricted, result
