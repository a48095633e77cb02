"""Lint rules over RML programs (codes ``RML101``-``RML111``, ``RML306``).

Unlike the well-formedness checks in :mod:`repro.rml.typecheck` (which
guard decidability), these flag *suspicious* programs: dead code, unused
declarations, vacuous assumptions.  All rules are collect-all and
warning-severity by default.

This module imports :mod:`repro.rml` and therefore must not be imported
from ``repro.analysis.__init__`` (see the layering note there); use
``from repro.analysis import lint``.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator

from ..logic import syntax as s
from ..logic.lexer import Span
from ..logic.sorts import FuncDecl, RelDecl, Sort
from ..rml.ast import (
    Assume,
    Choice,
    Command,
    Havoc,
    Program,
    Seq,
    UpdateFunc,
    UpdateRel,
    subcommands,
)
from ..rml.typecheck import program_diagnostics
from .diagnostics import Diagnostic, Diagnostics, Note
from .qag import qag_diagnostics

#: Give up on the propositional falsity check past this many distinct atoms.
_MAX_ATOMS = 12


def lint_program(
    program: Program,
    origin: str = "<program>",
    include_wellformedness: bool = True,
    include_qag: bool = True,
) -> tuple[Diagnostic, ...]:
    """Run every rule over ``program`` and return all diagnostics.

    ``include_wellformedness`` folds in the RML001-009 checks (so one lint
    pass reports fragment violations *and* lints); ``include_qag``
    additionally cycle-checks the quantifier-alternation graph of the
    program's no-abort VCs (RML201) when the program is well-formed enough
    to take weakest preconditions.
    """
    sink = Diagnostics(origin)
    if include_wellformedness:
        sink.extend(program_diagnostics(program))
    _unused_symbols(program, sink)
    _shadowed_binders(program, sink)
    _assume_false(program, sink)
    _dead_branches(program, sink)
    _noop_updates(program, sink)
    semantic_diagnostics(program, sink=sink)
    if include_qag:
        from .preflight import vc_formulas  # deferred: preflight imports core

        try:
            labeled = vc_formulas(program)
        except Exception:
            # wp over a badly ill-formed program; the RML00x diagnostics
            # already explain why, so just skip the decidability pass.
            labeled = []
        qag_diagnostics(labeled, sink)
    return sink.items


# ---------------------------------------------------------------------------
# RML101-103: unused declarations
# ---------------------------------------------------------------------------


def _program_formulas(program: Program) -> Iterator[tuple[s.Formula, Span | None]]:
    """Every formula in the program, with the best-known span."""
    for axiom in program.axioms:
        yield axiom.formula, axiom.span or s.span_of(axiom.formula)
    for command in _program_commands(program):
        span = getattr(command, "span", None)
        if isinstance(command, Assume):
            yield command.formula, s.span_of(command.formula) or span
        elif isinstance(command, UpdateRel):
            yield command.formula, s.span_of(command.formula) or span
        elif isinstance(command, UpdateFunc):
            yield from _term_formulas(command.term, span)


def _term_formulas(
    term: s.Term, span: Span | None
) -> Iterator[tuple[s.Formula, Span | None]]:
    if isinstance(term, s.App):
        for arg in term.args:
            yield from _term_formulas(arg, span)
    elif isinstance(term, s.Ite):
        yield term.cond, s.span_of(term.cond) or span
        yield from _term_formulas(term.then, span)
        yield from _term_formulas(term.els, span)


def _program_commands(program: Program) -> Iterator[Command]:
    for root in (program.init, program.body, program.final):
        yield from subcommands(root)


def _unused_symbols(program: Program, sink: Diagnostics) -> None:
    used: set[str] = set()
    used_sorts: set[Sort] = set()

    def use_symbol(decl: RelDecl | FuncDecl) -> None:
        used.add(decl.name)
        used_sorts.update(decl.arg_sorts)
        if isinstance(decl, FuncDecl):
            used_sorts.add(decl.sort)

    for formula, _ in _program_formulas(program):
        for decl in s.symbols_of(formula):
            use_symbol(decl)
        for var in _bound_vars(formula):
            used_sorts.add(var.sort)
    for command in _program_commands(program):
        if isinstance(command, UpdateRel):
            use_symbol(command.rel)
        elif isinstance(command, UpdateFunc):
            use_symbol(command.func)
            for decl in s.symbols_of(command.term):
                use_symbol(decl)
        elif isinstance(command, Havoc):
            use_symbol(command.var)

    for rel in program.vocab.relations:
        if rel.name not in used:
            sink.emit(
                "RML102",
                f"relation {rel.name!r} is declared but never used",
                span=program.decl_spans.get(rel.name),
            )
    for func in program.vocab.functions:
        if func.name not in used:
            what = "variable" if func.is_constant else "function"
            sink.emit(
                "RML103",
                f"{what} {func.name!r} is declared but never used",
                span=program.decl_spans.get(func.name),
            )
    declared_by_symbols: set[Sort] = set()
    for rel in program.vocab.relations:
        declared_by_symbols.update(rel.arg_sorts)
    for func in program.vocab.functions:
        declared_by_symbols.update(func.arg_sorts)
        declared_by_symbols.add(func.sort)
    for sort in program.vocab.sorts:
        if sort not in used_sorts and sort not in declared_by_symbols:
            sink.emit(
                "RML101",
                f"sort {sort.name!r} is declared but never used",
                span=program.decl_spans.get(sort.name),
            )


def _bound_vars(formula: s.Formula) -> Iterator[s.Var]:
    if isinstance(formula, (s.Forall, s.Exists)):
        yield from formula.vars
        yield from _bound_vars(formula.body)
    elif isinstance(formula, s.Not):
        yield from _bound_vars(formula.arg)
    elif isinstance(formula, (s.And, s.Or)):
        for arg in formula.args:
            yield from _bound_vars(arg)
    elif isinstance(formula, (s.Implies, s.Iff)):
        yield from _bound_vars(formula.lhs)
        yield from _bound_vars(formula.rhs)


# ---------------------------------------------------------------------------
# RML104: shadowed binders
# ---------------------------------------------------------------------------


def _shadowed_binders(program: Program, sink: Diagnostics) -> None:
    for formula, span in _program_formulas(program):
        _shadow_walk(formula, frozenset(v.name for v in s.free_vars(formula)), span, sink)


def _shadow_walk(
    formula: s.Formula, scope: frozenset[str], span: Span | None, sink: Diagnostics
) -> None:
    if isinstance(formula, (s.Forall, s.Exists)):
        # Duplicates inside one vars tuple count too: the smart constructors
        # merge directly nested same-kind quantifiers into a single block, so
        # `forall X. forall X. ...` arrives here as one Forall((X, X), ...).
        kind = "forall" if isinstance(formula, s.Forall) else "exists"
        inner = set(scope)
        for var in formula.vars:
            if var.name in inner:
                sink.emit(
                    "RML104",
                    f"binder {var.name!r} in '{kind}' shadows an enclosing "
                    f"binding of the same name",
                    span=formula.span or span,
                )
            inner.add(var.name)
        _shadow_walk(formula.body, frozenset(inner), span, sink)
    elif isinstance(formula, s.Not):
        _shadow_walk(formula.arg, scope, span, sink)
    elif isinstance(formula, (s.And, s.Or)):
        for arg in formula.args:
            _shadow_walk(arg, scope, span, sink)
    elif isinstance(formula, (s.Implies, s.Iff)):
        _shadow_walk(formula.lhs, scope, span, sink)
        _shadow_walk(formula.rhs, scope, span, sink)


# ---------------------------------------------------------------------------
# RML105/106: vacuous assumes and dead branches
# ---------------------------------------------------------------------------


def equivalent_false(formula: s.Formula) -> bool:
    """Sound, incomplete falsity check by propositional abstraction.

    Distinct atoms (relations, equalities, whole quantified subformulas)
    become free booleans -- except ``t = t``, which is constantly true.  If
    no assignment satisfies the abstraction, no structure satisfies the
    formula.  Gives up (returns False) past ``_MAX_ATOMS`` atoms.
    """
    atoms: dict[s.Formula, int] = {}

    def gather(fml: s.Formula) -> None:
        if isinstance(fml, s.Eq):
            if fml.lhs != fml.rhs:
                atoms.setdefault(fml, len(atoms))
        elif isinstance(fml, (s.Rel, s.Forall, s.Exists)):
            atoms.setdefault(fml, len(atoms))
        elif isinstance(fml, s.Not):
            gather(fml.arg)
        elif isinstance(fml, (s.And, s.Or)):
            for arg in fml.args:
                gather(arg)
        elif isinstance(fml, (s.Implies, s.Iff)):
            gather(fml.lhs)
            gather(fml.rhs)

    gather(formula)
    if len(atoms) > _MAX_ATOMS:
        return False

    def evaluate(fml: s.Formula, bits: tuple[bool, ...]) -> bool:
        if isinstance(fml, s.Eq):
            return True if fml.lhs == fml.rhs else bits[atoms[fml]]
        if isinstance(fml, (s.Rel, s.Forall, s.Exists)):
            return bits[atoms[fml]]
        if isinstance(fml, s.Not):
            return not evaluate(fml.arg, bits)
        if isinstance(fml, s.And):
            return all(evaluate(a, bits) for a in fml.args)
        if isinstance(fml, s.Or):
            return any(evaluate(a, bits) for a in fml.args)
        if isinstance(fml, s.Implies):
            return (not evaluate(fml.lhs, bits)) or evaluate(fml.rhs, bits)
        if isinstance(fml, s.Iff):
            return evaluate(fml.lhs, bits) == evaluate(fml.rhs, bits)
        raise TypeError(f"not a formula: {fml!r}")

    return not any(
        evaluate(formula, bits) for bits in product((False, True), repeat=len(atoms))
    )


def _assume_false(program: Program, sink: Diagnostics) -> None:
    for command in _program_commands(program):
        if isinstance(command, Assume) and equivalent_false(command.formula):
            sink.emit(
                "RML105",
                "assume formula is equivalent to false (unreachable from here)",
                span=s.span_of(command.formula) or command.span,
            )


def _straight_line_assumes(command: Command) -> Iterator[Assume]:
    """Assumes that gate the whole command (not inside a nested choice)."""
    if isinstance(command, Assume):
        yield command
    elif isinstance(command, Seq):
        for child in command.commands:
            yield from _straight_line_assumes(child)


def _dead_branches(program: Program, sink: Diagnostics) -> None:
    for command in _program_commands(program):
        if not isinstance(command, Choice):
            continue
        for index, branch in enumerate(command.branches):
            dead = next(
                (
                    a
                    for a in _straight_line_assumes(branch)
                    if equivalent_false(a.formula)
                ),
                None,
            )
            if dead is not None:
                sink.emit(
                    "RML106",
                    f"choice branch {command.branch_label(index)!r} is dead: "
                    "it is gated by an assume equivalent to false",
                    span=getattr(branch, "span", None) or command.span,
                    notes=(
                        Note(
                            "this assume can never hold",
                            s.span_of(dead.formula) or dead.span,
                        ),
                    ),
                )


# ---------------------------------------------------------------------------
# RML107: identity (no-op) updates
# ---------------------------------------------------------------------------


def _noop_updates(program: Program, sink: Diagnostics) -> None:
    for command in _program_commands(program):
        if isinstance(command, UpdateRel):
            if command.formula == s.Rel(command.rel, command.params):
                sink.emit(
                    "RML107",
                    f"update of {command.rel.name!r} assigns the relation to "
                    "itself (no-op)",
                    span=s.span_of(command.formula) or command.span,
                )
        elif isinstance(command, UpdateFunc):
            if command.term == s.App(command.func, command.params):
                sink.emit(
                    "RML107",
                    f"update of {command.func.name!r} assigns the function to "
                    "itself (no-op)",
                    span=s.span_of(command.term) or command.span,
                )


# ---------------------------------------------------------------------------
# RML108-RML111 + RML306: semantic dependency and proof-coverage lints
# ---------------------------------------------------------------------------


def semantic_diagnostics(
    program: Program,
    origin: str = "<program>",
    sink: Diagnostics | None = None,
) -> tuple[Diagnostic, ...]:
    """Just the semantic rules (RML108-RML111, RML306).

    ``repro analyze`` runs these on their own -- the well-formedness and
    decidability codes belong to ``repro lint``; the analyzer reports what
    the dependency graph and the symmetry detector see.
    """
    sink = sink if sink is not None else Diagnostics(origin)
    _unread_writes(program, sink)
    _untouched_invariant_symbols(program, sink)
    _disconnected_axioms(program, sink)
    _symmetry_near_misses(program, sink)
    _unproved_invariants(program, sink)
    return sink.items


def _unread_writes(program: Program, sink: Diagnostics) -> None:
    """RML108: a transition writes a relation no invariant/property reads.

    Such a write can never influence the proof goal -- either the
    relation is scaffolding or an invariant about it is missing.  Only
    meaningful for programs that *declare* invariants, so programs
    without the proof layer stay quiet.
    """
    if not program.invariants:
        return
    from .deps import command_footprint, formula_footprint

    read: set[str] = set()
    for invariant in program.invariants:
        read.update(d.name for d in formula_footprint(invariant.formula).reads)
    final = command_footprint(program.final)
    read.update(d.name for d in final.reads | final.writes)
    body = command_footprint(program.body)
    for decl in sorted(body.writes, key=lambda d: d.name):
        if isinstance(decl, RelDecl) and decl.name not in read:
            sink.emit(
                "RML108",
                f"transition writes relation {decl.name!r} but no invariant "
                "or property reads it",
                span=program.decl_spans.get(decl.name),
            )


def _untouched_invariant_symbols(program: Program, sink: Diagnostics) -> None:
    """RML109: an invariant mentions symbols no transition touches.

    The conjunct constrains state the program never reads or writes --
    usually a stale invariant left over from a removed transition.
    """
    from .deps import command_footprint, formula_footprint

    touched: set[str] = set()
    for command in (program.init, program.body, program.final):
        footprint = command_footprint(command)
        touched.update(d.name for d in footprint.reads | footprint.writes)
    for axiom in program.axioms:
        touched.update(d.name for d in formula_footprint(axiom.formula).reads)
    for invariant in program.invariants:
        stale = sorted(
            d.name
            for d in formula_footprint(invariant.formula).reads
            if d.name not in touched
        )
        if stale:
            sink.emit(
                "RML109",
                f"invariant {invariant.name!r} mentions "
                f"{', '.join(repr(name) for name in stale)}, which no "
                "transition or axiom touches",
                span=invariant.span or s.span_of(invariant.formula),
            )


def _disconnected_axioms(program: Program, sink: Diagnostics) -> None:
    """RML110: an axiom shares no symbol, transitively, with the goal.

    Reachability runs over the program dependency graph (axioms,
    invariants, transitions all contribute co-occurrence edges), seeded
    with the invariant and final-command symbols; an axiom entirely
    outside that component cannot influence any obligation and its cone
    slice will always drop it.
    """
    if not program.invariants:
        return
    from .deps import build_dependency_graph, command_footprint, formula_footprint

    graph = build_dependency_graph(program)
    seeds: set[str] = set()
    for invariant in program.invariants:
        seeds.update(d.name for d in formula_footprint(invariant.formula).reads)
    final = command_footprint(program.final)
    seeds.update(d.name for d in final.reads | final.writes)
    reachable = graph.reachable(seeds)
    for axiom in program.axioms:
        names = {d.name for d in formula_footprint(axiom.formula).reads}
        if names and not names & reachable:
            sink.emit(
                "RML110",
                f"axiom {axiom.name!r} shares no symbol with the proof goal "
                "(cone-of-influence slicing will always drop it)",
                span=axiom.span or s.span_of(axiom.formula),
            )


def _symmetry_near_misses(program: Program, sink: Diagnostics) -> None:
    """RML111: a sort is one blocker from interchangeable."""
    from .symmetry import analyze_program_symmetry

    for report in analyze_program_symmetry(program):
        if report.nearly:
            blocker = report.blockers[0]
            sink.emit(
                "RML111",
                f"sort {report.sort.name!r} would be interchangeable "
                f"but for one blocker: {blocker.reason}",
                span=blocker.span,
            )


def _unproved_invariants(program: Program, sink: Diagnostics) -> None:
    """RML306: a named invariant no ``proof`` proves or uses.

    Only fires when the program declares proofs at all: a program using
    bare invariants without the proof layer is a different (fine) style.
    """
    if not program.proofs:
        return
    referenced: set[str] = set()
    for proof in program.proofs:
        referenced.update(proof.proves)
        referenced.update(proof.uses)
    for invariant in program.invariants:
        if invariant.name not in referenced:
            sink.emit(
                "RML306",
                f"invariant {invariant.name!r} is never referenced by any "
                "proof declaration",
                span=invariant.span or s.span_of(invariant.formula),
            )
