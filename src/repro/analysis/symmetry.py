"""Program-level sort-symmetry detection.

A sort is *interchangeable* when its elements are indistinguishable by
the program text -- no constant of the sort occurs in any formula, no
declared relation takes two or more arguments of the sort (such a
relation can order it), and no proper function touches it.  This is the
symmetry notion of Finite Model Finding for Parameterized Verification.
:func:`analyze_program_symmetry` records every violation as a
:class:`Blocker` with a provenance span, so ``repro analyze`` can report
it and RML111 can name the single offending literal when a sort is one
blocker from interchangeable.  The report is static: the solver never
reads it.

Imports only the logic and rml layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..logic import syntax as s
from ..logic.lexer import Span
from ..logic.sorts import FuncDecl, Sort
from ..rml.ast import Assume, Program, UpdateFunc, UpdateRel, subcommands


@dataclass(frozen=True)
class Blocker:
    """One reason a sort is not interchangeable, with provenance."""

    reason: str
    span: Span | None = None


@dataclass(frozen=True)
class SortSymmetry:
    """Interchangeability verdict for one sort."""

    sort: Sort
    constants: tuple[FuncDecl, ...]
    blockers: tuple[Blocker, ...]

    @property
    def interchangeable(self) -> bool:
        return not self.blockers

    @property
    def nearly(self) -> bool:
        """Interchangeable but for a single blocker (RML111's trigger)."""
        return len(self.blockers) == 1


def _program_formulas(program: Program) -> list[tuple[s.Formula, Span | None]]:
    out: list[tuple[s.Formula, Span | None]] = []
    for axiom in program.axioms:
        out.append((axiom.formula, axiom.span or s.span_of(axiom.formula)))
    for invariant in program.invariants:
        out.append(
            (invariant.formula, invariant.span or s.span_of(invariant.formula))
        )
    for command in (program.init, program.body, program.final):
        for sub in subcommands(command):
            if isinstance(sub, (Assume, UpdateRel)):
                out.append((sub.formula, sub.span or s.span_of(sub.formula)))
    return out


def _term_constants(program: Program) -> list[tuple[FuncDecl, Span | None]]:
    """Constants referenced by UpdateFunc right-hand sides (ground anchors)."""
    out: list[tuple[FuncDecl, Span | None]] = []
    for command in (program.init, program.body, program.final):
        for sub in subcommands(command):
            if isinstance(sub, UpdateFunc):
                for decl in s.symbols_of(sub.term):
                    if isinstance(decl, FuncDecl) and decl.is_constant:
                        out.append((decl, sub.span))
    return out


def analyze_program_symmetry(
    program: Program,
    conjectures: Sequence[tuple[str, s.Formula]] = (),
) -> tuple[SortSymmetry, ...]:
    """Interchangeability report for every sort, blockers included."""
    vocab = program.vocab
    formulas = _program_formulas(program)
    formulas.extend((formula, s.span_of(formula)) for _, formula in conjectures)
    reports: list[SortSymmetry] = []
    for sort in vocab.sorts:
        blockers: list[Blocker] = []
        for func in vocab.proper_functions():
            if sort in func.arg_sorts or func.sort == sort:
                blockers.append(
                    Blocker(
                        f"function {func.name!r} ranges over sort {sort.name!r}",
                        program.decl_spans.get(func.name),
                    )
                )
        for rel in vocab.relations:
            if sum(1 for arg in rel.arg_sorts if arg == sort) >= 2:
                blockers.append(
                    Blocker(
                        f"relation {rel.name!r} takes two {sort.name!r} "
                        "arguments and can order the sort",
                        program.decl_spans.get(rel.name),
                    )
                )
        constants = tuple(c for c in vocab.constants() if c.sort == sort)
        constant_set = set(constants)
        seen_occurrences: set[str] = set()
        for formula, span in formulas:
            for decl in sorted(
                s.symbols_of(formula) & constant_set, key=lambda d: d.name
            ):
                if decl.name not in seen_occurrences:
                    seen_occurrences.add(decl.name)
                    blockers.append(
                        Blocker(
                            f"constant {decl.name!r} of sort {sort.name!r} "
                            "occurs in a formula",
                            span,
                        )
                    )
        for decl, span in _term_constants(program):
            if decl in constant_set and decl.name not in seen_occurrences:
                seen_occurrences.add(decl.name)
                blockers.append(
                    Blocker(
                        f"constant {decl.name!r} of sort {sort.name!r} "
                        "is assigned by a transition",
                        span,
                    )
                )
        reports.append(SortSymmetry(sort, constants, tuple(blockers)))
    return tuple(reports)
