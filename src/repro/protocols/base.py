"""Shared infrastructure for the protocol models of Section 5.

Each protocol is one RML file, ``<name>.rml``, packaged next to this
module.  Its module's ``build()`` calls :func:`load`, which parses the
file into a :class:`ProtocolBundle`: the RML program, the initial
conjecture set (the safety property), the known full inductive invariant
(the file's ``invariant`` declarations -- the end product of the paper's
interactive sessions), and the bookkeeping of the Figure 14 table.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from ..core.induction import Conjecture
from ..logic import syntax as s
from ..rml.ast import Program
from ..rml.parser import parse_program


@dataclass(frozen=True)
class ProtocolBundle:
    """A modeled protocol plus everything the evaluation needs."""

    program: Program
    safety: tuple[Conjecture, ...]  # initial conjectures (column C of Fig. 14)
    invariant: tuple[Conjecture, ...]  # full inductive invariant (column I)
    bmc_bound: int = 3  # debugging bound used in our runs

    def sort_count(self) -> int:
        """Column S of Figure 14."""
        return len(self.program.vocab.sorts)

    def symbol_count(self) -> int:
        """Column RF of Figure 14: relation plus function symbols.

        Following the paper's counting for its models, program variables
        (nullary functions that only carry havoc scratch values) are not
        counted as state symbols.
        """
        relations = len(self.program.vocab.relations)
        functions = sum(1 for f in self.program.vocab.functions if not f.is_constant)
        return relations + functions

    def literal_count(self, conjectures: tuple[Conjecture, ...]) -> int:
        """Total literal count of a conjecture set (columns C and I)."""
        return sum(_literals(c.formula) for c in conjectures)


def model_file(name: str):
    """The packaged ``<name>.rml`` model of a bundled protocol."""
    return resources.files(__package__).joinpath(f"{name}.rml")


def load(
    name: str, safety: tuple[str, ...] = ("C0",), bmc_bound: int = 3
) -> ProtocolBundle:
    """Parse the packaged model ``name`` into a bundle.

    The invariant is the file's ``invariant`` declarations in order;
    ``safety`` names the subset the interactive search starts from.
    Typechecking is left to the pre-flight of the solving subcommands.
    """
    program = parse_program(model_file(name).read_text(), check=False)
    invariant = tuple(Conjecture(i.name, i.formula) for i in program.invariants)
    named = {c.name: c for c in invariant}
    return ProtocolBundle(
        program=program,
        safety=tuple(named[n] for n in safety),
        invariant=invariant,
        bmc_bound=bmc_bound,
    )


def _literals(formula: s.Formula) -> int:
    if isinstance(formula, (s.Rel, s.Eq)):
        return 1
    if isinstance(formula, s.Not):
        return _literals(formula.arg)
    if isinstance(formula, (s.And, s.Or)):
        return sum(_literals(a) for a in formula.args)
    if isinstance(formula, (s.Implies, s.Iff)):
        return _literals(formula.lhs) + _literals(formula.rhs)
    if isinstance(formula, (s.Forall, s.Exists)):
        return _literals(formula.body)
    raise TypeError(f"not a formula: {formula!r}")
