"""The interactive invariant-search session (paper Figure 5).

:class:`Session` maintains the candidate invariant as a set of named
universal conjectures and drives the loop:

1. check inductiveness (Eq. 2); done if it holds;
2. otherwise obtain a (minimal) CTI and hand it to the *user*;
3. the user strengthens (adds a conjecture -- usually produced by
   interactive generalization), weakens (removes a conjecture), or stops.

The paper's user is a person in front of a graphical UI; here the user is a
*policy object* (:mod:`repro.core.policy`), which makes sessions replayable
and testable while preserving the division of labor: everything the session
does itself is automatic and decidable, every creative choice goes through
the policy.  The session records a transcript and counts CTIs -- column G
of Figure 14 is exactly ``Session.cti_count`` after a successful run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, Sequence

from ..logic import syntax as s
from ..logic.partial import PartialStructure, from_structure
from ..rml.ast import Program
from .bounded import _Unroller, make_unroller
from .generalize import GeneralizeResult, auto_generalize, check_unreachable
from .induction import CTI, Conjecture, InductionResult, check_inductive, check_initiation
from .minimize import Measure, MinimalCTIResult, find_minimal_cti


class SessionError(Exception):
    """An invalid session operation (duplicate names, failing initiation...)."""


@dataclass(frozen=True)
class AddConjecture:
    conjecture: Conjecture


@dataclass(frozen=True)
class RemoveConjecture:
    name: str


@dataclass(frozen=True)
class Stop:
    reason: str


Action = AddConjecture | RemoveConjecture | Stop


class Policy(Protocol):
    """The "user": decides how to respond to a CTI."""

    def decide(self, session: "Session", cti: CTI) -> Action: ...


@dataclass(frozen=True)
class SearchOutcome:
    success: bool
    conjectures: tuple[Conjecture, ...]
    cti_count: int  # column G of Figure 14
    iterations: int
    reason: str = ""
    transcript: tuple[str, ...] = ()


class Session:
    """One interactive verification session over a fixed program."""

    def __init__(
        self,
        program: Program,
        initial: Sequence[Conjecture] = (),
        bmc_bound: int = 3,
        measures: Sequence[Measure] | None = None,
        ledger=None,
    ) -> None:
        self.program = program
        self.conjectures: list[Conjecture] = list(initial)
        names = [c.name for c in self.conjectures]
        if len(set(names)) != len(names):
            raise SessionError("duplicate conjecture names in the initial set")
        self.bmc_bound = bmc_bound
        self.measures = measures
        #: optional :class:`repro.proof.ledger.Ledger`; inductiveness
        #: checks consult it before solving and record discharged
        #: obligations, so a rerun of a finished session is free.
        self.ledger = ledger
        self.cti_count = 0
        self.transcript: list[str] = []
        # One shared unroller: generalization checks at several depths reuse
        # the same transition encodings.
        self._unroller: _Unroller | None = None

    @classmethod
    def from_program(
        cls,
        program: Program,
        extra: Sequence[Conjecture] = (),
        **kwargs,
    ) -> "Session":
        """A session seeded from the program's named ``invariant`` decls.

        Declared invariants become the initial conjecture set (in
        declaration order), followed by any ``extra`` conjectures whose
        names are not already taken.
        """
        initial: list[Conjecture] = [
            Conjecture(inv.name, inv.formula) for inv in program.invariants
        ]
        names = {c.name for c in initial}
        initial.extend(c for c in extra if c.name not in names)
        return cls(program, initial, **kwargs)

    # ------------------------------------------------------------- plumbing

    def _log(self, message: str) -> None:
        self.transcript.append(message)

    @property
    def unroller(self) -> _Unroller:
        if self._unroller is None:
            self._unroller = make_unroller(self.program)
        return self._unroller

    def conjecture_named(self, name: str) -> Conjecture | None:
        for conjecture in self.conjectures:
            if conjecture.name == name:
                return conjecture
        return None

    # ------------------------------------------------------------ the loop

    def check(self) -> InductionResult:
        """One inductiveness check of the current conjecture set."""
        return check_inductive(
            self.program, self.conjectures, ledger=self.ledger,
            engine="session",
        )

    def find_cti(self) -> MinimalCTIResult:
        """A minimal CTI for the current conjecture set (Algorithm 1)."""
        measures = self.measures if self.measures is not None else ()
        return find_minimal_cti(self.program, self.conjectures, measures)

    def add_conjecture(self, conjecture: Conjecture, require_initiation: bool = True) -> None:
        """Strengthen the candidate invariant.

        Conjectures must satisfy initiation (the session maintains that
        invariant of the search, Section 4.2); violating ones are rejected.
        """
        if self.conjecture_named(conjecture.name) is not None:
            raise SessionError(f"conjecture {conjecture.name!r} already present")
        if require_initiation:
            result = check_initiation(self.program, conjecture)
            if result.satisfiable:
                raise SessionError(
                    f"conjecture {conjecture.name!r} fails initiation"
                )
        self.conjectures.append(conjecture)
        self._log(f"add {conjecture.name}: {conjecture.formula}")

    def remove_conjecture(self, name: str) -> None:
        """Weaken the candidate invariant."""
        conjecture = self.conjecture_named(name)
        if conjecture is None:
            raise SessionError(f"no conjecture named {name!r}")
        self.conjectures.remove(conjecture)
        self._log(f"remove {name}")

    # ------------------------------------------------------ generalization

    def cti_partial(self, cti: CTI, include_scratch: bool = False) -> PartialStructure:
        """The CTI state as a partial structure.

        Facts about havocked scratch variables are dropped by default: they
        are not protocol state, and keeping them lets Auto Generalize
        produce bogus conjectures that are k-unreachable only because the
        scratch value is incidental.
        """
        from ..rml.ast import havocked_symbols

        partial = from_structure(cti.state)
        if not include_scratch:
            scratch = (
                havocked_symbols(self.program.init)
                | havocked_symbols(self.program.body)
                | havocked_symbols(self.program.final)
            )
            for decl in scratch:
                partial = partial.forget(decl)
        return partial

    def generalize(
        self, upper_bound: PartialStructure, bound: int | None = None
    ) -> GeneralizeResult:
        """BMC + Auto Generalize with the session's shared unroller."""
        k = bound if bound is not None else self.bmc_bound
        return auto_generalize(self.program, upper_bound, k, self.unroller)

    def validate_generalization(
        self, upper_bound: PartialStructure, bound: int | None = None
    ):
        k = bound if bound is not None else self.bmc_bound
        return check_unreachable(self.program, upper_bound, k, self.unroller)

    # ----------------------------------------------------------------- run

    def run(self, policy: Policy, max_iterations: int = 64) -> SearchOutcome:
        """Drive the Figure 5 loop until an inductive invariant is found."""
        for iteration in range(max_iterations):
            result = self.find_cti()
            if result.cti is None:
                self._log(f"inductive after {iteration} iterations")
                return SearchOutcome(
                    True,
                    tuple(self.conjectures),
                    self.cti_count,
                    iteration,
                    "inductive invariant found",
                    tuple(self.transcript),
                )
            self.cti_count += 1
            self._log(f"CTI #{self.cti_count}: {result.cti.obligation.description}")
            action = policy.decide(self, result.cti)
            if isinstance(action, AddConjecture):
                if result.cti.state.satisfies(action.conjecture.formula):
                    self._log(
                        f"warning: {action.conjecture.name} does not eliminate the CTI"
                    )
                self.add_conjecture(action.conjecture)
            elif isinstance(action, RemoveConjecture):
                self.remove_conjecture(action.name)
            elif isinstance(action, Stop):
                self._log(f"stopped: {action.reason}")
                return SearchOutcome(
                    False,
                    tuple(self.conjectures),
                    self.cti_count,
                    iteration + 1,
                    action.reason,
                    tuple(self.transcript),
                )
            else:  # pragma: no cover - exhaustive
                raise TypeError(f"not an action: {action!r}")
        return SearchOutcome(
            False,
            tuple(self.conjectures),
            self.cti_count,
            max_iterations,
            "iteration limit reached",
            tuple(self.transcript),
        )
