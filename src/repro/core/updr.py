"""UPDR: property-directed inference of universal invariants.

The paper positions itself against fully automatic methods, in particular
UPDR (Karbyshev et al., CAV'15 -- reference [17]), which generalizes
IC3/PDR to universal first-order invariants: "The method is fragile,
however, and we were not successful in applying it to the examples
verified here.  Our goal in this work is to make this kind of technique
interactive."  This module implements the UPDR baseline so the comparison
can be reproduced (see ``benchmarks/bench_updr.py``).

Structure, following PDR:

* frames ``F_0 .. F_N``, each a set of universal clauses (negated diagrams
  of blocked partial structures); ``F_0`` is the initial condition,
  handled through ``wp(C_init, .)``;
* when ``F_N`` admits a safety violation, the offending state is *blocked*
  recursively: either a predecessor is found one frame down (a new proof
  obligation) or the diagram is generalized -- literals are dropped while
  the structure stays unreachable-from-``F_{i-1}`` and excluded initially
  -- and its negation is learned into frames ``1..i``;
* obligations reaching frame 0 yield an *abstract* counterexample: with a
  universal abstraction it may be spurious, so it is checked concretely
  with bounded model checking; a spurious one makes UPDR give up
  (:attr:`UpdrResult.UNKNOWN`) -- exactly the fragility the paper reports;
* after each round clauses are *pushed* forward; two equal adjacent frames
  mean an inductive invariant was found.
"""

from __future__ import annotations

import base64
import enum
import pickle
from dataclasses import dataclass, field
from typing import Sequence

from .. import obs
from ..obs import profile
from ..logic import syntax as s
from ..logic.partial import Fact, PartialStructure, conjecture, from_structure
from ..logic.sorts import FuncDecl, RelDecl
from ..rml.ast import Program, havocked_symbols
from ..rml.encode import TransitionEncoder, project_state
from ..rml.wp import wp, wp_body_safe, wp_final_safe
from ..solver.budget import Budget, FailureReason
from ..solver.dispatch import answers
from ..solver.epr import EprSolver
from .bounded import make_unroller
from .generalize import _diagram_parts
from .induction import Conjecture, check_inductive
from .trace import Trace


class UpdrStatus(enum.Enum):
    SAFE = "safe"  # inductive invariant found
    UNSAFE = "unsafe"  # concrete counterexample trace found
    UNKNOWN = "unknown"  # abstract counterexample was spurious
    DIVERGED = "diverged"  # frame/iteration budget exhausted


@dataclass
class UpdrResult:
    """``failure`` is set when the run ended because a *load-bearing* solver
    query exhausted its budget even after ``restarts`` reruns with doubled
    budgets; such an UNKNOWN is a resource verdict, distinct from the
    spurious-abstract-counterexample UNKNOWN (``failure is None``)."""

    status: UpdrStatus
    invariant: tuple[Conjecture, ...] = ()
    frames_used: int = 0
    clauses_learned: int = 0
    trace: Trace | None = None
    statistics: dict[str, int] = field(default_factory=dict)
    failure: FailureReason | None = None
    restarts: int = 0


class _BudgetExhausted(Exception):
    """A blocking-path query came back UNKNOWN; the run must restart."""

    def __init__(self, failure: FailureReason | None) -> None:
        super().__init__(failure.value if failure else "unknown")
        self.failure = failure or FailureReason.TIMEOUT


def _encode_state(obj) -> str:
    """Pickle + base64: journal lines are JSON, engine state is not."""
    return base64.b64encode(pickle.dumps(obj)).decode("ascii")


def _decode_state(text: str):
    return pickle.loads(base64.b64decode(text.encode("ascii")))


class _Updr:
    def __init__(
        self,
        program: Program,
        max_frames: int,
        max_obligations: int,
        jobs: int | None = None,
        budget: Budget | None = None,
        ledger=None,
        journal=None,
    ):
        self.program = program
        self.max_frames = max_frames
        self.max_obligations = max_obligations
        self.jobs = jobs
        self.budget = budget
        self.ledger = ledger
        self.axioms = program.axiom_formula
        self.safety = s.and_(wp_body_safe(program), wp_final_safe(program))
        # frames[i]: list of blocked partial structures (clauses are their
        # negated diagrams); frame 0 is the initial condition, kept
        # implicitly through wp(C_init).
        self.frames: list[list[PartialStructure]] = [[], []]
        self.encoder = TransitionEncoder(program)
        self.step = self.encoder.encode_step(
            program.body, self.encoder.base_env(), "updr"
        )
        # Frame 0 is the initial condition; one-step-from-init queries go
        # through the bounded unroller (init encoding + one transition).
        self.unroller = make_unroller(program, budget)
        self.scratch = frozenset(
            havocked_symbols(program.init)
            | havocked_symbols(program.body)
            | havocked_symbols(program.final)
        )
        self.statistics: dict[str, int] = {"solver_calls": 0}
        self.clauses_learned = 0
        self.journal = journal
        self.journal_key = ""
        if journal is not None:
            from ..proof.ledger import program_fingerprint

            self.journal_key = f"{program_fingerprint(program)}:updr"
            self._restore_from_journal()

    # ------------------------------------------------------------- journal

    def _restore_from_journal(self) -> None:
        """Rebuild frame state from the journal's snapshot + clause events.

        A killed run left (a) a frame snapshot per fully pushed frame and
        (b) one incremental event per clause learned since.  The latest
        snapshot wins; clause events recorded after it are re-applied on
        top.  Everything journaled is a *sound lemma* (learned clauses
        block conclusively-refuted predecessors), so replaying state is
        safe even across budget escalations.
        """
        events = self.journal.events_of(
            ("updr.frames", "updr.clause"), self.journal_key
        )
        snapshot = None
        trailing: list[dict] = []
        for event in events:
            if event.kind == "updr.frames":
                snapshot = event.data
                trailing = []
            else:
                trailing.append(event.data)
        restored = 0
        if snapshot is not None:
            self.frames = _decode_state(snapshot["frames"])
            self.clauses_learned = snapshot["clauses"]
            restored += 1
        for data in trailing:
            generalized = _decode_state(data["clause"])
            level = data["level"]
            for index in range(1, level + 1):
                while len(self.frames) <= index:
                    self.frames.append([])
                self.frames[index].append(generalized)
            self.clauses_learned += 1
            restored += 1
        if restored:
            self.journal.mark_reused(restored)
            obs.point(
                "updr.restore",
                events=restored,
                frames=len(self.frames),
                clauses=self.clauses_learned,
            )

    def _journal_frames(self) -> None:
        """Snapshot the pushed frames (called as each new frame opens)."""
        if self.journal is not None:
            self.journal.append(
                "updr.frames",
                self.journal_key,
                frames=_encode_state(self.frames),
                clauses=self.clauses_learned,
            )

    def _journal_clause(self, generalized: PartialStructure, level: int) -> None:
        if self.journal is not None:
            self.journal.append(
                "updr.clause",
                self.journal_key,
                level=level,
                clause=_encode_state(generalized),
            )

    # --------------------------------------------------------------- util

    def _frame_formula(self, index: int) -> s.Formula:
        clauses = []
        for i in range(index, len(self.frames)):
            clauses.extend(conjecture(p) for p in self.frames[i])
        return s.and_(*clauses)

    def _count(self, result) -> None:
        self.statistics["solver_calls"] += 1
        for key, value in result.statistics.items():
            if key in ("instances", "conflicts"):
                self.statistics[key] = self.statistics.get(key, 0) + value
        obs.count_engine_queries("updr", (result,))

    # ------------------------------------------------------------- checks

    def _violates_safety(self, frame: int):
        """A state in F_frame that can fail an assertion, or None.

        An UNKNOWN here is load-bearing -- without an answer the frame can
        neither be declared safe nor mined for a bad state -- so it aborts
        the run for a restart with a larger budget.
        """
        solver = EprSolver(self.program.vocab, budget=self.budget)
        solver.add(self.axioms, name="axioms")
        solver.add(self._frame_formula(frame), name="frame")
        solver.add(s.not_(self.safety), name="unsafe")
        result = solver.check()
        self._count(result)
        if result.unknown:
            raise _BudgetExhausted(result.failure)
        return result.model if result.satisfiable else None

    def _initial_violation(self, partial: PartialStructure) -> bool:
        """Can C_init produce a state containing ``partial``?

        UNKNOWN aborts for restart: blocking needs a definite answer
        (callers on conservative paths catch :class:`_BudgetExhausted`).
        """
        phi = conjecture(partial)
        vc = s.and_(self.axioms, s.not_(wp(self.program.init, phi, self.axioms)))
        solver = EprSolver(self.program.vocab, budget=self.budget)
        solver.add(vc, name="init")
        result = solver.check()
        self._count(result)
        if result.unknown:
            raise _BudgetExhausted(result.failure)
        return result.satisfiable

    def _predecessor_query(self, partial: PartialStructure, frame: int):
        """The F_{frame-1} predecessor query for ``partial``: a loaded
        solver plus the version environment to project a model through."""
        if frame <= 1:
            solver = self.unroller.solver_at(1)
            env = self.unroller.envs[1]
            hard, fact_formulas = _diagram_parts(partial, env, "post")
            project_env = self.unroller.envs[0]
        else:
            solver = EprSolver(self.encoder.extended_vocab(), budget=self.budget)
            solver.add(self.axioms, name="axioms")
            solver.add(self._frame_formula(frame - 1), name="frame")
            solver.add(self.step.formula, name="step")
            hard, fact_formulas = _diagram_parts(partial, self.step.post_env, "post")
            project_env = self.encoder.base_env()
        for index, constraint in enumerate(hard):
            solver.add(constraint, name=f"distinct{index}")
        for index, (_, formula) in enumerate(fact_formulas):
            solver.add(formula, name=f"fact{index}")
        return solver, project_env

    def _predecessor(self, partial: PartialStructure, frame: int):
        """A state in F_{frame-1} with a successor containing ``partial``.

        At ``frame == 1`` the predecessor must be an *initial* state, so the
        query runs over the init encoding plus one body transition.
        """
        solver, project_env = self._predecessor_query(partial, frame)
        result = solver.check()
        self._count(result)
        if result.unknown:
            raise _BudgetExhausted(result.failure)
        if not result.satisfiable:
            return None
        return project_state(result.model, self.program, project_env)

    def _generalize(self, partial: PartialStructure, frame: int) -> PartialStructure:
        """Drop facts while the structure stays unpreceded and init-excluded.

        Generalization is best-effort: an UNKNOWN on a drop attempt just
        keeps the fact (the learned clause stays sound, merely less
        general), rather than aborting the whole run.
        """
        candidate = partial
        with obs.span("updr.generalize", frame=frame) as sp:
            dropped = 0
            for fact in list(candidate.facts()):
                attempt = candidate.drop_fact(fact)
                try:
                    if self._initial_violation(attempt):
                        continue
                    if self._predecessor(attempt, frame) is not None:
                        continue
                except _BudgetExhausted:
                    continue
                candidate = attempt
                dropped += 1
            sp.set(dropped=dropped, kept=len(list(candidate.facts())))
        return candidate

    def _strip_scratch(self, partial: PartialStructure) -> PartialStructure:
        for decl in self.scratch:
            partial = partial.forget(decl)
        return partial

    # ----------------------------------------------------------- main loop

    def run(self) -> UpdrResult:
        obligations_spent = 0
        while True:
            frame = len(self.frames) - 1
            with obs.span(
                "updr.frame", frame=frame, clauses=self.clauses_learned
            ) as sp:
                model = self._violates_safety(frame)
                if model is not None:
                    sp.set(outcome="block")
                    partial = self._strip_scratch(from_structure(model))
                    outcome = self._block(partial, frame, obligations_spent)
                    if isinstance(outcome, UpdrResult):
                        return outcome
                    obligations_spent = outcome
                    continue
                # F_N is safe: push clauses forward, then open a new frame.
                sp.set(outcome="push")
                pushed = self._propagate()
                if pushed is not None:
                    return pushed
                if len(self.frames) > self.max_frames:
                    return UpdrResult(
                        UpdrStatus.DIVERGED,
                        frames_used=len(self.frames),
                        clauses_learned=self.clauses_learned,
                        statistics=self.statistics,
                    )
                self.frames.append([])
                # The frame below is now fully pushed: snapshot it, so a
                # killed run resumes here instead of re-verifying frames.
                self._journal_frames()

    def _block(self, partial: PartialStructure, frame: int, spent: int):
        stack: list[tuple[PartialStructure, int]] = [(partial, frame)]
        while stack:
            spent += 1
            if spent > self.max_obligations:
                return UpdrResult(
                    UpdrStatus.DIVERGED,
                    frames_used=len(self.frames),
                    clauses_learned=self.clauses_learned,
                    statistics=self.statistics,
                )
            current, level = stack[-1]
            if level == 0 or self._initial_violation(current):
                return self._refute_or_give_up(len(stack))
            predecessor = self._predecessor(current, level)
            if predecessor is not None:
                stack.append(
                    (self._strip_scratch(from_structure(predecessor)), level - 1)
                )
                continue
            # Unpreceded: generalize and learn its negation up to ``level``.
            generalized = self._generalize(current, level)
            for index in range(1, level + 1):
                while len(self.frames) <= index:
                    self.frames.append([])
                self.frames[index].append(generalized)
            self.clauses_learned += 1
            self._journal_clause(generalized, level)
            stack.pop()
        return spent

    def _refute_or_give_up(self, depth: int) -> UpdrResult:
        """An obligation chain reached the initial frame: check concretely."""
        from .bounded import find_error_trace

        concrete = find_error_trace(
            self.program, max(depth, len(self.frames)), budget=self.budget
        )
        if concrete.trace is not None:
            return UpdrResult(
                UpdrStatus.UNSAFE,
                trace=concrete.trace,
                frames_used=len(self.frames),
                clauses_learned=self.clauses_learned,
                statistics=self.statistics,
            )
        if concrete.unknown:
            # Could not even decide whether the abstract counterexample is
            # concrete -- restart with a larger budget.
            raise _BudgetExhausted(concrete.failures[0][1])
        # Spurious abstract counterexample: the universal abstraction cannot
        # decide this program -- the fragility the paper describes.
        return UpdrResult(
            UpdrStatus.UNKNOWN,
            frames_used=len(self.frames),
            clauses_learned=self.clauses_learned,
            statistics=self.statistics,
        )

    def _propagate(self) -> UpdrResult | None:
        """Push clauses forward; equal adjacent frames => inductive.

        Push attempts within one frame are mutually independent (a
        successful push only adds a clause the *source* frame already has,
        so sibling queries are unaffected); they are batched and, with
        ``jobs > 1``, solved in parallel.
        """
        for index in range(1, len(self.frames)):
            if index + 1 >= len(self.frames):
                continue
            candidates = [
                partial
                for partial in list(self.frames[index])
                if partial not in self.frames[index + 1]
            ]
            for partial, pushable in zip(
                candidates, self._pushable_batch(candidates, index)
            ):
                if pushable:
                    self.frames[index + 1].append(partial)
        for index in range(1, len(self.frames) - 1):
            this_frame = {conjecture(p) for p in self.frames[index]}
            next_frame = {conjecture(p) for p in self.frames[index + 1]}
            if this_frame == next_frame:
                invariant = self._harvest(index)
                if invariant is not None:
                    return invariant
        return None

    def _pushable_batch(
        self, partials: Sequence[PartialStructure], index: int
    ) -> list[bool]:
        """Which of ``partials`` have no F_index predecessor, from one
        dispatch answer stream.  UNKNOWN means non-pushable: pushing a
        clause whose consecution was not conclusively proved would make
        later frames unsound."""
        named = [
            (
                f"push{index}.{position}",
                lambda partial=partial: self._predecessor_query(partial, index + 1)[0],
            )
            for position, partial in enumerate(partials)
        ]
        with obs.span("updr.push", frame=index, candidates=len(partials)):
            results = list(answers(named, self.jobs))
        for result in results:
            self._count(result)
        return [result.is_unsat for result in results]

    def _harvest(self, index: int) -> UpdrResult | None:
        conjectures = [
            Conjecture(f"U{i}", conjecture(p))
            for i, p in enumerate(self.frames[index])
        ]
        result = check_inductive(
            self.program, conjectures, budget=self.budget,
            ledger=self.ledger, engine="updr",
        )
        if result.holds:
            return UpdrResult(
                UpdrStatus.SAFE,
                invariant=tuple(conjectures),
                frames_used=len(self.frames),
                clauses_learned=self.clauses_learned,
                statistics=self.statistics,
            )
        return None


def updr(
    program: Program,
    max_frames: int = 12,
    max_obligations: int = 400,
    jobs: int | None = None,
    budget: Budget | None = None,
    max_restarts: int = 2,
    ledger=None,
    journal=None,
) -> UpdrResult:
    """Run UPDR on ``program``; see the module docstring.

    With a ``budget``, a load-bearing UNKNOWN (safety probe, blocking
    query, or concrete refutation) restarts the whole run with all budget
    caps doubled, up to ``max_restarts`` times; if the final attempt still
    exhausts its budget the result is UNKNOWN with ``failure`` set.
    Conservative paths (generalization drops, clause pushes) degrade in
    place and never trigger a restart.

    A ``ledger`` (:class:`repro.proof.ledger.Ledger`) is consulted by the
    final inductiveness harvest, and the invariant UPDR converges on is
    recorded there with ``engine="updr"`` provenance.

    A ``journal`` records frame snapshots and learned clauses as the run
    progresses; a fresh engine constructed against the same journal
    restores them and continues (see :meth:`_Updr._restore_from_journal`).
    Budget-escalation restarts keep the journal too: everything recorded
    is a sound lemma, and re-deriving lemmas is exactly the waste the
    journal exists to prevent.
    """
    attempt_budget = budget
    restarts = 0
    with profile.engine("updr"), obs.span("updr", max_frames=max_frames) as sp:
        while True:
            engine = _Updr(
                program, max_frames, max_obligations, jobs,
                attempt_budget, ledger, journal,
            )
            try:
                with obs.span("updr.attempt", attempt=restarts):
                    result = engine.run()
            except _BudgetExhausted as exhausted:
                if restarts < max_restarts and attempt_budget is not None:
                    restarts += 1
                    attempt_budget = attempt_budget.escalated()
                    continue
                sp.set(status=UpdrStatus.UNKNOWN.value, restarts=restarts)
                return UpdrResult(
                    UpdrStatus.UNKNOWN,
                    frames_used=len(engine.frames),
                    clauses_learned=engine.clauses_learned,
                    statistics=engine.statistics,
                    failure=exhausted.failure,
                    restarts=restarts,
                )
            result.restarts = restarts
            sp.set(
                status=result.status.value,
                restarts=restarts,
                frames=result.frames_used,
                clauses=result.clauses_learned,
            )
            return result
