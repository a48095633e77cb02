"""Inductiveness checking and counterexamples to induction (CTIs).

Implements the three obligations of Eq. 2 for a candidate invariant
``I = /\\ phi_i`` given as a set of named universal conjectures:

* **initiation**: ``A => wp(C_init, phi_i)`` for every conjecture;
* **safety**: ``A & I => wp(C_final, true)`` and ``A & I => wp(C_body,
  true)`` -- no assertion can fail from an I-state;
* **consecution**: ``A & I => wp(C_body, phi_i)`` for every conjecture.

Each failed obligation yields a finite model of the negated implication
(Theorem 3.3): a **CTI** -- a state satisfying all current conjectures from
which one body execution aborts or violates some conjecture.  The successor
state shown to the user (the (a2) states of Figures 7-9) is recovered by
concretely executing the body from the CTI with the interpreter and picking
an outcome that witnesses the violation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Literal, Mapping, Sequence

from .. import obs
from ..obs import profile
from ..analysis import deps
from ..logic import syntax as s
from ..logic.fragments import is_universal
from ..logic.sorts import Vocabulary
from ..logic.structures import Structure
from ..rml.ast import Program
from ..rml.interp import Outcome, execute, successors
from ..rml.wp import wp
from ..solver.budget import Budget
from ..solver.dispatch import query_of, resolve_jobs, solve_queries
from ..solver.epr import EprResult, EprSolver

ObligationKind = Literal["initiation", "safety", "consecution"]


@dataclass(frozen=True)
class Conjecture:
    """A named universal conjecture, one conjunct of the candidate invariant."""

    name: str
    formula: s.Formula

    def __post_init__(self) -> None:
        if s.free_vars(self.formula):
            raise ValueError(f"conjecture {self.name!r} is not closed")
        if not is_universal(self.formula):
            raise ValueError(f"conjecture {self.name!r} is not universally quantified")

    def __str__(self) -> str:
        return f"{self.name}: {self.formula}"


@dataclass(frozen=True)
class Obligation:
    """One proof obligation ``premises => wp(command, post)``."""

    kind: ObligationKind
    description: str
    command_label: str  # "init", "body", or "final"
    target: str | None  # conjecture name being established, None for no-abort
    post: s.Formula  # the postcondition being established (true for no-abort)
    vc: s.Formula  # the exists*forall* satisfiability query (negated implication)
    #: cone-of-influence slice of ``vc`` (None when slicing is off or had
    #: no effect).  The slice keeps a subset of the hypothesis conjuncts,
    #: so it is a weakening: sliced-UNSAT refutes the full VC, while a
    #: sliced SAT/UNKNOWN answer proves nothing and the engines fall back
    #: to ``vc`` -- which also keeps CTI models identical to unsliced runs.
    sliced_vc: s.Formula | None = None
    #: grounding vocabulary restricted to the sliced VC's symbols
    sliced_vocab: Vocabulary | None = None
    #: labels of the hypothesis conjuncts the slice dropped
    sliced_dropped: tuple[str, ...] = ()


@dataclass(frozen=True)
class CTI:
    """A counterexample to induction (Section 4.2).

    ``state`` satisfies the axioms and every current conjecture;
    ``successor`` (when the obligation is consecution) is a state reachable
    from it in one body execution that violates ``violated``; for safety
    obligations the body/final execution aborts instead and ``successor`` is
    None.
    """

    obligation: Obligation
    state: Structure
    successor: Structure | None
    action: tuple[str, ...]  # choice labels of the violating execution

    @property
    def violated(self) -> str | None:
        return self.obligation.target

    def __str__(self) -> str:
        lines = [f"CTI ({self.obligation.description}):", "pre-state:"]
        lines.extend("  " + line for line in str(self.state).splitlines())
        if self.successor is not None:
            lines.append(f"successor via {' / '.join(self.action) or 'body'}:")
            lines.extend("  " + line for line in str(self.successor).splitlines())
        return "\n".join(lines)


@dataclass(frozen=True)
class InductionResult:
    """Outcome of an inductiveness check.

    ``unknown_obligations`` names obligations whose query exhausted its
    budget.  When it is non-empty and no CTI was found the check is
    *inconclusive*: ``holds`` is False but ``cti`` is None -- the candidate
    was neither proved nor refuted.
    """

    holds: bool
    cti: CTI | None = None
    statistics: dict[str, int] = field(default_factory=dict)
    unknown_obligations: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.holds


def obligations(
    program: Program,
    conjectures: Sequence[Conjecture],
    lemmas: Sequence[Conjecture] = (),
    include_no_abort: bool = True,
    sliced: bool | None = None,
) -> list[Obligation]:
    """The full list of Eq. 2 obligations for the candidate invariant.

    ``lemmas`` are previously proven invariants (the proof layer's
    ``with``-clauses): their conjunction joins the premises of every
    safety and consecution obligation -- a proven invariant holds in any
    reachable pre-state -- but *not* of initiation (the pre-init state is
    arbitrary), and they incur no obligations of their own.  The proof
    manager sets ``include_no_abort=False`` for proof nodes, deferring
    the program-wide no-abort check until every invariant is available
    as a premise.

    ``sliced`` forces cone-of-influence slicing on (True) or off (False);
    the default consults ``REPRO_SLICE`` -- ``repro analyze`` passes True
    so its slice preview reflects the analysis even under ``--no-slice``.
    """
    axioms = program.axiom_formula
    invariant = s.and_(*(c.formula for c in conjectures))
    assumed: tuple[s.Formula, ...] = tuple(c.formula for c in lemmas)
    axiom_pool = [(f"axiom {a.name}", a.formula) for a in program.axioms]
    premise_pool = (
        axiom_pool
        + [(f"lemma {c.name}", c.formula) for c in lemmas]
        + [(f"conjecture {c.name}", c.formula) for c in conjectures]
    )
    if sliced is None:
        sliced = deps.slicing_enabled()
    out: list[Obligation] = []
    for conjecture in conjectures:
        goal = s.not_(wp(program.init, conjecture.formula, axioms))
        vc = s.and_(axioms, goal)
        out.append(
            Obligation(
                "initiation",
                f"initiation of {conjecture.name}",
                "init",
                conjecture.name,
                conjecture.formula,
                vc,
                **(_slice_fields(program, axiom_pool, goal, vc) if sliced else {}),
            )
        )
    if include_no_abort:
        for label, command in (("final", program.final), ("body", program.body)):
            no_abort = wp(command, s.TRUE, axioms)
            if no_abort == s.TRUE:
                continue
            goal = s.not_(no_abort)
            vc = s.and_(axioms, *assumed, invariant, goal)
            out.append(
                Obligation(
                    "safety", f"no abort via {label}", label, None, s.TRUE, vc,
                    **(_slice_fields(program, premise_pool, goal, vc)
                       if sliced else {}),
                )
            )
    for conjecture in conjectures:
        goal = s.not_(wp(program.body, conjecture.formula, axioms))
        vc = s.and_(axioms, *assumed, invariant, goal)
        out.append(
            Obligation(
                "consecution",
                f"consecution of {conjecture.name}",
                "body",
                conjecture.name,
                conjecture.formula,
                vc,
                **(_slice_fields(program, premise_pool, goal, vc)
                   if sliced else {}),
            )
        )
    return out


def _slice_fields(
    program: Program,
    hypotheses: Sequence[tuple[str, s.Formula]],
    goal: s.Formula,
    vc: s.Formula,
) -> dict:
    """Sliced-VC keyword fields for one obligation (empty when a no-op).

    The hypothesis pool is sliced by cone of influence from the goal and
    the grounding vocabulary restricted to the surviving symbols; when
    neither drops anything the obligation carries no slice and the solve
    path is byte-identical to ``--no-slice``.
    """
    sliced_vc, vocab, result = deps.slice_vc(program.vocab, hypotheses, goal)
    if not result.dropped and vocab is program.vocab:
        return {}
    if sliced_vc == vc and vocab is program.vocab:
        return {}
    return {
        "sliced_vc": sliced_vc,
        "sliced_vocab": vocab,
        "sliced_dropped": result.dropped_labels,
    }


def obligation_premises(
    obligation: Obligation,
    conjectures: Sequence[Conjecture],
    lemmas: Sequence[Conjecture] = (),
) -> tuple[s.Formula, ...]:
    """The formulas an obligation assumes beyond the axioms.

    This is the premise set the ledger hashes into an obligation's key:
    initiation assumes nothing, safety and consecution assume the proven
    lemmas plus the whole conjecture set (mutual induction).
    """
    if obligation.kind == "initiation":
        return ()
    return tuple(c.formula for c in lemmas) + tuple(c.formula for c in conjectures)


def _ledger_split(
    program: Program,
    pending: Sequence[Obligation],
    conjectures: Sequence[Conjecture],
    lemmas: Sequence[Conjecture],
    ledger,
    journal=None,
) -> tuple[list[Obligation], dict[int, tuple[str, str, str, str]], int, int]:
    """Partition obligations into (to solve, keys by index, ledger hits,
    journal hits).

    The run journal shares the ledger's content keys: an obligation the
    killed run conclusively discharged is skipped here exactly like a
    ledgered one, just with run-local scope.  Either store may be None.
    """
    from ..proof.ledger import keys_of, program_fingerprint

    program_hash = program_fingerprint(program)
    to_solve: list[Obligation] = []
    keys: dict[int, tuple[str, str, str, str]] = {}
    hits = 0
    journal_hits = 0
    with profile.phase("ledger"):
        for obligation in pending:
            parts = keys_of(
                program,
                obligation,
                obligation_premises(obligation, conjectures, lemmas),
                program_hash=program_hash,
            )
            if ledger is not None and ledger.proven(parts[0]) is not None:
                hits += 1
                continue
            if journal is not None:
                data = journal.replay("obligation", parts[0])
                if data is not None and data.get("verdict") == "unsat":
                    journal_hits += 1
                    continue
            keys[len(to_solve)] = parts
            to_solve.append(obligation)
    if ledger is not None:
        obs.inc("ledger_hits", hits)
        obs.inc("ledger_misses", len(to_solve))
        obs.point("ledger.split", hits=hits, misses=len(to_solve))
    return to_solve, keys, hits, journal_hits


def _journal_record(journal, keys: tuple[str, str, str, str] | None) -> None:
    """Journal one freshly discharged (unsat) obligation."""
    if journal is not None and keys is not None:
        journal.append("obligation", keys[0], verdict="unsat")


def _ledger_record(
    ledger,
    keys: tuple[str, str, str, str] | None,
    program: Program,
    obligation: Obligation,
    engine: str,
    budget: Budget | None,
    wall_ms: float,
) -> None:
    """Persist one freshly discharged (unsat) obligation."""
    if ledger is None or keys is None:
        return
    from ..proof.ledger import LedgerEntry, git_rev, run_id

    _, program_hash, obligation_hash, lemma_hash = keys
    ledger.record(
        LedgerEntry(
            program=program.name,
            invariant=obligation.target or "<no-abort>",
            kind=obligation.kind,
            program_hash=program_hash,
            obligation_hash=obligation_hash,
            lemma_hash=lemma_hash,
            engine=engine,
            budget=str(budget) if budget is not None else None,
            git_rev=git_rev(),
            run_id=run_id(),
            wall_ms=wall_ms,
        )
    )


def ledger_proven(
    program: Program,
    conjectures: Sequence[Conjecture],
    ledger,
    lemmas: Sequence[Conjecture] = (),
    include_no_abort: bool = False,
) -> bool:
    """Is every obligation of the conjecture set recorded as proven?

    The entry fast-path for engines with their own check loops (Houdini,
    UPDR): when a previous run already discharged the exact obligation
    set, the whole engine run can be skipped.
    """
    pending = obligations(program, conjectures, lemmas, include_no_abort)
    to_solve, _, _, _ = _ledger_split(program, pending, conjectures, lemmas, ledger)
    return not to_solve


def ledger_record_set(
    program: Program,
    conjectures: Sequence[Conjecture],
    ledger,
    lemmas: Sequence[Conjecture] = (),
    engine: str = "induction",
    include_no_abort: bool = False,
) -> None:
    """Record every obligation of an *already-verified* conjecture set.

    Engines that conclude inductiveness through their own batched checks
    (Houdini's fixpoint) call this once at the end; soundness rests on
    the caller having conclusively discharged exactly these obligations.
    """
    from ..proof.ledger import keys_of, program_fingerprint

    program_hash = program_fingerprint(program)
    for obligation in obligations(program, conjectures, lemmas, include_no_abort):
        parts = keys_of(
            program,
            obligation,
            obligation_premises(obligation, conjectures, lemmas),
            program_hash=program_hash,
        )
        _ledger_record(ledger, parts, program, obligation, engine, None, 0.0)


def check_obligation(
    program: Program,
    obligation: Obligation,
    extra_constraints: Iterable[s.Formula] = (),
    budget: Budget | None = None,
) -> EprResult:
    """Satisfiability of one obligation's negated VC (sat = CTI exists).

    When the obligation carries a cone-of-influence slice and no extra
    constraints are given, the sliced VC is tried first over its
    restricted vocabulary: UNSAT there refutes the full VC (the slice is
    a weakening), which is the common case on holding protocols.  Any
    other sliced verdict falls back to the full query, so SAT models --
    and therefore CTIs -- are identical to ``--no-slice`` runs.
    """
    extra = tuple(extra_constraints)
    if obligation.sliced_vc is not None and not extra:
        solver = EprSolver(obligation.sliced_vocab or program.vocab, budget=budget)
        solver.add(obligation.sliced_vc, name="vc")
        sliced = solver.check()
        if sliced.is_unsat:
            return sliced
        obs.inc("slice_fallback_total")
    solver = EprSolver(program.vocab, budget=budget)
    solver.add(obligation.vc, name="vc")
    for index, constraint in enumerate(extra):
        solver.add(constraint, name=f"extra{index}")
    return solver.check()


def _unsliced(obligation: Obligation) -> Obligation:
    """The obligation with its slice stripped (forces a full-VC solve)."""
    from dataclasses import replace

    return replace(
        obligation, sliced_vc=None, sliced_vocab=None, sliced_dropped=()
    )


def cti_from_model(program: Program, obligation: Obligation, state: Structure) -> CTI:
    """Reconstruct the violating execution from a CTI pre-state."""
    successor, action = _witness(program, obligation, state)
    return CTI(obligation, state, successor, action)


def _witness(
    program: Program, obligation: Obligation, state: Structure
) -> tuple[Structure | None, tuple[str, ...]]:
    if obligation.kind == "initiation":
        return None, ()
    command = program.final if obligation.command_label == "final" else program.body
    outcomes = execute(command, state, program.axiom_formula)
    if obligation.kind == "safety":
        for outcome in outcomes:
            if outcome.aborted:
                return None, outcome.labels
        raise AssertionError("CTI model does not witness an abort")
    for outcome in outcomes:
        if outcome.state is None:
            continue
        if not outcome.state.satisfies(obligation.post):
            return outcome.state, outcome.labels
    raise AssertionError("CTI model has no violating successor")


def check_inductive(
    program: Program,
    conjectures: Sequence[Conjecture],
    jobs: int | None = None,
    budget: Budget | None = None,
    lemmas: Sequence[Conjecture] = (),
    ledger=None,
    engine: str = "induction",
    journal=None,
) -> InductionResult:
    """Check Eq. 2 for the conjunction of ``conjectures``.

    Returns the first failing obligation's CTI (obligations are checked in
    the order initiation, safety, consecution, matching the search loop of
    Figure 5).  The obligations are mutually independent; ``jobs > 1``
    solves them in parallel and still reports the first failure in order.

    With a ``budget``, obligations that exhaust it are collected in
    ``unknown_obligations``: a CTI found elsewhere is still a real CTI,
    but an otherwise-clean run with unknowns is inconclusive (holds=False,
    cti=None) rather than a proof.

    ``lemmas`` strengthen the premises (see :func:`obligations`).  With a
    ``ledger`` (:class:`repro.proof.ledger.Ledger`), obligations already
    recorded as proven are skipped before any solver is built, and each
    freshly discharged obligation is recorded with provenance (``engine``
    names the caller in that record).  The skip is sound because the
    ledger key covers the program, the obligation, and the premise set.

    A ``journal`` gives the same skip with run scope: conclusively
    discharged obligations are appended as they complete, and a resumed
    run skips them before building a solver.
    """
    statistics: dict[str, int] = {}
    pending = obligations(program, conjectures, lemmas)
    unknown: list[str] = []
    with profile.engine("induction"), obs.span(
        "induction", conjectures=len(conjectures), obligations=len(pending)
    ) as sp:
        ledger_keys: dict[int, tuple[str, str, str, str]] = {}
        if ledger is not None or journal is not None:
            pending, ledger_keys, hits, journal_hits = _ledger_split(
                program, pending, conjectures, lemmas, ledger, journal
            )
            if ledger is not None:
                statistics["ledger_hits"] = hits
                statistics["ledger_misses"] = len(pending)
                sp.set(ledger_hits=hits, ledger_misses=len(pending))
            if journal_hits:
                statistics["journal_hits"] = journal_hits
                sp.set(journal_hits=journal_hits)
        if resolve_jobs(jobs) > 1 and len(pending) > 1:
            queries = []
            for obligation in pending:
                if obligation.sliced_vc is not None:
                    solver = EprSolver(
                        obligation.sliced_vocab or program.vocab, budget=budget
                    )
                    solver.add(obligation.sliced_vc, name="vc")
                else:
                    solver = EprSolver(program.vocab, budget=budget)
                    solver.add(obligation.vc, name="vc")
                queries.append(query_of(solver, name=obligation.description))
            started = time.monotonic()
            with obs.span("induction.dispatch", queries=len(queries)):
                batches = solve_queries(queries, jobs=jobs)
            batch_ms = (time.monotonic() - started) * 1000 / max(len(queries), 1)
            obs.count_engine_queries(
                "induction", [result for (result,) in batches]
            )
            for index, (obligation, (result,)) in enumerate(zip(pending, batches)):
                if obligation.sliced_vc is not None and not result.is_unsat:
                    # sliced SAT/UNKNOWN proves nothing: re-solve the full
                    # VC in-process before reading a model out of it
                    obs.inc("slice_fallback_total")
                    result = check_obligation(
                        program, _unsliced(obligation), budget=budget
                    )
                for key, value in result.statistics.items():
                    statistics[key] = statistics.get(key, 0) + value
                if result.unknown:
                    unknown.append(obligation.description)
                elif result.satisfiable:
                    assert result.model is not None
                    cti = cti_from_model(program, obligation, result.model)
                    sp.set(holds=False, cti=obligation.description)
                    return InductionResult(False, cti, statistics, tuple(unknown))
                else:
                    _ledger_record(
                        ledger, ledger_keys.get(index), program, obligation,
                        engine, budget, batch_ms,
                    )
                    _journal_record(journal, ledger_keys.get(index))
            sp.set(holds=not unknown, unknowns=len(unknown))
            return InductionResult(not unknown, statistics=statistics,
                                   unknown_obligations=tuple(unknown))
        results = []
        for index, obligation in enumerate(pending):
            started = time.monotonic()
            with obs.span(
                "induction.obligation", description=obligation.description
            ) as obligation_span:
                result = check_obligation(program, obligation, budget=budget)
                obligation_span.set(verdict=result.verdict)
            elapsed_ms = (time.monotonic() - started) * 1000
            results.append(result)
            for key, value in result.statistics.items():
                statistics[key] = statistics.get(key, 0) + value
            if result.unknown:
                unknown.append(obligation.description)
            elif result.satisfiable:
                assert result.model is not None
                obs.count_engine_queries("induction", results)
                cti = cti_from_model(program, obligation, result.model)
                sp.set(holds=False, cti=obligation.description)
                return InductionResult(False, cti, statistics, tuple(unknown))
            else:
                _ledger_record(
                    ledger, ledger_keys.get(index), program, obligation,
                    engine, budget, elapsed_ms,
                )
                _journal_record(journal, ledger_keys.get(index))
        obs.count_engine_queries("induction", results)
        sp.set(holds=not unknown, unknowns=len(unknown))
        return InductionResult(not unknown, statistics=statistics,
                               unknown_obligations=tuple(unknown))


def check_initiation(program: Program, conjecture: Conjecture) -> EprResult:
    """Does the conjecture hold after ``C_init`` from any axiom state?"""
    obligation = obligations(program, [conjecture], include_no_abort=False)[0]
    assert obligation.kind == "initiation"
    return check_obligation(program, obligation)
