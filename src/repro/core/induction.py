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

:func:`discharge` is the one loop that solves obligations, for
:func:`check_inductive` and for the proof manager alike.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterator, Literal, Mapping, NamedTuple, Sequence

from .. import obs
from ..obs import profile
from ..analysis import deps
from ..logic import syntax as s
from ..logic.fragments import is_universal
from ..logic.sorts import Vocabulary
from ..logic.structures import Structure
from ..rml.ast import Program
from ..rml.interp import execute
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

    def add(kind, description, label, target, post, pool, goal, *premises):
        vc = s.and_(*premises, goal)
        fields = _slice_fields(program, pool, goal, vc) if sliced else {}
        out.append(Obligation(kind, description, label, target, post, vc, **fields))

    for c in conjectures:
        goal = s.not_(wp(program.init, c.formula, axioms))
        add("initiation", f"initiation of {c.name}", "init", c.name, c.formula,
            axiom_pool, goal, axioms)
    if include_no_abort:
        for label, command in (("final", program.final), ("body", program.body)):
            no_abort = wp(command, s.TRUE, axioms)
            if no_abort != s.TRUE:
                add("safety", f"no abort via {label}", label, None, s.TRUE,
                    premise_pool, s.not_(no_abort), axioms, *assumed, invariant)
    for c in conjectures:
        goal = s.not_(wp(program.body, c.formula, axioms))
        add("consecution", f"consecution of {c.name}", "body", c.name, c.formula,
            premise_pool, goal, axioms, *assumed, invariant)
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


def check_obligation(
    program: Program, obligation: Obligation, budget: Budget | None = None
) -> EprResult:
    """Satisfiability of one obligation's negated VC (sat = CTI exists).

    When the obligation carries a cone-of-influence slice, the sliced VC
    is tried first over its restricted vocabulary: UNSAT there refutes
    the full VC (the slice is a weakening), which is the common case on
    holding protocols.  Any other sliced verdict falls back to the full
    query, so SAT models -- and therefore CTIs -- are identical to
    ``--no-slice`` runs.
    """
    return _answer(program, obligation, budget).result


def _solver(
    program: Program, obligation: Obligation, budget: Budget | None, sliced: bool
) -> EprSolver:
    """A solver over the obligation's sliced VC and vocabulary, or its VC."""
    if sliced:
        vocab, vc = obligation.sliced_vocab or program.vocab, obligation.sliced_vc
    else:
        vocab, vc = program.vocab, obligation.vc
    solver = EprSolver(vocab, budget=budget)
    solver.add(vc, name="vc")
    return solver


class _Answer(NamedTuple):
    result: EprResult
    wall_ms: float
    fallback: bool  # the full-VC retry of a sliced SAT/UNKNOWN answer ran


def _answer(
    program: Program,
    obligation: Obligation,
    budget: Budget | None,
    first: EprResult | None = None,
    share_ms: float = 0.0,
) -> _Answer:
    """Settle one obligation from its first query's answer.

    ``first`` is solved here when the caller has not already solved it
    (in the worker pool); ``share_ms`` is this obligation's share of such
    a batch.  A sliced SAT or UNKNOWN answer proves nothing, so the full
    VC is then solved in-process.
    """
    started = time.monotonic()
    sliced = obligation.sliced_vc is not None
    if first is None:
        first = _solver(program, obligation, budget, sliced).check()
    result, fallback = first, False
    if sliced and not first.is_unsat:
        obs.inc("slice_fallback_total")
        result, fallback = _solver(program, obligation, budget, False).check(), True
    return _Answer(result, share_ms + (time.monotonic() - started) * 1000, fallback)


def _answers(
    program: Program,
    obligations: Sequence[Obligation],
    jobs: int | None,
    budget: Budget | None,
) -> Iterator[_Answer]:
    """One answer per obligation, in order.

    Serially each obligation is solved only when the consumer asks for
    its answer, so a consumer that stops at the first CTI solves nothing
    after it.  With ``jobs > 1`` every first query goes to the worker
    pool as one batch before this returns.
    """
    firsts: list[EprResult | None] = [None] * len(obligations)
    share_ms = 0.0
    if resolve_jobs(jobs) > 1 and len(obligations) > 1:
        queries = [
            query_of(
                _solver(program, o, budget, o.sliced_vc is not None),
                name=o.description,
            )
            for o in obligations
        ]
        started = time.monotonic()
        with obs.span("induction.dispatch", queries=len(queries)):
            firsts = [result for (result,) in solve_queries(queries, jobs=jobs)]
        share_ms = (time.monotonic() - started) * 1000 / len(queries)
    return (
        _answer(program, obligation, budget, first, share_ms)
        for obligation, first in zip(obligations, firsts)
    )


# ------------------------------------------------------------------ discharge

#: the invariant name under which no-abort obligations are recorded
NO_ABORT = "<no-abort>"

#: ``(key, program_hash, obligation_hash, lemma_hash)`` of one obligation
Keys = tuple[str, str, str, str]


@dataclass(frozen=True)
class Pending:
    """One obligation queued for :func:`discharge`.

    ``conjectures`` and ``lemmas`` are what it was generated from: they
    give its premise set, hence its ledger key.  A CTI is replayed on
    ``witness`` (default: the keyed program); ``node`` labels its outcome.
    """

    obligation: Obligation
    conjectures: Sequence[Conjecture]
    lemmas: Sequence[Conjecture] = ()
    witness: Program | None = None
    node: str = ""


@dataclass(frozen=True)
class ObligationOutcome:
    """How one obligation was resolved."""

    node: str
    description: str
    via: str  # "ledger", "journal", "solver", or "unknown"
    wall_ms: float = 0.0


@dataclass
class Discharge:
    """What :func:`discharge` found, over one or more calls.

    ``statistics`` sums the solver answers' statistics plus, for keyed
    runs, ``ledger_hits``/``ledger_misses`` (with a ledger) and
    ``journal_hits`` (when any).  ``solved`` counts solver answers.
    """

    outcomes: list[ObligationOutcome] = field(default_factory=list)
    statistics: dict[str, int] = field(default_factory=dict)
    unknown: list[str] = field(default_factory=list)
    cti: CTI | None = None
    failed: Pending | None = None
    solved: int = 0

    def add(self, counts: Mapping[str, int]) -> None:
        for key, value in counts.items():
            self.statistics[key] = self.statistics.get(key, 0) + value


def _pending(
    program: Program,
    conjectures: Sequence[Conjecture],
    lemmas: Sequence[Conjecture],
    include_no_abort: bool,
) -> list[Pending]:
    return [
        Pending(o, conjectures, lemmas)
        for o in obligations(program, conjectures, lemmas, include_no_abort)
    ]


def obligation_keys(program: Program, items: Sequence[Pending]) -> list[Keys]:
    """The ledger keys of ``items``: how the ledger, the run journal and
    ``repro status`` address an obligation."""
    from ..proof.ledger import keys_of, program_fingerprint

    program_hash = program_fingerprint(program)
    return [
        keys_of(
            program,
            item.obligation,
            obligation_premises(item.obligation, item.conjectures, item.lemmas),
            program_hash=program_hash,
        )
        for item in items
    ]


def _record(
    program: Program,
    obligation: Obligation,
    keys: Keys,
    ledger,
    journal,
    engine: str,
    budget: Budget | None,
    wall_ms: float,
) -> None:
    """Ledger and journal one conclusively discharged obligation."""
    if ledger is not None:
        from ..proof.ledger import LedgerEntry, git_rev, run_id

        invariant = obligation.target or NO_ABORT
        budget_text = str(budget) if budget is not None else None
        ledger.record(LedgerEntry(
            program.name, invariant, obligation.kind, *keys[1:], engine,
            budget_text, git_rev(), run_id(), wall_ms,
        ))
    if journal is not None:
        journal.append("obligation", keys[0], verdict="unsat")


def _split(
    program: Program, items: Sequence[Pending], ledger, journal, run: Discharge
) -> tuple[list[Pending], list[Keys]]:
    """The items neither store holds as proven, with their keys.

    The run journal shares the ledger's keys: an obligation a killed run
    conclusively discharged is skipped exactly like a ledgered one, just
    with run scope.  Skipped items become ``run`` outcomes.  Either store
    may be None.
    """
    todo: list[Pending] = []
    todo_keys: list[Keys] = []
    hits = journal_hits = 0
    with profile.phase("ledger"):
        for item, keys in zip(items, obligation_keys(program, items)):
            via = None
            if ledger is not None and ledger.proven(keys[0]) is not None:
                via, hits = "ledger", hits + 1
            elif journal is not None:
                data = journal.replay("obligation", keys[0])
                if data is not None and data.get("verdict") == "unsat":
                    via, journal_hits = "journal", journal_hits + 1
            if via is None:
                todo.append(item)
                todo_keys.append(keys)
                continue
            description = item.obligation.description
            run.outcomes.append(ObligationOutcome(item.node, description, via))
            with obs.span("induction.obligation", description=description) as sp:
                sp.set(verdict="unsat", source=via, fallback=False)
    if ledger is not None:
        run.add({"ledger_hits": hits, "ledger_misses": len(todo)})
        obs.inc("ledger_hits", hits)
        obs.inc("ledger_misses", len(todo))
        obs.point("ledger.split", hits=hits, misses=len(todo))
    if journal_hits:
        run.add({"journal_hits": journal_hits})
    return todo, todo_keys


def discharge(
    program: Program,
    items: Sequence[Pending],
    jobs: int | None = None,
    budget: Budget | None = None,
    ledger=None,
    journal=None,
    engine: str = "induction",
    label: str = "induction",
    run: Discharge | None = None,
) -> Discharge:
    """Discharge ``items`` in order, stopping at the first CTI.

    With a ``ledger`` or a ``journal``, each item is keyed first (see
    :func:`obligation_keys`); items either store holds as proven are
    skipped before any solver is built, items sharing a key are solved
    once, and each fresh UNSAT answer is recorded in both stores
    (``engine`` names the caller in the ledger's provenance).  With
    neither, nothing is keyed.  The rest are answered by
    :func:`_answers`, serially or as one pool batch (``jobs > 1``).

    Every obligation gets an ``induction.obligation`` span saying where
    its answer came from (``source``: ledger, journal, cache or fresh)
    and whether the full-VC retry ran (``fallback``).  The solver
    answers are counted under ``engine_queries_total{engine=label}``.
    Findings extend ``run`` when given, else a fresh record.
    """
    run = run if run is not None else Discharge()
    keys: Sequence[Keys | None]
    if ledger is None and journal is None:
        todo, keys = list(items), [None] * len(items)
        ids: Sequence[object] = range(len(todo))
    else:
        todo, keys = _split(program, items, ledger, journal, run)
        # Items sharing a key are the same semantic obligation (same
        # program, post, and premise set -- e.g. equal-formula
        # invariants): solve one representative each.
        ids = [item_keys[0] for item_keys in keys]
    representatives: dict[object, Pending] = {}
    for ident, item in zip(ids, todo):
        representatives.setdefault(ident, item)
    answers = _answers(
        program, [item.obligation for item in representatives.values()],
        jobs, budget,
    )
    answered: dict[object, _Answer] = {}
    for item, ident, item_keys in zip(todo, ids, keys):
        obligation, description = item.obligation, item.obligation.description
        representative = ident not in answered
        with obs.span("induction.obligation", description=description) as sp:
            if representative:
                answered[ident] = next(answers)
                run.add(answered[ident].result.statistics)
            result, wall_ms, fallback = answered[ident]
            source = "cache" if result.cached else "fresh"
            sp.set(verdict=result.verdict, source=source, fallback=fallback)
        if result.unknown:
            run.unknown.append(description)
            run.outcomes.append(ObligationOutcome(item.node, description, "unknown"))
        elif result.satisfiable:
            assert result.model is not None
            witness = item.witness or program
            run.cti = cti_from_model(witness, obligation, result.model)
            run.failed = item
            break
        else:
            run.outcomes.append(
                ObligationOutcome(item.node, description, "solver", wall_ms)
            )
            if representative and item_keys is not None:
                _record(
                    program, obligation, item_keys, ledger, journal, engine,
                    budget, wall_ms,
                )
    run.solved += len(answered)
    obs.count_engine_queries(label, [answer.result for answer in answered.values()])
    return run


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
    items = _pending(program, conjectures, lemmas, include_no_abort)
    todo, _ = _split(program, items, ledger, None, Discharge())
    return not todo


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
    items = _pending(program, conjectures, lemmas, include_no_abort)
    for item, keys in zip(items, obligation_keys(program, items)):
        _record(program, item.obligation, keys, ledger, None, engine, None, 0.0)


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

    ``lemmas`` strengthen the premises (see :func:`obligations`).  A
    ``ledger`` (:class:`repro.proof.ledger.Ledger`) skips obligations
    already recorded as proven and records fresh ones with provenance
    (``engine`` names the caller); a ``journal`` gives the same skip with
    run scope (see :func:`discharge`).  The skip is sound because the key
    covers the program, the obligation, and the premise set.
    """
    items = _pending(program, conjectures, lemmas, include_no_abort=True)
    with profile.engine("induction"), obs.span(
        "induction", conjectures=len(conjectures), obligations=len(items)
    ) as sp:
        run = discharge(program, items, jobs, budget, ledger, journal, engine)
        statistics = run.statistics
        stores = ("ledger_hits", "ledger_misses", "journal_hits")
        sp.set(**{k: statistics[k] for k in stores if k in statistics})
        unknown = tuple(run.unknown)
        if run.cti is not None:
            sp.set(holds=False, cti=run.cti.obligation.description)
            return InductionResult(False, run.cti, statistics, unknown)
        sp.set(holds=not unknown, unknowns=len(unknown))
        return InductionResult(
            not unknown, statistics=statistics, unknown_obligations=unknown
        )


def check_initiation(program: Program, conjecture: Conjecture) -> EprResult:
    """Does the conjecture hold after ``C_init`` from any axiom state?"""
    obligation = obligations(program, [conjecture], include_no_abort=False)[0]
    assert obligation.kind == "initiation"
    return check_obligation(program, obligation)
