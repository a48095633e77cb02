"""Houdini-style automatic invariant inference (Section 5.1, Chord).

For the Chord proof the paper "described a class of formulas using a
template, and used abstract interpretation to construct the strongest
inductive invariant in this class" -- i.e. the Houdini algorithm of
Flanagan & Leino applied to a candidate conjecture pool:

1. drop every candidate that fails *initiation*;
2. repeatedly check consecution of the whole remaining conjunction and drop
   every conjecture with a CTI, until no check fails.

The result is the strongest inductive invariant expressible as a
conjunction of pool members.  When it implies the safety property the
program is proved automatically; otherwise it is a sound starting set of
conjectures for the interactive session (Section 4.2's seeding).

Pools are large (hundreds to thousands of template instances), so both
phases are *batched*: all candidates' verification conditions are loaded
into one :class:`~repro.solver.epr.EprSolver` as tracked constraints and
each candidate is decided by an incremental SAT call under its selector --
one grounding per Houdini round instead of one per candidate.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Sequence

from .. import obs
from ..obs import profile
from ..logic import syntax as s
from ..logic.printer import canonical_str
from ..rml.ast import Program
from ..rml.wp import wp
from ..solver.budget import Budget
from ..solver.dispatch import query_of, resolve_jobs, solve_queries
from ..solver.epr import EprSolver
from .induction import Conjecture, ledger_proven, ledger_record_set


@dataclass(frozen=True)
class HoudiniResult:
    """The strongest inductive subset, plus why each candidate was dropped.

    ``dropped_unknown`` lists candidates whose check exhausted its budget:
    they are dropped *conservatively*.  This keeps the final fixpoint sound
    -- every surviving candidate's obligations were conclusively refuted
    against exactly the surviving conjunction -- at the price of a weaker
    (never wrong) invariant.
    """

    invariant: tuple[Conjecture, ...]  # the strongest inductive subset
    dropped_initiation: tuple[str, ...]
    dropped_consecution: tuple[str, ...]
    rounds: int
    statistics: dict[str, int] = field(default_factory=dict)
    dropped_unknown: tuple[str, ...] = ()


def _candidate_solver(
    program: Program,
    candidates: Sequence[Conjecture],
    command,
    premises: s.Formula,
    budget: Budget | None = None,
) -> EprSolver:
    """A solver with every candidate's negated obligation tracked."""
    axioms = program.axiom_formula
    solver = EprSolver(program.vocab, exclusive_tracked=True, budget=budget)
    solver.add(s.and_(axioms, premises), name="premises")
    for candidate in candidates:
        obligation = s.not_(wp(command, candidate.formula, axioms))
        solver.add(obligation, name=candidate.name, track=True)
    return solver


def _batched_failures(
    program: Program,
    candidates: Sequence[Conjecture],
    command,
    premises: s.Formula,
    statistics: dict[str, int],
    jobs: int | None = None,
    budget: Budget | None = None,
) -> tuple[set[str], set[str]]:
    """Candidates whose ``premises => wp(command, c)`` fails or is unknown.

    Returns ``(failing, unknown)`` name sets.  The candidate pool is
    split into one chunk per worker (one chunk serially); each chunk is
    one query whose candidates share one grounding, candidate ``c``'s
    negated obligation solved in isolation under its selector.  The
    chunks go through :func:`~repro.solver.dispatch.solve_queries` as
    one batch.  A whole-chunk grounding blowup marks every candidate in
    the chunk unknown.
    """
    failing: set[str] = set()
    unknown: set[str] = set()
    workers = resolve_jobs(jobs)
    chunks = [list(candidates[index::workers]) for index in range(workers)]
    chunks = [chunk for chunk in chunks if chunk]
    queries = [
        query_of(
            _candidate_solver(program, chunk, command, premises, budget),
            solve_sets=[frozenset({c.name}) for c in chunk],
            name=f"houdini-chunk{index}",
        )
        for index, chunk in enumerate(chunks)
    ]
    batches = solve_queries(queries, jobs=jobs)
    for chunk, batch in zip(chunks, batches):
        for candidate, result in zip(chunk, batch):
            _accumulate(statistics, result.statistics)
            if result.unknown:
                unknown.add(candidate.name)
            elif result.satisfiable:
                failing.add(candidate.name)
    obs.count_engine_queries(
        "houdini", [result for batch in batches for result in batch]
    )
    return failing, unknown


def pool_fingerprint(program: Program, candidates: Sequence[Conjecture]) -> str:
    """The journal key of one Houdini run: program + candidate pool.

    Order-insensitive in the pool (sorted by name) and deterministic
    across interpreter processes -- the same discipline as the ledger's
    fingerprints, which is what makes a resumed run's replay keys line up
    with the killed run's records.
    """
    from ..proof.ledger import program_fingerprint

    hasher = hashlib.sha256()
    hasher.update(program_fingerprint(program).encode())
    for candidate in sorted(candidates, key=lambda c: c.name):
        hasher.update(
            f"{candidate.name}|{canonical_str(candidate.formula)}\n".encode()
        )
    return hasher.hexdigest()


def houdini(
    program: Program,
    candidates: Sequence[Conjecture],
    max_rounds: int = 1000,
    jobs: int | None = None,
    budget: Budget | None = None,
    ledger=None,
    journal=None,
) -> HoudiniResult:
    """Compute the strongest inductive subset of ``candidates``.

    With a ``budget``, a candidate whose check comes back UNKNOWN is
    *dropped* exactly like a refuted one (and reported in
    ``dropped_unknown``).  Dropping is conservative: the fixpoint test
    only ever concludes on conclusively-refuted obligations, so the final
    conjunction is still inductive -- just possibly weaker than an
    unbudgeted run would find.

    With a ``ledger``, a rerun whose full candidate pool is already
    recorded as inductive returns immediately (zero queries), and a
    freshly converged fixpoint records its surviving set's obligations.
    Intermediate rounds are not ledgered: their premise sets are
    transient, so their keys would never be consulted again.

    With a ``journal`` (:class:`repro.recovery.journal.Journal`), each
    completed phase -- initiation, then every consecution round -- is
    recorded after its batch concludes, and replayed rounds are skipped
    without building a solver.  The surviving set is a pure function of
    the drop history, so replaying the per-round drop sets reconstructs
    the exact engine state; a run killed in round *k* resumes by
    replaying rounds ``1..k-1`` and re-solving only round *k*.
    """
    statistics: dict[str, int] = {}
    journal_key = (
        pool_fingerprint(program, candidates) if journal is not None else ""
    )

    def phase(kind, key, pool, command, premises, span, **attrs):
        """One drop-set phase, replayed from the journal or solved (and
        then journaled) under a ``span`` span."""
        replayed = journal.replay(kind, key) if journal is not None else None
        if replayed is not None:
            _accumulate(statistics, {"journal_hits": len(pool)})
            return set(replayed["failing"]), set(replayed["unknown"])
        with obs.span(span, **attrs) as phase_span:
            failing, unknown = _batched_failures(
                program, pool, command, premises, statistics, jobs, budget
            )
            phase_span.set(failing=len(failing), unknown=len(unknown))
        if journal is not None:
            journal.append(
                kind, key, failing=sorted(failing), unknown=sorted(unknown)
            )
        return failing, unknown

    with profile.engine("houdini"), obs.span("houdini", candidates=len(candidates)) as sp:
        if ledger is not None and ledger_proven(program, candidates, ledger):
            sp.set(rounds=0, invariant=len(candidates), ledger_skip=True)
            statistics["ledger_hits"] = 2 * len(candidates)
            return HoudiniResult(
                tuple(candidates), (), (), 0, statistics, ()
            )
        failing_init, unknown_init = phase(
            "houdini.init", journal_key, candidates, program.init, s.TRUE,
            "houdini.initiation", candidates=len(candidates),
        )
        dropped_unknown: list[str] = sorted(unknown_init)
        surviving = [
            c for c in candidates
            if c.name not in failing_init and c.name not in unknown_init
        ]
        dropped_consec: list[str] = []
        rounds = 0
        while True:
            rounds += 1
            if rounds > max_rounds:
                raise RuntimeError("houdini failed to converge")
            failing, unknown = phase(
                "houdini.round", f"{journal_key}:{rounds}", surviving,
                program.body, s.and_(*(c.formula for c in surviving)),
                "houdini.round", round=rounds, surviving=len(surviving),
            )
            if not failing and not unknown:
                break
            dropped_consec.extend(sorted(failing))
            dropped_unknown.extend(sorted(unknown))
            dropped = failing | unknown
            surviving = [c for c in surviving if c.name not in dropped]
        if ledger is not None and surviving:
            ledger_record_set(
                program, tuple(surviving), ledger, engine="houdini"
            )
        sp.set(rounds=rounds, invariant=len(surviving))
        return HoudiniResult(
            tuple(surviving),
            tuple(sorted(failing_init)),
            tuple(dropped_consec),
            rounds,
            statistics,
            tuple(dropped_unknown),
        )


def proves(
    program: Program, invariant: Sequence[Conjecture], goal: Conjecture
) -> bool:
    """Does the (inductive) invariant imply the goal conjecture?

    Used to test whether a Houdini result establishes the safety property:
    checks unsatisfiability of ``A & I & ~goal``.
    """
    solver = EprSolver(program.vocab)
    solver.add(program.axiom_formula, name="axioms")
    for index, conjecture in enumerate(invariant):
        solver.add(conjecture.formula, name=f"inv{index}")
    solver.add(s.not_(goal.formula), name="goal")
    return not solver.check().satisfiable


def _accumulate(into: dict[str, int], new: dict[str, int]) -> None:
    for key, value in new.items():
        into[key] = into.get(key, 0) + value
