"""Proof plans: scheduling the proof DAG against the ledger.

A :class:`ProofPlan` groups a program's named invariants into *proof
nodes* -- the units of mutual induction.  Declared ``proof`` blocks each
become a node; invariants no proof covers fall into an implicit ``main``
node, and for programmatically built protocols (no surface declarations)
the caller's conjecture set *is* the main node.  Nodes are scheduled as
the topological frontiers of the dependency DAG (:mod:`repro.proof.dag`):
every node in a frontier has all its ``with``-lemmas discharged, so the
whole frontier's outstanding obligations dispatch to the solver pool as
one batch.

Before anything is queued, each obligation is looked up in the ledger
(:mod:`repro.proof.ledger`); hits are skipped entirely, and fresh unsat
results are recorded with provenance.  A second ``repro prove`` of an
unchanged protocol therefore issues **zero** solver queries.

The program-wide no-abort (safety) obligations run after every node is
proved, with the full invariant as premise -- they are obligations of
the conjunction, not of any one node.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

from .. import obs
from ..core.induction import (
    CTI,
    Conjecture,
    Obligation,
    check_obligation,
    cti_from_model,
    obligation_premises,
    obligations,
)
import dataclasses

from ..rml.ast import Program, ProofDecl, without_aborts
from ..solver.budget import Budget
from ..solver.dispatch import query_of, resolve_jobs, solve_queries
from ..solver.epr import EprSolver
from .dag import CycleError, ProofDag, build_dag, provers_of
from .ledger import (
    Ledger,
    LedgerEntry,
    git_rev,
    keys_of,
    program_fingerprint,
    run_id,
)

#: name of the implicit proof node collecting invariants no proof covers
MAIN_PROOF = "main"

#: the pseudo-invariant name under which no-abort entries are recorded
NO_ABORT = "<no-abort>"


@dataclass(frozen=True)
class ProofNode:
    """One unit of mutual induction: conjectures proved together."""

    name: str
    conjectures: tuple[Conjecture, ...]
    lemmas: tuple[str, ...] = ()  # invariant names assumed (``with``)


@dataclass(frozen=True)
class ProofPlan:
    """A program's proof nodes plus their dependency DAG."""

    program: Program
    nodes: tuple[ProofNode, ...]
    dag: ProofDag

    def node_named(self, name: str) -> ProofNode:
        for node in self.nodes:
            if node.name == name:
                return node
        raise KeyError(f"no proof node named {name!r}")

    @property
    def invariants(self) -> dict[str, Conjecture]:
        """Every named invariant the plan establishes, in node order."""
        out: dict[str, Conjecture] = {}
        for node in self.nodes:
            for conjecture in node.conjectures:
                out.setdefault(conjecture.name, conjecture)
        return out

    def prover_of(self, invariant: str) -> str | None:
        for node in self.nodes:
            if any(c.name == invariant for c in node.conjectures):
                return node.name
        return None

    def frontiers(self) -> list[tuple[str, ...]]:
        """Topologically ordered, mutually independent node layers."""
        return self.dag.frontiers()


def plan_of(program: Program) -> ProofPlan:
    """Build the proof plan for a program from its declared blocks.

    Each ``proof`` declaration is a node; the implicit main node carries
    every ``invariant`` no declared proof establishes, plus the
    program-wide no-abort obligations.
    """
    named: dict[str, Conjecture] = {}
    for invariant in program.invariants:
        named[invariant.name] = Conjecture(invariant.name, invariant.formula)

    covered = provers_of(program.proofs)
    nodes: list[ProofNode] = []
    for proof in program.proofs:
        nodes.append(
            ProofNode(
                proof.name,
                tuple(
                    named[name] for name in proof.proves if name in named
                ),
                proof.uses,
            )
        )
    uncovered = tuple(
        conjecture
        for name, conjecture in named.items()
        if name not in covered
    )
    decls = list(program.proofs)
    if uncovered or not nodes:
        main = MAIN_PROOF
        while any(node.name == main for node in nodes):
            main = "_" + main
        nodes.append(ProofNode(main, uncovered))
        decls.append(ProofDecl(main, tuple(c.name for c in uncovered)))
    return ProofPlan(program, tuple(nodes), build_dag(decls))


# ------------------------------------------------------------------ discharge


@dataclass(frozen=True)
class ObligationOutcome:
    """How one obligation was resolved."""

    node: str
    description: str
    via: str  # "ledger", "journal", "solver", or "unknown"
    wall_ms: float = 0.0


@dataclass(frozen=True)
class ProveReport:
    """The outcome of discharging a plan's DAG."""

    ok: bool
    program: str
    frontiers: tuple[tuple[str, ...], ...]
    outcomes: tuple[ObligationOutcome, ...]
    ledger_hits: int
    ledger_misses: int
    queries: int  # solver queries actually issued
    failed_node: str | None = None
    cti: CTI | None = None
    unknown: tuple[str, ...] = ()

    @property
    def hit_rate(self) -> float:
        total = self.ledger_hits + self.ledger_misses
        return self.ledger_hits / total if total else 0.0


@dataclass(frozen=True)
class _Work:
    """One outstanding obligation of a frontier batch."""

    node: str
    obligation: Obligation
    keys: tuple[str, str, str, str] | None  # None when ledger+journal are off


def _abort_free(program: Program) -> Program:
    """The program with the body's safety asserts weakened to assumes.

    Node-scoped consecution is checked against this: a node proves its
    own conjectures are preserved by non-aborting steps, and the deferred
    program-wide no-abort obligation (full invariant as premise) proves
    aborting steps are unreachable.  Ledger keys still hash the original
    program, so this never widens what a recorded entry claims.
    """
    return dataclasses.replace(program, body=without_aborts(program.body))


def _node_obligations(
    plan: ProofPlan, node: ProofNode
) -> tuple[list[Obligation], tuple[Conjecture, ...]]:
    """A node's obligations and the lemma conjectures they assume."""
    invariants = plan.invariants
    lemmas = tuple(
        invariants[name] for name in node.lemmas if name in invariants
    )
    return (
        obligations(
            _abort_free(plan.program),
            node.conjectures,
            lemmas,
            include_no_abort=False,
        ),
        lemmas,
    )


def _safety_obligations(plan: ProofPlan) -> list[Obligation]:
    """The program-wide no-abort obligations, over the full invariant."""
    everything = tuple(plan.invariants.values())
    return [
        obligation
        for obligation in obligations(plan.program, everything)
        if obligation.kind == "safety"
    ]


def prove(
    plan: ProofPlan,
    jobs: int | None = None,
    budget: Budget | None = None,
    ledger: Ledger | None = None,
    engine: str = "prove",
    journal=None,
) -> ProveReport:
    """Discharge the plan frontier by frontier, honoring the ledger.

    Within a frontier, every outstanding obligation of every node is
    dispatched as one batch through the solver pool (``jobs > 1``); the
    ``dag_frontier_size`` gauge tracks the batch widths and
    ``ledger_hit_rate`` summarizes how much of the run was skipped.
    Stops at the first counterexample (reported with its CTI) or budget
    exhaustion; a fully discharged plan returns ``ok=True``.

    With a ``journal`` (:class:`repro.recovery.journal.Journal`), every
    conclusively discharged obligation is appended as an ``obligation``
    event keyed by its ledger content key, and each completed frontier
    gets a ``prove.frontier`` marker.  A resumed run replays those
    events in :func:`collect` (outcome ``via="journal"``) so the killed
    run's solved obligations are never re-dispatched.
    """
    program = plan.program
    keyed = ledger is not None or journal is not None
    program_hash = program_fingerprint(program) if keyed else ""
    outcomes: list[ObligationOutcome] = []
    unknown: list[str] = []
    hits = misses = queries = journal_hits = 0
    frontiers = tuple(plan.frontiers())

    def collect(
        node_name: str,
        pending: list[Obligation],
        conjectures: Sequence[Conjecture],
        lemmas: Sequence[Conjecture],
    ) -> list[_Work]:
        nonlocal hits, misses, journal_hits
        work: list[_Work] = []
        for obligation in pending:
            keys = None
            if keyed:
                keys = keys_of(
                    program,
                    obligation,
                    obligation_premises(obligation, conjectures, lemmas),
                    program_hash=program_hash,
                )
                if ledger is not None and ledger.proven(keys[0]) is not None:
                    hits += 1
                    outcomes.append(
                        ObligationOutcome(
                            node_name, obligation.description, "ledger"
                        )
                    )
                    continue
                if journal is not None:
                    replayed = journal.replay("obligation", keys[0])
                    if (
                        replayed is not None
                        and replayed.get("verdict") == "unsat"
                    ):
                        journal_hits += 1
                        outcomes.append(
                            ObligationOutcome(
                                node_name, obligation.description, "journal"
                            )
                        )
                        continue
                if ledger is not None:
                    misses += 1
            work.append(_Work(node_name, obligation, keys))
        return work

    def discharge(work: list[_Work]) -> ProveReport | None:
        """Solve a batch; record proofs; a report means failure/stop."""
        nonlocal queries
        if not work:
            return None
        # Items sharing a ledger key are the same semantic obligation
        # (same program, post, and premise set -- e.g. equal-formula
        # invariants in one node): solve one representative each.
        solve: list[_Work] = []
        representative: dict[str, int] = {}
        backing: list[int] = []
        for item in work:
            key = item.keys[0] if item.keys is not None else None
            if key is not None and key in representative:
                backing.append(representative[key])
                continue
            if key is not None:
                representative[key] = len(solve)
            backing.append(len(solve))
            solve.append(item)
        queries += len(solve)
        started = time.monotonic()
        if resolve_jobs(jobs) > 1 and len(solve) > 1:
            batch = []
            for item in solve:
                solver = EprSolver(program.vocab, budget=budget)
                solver.add(item.obligation.vc, name="vc")
                batch.append(
                    query_of(solver, name=item.obligation.description)
                )
            with obs.span("prove.dispatch", queries=len(batch)):
                results = [
                    result
                    for (result,) in solve_queries(batch, jobs=jobs)
                ]
            obs.count_engine_queries(engine, results)
        else:
            results = []
            for item in solve:
                result = check_obligation(
                    program, item.obligation, budget=budget
                )
                results.append(result)
            obs.count_engine_queries(engine, results)
        wall_ms = (time.monotonic() - started) * 1000 / len(solve)
        recorded: set[str] = set()
        for item, result in zip(work, (results[i] for i in backing)):
            if result.unknown:
                unknown.append(item.obligation.description)
                outcomes.append(
                    ObligationOutcome(
                        item.node, item.obligation.description, "unknown"
                    )
                )
                continue
            if result.satisfiable:
                assert result.model is not None
                # Node consecution was checked against the abort-free
                # body; replay the witness through the same semantics.
                witness_program = (
                    program
                    if item.obligation.kind == "safety"
                    else _abort_free(program)
                )
                cti = cti_from_model(
                    witness_program, item.obligation, result.model
                )
                return ProveReport(
                    False,
                    program.name,
                    frontiers,
                    tuple(outcomes),
                    hits,
                    misses,
                    queries,
                    failed_node=item.node,
                    cti=cti,
                    unknown=tuple(unknown),
                )
            outcomes.append(
                ObligationOutcome(
                    item.node, item.obligation.description, "solver", wall_ms
                )
            )
            if item.keys is not None and item.keys[0] not in recorded:
                recorded.add(item.keys[0])
                if journal is not None:
                    journal.append(
                        "obligation", item.keys[0], verdict="unsat"
                    )
                if ledger is not None:
                    _, phash, ohash, lhash = item.keys
                    ledger.record(
                        LedgerEntry(
                            program=program.name,
                            invariant=item.obligation.target or NO_ABORT,
                            kind=item.obligation.kind,
                            program_hash=phash,
                            obligation_hash=ohash,
                            lemma_hash=lhash,
                            engine=engine,
                            budget=str(budget) if budget is not None else None,
                            git_rev=git_rev(),
                            run_id=run_id(),
                            wall_ms=wall_ms,
                        )
                    )
        return None

    with obs.span(
        "prove", program=program.name, nodes=len(plan.nodes)
    ) as sp:
        for index, frontier in enumerate(frontiers):
            obs.set_gauge("dag_frontier_size", len(frontier))
            work: list[_Work] = []
            for node_name in frontier:
                node = plan.node_named(node_name)
                pending, lemmas = _node_obligations(plan, node)
                work.extend(
                    collect(node_name, pending, node.conjectures, lemmas)
                )
            failure = discharge(work)
            if failure is not None:
                sp.set(ok=False, failed=failure.failed_node)
                return failure
            if journal is not None:
                frontier_key = f"{program_hash}:frontier:{index}"
                if journal.peek("prove.frontier", frontier_key) is None:
                    journal.append(
                        "prove.frontier", frontier_key, nodes=list(frontier)
                    )
        # Program-wide safety (no-abort) over the full invariant.
        everything = tuple(plan.invariants.values())
        failure = discharge(
            collect(NO_ABORT, _safety_obligations(plan), everything, ())
        )
        if failure is not None:
            sp.set(ok=False, failed=failure.failed_node)
            return failure
        total = hits + misses
        obs.set_gauge("ledger_hit_rate", hits / total if total else 1.0)
        obs.inc("ledger_hits", hits)
        obs.inc("ledger_misses", misses)
        ok = not unknown
        if journal_hits:
            sp.set(journal_hits=journal_hits)
        sp.set(ok=ok, ledger_hits=hits, queries=queries)
        return ProveReport(
            ok,
            program.name,
            frontiers,
            tuple(outcomes),
            hits,
            misses,
            queries,
            unknown=tuple(unknown),
        )


# --------------------------------------------------------------------- status


@dataclass(frozen=True)
class InvariantStatus:
    """One row of ``repro status``."""

    name: str
    proof: str  # the node that establishes it
    state: str  # "proven", "stale", or "unproven"
    entries: tuple[LedgerEntry, ...] = ()  # provenance, when proven


def status(plan: ProofPlan, ledger: Ledger) -> tuple[InvariantStatus, ...]:
    """Per-invariant ledger state for the plan's program.

    An invariant is **proven** when both its initiation and consecution
    entries are present under the current program hash; **stale** when
    the ledger holds entries for it recorded under a *different* program
    hash (the transition relation changed since); **unproven** otherwise.
    The program-wide no-abort obligations appear as a final pseudo-row
    when the program can abort.
    """
    program = plan.program
    program_hash = program_fingerprint(program)
    rows: list[InvariantStatus] = []
    historical: dict[str, bool] = {}
    for entry in ledger.entries():
        if entry.program == program.name and entry.program_hash != program_hash:
            historical[entry.invariant] = True

    def resolve(
        name: str, node_name: str, pending: list[Obligation],
        conjectures: Sequence[Conjecture], lemmas: Sequence[Conjecture],
    ) -> InvariantStatus:
        found: list[LedgerEntry] = []
        for obligation in pending:
            keys = keys_of(
                program,
                obligation,
                obligation_premises(obligation, conjectures, lemmas),
                program_hash=program_hash,
            )
            entry = ledger.proven(keys[0])
            if entry is None:
                state = "stale" if historical.get(name) else "unproven"
                return InvariantStatus(name, node_name, state)
            found.append(entry)
        return InvariantStatus(name, node_name, "proven", tuple(found))

    for node in plan.nodes:
        pending, lemmas = _node_obligations(plan, node)
        for conjecture in node.conjectures:
            mine = [o for o in pending if o.target == conjecture.name]
            rows.append(
                resolve(
                    conjecture.name, node.name, mine, node.conjectures, lemmas
                )
            )
    safeties = _safety_obligations(plan)
    if safeties:
        everything = tuple(plan.invariants.values())
        rows.append(resolve(NO_ABORT, NO_ABORT, safeties, everything, ()))
    return tuple(rows)
