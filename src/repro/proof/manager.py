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

import dataclasses
from dataclasses import dataclass
from typing import Iterator

from .. import obs
from ..core.induction import (
    CTI,
    NO_ABORT,
    Conjecture,
    Discharge,
    ObligationOutcome,
    Pending,
    discharge,
    obligation_keys,
    obligations,
)
from ..rml.ast import Program, ProofDecl, without_aborts
from ..solver.budget import Budget
from .dag import ProofDag, build_dag, provers_of
from .ledger import Ledger, LedgerEntry, program_fingerprint

#: name of the implicit proof node collecting invariants no proof covers
MAIN_PROOF = "main"


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


def _abort_free(program: Program) -> Program:
    """The program with the body's safety asserts weakened to assumes.

    Node-scoped consecution is checked against this: a node proves its
    own conjectures are preserved by non-aborting steps, and the deferred
    program-wide no-abort obligation (full invariant as premise) proves
    aborting steps are unreachable.  Ledger keys still hash the original
    program, so this never widens what a recorded entry claims.
    """
    return dataclasses.replace(program, body=without_aborts(program.body))


def _node_items(plan: ProofPlan, node: ProofNode) -> list[Pending]:
    """A node's obligations, over the abort-free program (its CTIs replay
    there too), assuming the node's ``with``-lemmas."""
    invariants = plan.invariants
    lemmas = tuple(
        invariants[name] for name in node.lemmas if name in invariants
    )
    witness = _abort_free(plan.program)
    return [
        Pending(obligation, node.conjectures, lemmas, witness, node.name)
        for obligation in obligations(
            witness, node.conjectures, lemmas, include_no_abort=False
        )
    ]


def _safety_items(plan: ProofPlan) -> list[Pending]:
    """The program-wide no-abort obligations, over the full invariant."""
    everything = tuple(plan.invariants.values())
    return [
        Pending(obligation, everything, node=NO_ABORT)
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

    Each frontier's outstanding obligations, over all its nodes, go to
    :func:`repro.core.induction.discharge` as one batch (one pool batch
    with ``jobs > 1``), then the program-wide no-abort obligations do;
    the ``dag_frontier_size`` gauge tracks the frontier widths and
    ``ledger_hit_rate`` summarizes how much of the run was skipped.
    Stops at the first counterexample (reported with its CTI); a fully
    discharged plan returns ``ok=True``, one with budget-exhausted
    obligations ``ok=False`` and no CTI.

    With a ``journal`` (:class:`repro.recovery.journal.Journal`), every
    conclusively discharged obligation is appended as an ``obligation``
    event keyed by its ledger content key, and each completed frontier
    gets a ``prove.frontier`` marker.  A resumed run skips the replayed
    obligations (outcome ``via="journal"``), so the killed run's solved
    obligations are never re-dispatched.
    """
    program = plan.program
    frontiers = tuple(plan.frontiers())

    def batches() -> Iterator[list[Pending]]:
        for index, frontier in enumerate(frontiers):
            obs.set_gauge("dag_frontier_size", len(frontier))
            yield [
                item
                for name in frontier
                for item in _node_items(plan, plan.node_named(name))
            ]
            if journal is not None:
                frontier_key = f"{program_fingerprint(program)}:frontier:{index}"
                if journal.peek("prove.frontier", frontier_key) is None:
                    journal.append(
                        "prove.frontier", frontier_key, nodes=list(frontier)
                    )
        yield _safety_items(plan)

    run = Discharge()
    with obs.span(
        "prove", program=program.name, nodes=len(plan.nodes)
    ) as sp:
        for items in batches():
            discharge(
                program, items, jobs, budget, ledger, journal, engine,
                label=engine, run=run,
            )
            if run.failed is not None:
                break
        statistics = run.statistics
        hits = statistics.get("ledger_hits", 0)
        misses = statistics.get("ledger_misses", 0)
        total = hits + misses
        obs.set_gauge("ledger_hit_rate", hits / total if total else 1.0)
        failed = run.failed.node if run.failed is not None else None
        ok = failed is None and not run.unknown
        if failed is not None:
            sp.set(failed=failed)
        if "journal_hits" in statistics:
            sp.set(journal_hits=statistics["journal_hits"])
        sp.set(ok=ok, ledger_hits=hits, queries=run.solved)
        return ProveReport(
            ok, program.name, frontiers, tuple(run.outcomes), hits, misses,
            run.solved, failed, run.cti, tuple(run.unknown),
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

    def resolve(name: str, node_name: str, items: list[Pending]) -> InvariantStatus:
        found: list[LedgerEntry] = []
        for keys in obligation_keys(program, items):
            entry = ledger.proven(keys[0])
            if entry is None:
                state = "stale" if historical.get(name) else "unproven"
                return InvariantStatus(name, node_name, state)
            found.append(entry)
        return InvariantStatus(name, node_name, "proven", tuple(found))

    for node in plan.nodes:
        items = _node_items(plan, node)
        for conjecture in node.conjectures:
            mine = [i for i in items if i.obligation.target == conjecture.name]
            rows.append(resolve(conjecture.name, node.name, mine))
    safeties = _safety_items(plan)
    if safeties:
        rows.append(resolve(NO_ABORT, NO_ABORT, safeties))
    return tuple(rows)
