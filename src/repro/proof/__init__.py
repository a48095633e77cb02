"""Proof management: named invariants, the proof DAG, and the ledger.

The package sits between the language layer (``repro.rml`` declares
``invariant``/``proof`` blocks) and the engines (``repro.core`` checks
obligations):

* :mod:`repro.proof.dag` -- the proof-dependency DAG: ``with``-clauses
  (plus engine-discovered lemma uses) as edges, cycle rejection with
  provenance, topological frontiers for parallel dispatch;
* :mod:`repro.proof.ledger` -- the persistent, content-addressed store
  of discharged obligations, so reruns skip proven conjectures;
* :mod:`repro.proof.manager` -- proof plans: grouping invariants into
  nodes, discharging frontiers against the ledger, and status reporting.

This ``__init__`` deliberately re-exports only the DAG and ledger:
``repro.rml.typecheck`` imports the DAG for its cycle diagnostics, so
pulling :mod:`repro.proof.manager` (which imports ``repro.core``, which
imports ``repro.rml``) in here would create an import cycle.  Import the
manager explicitly as ``repro.proof.manager``.
"""

from .dag import CycleError, ProofDag, ProofEdge, build_dag, cycle_diagnostics
from .ledger import (
    LEDGER_FORMAT,
    Ledger,
    LedgerEntry,
    default_ledger,
    keys_of,
    ledger_key,
    lemma_set_fingerprint,
    obligation_fingerprint,
    program_fingerprint,
)

__all__ = [
    "CycleError",
    "ProofDag",
    "ProofEdge",
    "build_dag",
    "cycle_diagnostics",
    "LEDGER_FORMAT",
    "Ledger",
    "LedgerEntry",
    "default_ledger",
    "keys_of",
    "ledger_key",
    "lemma_set_fingerprint",
    "obligation_fingerprint",
    "program_fingerprint",
]
