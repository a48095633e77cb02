"""The persistent proven-lemma ledger.

A content-addressed store of *discharged proof obligations*, in the mold
of :class:`repro.solver.cache.DiskCache` but one level up: where the disk
cache memoizes raw solver calls, the ledger records that a named
invariant's initiation or consecution obligation was proven -- so a rerun
skips the obligation entirely, before any solver object is even built.

**Keys.** An entry is addressed by the SHA-256 of three fingerprints::

    (protocol hash, obligation hash, lemma-set hash)

* the **protocol hash** covers the vocabulary (sorted by name), the
  axioms, and the init/body/final commands -- editing the transition
  relation changes it, so stale entries simply stop matching;
* the **obligation hash** covers the obligation kind, the command it runs
  through, and the post-formula being established;
* the **lemma-set hash** covers the *premises* the obligation assumed
  (sibling conjectures of a mutual-induction group plus ``with``-lemmas,
  order-insensitively).  An obligation proven under one premise set is
  not a proof under another, so the premises are part of the address.

All formula fingerprints go through the order-deterministic printer
(:func:`repro.logic.printer.fingerprint`): the printer walks AST tuples
and never iterates a set, so keys are byte-identical across interpreter
processes regardless of ``PYTHONHASHSEED`` -- the same discipline the
disk cache gets from sorted symbol adoption.

**Durability.** Entries are JSON files named by their key digest, held
in a shared :class:`repro.store.ShardedStore` (atomic writes, sha256
sharding, advisory locking for corrupt-entry healing, retry with backoff
on transient I/O errors).  Corrupt, truncated, or stale-schema files
read as *unproven* and are deleted under the store lock, with a single
``repro.store`` logger warning per store -- a damaged ledger degrades to
re-proving, never to a wrong answer or a crash.

**Environment.** ``REPRO_LEDGER=0`` disables the ledger entirely;
``REPRO_LEDGER_DIR`` overrides the store location (default
``.repro-ledger/``).  Both are read at :func:`default_ledger` call time.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import subprocess
import time
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .. import obs
from ..logic import syntax as s
from ..logic.printer import canonical_str, fingerprint
from ..solver.budget import env_flag
from ..store import ShardedStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.induction import Obligation
    from ..rml.ast import Program

#: default on-disk store location, relative to the working directory
DEFAULT_LEDGER_DIR = ".repro-ledger"

#: schema version; entries written under any other version read as unproven
LEDGER_FORMAT = 1


# ---------------------------------------------------------------- fingerprints


def program_fingerprint(program: "Program") -> str:
    """The protocol hash: vocabulary + axioms + transition relation.

    Deterministic by construction: symbols are sorted by name, everything
    else is rendered through ``str``/:func:`canonical_str`, which walk the
    AST's tuples in declaration order.  Any edit to the init, body, or
    final command changes this hash, which is how stale ledger entries
    are invalidated.
    """
    hasher = hashlib.sha256()
    vocab = program.vocab
    for sort in sorted(vocab.sorts, key=lambda x: x.name):
        hasher.update(f"sort {sort.name}\n".encode())
    for rel in sorted(vocab.relations, key=lambda x: x.name):
        args = ",".join(x.name for x in rel.arg_sorts)
        hasher.update(f"relation {rel.name}:{args}\n".encode())
    for func in sorted(vocab.functions, key=lambda x: x.name):
        args = ",".join(x.name for x in func.arg_sorts)
        hasher.update(f"function {func.name}:{args}->{func.sort.name}\n".encode())
    for axiom in program.axioms:
        hasher.update(
            f"axiom {axiom.name}: {canonical_str(axiom.formula)}\n".encode()
        )
    for label, command in (
        ("init", program.init),
        ("body", program.body),
        ("final", program.final),
    ):
        hasher.update(f"{label} {{ {command} }}\n".encode())
    return hasher.hexdigest()


def obligation_fingerprint(obligation: "Obligation") -> str:
    """The obligation hash: kind, command label, and post-formula."""
    text = (
        f"{obligation.kind}|{obligation.command_label}|"
        f"{canonical_str(obligation.post)}"
    )
    return hashlib.sha256(text.encode()).hexdigest()


def lemma_set_fingerprint(formulas: Iterable[s.Formula]) -> str:
    """The premise-set hash, insensitive to order and duplication."""
    rendered = sorted({canonical_str(formula) for formula in formulas})
    return hashlib.sha256("\n".join(rendered).encode()).hexdigest()


def ledger_key(
    program_hash: str, obligation_hash: str, lemma_hash: str
) -> str:
    """The content address of one discharged obligation."""
    return hashlib.sha256(
        f"{program_hash}:{obligation_hash}:{lemma_hash}".encode()
    ).hexdigest()


@functools.cache
def git_rev() -> str | None:
    """The current git revision, best effort (provenance only).

    Resolved once per process: every recorded obligation carries it, and
    one ``git`` subprocess per record would cost more than the record.
    """
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def run_id() -> str | None:
    """The active trace run id, if tracing is on (provenance only)."""
    tracer = obs.active_tracer()
    return tracer.run_id if tracer is not None else None


# --------------------------------------------------------------------- entries


@dataclass(frozen=True)
class LedgerEntry:
    """Provenance of one discharged obligation.

    The identity fields (``program`` .. ``lemma_hash``) let ``repro
    status`` match entries to invariants and detect staleness; the rest
    records how the obligation was discharged.
    """

    program: str  # program/protocol name
    invariant: str  # conjecture name, or "<no-abort>" for safety
    kind: str  # "initiation", "safety", or "consecution"
    program_hash: str
    obligation_hash: str
    lemma_hash: str
    engine: str = "induction"  # which engine discharged it
    budget: str | None = None
    git_rev: str | None = None
    run_id: str | None = None
    wall_ms: float = 0.0
    created_unix: float = field(default_factory=time.time)

    @property
    def key(self) -> str:
        return ledger_key(self.program_hash, self.obligation_hash, self.lemma_hash)


class Ledger:
    """The persistent store of proven obligations.

    ``hits``/``misses`` count :meth:`proven` lookups; ``write_errors``
    counts failed :meth:`record` attempts (a read-only or full disk must
    never fail a prove run).
    """

    def __init__(self, root: str) -> None:
        self.root = root
        self._store = ShardedStore(root, ".json")

    @property
    def hits(self) -> int:
        return self._store.hits

    @property
    def misses(self) -> int:
        return self._store.misses

    @property
    def write_errors(self) -> int:
        return self._store.write_errors

    def _path(self, key: str) -> str:
        return self._store.path_of(key)

    @staticmethod
    def _decode(payload: bytes, key: str) -> LedgerEntry | None:
        """The entry the bytes encode, or None when they fail validation."""
        try:
            document = json.loads(payload.decode("utf-8"))
            if document.get("format") != LEDGER_FORMAT:
                return None
            entry = LedgerEntry(**document["entry"])
            if entry.key != key:
                return None
        except Exception:
            return None
        return entry

    def proven(self, key: str) -> LedgerEntry | None:
        """The entry recorded under ``key``, or None (miss)."""
        return self._store.load(
            key,
            lambda payload: self._decode(payload, key),
            "is corrupt or has a stale schema; treated as unproven",
        )

    def record(self, entry: LedgerEntry) -> None:
        """Persist one discharged obligation (atomic, best effort)."""
        try:
            payload = json.dumps(
                {"format": LEDGER_FORMAT, "entry": asdict(entry)},
                indent=1,
                sort_keys=True,
            ).encode("utf-8")
        except (TypeError, ValueError):
            self._store.write_errors += 1
            return
        self._store.write(entry.key, payload)

    def entries(self) -> Iterator[LedgerEntry]:
        """Every readable entry in the store (``repro status`` scans this)."""
        for key in self._store.digests():
            entry = self.proven(key)
            if entry is not None:
                self._store.hits -= 1  # a scan is not a proof lookup
                yield entry

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __len__(self) -> int:
        return len(self._store)


# ----------------------------------------------------------------- environment


def ledger_enabled() -> bool:
    """``REPRO_LEDGER`` not falsy (read at call time)."""
    return env_flag("REPRO_LEDGER", True)


def ledger_dir() -> str:
    """``REPRO_LEDGER_DIR`` or the default ``.repro-ledger``."""
    return os.environ.get("REPRO_LEDGER_DIR", "").strip() or DEFAULT_LEDGER_DIR


def default_ledger(root: str | None = None) -> Ledger | None:
    """A ledger per the environment, or None when disabled."""
    if not ledger_enabled():
        return None
    return Ledger(root if root is not None else ledger_dir())


def keys_of(
    program: "Program",
    obligation: "Obligation",
    premises: Sequence[s.Formula] = (),
    program_hash: str | None = None,
) -> tuple[str, str, str, str]:
    """``(key, program_hash, obligation_hash, lemma_hash)`` for one obligation.

    ``premises`` are the formulas assumed beyond the axioms (sibling
    conjectures under mutual induction, plus proven ``with``-lemmas);
    initiation obligations assume nothing, so callers pass ``()`` there.
    Pass a precomputed ``program_hash`` to amortize it across a batch.
    """
    if program_hash is None:
        program_hash = program_fingerprint(program)
    obligation_hash = obligation_fingerprint(obligation)
    lemma_hash = lemma_set_fingerprint(premises)
    return (
        ledger_key(program_hash, obligation_hash, lemma_hash),
        program_hash,
        obligation_hash,
        lemma_hash,
    )
