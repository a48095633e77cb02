"""Crash-safe verification runs: journal, resume, signals, supervision.

PR 2's fault tolerance stops at the single query -- a crashed *worker* is
retried, but a crashed *main process* (OOM kill, SIGTERM at minute 30,
Ctrl-C) discards every Houdini round and UPDR frame not already in the
ledger.  This package makes whole runs durable:

* :mod:`.journal` -- a write-ahead run journal: append-only JSONL with
  fsync'd atomic appends, a schema version, and truncated-tail tolerance,
  recording engine progress events (Houdini surviving pools per round,
  UPDR frame snapshots and learned clauses, BMC probes refuted, discharged
  prove/induction obligations);
* :mod:`.resume` -- run directories (``.repro-runs/``), the ``meta.json``
  argv record that lets ``repro resume RUN_DIR`` re-invoke the original
  command, and the resumable exit code;
* :mod:`.signals` -- SIGINT/SIGTERM translated into a catchable
  :class:`Interrupted` so the CLI can flush the journal, shut down the
  worker pool (no orphaned children), and exit resumable;
* :mod:`.heartbeat` -- worker-side heartbeats over a dedicated pipe, so
  the dispatch watchdog can detect a silently wedged worker long before
  its 2x-wall external deadline.

Engines accept ``journal=`` and replay completed work from it before
solving anything -- the same skip-if-recorded discipline the proof ledger
established, but scoped to one run and covering *intermediate* state
(candidate pools, frames) the content-addressed ledger can never hold.
"""

from .journal import JOURNAL_FORMAT, Journal, JournalEvent
from .resume import (
    EXIT_RESUMABLE,
    RunMeta,
    default_run_dir,
    load_meta,
    write_meta,
)
from .signals import Interrupted, install_handlers

#: the process-wide active journal, so signal handlers reached from
#: anywhere can flush it (set by the CLI, cleared on close)
_active: Journal | None = None


def set_active_journal(journal: Journal | None) -> Journal | None:
    """Register the run's journal for signal-time flushing; returns the old."""
    global _active
    old = _active
    _active = journal
    return old


def active_journal() -> Journal | None:
    return _active


__all__ = [
    "EXIT_RESUMABLE",
    "JOURNAL_FORMAT",
    "Interrupted",
    "Journal",
    "JournalEvent",
    "RunMeta",
    "active_journal",
    "default_run_dir",
    "install_handlers",
    "load_meta",
    "set_active_journal",
    "write_meta",
]
