"""Fault injection for solver worker processes.

The fault-tolerance claims of :mod:`repro.solver.dispatch` -- crashed
workers are retried, hung workers are killed on deadline, verdicts never
flip -- are only worth anything if they are *exercised*.  This module
injects faults into workers so chaos tests can assert that verification
verdicts under heavy fault rates are identical to fault-free runs.

A :class:`FaultPlan` gives independent probabilities for three fault
modes, drawn deterministically per ``(seed, query name, attempt)`` so runs
are reproducible and a retried attempt can draw a different outcome:

* ``crash`` -- the worker exits immediately via ``os._exit`` (simulates a
  segfault or OOM kill: no result, no exception, no cleanup);
* ``hang`` -- the worker sleeps for ``hang_seconds`` (simulates a
  grounding blow-up or livelock; the dispatch parent must SIGKILL it);
* ``slow`` -- the worker sleeps ``slow_seconds`` before solving (simulates
  the 1000x-slower-than-its-siblings query).

Plans come from the ``REPRO_FAULT`` environment variable
(``REPRO_FAULT=crash:0.2,hang:0.1,slow:0.3:1.5,seed:7``) or the
programmatic :func:`install_fault_plan` hook.  Faults only ever fire
inside forked worker processes (:func:`mark_worker` is called after the
fork): the dispatch parent and the in-process serial fallback are always
fault-free, which is what guarantees every query eventually gets a
fault-free attempt.

One fault mode targets the **main process** instead: ``kill9`` gives a
per-checkpoint probability that :func:`maybe_inject_main` SIGKILLs the
whole run.  The run journal (:mod:`repro.recovery.journal`) calls it
right after every durable append, so ``REPRO_FAULT=kill9:0.3,seed:N``
turns any verification into a crash-at-a-random-journal-boundary
experiment -- the chaos harness then resumes the run and asserts the
verdict is identical.  ``kill9`` never fires in workers (they have
``crash`` for that) and is deliberately excluded from worker fault
draws.
"""

from __future__ import annotations

import os
import random
import signal
import time
from dataclasses import dataclass

from .budget import warn_env

#: exit code used by injected crashes, distinctive in worker diagnostics
CRASH_EXIT_CODE = 86


@dataclass(frozen=True)
class FaultPlan:
    """Probabilities and parameters for injected worker faults."""

    crash: float = 0.0
    hang: float = 0.0
    slow: float = 0.0
    kill9: float = 0.0  # main-process SIGKILL per checkpoint, not a worker fault
    slow_seconds: float = 0.5
    hang_seconds: float = 3600.0
    seed: int = 0

    def decide(self, name: str, attempt: int) -> str | None:
        """The fault (if any) for this query attempt: deterministic in
        ``(seed, name, attempt)``."""
        rng = random.Random(f"{self.seed}:{name}:{attempt}")
        draw = rng.random()
        if draw < self.crash:
            return "crash"
        if draw < self.crash + self.hang:
            return "hang"
        if draw < self.crash + self.hang + self.slow:
            return "slow"
        return None


def parse_fault_spec(spec: str) -> FaultPlan | None:
    """Parse ``crash:0.2,hang:0.1,slow:0.3:1.5,seed:7`` into a plan.

    Returns None (and the caller warns) on malformed input.  ``slow`` takes
    an optional second field, the sleep in seconds; ``hang`` likewise.
    """
    fields: dict[str, float] = {}
    try:
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            pieces = part.split(":")
            key = pieces[0].strip()
            if key not in ("crash", "hang", "slow", "kill9", "seed"):
                return None
            if key == "seed":
                fields["seed"] = int(pieces[1])
                continue
            probability = float(pieces[1])
            if not 0.0 <= probability <= 1.0:
                return None
            fields[key] = probability
            if len(pieces) > 2:
                duration = float(pieces[2])
                if duration < 0:
                    return None
                fields[f"{key}_seconds"] = duration
            if len(pieces) > 3:
                return None
    except (ValueError, IndexError):
        return None
    if not fields:
        return None
    kwargs = {
        key: fields[key]
        for key in (
            "crash",
            "hang",
            "slow",
            "kill9",
            "slow_seconds",
            "hang_seconds",
        )
        if key in fields
    }
    plan = FaultPlan(seed=int(fields.get("seed", 0)), **kwargs)
    # kill9 draws independently (main process, not worker attempts), so it
    # is not part of the worker-fault probability partition.
    if plan.crash + plan.hang + plan.slow > 1.0:
        return None
    return plan


_installed: FaultPlan | None = None
_installed_explicitly = False
_in_worker = False


def install_fault_plan(plan: FaultPlan | None) -> FaultPlan | None:
    """Programmatic hook: set (or clear with None) the active fault plan.

    Returns the previously installed plan.  An installed plan takes
    precedence over ``REPRO_FAULT``; workers inherit it through fork.
    Passing None re-enables the environment variable -- use
    ``install_fault_plan(FaultPlan())`` for a hard "no faults".
    """
    global _installed, _installed_explicitly
    old = _installed if _installed_explicitly else None
    _installed = plan
    _installed_explicitly = plan is not None
    return old


def active_plan() -> FaultPlan | None:
    """The plan faults are drawn from: installed hook, else ``REPRO_FAULT``."""
    if _installed_explicitly:
        return _installed if _installed and not _plan_is_noop(_installed) else None
    spec = os.environ.get("REPRO_FAULT", "").strip()
    if not spec or spec in ("0", "off", "none"):
        return None
    plan = parse_fault_spec(spec)
    if plan is None:
        warn_env("REPRO_FAULT", spec, "expected e.g. crash:0.2,hang:0.1,seed:7")
        # Do not re-warn on every worker spawn.
        os.environ["REPRO_FAULT"] = ""
        return None
    return plan


def _plan_is_noop(plan: FaultPlan) -> bool:
    return plan.crash == plan.hang == plan.slow == plan.kill9 == 0.0


def mark_worker() -> None:
    """Called in a freshly forked worker: arms fault injection there."""
    global _in_worker
    _in_worker = True


def maybe_inject(name: str, attempt: int) -> None:
    """Inject the planned fault (if any) for this query attempt.

    A no-op outside worker processes: the dispatch parent and the serial
    fallback must stay fault-free so every query can eventually complete.
    """
    if not _in_worker:
        return
    plan = active_plan()
    if plan is None:
        return
    fault = plan.decide(name, attempt)
    if fault == "crash":
        os._exit(CRASH_EXIT_CODE)
    elif fault == "hang":
        time.sleep(plan.hang_seconds)
    elif fault == "slow":
        time.sleep(plan.slow_seconds)


def maybe_inject_main(name: str) -> None:
    """SIGKILL the *main* process with probability ``kill9`` (chaos only).

    Called at durability checkpoints (journal appends).  Deterministic in
    ``(seed, name)`` so a given seed kills a run at the same checkpoint
    every time -- and, crucially, the *resumed* run (which skips the
    journaled work and so never revisits that checkpoint's name) runs to
    completion.  A no-op inside workers: they have ``crash``.
    """
    if _in_worker:
        return
    plan = active_plan()
    if plan is None or plan.kill9 <= 0.0:
        return
    rng = random.Random(f"{plan.seed}:kill9:{name}")
    if rng.random() < plan.kill9:
        os.kill(os.getpid(), signal.SIGKILL)
