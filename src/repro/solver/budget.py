"""Resource budgets for solver queries.

EPR with stratified functions is decidable, but grounding blows up
combinatorially with sort bounds and unrolling depth: real runs routinely
hit queries 1000x slower than their siblings.  The engines survive this the
way IC3/PDR-family tools do -- every obligation carries a :class:`Budget`
and degrades to an UNKNOWN verdict instead of hanging when it runs out.

A :class:`Budget` is a declarative record of limits (wall-clock seconds,
SAT conflict/decision caps, a grounded-instance cap, an optional RSS cap
applied in worker processes).  At solve time it is started into a
:class:`BudgetMeter`, the mutable object the solver loops charge against;
an exhausted meter raises :class:`BudgetExceeded` carrying a typed
:class:`FailureReason`, which the EPR layer converts into an
``EprResult.unknown`` outcome.  Enforcement is *cooperative* inside the
process (periodic deadline and cap checks in the DPLL loop and during
grounding) and *external* in :mod:`repro.solver.dispatch` (per-worker
deadline with SIGKILL, retry with :meth:`Budget.escalated`).

``resolve_budget`` builds a budget from the ``REPRO_TIMEOUT``,
``REPRO_CONFLICT_BUDGET``, and ``REPRO_MEMORY_MB`` environment variables;
malformed values are ignored with a one-line stderr warning (see
:func:`warn_env`), never silently.  The boolean variables elsewhere
(``REPRO_CACHE``, ``REPRO_CACHE_PERSIST``, ``REPRO_LEDGER``,
``REPRO_SLICE``, ``REPRO_JOURNAL``) are read through :func:`env_flag`,
which warns the same way.
"""

from __future__ import annotations

import enum
import os
import sys
import time
from dataclasses import dataclass, replace


class FailureReason(enum.Enum):
    """Why a query failed to produce a SAT/UNSAT answer."""

    TIMEOUT = "timeout"  # wall-clock budget exhausted
    CONFLICT_BUDGET = "conflict-budget"  # SAT conflict/decision cap hit
    GROUNDING_BLOWUP = "grounding-blowup"  # ground universe/instances too big
    MEMORY = "memory"  # worker hit its RSS cap
    WORKER_CRASHED = "worker-crashed"  # worker died without an answer
    WEDGED = "wedged"  # worker stopped heartbeating and was killed


class BudgetExceeded(Exception):
    """A cooperative budget check failed; carries the typed reason."""

    def __init__(self, reason: FailureReason, detail: str = "") -> None:
        self.reason = reason
        self.detail = detail
        super().__init__(f"{reason.value}{': ' + detail if detail else ''}")


def warn_env(name: str, value: str, hint: str = "") -> None:
    """One-line stderr warning for a malformed environment variable.

    Used instead of silently falling back to the default: a typo'd
    ``REPRO_JOBS=8x`` quietly running serial wastes hours before anyone
    notices.
    """
    suffix = f" ({hint})" if hint else ""
    print(
        f"repro: warning: ignoring malformed {name}={value!r}{suffix}",
        file=sys.stderr,
    )


@dataclass(frozen=True)
class Budget:
    """Resource limits attached to one solver query.

    All fields are optional; ``None`` means unlimited.  ``wall_seconds``
    covers grounding plus each solve call; ``conflicts``/``decisions`` cap
    SAT search effort; ``instances`` caps grounded clauses (eager plus
    lazy); ``rss_mb`` is applied via ``resource.setrlimit`` inside worker
    processes only (the parent address space is never limited).
    """

    wall_seconds: float | None = None
    conflicts: int | None = None
    decisions: int | None = None
    instances: int | None = None
    rss_mb: int | None = None

    def start(self) -> "BudgetMeter":
        return BudgetMeter(self)

    def escalated(self, factor: float = 2.0) -> "Budget":
        """The budget for a retry: every effort limit multiplied up.

        The RSS cap escalates too -- an OOM-killed attempt retried with the
        same cap would just die again.
        """

        def scale(value, as_int=True):
            if value is None:
                return None
            scaled = value * factor
            return int(scaled) if as_int else scaled

        return replace(
            self,
            wall_seconds=scale(self.wall_seconds, as_int=False),
            conflicts=scale(self.conflicts),
            decisions=scale(self.decisions),
            instances=scale(self.instances),
            rss_mb=scale(self.rss_mb),
        )

    @property
    def unlimited(self) -> bool:
        return (
            self.wall_seconds is None
            and self.conflicts is None
            and self.decisions is None
            and self.instances is None
            and self.rss_mb is None
        )


class BudgetMeter:
    """A started budget: the deadline and the counters charged against it.

    One meter spans one unit of work (a ``prepare`` or one ``solve`` call
    including its CEGAR rounds).  Charging methods raise
    :class:`BudgetExceeded` the moment a limit is crossed; deadline checks
    are amortized on the cheap paths (decisions, instances) and exact on
    the expensive ones (conflicts).
    """

    __slots__ = ("budget", "deadline", "conflicts", "decisions", "instances")

    def __init__(self, budget: Budget) -> None:
        self.budget = budget
        self.deadline = (
            time.monotonic() + budget.wall_seconds
            if budget.wall_seconds is not None
            else None
        )
        self.conflicts = 0
        self.decisions = 0
        self.instances = 0

    def check_deadline(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise BudgetExceeded(FailureReason.TIMEOUT)

    def charge_conflict(self) -> None:
        self.conflicts += 1
        cap = self.budget.conflicts
        if cap is not None and self.conflicts > cap:
            raise BudgetExceeded(
                FailureReason.CONFLICT_BUDGET, f"{self.conflicts} conflicts"
            )
        self.check_deadline()

    def charge_decision(self) -> None:
        self.decisions += 1
        cap = self.budget.decisions
        if cap is not None and self.decisions > cap:
            raise BudgetExceeded(
                FailureReason.CONFLICT_BUDGET, f"{self.decisions} decisions"
            )
        if self.decisions % 2048 == 0:
            self.check_deadline()

    def charge_instances(self, count: int = 1) -> None:
        self.instances += count
        cap = self.budget.instances
        if cap is not None and self.instances > cap:
            raise BudgetExceeded(
                FailureReason.GROUNDING_BLOWUP, f"{self.instances} instances"
            )
        if self.instances % 512 == 0:
            self.check_deadline()


def _env_float(name: str) -> float | None:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return None
    try:
        value = float(raw)
        if value <= 0:
            raise ValueError
        return value
    except ValueError:
        warn_env(name, raw, "expected a positive number")
        return None


def _env_int(name: str, minimum: int = 1) -> int | None:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return None
    try:
        value = int(raw)
        if value < minimum:
            raise ValueError
        return value
    except ValueError:
        warn_env(name, raw, f"expected an integer >= {minimum}")
        return None


def env_flag(name: str, default: bool) -> bool:
    """A boolean environment variable, read at call time.

    Case-insensitive ``1/true/yes/on`` and ``0/false/no/off``; unset or
    empty gives ``default``, and so does anything else, after a
    :func:`warn_env` line.
    """
    raw = os.environ.get(name, "").strip()
    value = raw.lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off"):
        return False
    if raw:
        warn_env(name, raw, "expected 1/true/yes/on or 0/false/no/off")
        # Flags are read per query: blank it so it warns once, here and
        # in workers forked later.
        os.environ[name] = ""
    return default


def resolve_budget(
    wall_seconds: float | None = None,
    conflicts: int | None = None,
    rss_mb: int | None = None,
) -> Budget | None:
    """The effective budget: explicit arguments, else environment, else None.

    Reads ``REPRO_TIMEOUT`` (seconds), ``REPRO_CONFLICT_BUDGET``, and
    ``REPRO_MEMORY_MB`` for any limit not given explicitly.  Returns None
    (no budget at all) when every limit ends up unset, so unbudgeted runs
    pay zero metering overhead.
    """
    wall = wall_seconds if wall_seconds is not None else _env_float("REPRO_TIMEOUT")
    cap = conflicts if conflicts is not None else _env_int("REPRO_CONFLICT_BUDGET")
    rss = rss_mb if rss_mb is not None else _env_int("REPRO_MEMORY_MB")
    if wall is None and cap is None and rss is None:
        return None
    return Budget(wall_seconds=wall, conflicts=cap, rss_mb=rss)


def resolve_retries(retries: int | None = None) -> int:
    """Retry count for crashed/hung workers: argument, ``REPRO_RETRIES``, 2."""
    if retries is not None:
        return max(0, retries)
    env = _env_int("REPRO_RETRIES", minimum=0)
    return env if env is not None else 2
