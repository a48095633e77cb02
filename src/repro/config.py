"""The run configuration: every ``REPRO_*`` setting, resolved once.

This is the only module that reads the environment.  A :class:`RunConfig`
is frozen.  :meth:`RunConfig.from_env` is the one parser; :func:`current`
resolves it from the process environment on first use and memoizes it,
so a query pays one global read, not a parse.  ``repro`` subcommands
apply their flags on top (``dataclasses.replace``) and run inside
:func:`using`, so a flag changes the run it was given to and nothing
after it.  Nothing writes the environment.

A malformed value warns once on stderr (per variable and value) and
keeps the default: a typo'd ``REPRO_JOBS=8x`` quietly running serial
wastes hours before anyone notices.

Pool workers inherit the config at fork.  What a long-lived worker must
follow after that -- the fault plan, the budget and the cache state --
travels with each task (:mod:`repro.solver.dispatch`).
"""

from __future__ import annotations

import contextlib
import os
import sys
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

from .solver.budget import Budget
from .solver.faults import FaultPlan, parse_fault_spec


@dataclass(frozen=True)
class RunConfig:
    """Every run setting, one field per ``REPRO_*`` variable."""

    jobs: int = 1  # REPRO_JOBS: worker processes for independent queries
    timeout: float | None = None  # REPRO_TIMEOUT: wall seconds per query
    conflict_budget: int | None = None  # REPRO_CONFLICT_BUDGET
    memory_mb: int | None = None  # REPRO_MEMORY_MB: worker address-space cap
    retries: int = 2  # REPRO_RETRIES: crashed/hung worker retries
    cache: bool = True  # REPRO_CACHE
    cache_persist: bool = False  # REPRO_CACHE_PERSIST: the disk tier
    cache_dir: str = ".repro-cache"  # REPRO_CACHE_DIR
    ledger: bool = True  # REPRO_LEDGER
    ledger_dir: str = ".repro-ledger"  # REPRO_LEDGER_DIR
    slice: bool = True  # REPRO_SLICE: cone-of-influence VC slicing
    runs_dir: str = ".repro-runs"  # REPRO_RUNS_DIR
    heartbeat_timeout: float = 300.0  # REPRO_HEARTBEAT_TIMEOUT; <= 0 disables
    fault: FaultPlan | None = None  # REPRO_FAULT: injected faults (chaos runs)

    @classmethod
    def from_env(cls, environ: Mapping[str, str]) -> "RunConfig":
        """Parse the ``REPRO_*`` variables of ``environ``; unset or empty
        ones, and malformed ones after a warning, keep their default."""
        fields = {}
        for name, (field, parse, hint) in VARIABLES.items():
            raw = environ.get(name, "").strip()
            if not raw:
                continue
            try:
                fields[field] = parse(raw)
            except ValueError:
                _warn(name, raw, hint)
        return cls(**fields)

    def budget(self) -> Budget | None:
        """The per-query budget, or None (no metering) when unlimited."""
        if (self.timeout, self.conflict_budget, self.memory_mb) == (None,) * 3:
            return None
        return Budget(
            wall_seconds=self.timeout,
            conflicts=self.conflict_budget,
            rss_mb=self.memory_mb,
        )


def _flag(raw: str) -> bool:
    value = raw.lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off"):
        return False
    raise ValueError(raw)


def _at_least(minimum: int) -> Callable[[str], int]:
    def parse(raw: str) -> int:
        value = int(raw)
        if value < minimum:
            raise ValueError(raw)
        return value

    return parse


def _positive_float(raw: str) -> float:
    value = float(raw)
    if not value > 0:
        raise ValueError(raw)
    return value


def _fault(raw: str) -> FaultPlan | None:
    if raw.lower() in ("0", "off", "none"):
        return None
    plan = parse_fault_spec(raw)
    if plan is None:
        raise ValueError(raw)
    return plan


_FLAG_HINT = "expected 1/true/yes/on or 0/false/no/off"

#: each variable: its field, its parser (ValueError when malformed), and
#: what a well-formed value looks like
VARIABLES: dict[str, tuple[str, Callable[[str], object], str]] = {
    "REPRO_JOBS": ("jobs", _at_least(1), "expected an integer >= 1"),
    "REPRO_TIMEOUT": ("timeout", _positive_float, "expected a positive number"),
    "REPRO_CONFLICT_BUDGET": (
        "conflict_budget", _at_least(1), "expected an integer >= 1",
    ),
    "REPRO_MEMORY_MB": ("memory_mb", _at_least(1), "expected an integer >= 1"),
    "REPRO_RETRIES": ("retries", _at_least(0), "expected an integer >= 0"),
    "REPRO_CACHE": ("cache", _flag, _FLAG_HINT),
    "REPRO_CACHE_PERSIST": ("cache_persist", _flag, _FLAG_HINT),
    "REPRO_CACHE_DIR": ("cache_dir", str, ""),
    "REPRO_LEDGER": ("ledger", _flag, _FLAG_HINT),
    "REPRO_LEDGER_DIR": ("ledger_dir", str, ""),
    "REPRO_SLICE": ("slice", _flag, _FLAG_HINT),
    "REPRO_RUNS_DIR": ("runs_dir", str, ""),
    "REPRO_HEARTBEAT_TIMEOUT": (
        "heartbeat_timeout", float, "expected a number of seconds",
    ),
    "REPRO_FAULT": ("fault", _fault, "expected e.g. crash:0.2,hang:0.1,seed:7"),
}

#: (variable, value) pairs already warned about
_warned: set[tuple[str, str]] = set()


def _warn(name: str, value: str, hint: str) -> None:
    if (name, value) in _warned:
        return
    _warned.add((name, value))
    print(
        f"repro: warning: ignoring malformed {name}={value!r} ({hint})",
        file=sys.stderr,
    )


_current: RunConfig | None = None


def current() -> RunConfig:
    """The installed config; the first call resolves it from the environment."""
    global _current
    if _current is None:
        _current = RunConfig.from_env(os.environ)
    return _current


@contextlib.contextmanager
def using(cfg: RunConfig) -> Iterator[RunConfig]:
    """Install ``cfg`` for the block; the previous config comes back after."""
    global _current
    previous = current()
    _current = cfg
    try:
        yield cfg
    finally:
        _current = previous
