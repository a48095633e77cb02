"""Per-phase query profiling: wall/CPU timers for solver hot paths.

Every ``query_latency_ms`` sample should decompose into *phases* -- the
named stages a query's wall time actually goes to:

* ``normalize``   -- NNF/ite-elimination/skolemization (:mod:`..solver.epr`);
* ``ground``      -- the ground-term universe closure (:mod:`..solver.grounding`);
* ``instantiate`` -- exhaustive instantiation fused with Tseitin encoding
  (the clause templates of :mod:`..solver.template`);
* ``symmetry``    -- lex-leader symmetry-breaking clauses;
* ``cache``       -- query-cache lookups and stores (:mod:`..solver.cache`);
* ``sat``         -- CDCL search (:mod:`..solver.sat`);
* ``theory``      -- equality-theory set-up, congruence closure and MBQI
  refinement;
* ``extract``     -- finite-model extraction on SAT;
* ``gc``          -- the collection grounding and solving defer while they
  pause the collector (``solver.epr._gc_paused``);
* ``ledger``      -- proven-lemma ledger splits (:mod:`..core.induction`);
* ``transit``     -- pickle/pipe time to and from pool workers, measured by
  the dispatch parent (:mod:`..solver.dispatch`) as observed round-trip
  minus worker-reported wall.

The timers are always on: each :func:`phase` block costs two
``perf_counter`` + two ``thread_time`` reads, and coarse placement (one
block per CDCL call, per grounding, per instantiation loop) keeps that
overhead to a few percent of a serial BMC run.

Collection has two modes:

* inside a :func:`collect` scope (``EprSolver.prepare`` and
  ``PreparedEpr.solve`` each open one), phases accumulate into a
  :class:`PhaseProfile` that the scope owner attaches to its trace span
  (``phase_<name>_ms`` attributes), to the result ``statistics`` (so
  per-query consumers such as the benchmark suite see them), and to the
  ``query_phase_ms{phase=...}`` metrics histogram (whose sums ``--stats``
  prints);
* outside any scope (e.g. the ledger split, which runs at the engine
  layer rather than inside a query), a finished phase publishes straight
  to the metrics histogram.

Phases must not nest: a nested block would double-count its interval and
break the "phases sum to <= total wall" invariant the profiler tests pin.
Placement keeps them disjoint (the ``cache`` timer lives inside
:mod:`..solver.cache`, not around it in the EPR layer, for exactly this
reason).

:func:`engine` tags the ambient engine (bmc / houdini / updr /
induction) through a contextvar so phase metrics carry an ``engine``
label; dispatch ships the tag to pool workers with each task.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar

# Import the helpers straight from the module: the ``repro.obs`` package
# re-exports a *function* named ``metrics``, shadowing the submodule as a
# package attribute.
from .metrics import metrics_enabled as _metrics_enabled
from .metrics import observe as _observe

#: canonical phase order, used by reports for stable column layout
PHASES = (
    "normalize", "ground", "instantiate", "symmetry", "cache", "sat",
    "theory", "extract", "gc", "ledger", "transit",
)

#: statistics/span-attribute prefix phase timings are published under
ATTR_PREFIX = "phase_"


_active: ContextVar["PhaseProfile | None"] = ContextVar(
    "repro_profile", default=None
)
_engine: ContextVar[str | None] = ContextVar("repro_profile_engine", default=None)


class PhaseProfile:
    """Accumulated wall/CPU seconds per phase for one collection scope."""

    __slots__ = ("wall", "cpu", "counts")

    def __init__(self) -> None:
        self.wall: dict[str, float] = {}
        self.cpu: dict[str, float] = {}
        self.counts: dict[str, int] = {}

    def add(self, name: str, wall_s: float, cpu_s: float) -> None:
        self.wall[name] = self.wall.get(name, 0.0) + wall_s
        self.cpu[name] = self.cpu.get(name, 0.0) + cpu_s
        self.counts[name] = self.counts.get(name, 0) + 1

    def total_wall(self) -> float:
        return sum(self.wall.values())

    def attrs_ms(self) -> dict[str, float]:
        """``phase_<name>_ms`` values for span attributes / statistics.

        Milliseconds keep microsecond precision (three decimals): queries
        here run in the hundreds-of-microseconds range, and truncating to
        whole milliseconds would throw away most of the decomposition --
        the hotspot report's "phases cover >= 95% of query wall" property
        only holds with sub-millisecond attributes.
        """
        out: dict[str, float] = {}
        for name, wall in self.wall.items():
            out[f"{ATTR_PREFIX}{name}_ms"] = round(wall * 1000, 3)
            out[f"{ATTR_PREFIX}{name}_cpu_ms"] = round(self.cpu[name] * 1000, 3)
        return out


@contextmanager
def collect():
    """Open a collection scope; yields its profile."""
    profile = PhaseProfile()
    token = _active.set(profile)
    try:
        yield profile
    finally:
        _active.reset(token)


@contextmanager
def phase(name: str):
    """Time one disjoint phase of the active scope (or publish directly)."""
    profile = _active.get()
    wall0 = time.perf_counter()
    cpu0 = time.thread_time()
    try:
        yield
    finally:
        # Both CPU-clock reads lie inside the wall interval: reading the
        # CPU clock is a system call, and a process preempted on its way
        # back from one would otherwise lose that wait from every phase.
        cpu_s = time.thread_time() - cpu0
        wall_s = time.perf_counter() - wall0
        if profile is not None:
            profile.add(name, wall_s, cpu_s)
        elif _metrics_enabled():
            _observe_phase(name, wall_s)


@contextmanager
def engine(name: str):
    """Tag the ambient engine for phase metrics (contextvar-scoped)."""
    token = _engine.set(name)
    try:
        yield
    finally:
        _engine.reset(token)


def current_engine() -> str | None:
    return _engine.get()


def set_engine(name: str | None):
    """Non-lexical :func:`engine` for pool workers; returns a reset token."""
    return _engine.set(name)


def _observe_phase(name: str, wall_s: float) -> None:
    labels = {"phase": name}
    tag = _engine.get()
    if tag is not None:
        labels["engine"] = tag
    _observe("query_phase_ms", wall_s * 1000, **labels)


def publish(profile: PhaseProfile) -> None:
    """Feed a finished scope's phases into ``query_phase_ms{phase=...}``."""
    if not _metrics_enabled():
        return
    for name, wall in profile.wall.items():
        _observe_phase(name, wall)
