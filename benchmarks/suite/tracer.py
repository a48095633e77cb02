"""Outside-in layer tracing for the benchmark suite.

The program under test is not modified: :meth:`Tracer.install` wraps the
public entry point of each layer from outside, replacing every binding of
the same function object across the loaded ``repro.*`` modules (methods
are replaced on their class).  Each wrapped call records a span -- layer,
start, end, parent span, item -- in memory; :meth:`Tracer.dump` writes
them as JSONL when the child exits, and :func:`summarize` turns a span
file into per-layer self times.

A target that no longer exists (a module moved, a function renamed) is
listed in ``Tracer.missing`` instead of failing the run, so a refactor of
the program degrades the trace rather than the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types
from collections import defaultdict
from contextlib import contextmanager

#: layer name -> the dotted ``module:qualname`` targets timed as that layer
LAYERS: dict[str, tuple[str, ...]] = {
    "protocols": tuple(
        f"repro.protocols.{name}:build"
        for name in (
            "lock_server", "leader_election", "db_chain",
            "distributed_lock", "learning_switch", "chord",
        )
    ),
    "analysis.preflight": ("repro.analysis.preflight:preflight_program",),
    "rml.wp": ("repro.rml.wp:wp",),
    "analysis.deps": ("repro.analysis.deps:slice_vc",),
    "core.induction": (
        "repro.core.induction:obligations",
        "repro.core.induction:check_inductive",
        "repro.core.induction:check_initiation",
        "repro.core.induction:cti_from_model",
    ),
    "core.minimize": ("repro.core.minimize:find_minimal_cti",),
    "core.bounded": ("repro.core.bounded:find_error_trace",),
    "rml.encode": ("repro.rml.encode:TransitionEncoder.encode_step",),
    "logic.transform": (
        "repro.logic.transform:nnf",
        "repro.logic.transform:eliminate_ite",
        "repro.logic.transform:skolemize_ea",
    ),
    "solver.split": (
        "repro.solver.split:hoist_existentials",
        "repro.solver.split:DisjunctSplitter.split",
    ),
    "solver.grounding": ("repro.solver.grounding:ground_universe",),
    # Self time of prepare is the instantiation loop: normalization,
    # universe, theory set-up and Tseitin are child layers.
    "solver.epr.prepare": ("repro.solver.epr:EprSolver.prepare",),
    "solver.cnf": ("repro.solver.cnf:CnfBuilder.assert_formula",),
    "solver.equality": (
        "repro.solver.equality:EqualityTheory.__init__",
        "repro.solver.equality:EqualityTheory.classes",
        "repro.solver.equality:EqualityTheory.congruence_violations",
    ),
    "solver.sat": ("repro.solver.sat:Solver.solve",),
    "solver.epr.solve": ("repro.solver.epr:PreparedEpr.solve",),
    # The query-cache key and model extraction are wrapped directly: a
    # cache hit carries no phase statistics to derive them from.
    "solver.epr.fingerprint": ("repro.solver.epr:PreparedEpr._fingerprint",),
    "solver.epr.extract": ("repro.solver.epr:EprSolver._extract",),
    "solver.cache": (
        "repro.solver.cache:QueryCache.lookup",
        "repro.solver.cache:QueryCache.store",
        "repro.solver.cache:DiskCache.lookup",
        "repro.solver.cache:DiskCache.store",
    ),
    "store": (
        "repro.store:ShardedStore.read",
        "repro.store:ShardedStore.write",
    ),
    "solver.dispatch": ("repro.solver.dispatch:solve_queries",),
}


def _instances(counts, args, kwargs):
    def after(prepared):
        counts["solver.instances"] += prepared.instance_count

    return after


def _conflicts(counts, args, kwargs):
    solver = args[0]
    before = solver.statistics["conflicts"]

    def after(_result):
        counts["solver.sat.conflicts"] += solver.statistics["conflicts"] - before

    return after


def _lookup(counts, args, kwargs):
    def after(result):
        counts["solver.cache.misses" if result is None else "solver.cache.hits"] += 1

    return after


def _write(counts, args, kwargs):
    counts["store.writes"] += 1
    payload = args[2] if len(args) > 2 else kwargs["payload"]
    counts["store.bytes_written"] += len(payload)
    return None


def _dispatch(counts, args, kwargs):
    counts["solver.dispatch.queries"] += len(args[0])

    def after(batches):
        # Pool workers are not traced; their busy time is the phase wall
        # time each result already carries back.
        counts["solver.dispatch.worker_busy_s"] += sum(
            value
            for batch in batches
            for result in batch
            for key, value in result.statistics.items()
            if key.startswith("phase_") and key.endswith("_ms")
            and not key.endswith("_cpu_ms")
        ) / 1000

    return after


#: target -> ``hook(counts, args, kwargs)``, run before the call; it may
#: return ``after(result)``, run after a successful call
COUNTERS = {
    "repro.solver.epr:EprSolver.prepare": _instances,
    "repro.solver.sat:Solver.solve": _conflicts,
    "repro.solver.cache:QueryCache.lookup": _lookup,
    "repro.store:ShardedStore.write": _write,
    "repro.solver.dispatch:solve_queries": _dispatch,
}

#: every count a traced child reports, zero when never incremented
COUNT_NAMES = (
    "solver.instances",
    "solver.sat.conflicts",
    "solver.cache.hits",
    "solver.cache.misses",
    "store.writes",
    "store.bytes_written",
    "solver.dispatch.queries",
    "solver.dispatch.worker_busy_s",
)

ITEM = "item"


def _resolve(target: str):
    """``(owner, attribute, function)``, or None when the target is gone."""
    module_name, _, qualname = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attribute = qualname.split(".")
    for name in path:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    value = vars(owner).get(attribute)
    if not isinstance(value, types.FunctionType):
        return None
    return owner, attribute, value


class Tracer:
    """Spans and counts of one child process."""

    def __init__(self) -> None:
        #: ``[layer, target, start, end, parent index, item]`` per span
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.missing: list[str] = []

    def install(self, layers=LAYERS, counters=COUNTERS) -> None:
        """Wrap every target in ``layers``; call after importing ``repro``."""
        for layer, targets in layers.items():
            for target in targets:
                found = _resolve(target)
                if found is None:
                    self.missing.append(target)
                    continue
                owner, attribute, function = found
                wrapper = self._wrap(layer, target, function, counters.get(target))
                if isinstance(owner, type):
                    setattr(owner, attribute, wrapper)
                else:
                    _rebind(function, wrapper)

    def _wrap(self, layer, target, function, hook):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            # A recursive call (eliminate_ite, DisjunctSplitter.split) is
            # part of its outermost call's span.
            if stack and spans[stack[-1]][1] is target:
                return function(*args, **kwargs)
            after = hook(counts, args, kwargs) if hook is not None else None
            parent = stack[-1] if stack else -1
            item = spans[parent][5] if stack else None
            span = [layer, target, clock(), 0.0, parent, item]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = function(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return wrapper

    @contextmanager
    def item(self, name: str):
        """A root span around one workload item (not a layer)."""
        span = [ITEM, ITEM, time.perf_counter(), 0.0, -1, name]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[3] = time.perf_counter()
            self._stack.pop()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for layer, _, start, end, parent, item in self.spans:
                handle.write(json.dumps([layer, start, end, parent, item]) + "\n")


def _rebind(function, wrapper) -> None:
    """Point every ``repro.*`` module binding of ``function`` at ``wrapper``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attribute, value in list(vars(module).items()):
            if value is function:
                setattr(module, attribute, wrapper)


def summarize(span_lines) -> dict:
    """Per-layer self time and call count from one child's JSONL spans.

    A span's self time is its duration minus the durations of its direct
    children (a child process is single-threaded, so children never
    overlap).  Item spans are not a layer: their self time is the part of
    an item no wrapped layer accounts for.
    """
    spans = [json.loads(line) for line in span_lines]
    covered = [0.0] * len(spans)
    for layer, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    self_s: defaultdict[str, float] = defaultdict(float)
    calls: defaultdict[str, int] = defaultdict(int)
    item_s = 0.0
    for index, (layer, start, end, _, _) in enumerate(spans):
        self_s[layer] += (end - start) - covered[index]
        calls[layer] += 1
        if layer == ITEM:
            item_s += end - start
    unaccounted = self_s.pop(ITEM, 0.0)
    calls.pop(ITEM, None)
    return {
        "self_s": dict(self_s),
        "calls": dict(calls),
        "item_s": item_s,
        "unaccounted_s": unaccounted,
    }
