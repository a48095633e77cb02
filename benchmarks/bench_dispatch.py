"""Pass/fail gates on the solver-dispatch layer, the stores and tracing.

Each test measures one win or one overhead and asserts a fixed bound;
nothing is written to disk, and every assertion message carries the
measured numbers:

* fanning the independent per-depth BMC queries of
  :func:`~repro.core.bounded.check_k_invariance` across the persistent
  worker pool (``--jobs``) is at least 1.5x faster than serial -- the
  assertion is skipped on machines with one *effective* CPU
  (``sched_getaffinity``), where forked workers just time-slice;
* answering repeated obligations from the stores: re-running Houdini
  over an unchanged candidate pool hits the query cache >= 90%, and a
  repeated BMC sweep (disk-backed query cache) or ``repro prove``
  (proven-lemma ledger) in a **fresh interpreter** is answered entirely
  from disk, at least 1.7x faster -- the cross-run win no in-memory
  cache can provide;
* a generous solver budget costs < 25% wall time on serial BMC, and
  span tracing <= 5% CPU time (interleaved pairs of fresh interpreters).

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench_dispatch.py -q``.
"""

import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from repro import obs
from repro.core.bounded import check_k_invariance
from repro.core.houdini import houdini
from repro.logic import Sort, Var
from repro.solver import QueryCache, install_cache

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

BMC_BOUND = 3
#: interleaved plain/traced runs in the tracing-overhead gate
TRACING_PAIRS = 6
JOBS = 4


def effective_cpus() -> int:
    """CPUs this process may actually run on.

    ``os.cpu_count()`` reports the machine; CI runners and containers
    routinely pin processes to a subset via cgroups/affinity, and a
    speedup figure measured on 1 effective CPU says nothing about the
    dispatch layer.  Falls back to ``os.cpu_count()`` on platforms
    without ``sched_getaffinity``.
    """
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


@pytest.fixture
def no_cache():
    """Disable the query cache so timings measure actual solving."""
    old = install_cache(None)
    yield
    install_cache(old)


@pytest.fixture
def fresh_cache():
    cache = QueryCache()
    old = install_cache(cache)
    yield cache
    install_cache(old)


def _measured(run):
    """``run()`` under a fresh metrics registry; returns (result, registry)."""
    registry = obs.MetricsRegistry()
    old = obs.install_metrics(registry)
    try:
        return run(), registry
    finally:
        obs.install_metrics(old)


def _count(registry, prefix):
    """Sum of the registry's counters whose series start with ``prefix``."""
    return sum(
        value
        for key, value in registry.to_dict()["counters"].items()
        if key.startswith(prefix)
    )


def _bmc_once(bundle, jobs):
    safety = bundle.safety[0].formula
    start = time.perf_counter()
    result = check_k_invariance(bundle.program, safety, BMC_BOUND, jobs=jobs)
    return result, time.perf_counter() - start


def test_parallel_bmc_speedup(benchmark, bundles, no_cache):
    """Multi-depth BMC, serial vs ``--jobs 4``."""
    bundle = bundles["leader_election"]
    (serial_result, serial_time), _ = _measured(lambda: _bmc_once(bundle, 1))

    def run():
        return _measured(lambda: _bmc_once(bundle, JOBS))

    (parallel_result, parallel_time), parallel_stats = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    assert serial_result.holds and parallel_result.holds
    speedup = serial_time / parallel_time if parallel_time else float("inf")
    cpus = effective_cpus()
    summary = (
        f"BMC k={BMC_BOUND} leader_election: serial {serial_time:.2f}s, "
        f"--jobs {JOBS} {parallel_time:.2f}s, speedup {speedup:.2f}x "
        f"on {cpus} effective cpu"
    )
    dispatched = _count(parallel_stats, "dispatched_total")
    assert dispatched == BMC_BOUND + 1, f"{dispatched} dispatched; {summary}"
    if cpus < 2:
        pytest.skip(f"{summary}: time-sliced, not asserted")
    assert speedup >= 1.5, summary


RERUN_PROTOCOL = "leader_election"
RERUN_BOUND = 4


def _fresh_interpreter(argv, env, label):
    """Run ``python -m <argv>`` from the repo root; its stdout is one JSON."""
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src"), **env}
    proc = subprocess.run(
        [sys.executable, "-m", *argv],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, f"{label} run failed:\n{proc.stderr}"
    return json.loads(proc.stdout)


def test_persistent_cache_cross_process_rerun(benchmark, tmp_path):
    """A fresh interpreter re-answers an identical BMC sweep from disk.

    The in-memory cache dies with the cold process; ``REPRO_CACHE_PERSIST``
    is what carries its 100% warm hit rate across the process boundary.
    The cache is keyed on the solver's input before grounding, so the
    warm run grounds and solves nothing; what is left is building the
    VCs and looking each one up.
    """
    argv = ["benchmarks.rerun_workload", RERUN_PROTOCOL, str(RERUN_BOUND)]
    env = {"REPRO_CACHE_PERSIST": "1", "REPRO_CACHE_DIR": str(tmp_path)}
    cold = _fresh_interpreter(argv, env, "cold")
    warm = benchmark.pedantic(
        lambda: _fresh_interpreter(argv, env, "warm"), rounds=1, iterations=1
    )
    assert cold["holds"] and warm["holds"]
    cold_time, warm_time = cold["wall_s"], warm["wall_s"]
    speedup = cold_time / warm_time if warm_time else float("inf")
    summary = (
        f"BMC k={RERUN_BOUND} {RERUN_PROTOCOL} cross-process rerun: "
        f"cold {cold_time:.2f}s, warm {warm_time:.2f}s ({speedup:.1f}x), "
        f"warm hit rate {warm['cache_hit_rate']:.0%}"
    )
    assert warm["cache_hit_rate"] == 1.0, summary
    assert speedup >= 1.7, summary


def test_ledger_cross_process_rerun(benchmark, tmp_path):
    """A fresh interpreter re-proves an unchanged protocol from the ledger.

    The ledger recognizes proven obligations by content address before
    any solver object exists, so the warm ``repro prove`` issues zero
    queries.  Both runs report ``elapsed_s``, the in-process time of the
    same ``prove()`` call, so interpreter start-up is not in the ratio.
    """
    argv = ["repro", "prove", RERUN_PROTOCOL, "--format", "json",
            "--ledger-dir", str(tmp_path)]
    cold = _fresh_interpreter(argv, {}, "cold")
    warm = benchmark.pedantic(
        lambda: _fresh_interpreter(argv, {}, "warm"), rounds=1, iterations=1
    )
    assert cold["ok"] and warm["ok"]
    cold_time, warm_time = cold["elapsed_s"], warm["elapsed_s"]
    speedup = cold_time / warm_time if warm_time else float("inf")
    summary = (
        f"prove {RERUN_PROTOCOL} cross-process rerun: "
        f"cold {cold_time:.3f}s ({cold['queries']} queries), "
        f"warm {warm_time:.3f}s ({warm['queries']} queries, {speedup:.1f}x), "
        f"ledger hit rate {warm['ledger_hit_rate']:.0%}"
    )
    assert warm["queries"] == 0, summary
    assert warm["ledger_hit_rate"] == 1.0, summary
    assert speedup >= 1.7, summary


def test_houdini_rerun_cache_hit_rate(benchmark, bundles, fresh_cache):
    """Re-running Houdini over an unchanged pool hits the cache >= 90%."""
    from repro.core.absint import enumerate_candidates

    bundle = bundles["lock_server"]
    client = Sort("client")
    variables = [Var("C1", client), Var("C2", client)]
    pool = list(
        enumerate_candidates(
            bundle.program.vocab,
            variables,
            max_literals=2,
            include_equality=True,
            max_candidates=400,
        )
    )
    first = houdini(bundle.program, pool)

    def run():
        return _measured(lambda: houdini(bundle.program, pool))

    second, second_stats = benchmark.pedantic(run, rounds=1, iterations=1)
    queries = _count(second_stats, "queries_total{")
    cache_hits = _count(second_stats, "cache_hits_total")
    hit_rate = cache_hits / queries if queries else 0.0
    assert [c.name for c in second.invariant] == [c.name for c in first.invariant]
    assert hit_rate >= 0.9, (
        f"houdini rerun over {len(pool)} candidates: "
        f"{cache_hits}/{queries} queries from cache ({hit_rate:.0%})"
    )


def test_budget_metering_overhead(benchmark, bundles, no_cache):
    """A generous budget must not measurably slow solving down.

    The meter is charged on every conflict and amortized elsewhere; this
    pins the cooperative-enforcement overhead on a real workload (serial
    multi-depth BMC) to under 25%.
    """
    from repro.solver import Budget

    bundle = bundles["leader_election"]
    safety = bundle.safety[0].formula
    start = time.perf_counter()
    plain = check_k_invariance(bundle.program, safety, BMC_BOUND, jobs=1)
    plain_time = time.perf_counter() - start
    budget = Budget(wall_seconds=600.0, conflicts=50_000_000, instances=50_000_000)

    def run():
        return check_k_invariance(
            bundle.program, safety, BMC_BOUND, jobs=1, budget=budget
        )

    start = time.perf_counter()
    metered = benchmark.pedantic(run, rounds=1, iterations=1)
    metered_time = time.perf_counter() - start
    assert plain.holds and metered.holds and not metered.unknown
    overhead = metered_time / plain_time - 1.0 if plain_time else 0.0
    assert overhead < 0.25, (
        f"BMC k={BMC_BOUND} leader_election: unbudgeted {plain_time:.2f}s, "
        f"budgeted {metered_time:.2f}s ({overhead:+.1%} overhead)"
    )


def test_tracing_overhead(benchmark):
    """Tracing on must cost <= 5% CPU time on serial BMC; fail loudly.

    Plain and traced runs alternate in :data:`TRACING_PAIRS` pairs, each
    side going first in turn (plain, traced, traced, plain, ...), so a
    drift in machine speed weighs on both sides equally.  Each run is a
    fresh interpreter (``benchmarks.rerun_workload``, cache off): in one
    long-lived process, the heap and the worker pool that earlier tests
    leave behind moved the reading by +11% and by -16% on unchanged
    code.  Each run reports ``time.process_time()`` of
    the sweep: it is ``jobs=1``, so all of its work is in-process CPU,
    and CPU time leaves out the time a shared machine gives to other
    processes.  The overhead is total traced over total plain CPU time.
    Tracing writes one small JSON line per span into an in-memory
    buffer, so any real regression here means the hot-path guards in
    :mod:`repro.obs` stopped being cheap.
    """
    argv = ["benchmarks.rerun_workload", "leader_election", str(BMC_BOUND)]

    def cpu_seconds(traced):
        label = "traced" if traced else "plain"
        run = _fresh_interpreter(
            argv + ([label] if traced else []), {"REPRO_CACHE": "0"}, label
        )
        assert run["holds"]
        return run["cpu_s"]

    def pairs():
        timings = []
        for index in range(TRACING_PAIRS):
            order = (False, True) if index % 2 == 0 else (True, False)
            times = {traced: cpu_seconds(traced) for traced in order}
            timings.append((times[False], times[True]))
        return timings

    timings = benchmark.pedantic(pairs, rounds=1, iterations=1)
    plain_total = sum(plain for plain, _ in timings)
    traced_total = sum(traced for _, traced in timings)
    overhead = traced_total / plain_total - 1.0
    assert overhead <= 0.05, (
        f"tracing overhead {overhead:+.1%} over {len(timings)} pairs "
        "exceeds the 5% budget; CPU s (untraced, traced): "
        + ", ".join(f"({plain:.2f}, {traced:.2f})" for plain, traced in timings)
    )
