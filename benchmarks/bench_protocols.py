"""Per-protocol verification telemetry: the Fig. 14 shape, machine-readable.

Runs the inductiveness check of every bundled protocol's published
invariant with a fresh query cache and a fresh metrics registry, and
writes one row per protocol -- wall time, query count, verdict
counts, cache hit rate, and whether the invariant held -- into
``BENCH_protocols.json`` at the repository root (schema documented in
:mod:`benchmarks.telemetry`).

This is the regression baseline the paper evaluation table grows from:
diffing two BENCH files across commits shows exactly which protocol got
slower, chattier, or (catastrophically) stopped verifying.

Schema v4 adds two static-analysis columns per row: ``slice_ratio``
(fractional grounded-instance reduction from cone-of-influence slicing,
measured against one extra ``REPRO_SLICE=0`` run that must reach the
identical verdict) and ``symmetry_orbits`` (the protocol's count of
interchangeable sorts).  The CI ``analysis`` job fails when either is
missing from the committed artifact.
"""

import os
import time

import pytest

from repro.core.induction import check_inductive
from repro.obs import MetricsRegistry, install_metrics
from repro.obs.metrics import parse_key
from repro.protocols import ALL_PROTOCOLS
from repro.solver import QueryCache, install_cache

from .conftest import record
from .telemetry import write_bench


#: the registry series counting grounded instances
INSTANCES = "solver_work_total{counter=instances}"


@pytest.fixture
def fresh_cache():
    cache = QueryCache()
    old = install_cache(cache)
    yield cache
    install_cache(old)


def _measured(run):
    """``run()`` under a fresh metrics registry: (result, counters, phase ms).

    The phase totals are the ``query_phase_ms`` histogram sums, by phase.
    """
    registry = MetricsRegistry()
    old = install_metrics(registry)
    try:
        result = run()
    finally:
        install_metrics(old)
    snapshot = registry.to_dict()
    phases: dict[str, float] = {}
    for key, histogram in snapshot["histograms"].items():
        name, labels = parse_key(key)
        if name == "query_phase_ms":
            phase = labels["phase"]
            phases[phase] = round(phases.get(phase, 0.0) + histogram["sum"], 3)
    return result, snapshot["counters"], phases


def _unsliced_run(bundle) -> tuple[int, bool]:
    """Grounded-instance count and verdict of a ``REPRO_SLICE=0`` rerun.

    Fresh cache, no ledger: the rerun must solve every obligation from
    scratch over the full VCs so its instance count is the honest
    denominator of ``slice_ratio``.
    """
    saved = os.environ.get("REPRO_SLICE")
    os.environ["REPRO_SLICE"] = "0"
    previous = install_cache(QueryCache())
    try:
        result, counters, _ = _measured(
            lambda: check_inductive(bundle.program, list(bundle.invariant))
        )
    finally:
        install_cache(previous)
        if saved is None:
            os.environ.pop("REPRO_SLICE", None)
        else:
            os.environ["REPRO_SLICE"] = saved
    return counters.get(INSTANCES, 0), result.holds


def _symmetry_orbits(bundle) -> int:
    """How many of the protocol's sorts are fully interchangeable."""
    from repro.analysis.symmetry import analyze_program_symmetry

    named = [(c.name, c.formula) for c in bundle.invariant]
    reports = analyze_program_symmetry(bundle.program, named)
    return sum(1 for report in reports if report.interchangeable)


def _protocol_row(name, bundle, ledger_root) -> dict:
    from repro.proof.ledger import Ledger

    ledger = Ledger(str(ledger_root / name))
    start = time.perf_counter()
    result, counters, phases = _measured(
        lambda: check_inductive(
            bundle.program, list(bundle.invariant), ledger=ledger
        )
    )
    wall = time.perf_counter() - start
    full_instances, full_holds = _unsliced_run(bundle)
    sliced_instances = counters.get(INSTANCES, 0)
    verdicts = {
        verdict: counters.get(f"queries_total{{verdict={verdict}}}", 0)
        for verdict in ("sat", "unsat", "unknown")
    }
    hits = counters.get("cache_hits_total", 0)
    lookups = hits + counters.get("cache_misses_total", 0)
    slice_ratio = (
        round(1 - sliced_instances / full_instances, 3) if full_instances else 0.0
    )
    assert full_holds == result.holds, (
        f"{name}: sliced verdict {result.holds} != unsliced {full_holds}"
    )
    # Warm rerun: with the ledger populated, every obligation is served
    # from disk before any solver object is built (schema v2 columns).
    warm_start = time.perf_counter()
    warm = check_inductive(
        bundle.program, list(bundle.invariant), ledger=ledger
    )
    warm_wall = time.perf_counter() - warm_start
    return {
        "wall_s": round(wall, 3),
        "holds": result.holds,
        "queries": sum(verdicts.values()),
        "sat": verdicts["sat"],
        "unsat": verdicts["unsat"],
        "unknown": verdicts["unknown"],
        "cache_hit_rate": round(hits / lookups, 3) if lookups else 0.0,
        "conjectures": len(bundle.invariant),
        "sorts": bundle.sort_count(),
        "symbols": bundle.symbol_count(),
        "ledger_hits": warm.statistics.get("ledger_hits", 0),
        "ledger_misses": warm.statistics.get("ledger_misses", 0),
        "ledger_warm_wall_s": round(warm_wall, 3),
        # Schema v4: cone-of-influence slicing effect and symmetry count.
        "slice_ratio": slice_ratio,
        "symmetry_orbits": _symmetry_orbits(bundle),
        # Schema v3: per-phase wall totals (ms), the query_phase_ms
        # histogram sums; lets the regression gate name the phase that
        # slowed.
        "phases": dict(sorted(phases.items())),
    }


def test_protocol_telemetry(benchmark, bundles, results_dir, fresh_cache, tmp_path):
    """Check every bundled invariant; emit BENCH_protocols.json."""

    def run():
        return {
            name: _protocol_row(name, bundles[name], tmp_path)
            for name in sorted(bundles)
        }

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    write_bench("protocols", rows)
    lines = [
        f"{'protocol':22s} {'wall':>7s} {'queries':>7s} {'unsat':>6s} "
        f"{'hit%':>5s} {'ledger':>6s} {'slice':>6s} holds"
    ]
    for name, row in rows.items():
        lines.append(
            f"{name:22s} {row['wall_s']:6.2f}s {row['queries']:7d} "
            f"{row['unsat']:6d} {row['cache_hit_rate']:5.0%} "
            f"{row['ledger_hits']:6d} {row['slice_ratio']:6.0%} {row['holds']}"
        )
    record(results_dir, "protocols_telemetry", "\n".join(lines) + "\n")
    assert set(rows) == set(ALL_PROTOCOLS)
    # Every bundled invariant is the paper's published one; all must hold.
    failing = [name for name, row in rows.items() if not row["holds"]]
    assert not failing, f"published invariants no longer inductive: {failing}"
    # The warm rerun must be discharged entirely from the ledger.
    resolved = [name for name, row in rows.items() if row["ledger_misses"]]
    assert not resolved, f"warm ledger rerun re-solved obligations: {resolved}"
    # Cone-of-influence slicing must pay for itself: at least a 30%
    # grounded-instance reduction on at least two protocols (identical
    # verdicts are asserted per-row in _protocol_row).
    big_wins = [name for name, row in rows.items() if row["slice_ratio"] >= 0.3]
    assert len(big_wins) >= 2, f"slicing reduced <30% almost everywhere: {rows}"
