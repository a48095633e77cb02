"""Subprocess workloads for the cross-process rerun benchmarks.

Two modes, both launched twice in fresh interpreters -- cold, then warm
-- so that any warm-run speedup is attributable to the on-disk store
alone (every in-memory cache dies with its process):

* ``python -m benchmarks.rerun_workload <protocol> <bound>`` -- the BMC
  sweep behind ``test_persistent_cache_cross_process_rerun``, with
  ``REPRO_CACHE_PERSIST=1`` pointed at a private ``REPRO_CACHE_DIR``.
  The warm run still grounds every query; only solving is skipped.

* ``python -m benchmarks.rerun_workload <protocol> prove`` -- the proof
  workload behind ``test_ledger_cross_process_rerun``, with
  ``REPRO_LEDGER_DIR`` pointed at a private ledger.  The warm run skips
  *everything*: proven obligations are recognized by content address
  before any solver object is built, so it reports zero queries.

Each prints one JSON object on stdout: workload wall time (measured
inside the process, excluding interpreter startup) plus the counters the
caller asserts on (cache hit rate, or ledger hits and query count).
"""

from __future__ import annotations

import json
import sys
import time


def bmc_mode(protocol: str, bound: int) -> dict:
    from repro.core.bounded import check_k_invariance
    from repro.obs import MetricsRegistry, install_metrics
    from repro.protocols import ALL_PROTOCOLS

    bundle = ALL_PROTOCOLS[protocol].build()
    safety = bundle.safety[0].formula
    registry = MetricsRegistry()
    install_metrics(registry)
    start = time.perf_counter()
    result = check_k_invariance(bundle.program, safety, bound, jobs=1)
    wall = time.perf_counter() - start
    snapshot = registry.to_dict()
    counters = snapshot["counters"]
    return {
        "wall_s": wall,
        "holds": result.holds,
        "queries": sum(
            value for key, value in counters.items()
            if key.startswith("queries_total{")
        ),
        "cache_hits": counters.get("cache_hits_total", 0),
        "cache_hit_rate": snapshot["derived"].get("cache_hit_rate", 0.0),
    }


def prove_mode(protocol: str) -> dict:
    from repro.proof.ledger import default_ledger
    from repro.proof.manager import plan_of, prove
    from repro.protocols import ALL_PROTOCOLS

    bundle = ALL_PROTOCOLS[protocol].build()
    plan = plan_of(bundle.program)
    ledger = default_ledger()
    start = time.perf_counter()
    report = prove(plan, ledger=ledger)
    wall = time.perf_counter() - start
    return {
        "wall_s": wall,
        "holds": report.ok,
        "queries": report.queries,
        "ledger_hits": report.ledger_hits,
        "ledger_misses": report.ledger_misses,
        "ledger_hit_rate": report.hit_rate,
    }


def main() -> None:
    protocol, mode = sys.argv[1], sys.argv[2]
    if mode == "prove":
        payload = prove_mode(protocol)
    else:
        payload = bmc_mode(protocol, int(mode))
    print(json.dumps(payload))


if __name__ == "__main__":
    main()
