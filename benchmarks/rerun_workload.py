"""Subprocess workload for the cross-process cache rerun gate.

``python -m benchmarks.rerun_workload <protocol> <bound>`` runs the BMC
sweep behind ``test_persistent_cache_cross_process_rerun``, with
``REPRO_CACHE_PERSIST=1`` pointed at a private ``REPRO_CACHE_DIR``.  It
is launched twice in fresh interpreters -- cold, then warm -- so that
any warm-run speedup is attributable to the on-disk store alone (every
in-memory cache dies with its process).  The cache is keyed on the
solver's input before grounding, so the warm run grounds and solves
nothing.

Prints one JSON object on stdout: the workload's wall time (measured
inside the process, excluding interpreter start-up) plus the counters
the caller asserts on.  The CLI reports no such in-process time for
``bmc``, which is why this module exists; the ledger gate runs
``repro prove --format json`` directly, whose ``elapsed_s`` is one.
"""

from __future__ import annotations

import json
import sys
import time


def main() -> None:
    from repro.core.bounded import check_k_invariance
    from repro.obs import MetricsRegistry, install_metrics
    from repro.protocols import ALL_PROTOCOLS

    protocol, bound = sys.argv[1], int(sys.argv[2])
    bundle = ALL_PROTOCOLS[protocol].build()
    safety = bundle.safety[0].formula
    registry = MetricsRegistry()
    install_metrics(registry)
    start = time.perf_counter()
    result = check_k_invariance(bundle.program, safety, bound, jobs=1)
    wall = time.perf_counter() - start
    snapshot = registry.to_dict()
    counters = snapshot["counters"]
    print(json.dumps({
        "wall_s": wall,
        "holds": result.holds,
        "queries": sum(
            value for key, value in counters.items()
            if key.startswith("queries_total{")
        ),
        "cache_hits": counters.get("cache_hits_total", 0),
        "cache_hit_rate": snapshot["derived"].get("cache_hit_rate", 0.0),
    }))


if __name__ == "__main__":
    main()
