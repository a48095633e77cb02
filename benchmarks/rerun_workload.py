"""Subprocess BMC workload for the cross-process gates.

``python -m benchmarks.rerun_workload <protocol> <bound> [traced]`` runs
one serial BMC sweep in a fresh interpreter:

* ``test_persistent_cache_cross_process_rerun`` launches it twice, cold
  then warm, with ``REPRO_CACHE_PERSIST=1`` pointed at a private
  ``REPRO_CACHE_DIR``, so that any warm-run speedup is attributable to
  the on-disk store alone (every in-memory cache dies with its
  process).  The cache is keyed on the solver's input before grounding,
  so the warm run grounds and solves nothing.
* ``test_tracing_overhead`` launches it with the cache off, alternating
  plain runs and ``traced`` ones (a span tracer writing to an in-memory
  buffer), so that no run inherits heap or pool state from another.

Prints one JSON object on stdout: the workload's wall and CPU time
(measured inside the process, excluding interpreter start-up) plus the
counters the caller asserts on.  The CLI reports no such in-process time
for ``bmc``, which is why this module exists; the ledger gate runs
``repro prove --format json`` directly, whose ``elapsed_s`` is one.
"""

from __future__ import annotations

import io
import json
import sys
import time


def main() -> None:
    from repro.core.bounded import check_k_invariance
    from repro.obs import MetricsRegistry, Tracer, install_metrics, install_tracer
    from repro.protocols import ALL_PROTOCOLS

    protocol, bound = sys.argv[1], int(sys.argv[2])
    bundle = ALL_PROTOCOLS[protocol].build()
    safety = bundle.safety[0].formula
    registry = MetricsRegistry()
    install_metrics(registry)
    if sys.argv[3:] == ["traced"]:
        install_tracer(Tracer(sink=io.StringIO()))
    start, cpu_start = time.perf_counter(), time.process_time()
    result = check_k_invariance(bundle.program, safety, bound, jobs=1)
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu_start
    snapshot = registry.to_dict()
    counters = snapshot["counters"]
    print(json.dumps({
        "wall_s": wall,
        "cpu_s": cpu,
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
