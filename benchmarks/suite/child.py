"""One measured process of the suite: set up, run a workload's items, report.

Run by the parent as ``python -m benchmarks.suite.child SPEC_JSON`` in a
private working directory.  Set-up imports every ``repro`` module
eagerly (so no lazy import is billed to the first item), pre-forks the
dispatch pool when the workload uses one, installs the tracer when asked,
and builds the protocol bundles.  Each item then makes the library calls
the matching CLI subcommand makes -- pre-flight, then the engine call --
with a fresh in-memory query cache and no ledger or journal.

The result JSON carries ``first_item_at`` on the system-wide monotonic
clock, so the parent can time set-up from the moment it spawned us.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import resource
import sys
import time
import traceback
from contextlib import nullcontext

from .tracer import Tracer
from .workloads import WORKLOADS, permutation


def _import_everything() -> None:
    import repro

    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if not module.name.endswith("__main__"):
            importlib.import_module(module.name)


def _preflight_blocks(program, conjectures, origin: str) -> bool:
    from repro.analysis import preflight
    from repro.analysis.diagnostics import Severity

    diagnostics = preflight.preflight_program(program, conjectures, origin=origin)
    return any(d.severity is Severity.ERROR for d in diagnostics)


def _check(name, bundle, order, jobs) -> dict:
    from repro.core import induction

    invariant = order(name, bundle.invariant)
    if _preflight_blocks(bundle.program, (*bundle.safety, *invariant), name):
        return {"blocked": True}
    result = induction.check_inductive(bundle.program, invariant, jobs=jobs)
    return {
        "holds": result.holds,
        "unknown": bool(result.unknown_obligations) and result.cti is None,
    }


def _session(name, bundle, order, jobs) -> dict:
    from repro.core import policy, session

    if _preflight_blocks(bundle.program, bundle.safety, name):
        return {"blocked": True}
    oracle = policy.OraclePolicy(order(name, bundle.invariant))
    outcome = session.Session(bundle.program, initial=bundle.safety).run(
        oracle, max_iterations=40
    )
    return {"success": outcome.success, "G": outcome.cti_count}


def _bmc(name, bundle, order, jobs) -> dict:
    from repro.core import bounded

    if _preflight_blocks(bundle.program, bundle.safety, name):
        return {"blocked": True}
    result = bounded.find_error_trace(bundle.program, bundle.bmc_bound, jobs=jobs)
    return {"violation": not result.holds and not result.unknown,
            "unknown": result.unknown}


RUNNERS = {"check": _check, "session": _session, "bmc": _bmc, "recheck": _check}


def run(spec: dict) -> dict:
    workload = WORKLOADS[spec["workload"]]
    _import_everything()
    from repro.protocols import ALL_PROTOCOLS
    from repro.solver import cache, dispatch

    if workload.jobs > 1:
        # Forked before the tracer is installed: workers stay untraced.
        dispatch.worker_pool().ensure(workload.jobs)
    tracer = Tracer() if spec["traced"] else None
    if tracer is not None:
        tracer.install()
    bundles = {name: ALL_PROTOCOLS[name].build() for name in spec["items"]}
    runner = RUNNERS[workload.name]
    order = functools.partial(permutation, spec["seed"], spec["pass"])
    first_item_at = time.monotonic()
    items = {}
    for name, bundle in bundles.items():
        with tracer.item(name) if tracer is not None else nullcontext():
            start = time.perf_counter()
            try:
                cache.query_cache(refresh=True)
                outcome = runner(name, bundle, order, workload.jobs)
            except Exception:
                outcome = {"error": traceback.format_exc(limit=4)}
            outcome["seconds"] = time.perf_counter() - start
        items[name] = outcome
    dispatch.shutdown_pool()
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    result = {
        "first_item_at": first_item_at,
        "items": items,
        "peak_rss_mb": peak_kb / 1024,
    }
    if tracer is not None:
        tracer.dump(spec["spans"])
        result["counts"] = dict(tracer.counts)
        result["missing_layers"] = tracer.missing
    return result


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    result = run(spec)
    with open(spec["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
