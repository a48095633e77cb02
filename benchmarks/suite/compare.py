"""``compare A.json B.json``: B against baseline A, per workload.

For each end-to-end metric of ``BENCHMARK.json`` and each workload both
reports ran, B's median may be worse than A's by at most the metric's
``bound`` (a share of A's median).  A pair whose run-to-run spread (p75 -
p25 over the median, in either report) is wider than the bound is marked
``unresolved``: the runs cannot tell a change of that size from noise.  An
increase of ``failed_share`` always fails.
"""

from __future__ import annotations

import json


def _spread(metric: dict) -> float:
    return (metric["p75"] - metric["p25"]) / metric["value"]


def judge(base: dict, new: dict, spec: dict) -> tuple[float, str]:
    """``(relative change, verdict)`` of one metric of one workload."""
    change = (new["value"] - base["value"]) / base["value"]
    worse = change if spec["better"] == "lower" else -change
    if max(_spread(base), _spread(new)) > spec["bound"]:
        return change, "unresolved"
    if worse > spec["bound"]:
        return change, "REGRESSION"
    return change, "ok"


def compare(base_path: str, new_path: str, benchmark: dict) -> int:
    """Print one row per workload; 1 on any regression or new failure."""
    with open(base_path, encoding="utf-8") as handle:
        base = json.load(handle)["workloads"]
    with open(new_path, encoding="utf-8") as handle:
        new = json.load(handle)["workloads"]
    failed = False
    for workload in (name for name in base if name in new):
        cells = []
        for spec in benchmark["end_to_end"]:
            change, verdict = judge(
                base[workload]["metrics"][spec["name"]],
                new[workload]["metrics"][spec["name"]],
                spec,
            )
            failed |= verdict == "REGRESSION"
            cells.append(f"{spec['name']} {change:+.1%} {verdict}")
        before = base[workload]["failed_share"]
        after = new[workload]["failed_share"]
        if after > before:
            failed = True
            cells.append(f"failed_share {before:.3f}->{after:.3f} FAILED")
        else:
            cells.append(f"failed_share {after:.3f} ok")
        print(f"{workload:8s} " + " | ".join(cells))
    return 1 if failed else 0
