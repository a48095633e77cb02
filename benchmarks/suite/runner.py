"""Parent side of the suite: clean-room passes and their metrics.

The parent never imports ``repro``.  It runs one child interpreter at a
time (a closed loop with one client), each in a private directory under
``.suite-runs/`` in the checkout, with every ``REPRO_*`` variable removed
from its environment except those the workload sets.  A pass is one child
(for ``recheck``: a cold child that fills a private query store, then a
warm child that reads it back).  Passes repeat until the next one would
overrun the run's time budget; metrics are built from medians over passes.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from . import tracer
from .workloads import Workload, load_expected, verdict_failures

ROOT = pathlib.Path(__file__).resolve().parents[2]
SCRATCH = ROOT / ".suite-runs"

#: a child that runs longer is killed, with its pool workers
CHILD_TIMEOUT_S = 120


class SuiteError(Exception):
    """The benchmark itself could not run (as opposed to a wrong verdict)."""


def child_env(extra: dict[str, str]) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    # Fixed so that set iteration order, and with it the solver's search,
    # is the same in every child.
    env["PYTHONHASHSEED"] = "0"
    env.update(extra)
    return env


def spawn(spec: dict, workdir: pathlib.Path, env: dict[str, str]) -> dict:
    """Run one child to completion in ``workdir`` and return its result."""
    workdir.mkdir()
    spec = dict(spec, result=str(workdir / "result.json"),
                spans=str(workdir / "spans.jsonl"))
    command = [sys.executable, "-m", "benchmarks.suite.child", json.dumps(spec)]
    spawned_at = time.monotonic()
    process = subprocess.Popen(
        command, cwd=workdir, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, start_new_session=True,
    )
    try:
        _, err = process.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException as stopped:
        # Timed out, or the parent itself is being stopped: take the child
        # and its pool workers down with it.
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        if isinstance(stopped, subprocess.TimeoutExpired):
            raise SuiteError(
                f"{spec['workload']} child ran past {CHILD_TIMEOUT_S} s"
            ) from None
        raise
    if process.returncode != 0:
        raise SuiteError(
            f"{spec['workload']} child exited with {process.returncode}:\n"
            + err.decode(errors="replace")[-3000:]
        )
    with open(spec["result"], encoding="utf-8") as handle:
        result = json.load(handle)
    result["spawned_at"] = spawned_at
    if spec["traced"]:
        with open(spec["spans"], encoding="utf-8") as handle:
            result["trace"] = tracer.summarize(handle)
    return result


def geomean(values) -> float:
    logs = [math.log(value) for value in values]
    return math.exp(sum(logs) / len(logs))


def run_pass(workload: Workload, seed: int, pass_index: int, traced: bool) -> dict:
    """One pass in fresh children: item times, set-up, memory, outcomes."""
    SCRATCH.mkdir(exist_ok=True)
    pass_dir = pathlib.Path(tempfile.mkdtemp(dir=SCRATCH))
    spec = {"workload": workload.name, "items": workload.items, "seed": seed,
            "pass": pass_index, "traced": traced}
    try:
        if workload.recheck:
            env = child_env({
                "REPRO_CACHE_PERSIST": "1",
                "REPRO_CACHE_DIR": str(pass_dir / "store"),
            })
            children = [spawn(spec, pass_dir / "cold", env),
                        spawn(spec, pass_dir / "warm", env)]
        else:
            children = [spawn(spec, pass_dir / "child", child_env({}))]
    finally:
        shutil.rmtree(pass_dir, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run's pass is still in it
    measured = children[-1]
    result = {
        "items": {name: item["seconds"] for name, item in measured["items"].items()},
        "setup_s": measured["first_item_at"] - children[0]["spawned_at"],
        "peak_rss_mb": max(child["peak_rss_mb"] for child in children),
        "outcomes": [
            (name, item) for child in children for name, item in child["items"].items()
        ],
    }
    if traced:
        result["layers"] = layer_metrics(children)
        result["missing_layers"] = sorted(
            {target for child in children for target in child["missing_layers"]}
        )
    return result


def layer_metrics(children: list[dict]) -> dict[str, float]:
    """Per-layer numbers of one traced pass, over all of its children.

    For ``recheck`` that includes the cold child, the only one that writes
    the store.
    """
    self_s: dict[str, float] = {}
    calls: dict[str, float] = {}
    counts: dict[str, float] = {}
    item_s = unaccounted = 0.0
    for child in children:
        trace = child["trace"]
        for source, into in ((trace["self_s"], self_s), (trace["calls"], calls),
                             (child["counts"], counts)):
            for key, value in source.items():
                into[key] = into.get(key, 0) + value
        item_s += trace["item_s"]
        unaccounted += trace["unaccounted_s"]
    metrics: dict[str, float] = {}
    for layer in tracer.LAYERS:
        metrics[f"{layer}.self_s"] = self_s.get(layer, 0.0)
        metrics[f"{layer}.calls"] = calls.get(layer, 0)
    for name in tracer.COUNT_NAMES:
        metrics[name] = counts.get(name, 0)
    lookups = metrics["solver.cache.hits"] + metrics["solver.cache.misses"]
    metrics["solver.cache.hit_rate"] = (
        metrics["solver.cache.hits"] / lookups if lookups else 0.0
    )
    # The parent's time inside solve_queries is spent waiting on workers.
    dispatch_s = metrics["solver.dispatch.self_s"]
    metrics["solver.dispatch.cpu_over_wall"] = (
        metrics["solver.dispatch.worker_busy_s"] / dispatch_s if dispatch_s else 0.0
    )
    metrics["unaccounted_s"] = unaccounted
    metrics["unaccounted_share"] = unaccounted / item_s if item_s else 0.0
    return metrics


def summary(values) -> dict:
    """Median, quartiles and sample count of one metric over passes."""
    values = sorted(values)
    if len(values) > 1:
        p25, _, p75 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        p25 = p75 = values[0]
    return {"value": statistics.median(values), "p25": p25, "p75": p75,
            "n": len(values)}


END_TO_END = ("wall_s", "geomean_item_s", "setup_s", "peak_rss_mb")


def item_metrics(passes: list[dict], items) -> dict[str, dict]:
    """``wall_s`` and ``geomean_item_s`` from per-item medians over passes.

    Interference on a shared machine comes in bursts of a second or two
    that slow one item of one pass by up to half.  The median of each item
    over passes drops those bursts where a median of whole-pass sums would
    keep them.  Quartiles combine the same way, so they bracket the value.
    """
    per_item = [summary(run["items"][name] for run in passes) for name in items]
    combined = {}
    for metric, combine in (("wall_s", sum), ("geomean_item_s", geomean)):
        combined[metric] = {
            key: combine(stats[key] for stats in per_item)
            for key in ("value", "p25", "p75")
        }
        combined[metric]["n"] = len(passes)
    return combined


def run_workload(workload: Workload, seed: int, seconds: float, traced: bool) -> dict:
    """Passes until the budget is spent, then the workload's report.

    With ``traced``, every untraced pass is followed by a traced one, and
    ``trace.overhead`` compares the two medians.  A new pass starts only
    if the longest one so far would still fit in ``seconds``.
    """
    start = time.monotonic()
    plain: list[dict] = []
    traced_passes: list[dict] = []
    longest = 0.0
    while True:
        began = time.monotonic()
        pass_index = len(plain)
        plain.append(run_pass(workload, seed, pass_index, traced=False))
        if traced:
            traced_passes.append(run_pass(workload, seed, pass_index, traced=True))
        longest = max(longest, time.monotonic() - began)
        if time.monotonic() - start + longest > seconds:
            break
    expected = load_expected()
    attempted = failed = 0
    failures: list[str] = []
    for run in plain + traced_passes:
        for name, outcome in run["outcomes"]:
            attempted += 1
            problems = verdict_failures(workload.name, name, outcome, expected, seed)
            if problems:
                failed += 1
                failures.extend(problems)
    report = {
        "passes": len(plain),
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "failures": failures,
        "metrics": {
            **item_metrics(plain, workload.items),
            "setup_s": summary(run["setup_s"] for run in plain),
            "peak_rss_mb": summary(run["peak_rss_mb"] for run in plain),
        },
        "items": {
            name: statistics.median(run["items"][name] for run in plain)
            for name in workload.items
        },
    }
    if traced:
        layers = {
            name: statistics.median(run["layers"][name] for run in traced_passes)
            for name in traced_passes[0]["layers"]
        }
        traced_wall = item_metrics(traced_passes, workload.items)["wall_s"]["value"]
        layers["trace.overhead"] = traced_wall / report["metrics"]["wall_s"]["value"] - 1
        report["traced_passes"] = len(traced_passes)
        report["layers"] = layers
        report["missing_layers"] = traced_passes[0]["missing_layers"]
    return report


def git_revision() -> str | None:
    """HEAD of the checkout's own repository, or None outside one."""
    git_dir = ROOT / ".git"
    if not git_dir.exists():
        return None
    try:
        done = subprocess.run(
            ["git", f"--git-dir={git_dir}", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None if done.returncode == 0 else None


def environment(seed: int, seconds: float) -> dict:
    return {
        "effective_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "git_revision": git_revision(),
        "seed": seed,
        "seconds": seconds,
    }
