"""Command line of the suite.

Run (from the root of a checkout; ``python3 benchmarks/suite/run.py`` is
the same command)::

    python -m benchmarks.suite [--workload NAME ...] [--seed N]
        [--seconds S] [--trace 0|1] [--out FILE]
    python -m benchmarks.suite compare A.json B.json

A run prints a table, then, as its last line, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  With several workloads, metric names are
prefixed by the workload.  ``--out`` writes the full report (quartiles,
sample counts, per-item times, environment) for ``compare``.

Exit status: 0 when every verdict matched ``expected.json``, 1 when one
did not (the result is still printed), 2 when the suite could not run
(no result is printed).
"""

from __future__ import annotations

import argparse
import compileall
import json
import signal
import sys

from . import runner
from .compare import compare
from .workloads import WORKLOADS

BENCHMARK_PATH = runner.ROOT / "BENCHMARK.json"


def load_benchmark() -> dict:
    with open(BENCHMARK_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def _parser(default_seconds: int) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.suite")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed; 0 is the published conjecture order")
    parser.add_argument("--seconds", type=float, default=default_seconds,
                        help="time budget of each workload's measured passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: also run traced passes and report per-layer metrics")
    parser.add_argument("--out", help="write the full JSON report here")
    return parser


def _table(name: str, report: dict) -> str:
    lines = [f"{name}: {report['passes']} passes, "
             f"{report['failed']}/{report['attempted']} items failed"]
    for metric, value in report["metrics"].items():
        lines.append(f"  {metric:16s} {value['value']:10.4f}  "
                     f"[p25 {value['p25']:.4f}, p75 {value['p75']:.4f}, n {value['n']}]")
    for item, seconds in report["items"].items():
        lines.append(f"  item.{item:20s} {seconds:8.3f} s")
    if "layers" in report:
        for metric, value in report["layers"].items():
            lines.append(f"  {metric:40s} {value:14.4f}")
        if report["missing_layers"]:
            lines.append(f"  missing_layers: {', '.join(report['missing_layers'])}")
    lines.extend(f"  FAILED {problem}" for problem in report["failures"])
    return "\n".join(lines)


def run(argv: list[str]) -> int:
    benchmark = load_benchmark()
    args = _parser(benchmark["run_seconds"]).parse_args(argv)
    if not (runner.ROOT / "src" / "repro").is_dir():
        print(f"no repro sources under {runner.ROOT / 'src'}", file=sys.stderr)
        return 2
    # Byte-compile up front so that no pass pays for it in set-up.
    compileall.compile_dir(str(runner.ROOT / "src"), quiet=1)
    # SIGTERM unwinds like Ctrl-C, so a running child is killed, not orphaned.
    signal.signal(signal.SIGTERM, _terminate)
    names = args.workload or list(WORKLOADS)
    reports = {}
    try:
        for name in names:
            reports[name] = runner.run_workload(
                WORKLOADS[name], args.seed, args.seconds, bool(args.trace)
            )
    except runner.SuiteError as error:
        print(f"benchmark could not run: {error}", file=sys.stderr)
        return 2
    for name, report in reports.items():
        print(_table(name, report))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"environment": runner.environment(args.seed, args.seconds),
                       "workloads": reports}, handle, indent=1)
    metric_specs = benchmark["per_layer"] if args.trace else benchmark["end_to_end"]
    metrics = {}
    for name, report in reports.items():
        values = report["layers"] if args.trace else {
            metric: value["value"] for metric, value in report["metrics"].items()
        }
        prefix = f"{name}." if len(reports) > 1 else ""
        for spec in metric_specs:
            metrics[prefix + spec["name"]] = {
                "value": values[spec["name"]], "unit": spec["unit"],
            }
    failed = sum(report["failed"] for report in reports.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(report["attempted"] for report in reports.values()),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: python -m benchmarks.suite compare A.json B.json",
                  file=sys.stderr)
            return 2
        return compare(argv[1], argv[2], load_benchmark())
    return run(argv)
