"""Machine-readable benchmark telemetry: ``BENCH_<name>.json`` emitters.

Every benchmark run leaves a JSON artifact at the repository root so CI
and regression tooling can diff numbers across commits without scraping
pytest output.  Schema (version 4)::

    {
      "schema": 4,
      "bench": "<name>",
      "generated_unix": <float>,
      "git_rev": "<short rev or null>",
      "config": {"python": "...", "platform": "...", "cpus": N},
      "sections": {"<section>": {...}, ...}
    }

``sections`` is the per-benchmark payload: one entry per test (for
``BENCH_dispatch.json``) or per protocol row (for
``BENCH_protocols.json``, whose rows carry ``wall_s``, ``queries``,
verdict counts, ``cache_hit_rate``, and ``holds``).

Version 2 added the proven-lemma ledger columns to the protocol rows:
``ledger_hits``/``ledger_misses`` count warm-rerun obligation lookups
against :mod:`repro.proof.ledger`, and ``ledger_warm_wall_s`` is the
wall time of that rerun (every obligation served from disk).

Version 3 added the ``phases`` sub-dict to the protocol rows -- the
per-phase wall totals (``normalize``/``ground``/``cnf``/``cache``/
``sat``/``theory``/``extract``/``ledger``, in ms), the sums of the
``query_phase_ms`` histogram :mod:`repro.obs.profile` feeds -- so the
regression gate (:mod:`repro.obs.benchcmp`, ``benchmarks/compare.py``)
can attribute a wall-time regression to the phase that slowed down.

Version 4 added the static-analysis columns to the protocol rows:
``slice_ratio`` is the fractional reduction in grounded instance count
from cone-of-influence VC slicing (``1 - sliced/full``, measured by one
extra unsliced ``REPRO_SLICE=0`` run with identical verdicts), and
``symmetry_orbits`` counts the program's interchangeable sorts as
reported by :mod:`repro.analysis.symmetry`.  The CI ``analysis`` job
fails when either key is missing from a protocol row.

:func:`update_bench` is incremental -- each test merges its own section
into the existing file -- so a partial benchmark run refreshes only the
numbers it measured.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import subprocess
import sys
import time

SCHEMA_VERSION = 4

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def git_rev() -> str | None:
    """The current short commit hash, or None outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


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


def run_config() -> dict:
    """The environment snapshot embedded in every BENCH file."""
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "effective_cpus": effective_cpus(),
        "argv": sys.argv[1:],
    }


def bench_path(name: str) -> pathlib.Path:
    return REPO_ROOT / f"BENCH_{name}.json"


def write_bench(name: str, sections: dict) -> pathlib.Path:
    """Write ``BENCH_<name>.json`` from scratch with the given sections."""
    payload = {
        "schema": SCHEMA_VERSION,
        "bench": name,
        "generated_unix": time.time(),
        "git_rev": git_rev(),
        "config": run_config(),
        "sections": sections,
    }
    path = bench_path(name)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def update_bench(name: str, section: str, data: dict) -> pathlib.Path:
    """Merge one section into ``BENCH_<name>.json``, creating it if needed."""
    path = bench_path(name)
    sections: dict = {}
    if path.exists():
        try:
            sections = json.loads(path.read_text()).get("sections", {})
        except (json.JSONDecodeError, AttributeError):
            sections = {}
    sections[section] = data
    return write_bench(name, sections)
