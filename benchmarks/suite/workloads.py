"""The suite's workloads, their seeded inputs, and the verdict check.

This module is imported by the parent (which must run without ``repro``
on its path) and by every child, so it holds data and pure functions only;
the library calls live in :mod:`benchmarks.suite.child`.
"""

from __future__ import annotations

import json
import pathlib
import random
from dataclasses import dataclass

EXPECTED_PATH = pathlib.Path(__file__).with_name("expected.json")


@dataclass(frozen=True)
class Workload:
    """One end-to-end workload: which protocols a pass runs, and how."""

    name: str
    items: tuple[str, ...]
    why: str
    #: dispatch workers, pre-forked during set-up when > 1
    jobs: int = 1
    #: a cold child fills a private persistent query store (the
    #: ``--persist-cache --cache-dir`` path) before the measured warm child
    #: reads it back
    recheck: bool = False


ALL_SIX = (
    "lock_server", "leader_election", "db_chain",
    "distributed_lock", "learning_switch", "chord",
)

# Pass lengths on a 2-core x86 box: check ~6.5 s, session ~5.5 s,
# bmc ~5 s, recheck ~3.5 s (cold + warm).  Excluded items and why are in
# README.md.
WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "check",
            ALL_SIX,
            "Eq. 2 check of every Figure 14 final invariant: many small "
            "sliced UNSAT queries, dominated by instantiation and Tseitin",
        ),
        Workload(
            "session",
            ("lock_server", "leader_election", "db_chain"),
            "Figure 5 oracle session replay: unsliced minimal-CTI solves, "
            "SAT answers with canonical model extraction",
        ),
        Workload(
            "bmc",
            # The first dispatch of a child pays for warming its pool
            # workers; the larger item absorbs that with less noise.
            ("leader_election", "lock_server"),
            "BMC at each bmc_bound with jobs=2: few large groundings, SAT "
            "and equality heavy, the only parallel-dispatch workload",
            jobs=2,
        ),
        Workload(
            "recheck",
            ("lock_server", "leader_election", "db_chain", "distributed_lock"),
            "check re-run against a persistent query store a cold run just "
            "filled: every query is a disk-cache hit",
            recheck=True,
        ),
    )
}


def permutation(seed: int, pass_index: int, protocol: str, items):
    """The order of one protocol's invariant conjectures in one pass.

    Seed 0 is the published order in every pass.  Another seed shuffles
    with a stream of its own per pass and protocol: the order changes the
    solver's work (up to ~25% on learning_switch's check), so each pass
    draws a new order and a run's median covers several of them instead
    of resting on one draw.
    """
    items = list(items)
    if seed != 0:
        random.Random(f"{seed}:{pass_index}:{protocol}").shuffle(items)
    return items


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)["protocols"]


def verdict_failures(
    workload: str, protocol: str, outcome: dict, expected: dict, seed: int
) -> list[str]:
    """Why one item's outcome is wrong; empty when it matches the reference.

    An exception, an UNKNOWN or a blocked pre-flight is always a failure.
    The G column is checked on seed 0 only: it is the count for the
    published conjecture order, and another order may legitimately take a
    different number of CTIs.
    """
    if "error" in outcome:
        return [f"{protocol}: exception: {outcome['error']}"]
    if outcome.get("blocked"):
        return [f"{protocol}: pre-flight refused the program"]
    if outcome.get("unknown"):
        return [f"{protocol}: UNKNOWN"]
    reference = expected[protocol]
    problems = []
    if workload in ("check", "recheck"):
        if outcome["holds"] != reference["invariant_holds"]:
            problems.append(f"{protocol}: inductive={outcome['holds']}")
    elif workload == "session":
        if not outcome["success"]:
            problems.append(f"{protocol}: session did not succeed")
        elif seed == 0 and outcome["G"] != reference["G"]:
            problems.append(f"{protocol}: G={outcome['G']}, expected {reference['G']}")
    elif workload == "bmc":
        if outcome["violation"] != reference["bmc_violation"]:
            problems.append(f"{protocol}: violation={outcome['violation']}")
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return problems
