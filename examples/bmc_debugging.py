#!/usr/bin/env python3
"""Symbolic bounded verification as a model-debugging tool (Section 4.1).

The paper's workflow starts by *debugging* the RML model: check that no
assertion can fail within k loop iterations, and that interesting
properties are k-invariant -- with no bound on the size of the
configuration, unlike finite-scope tools such as Alloy.

This example drives bounded verification over two protocols:

* the distributed lock protocol admits no assertion failure up to the
  bound, and k-invariance separates its true invariants from properties
  that only survive a few steps;
* breaking the lock *server* (granting without checking the server is
  free) produces a concrete counterexample trace ending with two clients
  holding the lock -- the Figure 3 debugging loop on a seeded bug.

Run:  python examples/bmc_debugging.py
"""

import sys
import time

from repro.core.bounded import check_k_invariance, find_error_trace
from repro.logic import parse_formula
from repro.protocols import distributed_lock
from repro.protocols.base import model_file
from repro.rml.parser import parse_program


def broken_lock_server():
    """A lock server that grants without checking the server is free."""
    original = model_file("lock_server").read_text()
    source = original.replace(
        "    assume server_free;\n    remove lock_msg(c);",
        "    remove lock_msg(c);",
    )
    assert source != original
    return parse_program(source)


def main() -> int:
    bundle = distributed_lock.build()
    program = bundle.program
    vocab = program.vocab

    print("== Correct distributed lock: no assertion failure within 2 steps ==")
    start = time.time()
    result = find_error_trace(program, 2)
    print(f"safe: {result.holds}  ({time.time() - start:.1f}s)")

    print()
    print("== Broken lock server: granting without checking availability ==")
    broken = broken_lock_server()
    start = time.time()
    result = find_error_trace(broken, 6)
    print(f"error found: {not result.holds} at depth {result.depth} "
          f"({time.time() - start:.1f}s)")
    if result.trace is not None:
        print()
        print(result.trace)
        result.trace.validate()
        print("(trace validated against the concrete interpreter)")

    print()
    print("== k-invariance distinguishes invariants from accidents ==")
    no_locked = parse_formula("forall E:epoch, N:node. ~locked(E, N)", vocab)
    for k in (0, 1, 2):
        holds = check_k_invariance(program, no_locked, k).holds
        print(f"'no locked messages yet': k={k}: {holds}"
              f"{'' if holds else '   <- only an accident of small k'}")
    # A real invariant stays k-invariant as k grows.
    conjecture = bundle.invariant[2]  # transfer epochs are unique
    for k in (1, 2, 3):
        holds = check_k_invariance(program, conjecture.formula, k).holds
        print(f"{conjecture.name} k={k}: {holds}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
