"""Shared fixtures: small vocabularies and the leader-election bundle.

The leader bundle is session-scoped -- building it is cheap but it is used
by dozens of tests, and keeping one instance makes declaration objects
(`RelDecl`/`FuncDecl`) identical across tests, which the equality-based
structure helpers rely on.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import signal

import pytest

from repro.logic import FuncDecl, RelDecl, Sort, vocabulary
from repro.protocols import leader_election

#: Hard per-test deadline (seconds); REPRO_TEST_TIMEOUT overrides.  The
#: fault-tolerance suite deliberately hangs worker processes, and a bug in
#: the kill path must fail the test, not wedge the whole run.  Generous by
#: default: single-CPU machines run some slow-tier protocol checks for
#: several minutes (CI tiers set tighter explicit values).
_TEST_DEADLINE = 900


@pytest.hookimpl(trylast=True)
def pytest_collection_modifyitems(items):
    """Run the ``slow`` tier after everything else, each tier in
    collection order.

    The slow tier is under a tenth of the tests but over nine tenths of
    the wall time (minutes of depth-2 BMC and full sessions), so this way
    every fast test has reported -- and ``-x`` has stopped at a fast
    failure -- within the first minute or two.  Runs after the fixture
    plugin's reordering, so the split is not undone; a module whose tests
    fall in both tiers sets its module fixtures up once per tier.
    """
    items.sort(key=lambda item: item.get_closest_marker("slow") is not None)


@pytest.fixture(autouse=True)
def _test_deadline():
    """SIGALRM-based per-test timeout (no pytest-timeout dependency).

    ``fork`` clears pending alarms in children, so worker processes are
    unaffected.  Skipped on platforms without SIGALRM.
    """
    if not hasattr(signal, "SIGALRM"):
        yield
        return
    try:
        seconds = int(os.environ.get("REPRO_TEST_TIMEOUT", _TEST_DEADLINE))
    except ValueError:
        seconds = _TEST_DEADLINE

    def _expired(signum, frame):
        raise TimeoutError(f"test exceeded {seconds}s deadline")

    old_handler = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old_handler)


@pytest.fixture
def metrics_registry():
    """A fresh metrics registry, installed for the test; the old one after."""
    from repro.obs import MetricsRegistry, install_metrics

    registry = MetricsRegistry()
    old = install_metrics(registry)
    yield registry
    install_metrics(old)


@pytest.fixture
def configure():
    """``configure(**fields)`` runs the rest of the test under the current
    run config with ``fields`` replaced; the old config comes back after.

    Replacing fields (not building a fresh ``RunConfig``) keeps the
    ``REPRO_FAULT`` plan a chaos run exports.
    """
    from repro import config

    with contextlib.ExitStack() as stack:

        def apply(**fields):
            changed = dataclasses.replace(config.current(), **fields)
            return stack.enter_context(config.using(changed))

        yield apply


@pytest.fixture(scope="session")
def leader_bundle():
    return leader_election.build()


@pytest.fixture(scope="session")
def ring_vocab():
    """The leader-election vocabulary, available without the program."""
    node, ident = Sort("node"), Sort("id")
    return vocabulary(
        sorts=[node, ident],
        relations=[
            RelDecl("le", (ident, ident)),
            RelDecl("btw", (node, node, node)),
            RelDecl("leader", (node,)),
            RelDecl("pnd", (ident, node)),
        ],
        functions=[FuncDecl("idn", (node,), ident)],
    )


@pytest.fixture(scope="session")
def tiny_vocab():
    """One sort, one unary and one binary relation, one constant."""
    elem = Sort("elem")
    return vocabulary(
        sorts=[elem],
        relations=[RelDecl("p", (elem,)), RelDecl("r", (elem, elem))],
        functions=[FuncDecl("c", (), elem)],
    )
