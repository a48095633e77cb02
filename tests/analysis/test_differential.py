"""Differential guarantees: slicing never changes answers.

The slice is a weakening checked UNSAT-first with a full-VC fallback, so
a sliced run must report the identical verdict -- and the identical CTI,
since CTIs always come from the full unsliced query.
"""

import pytest

from repro.core.induction import check_inductive
from repro.obs import MetricsRegistry, install_metrics
from repro.protocols import ALL_PROTOCOLS
from repro.solver import install_cache, install_fault_plan
from repro.solver.budget import Budget
from repro.solver.dispatch import _fork_context

needs_fork = pytest.mark.skipif(
    _fork_context() is None, reason="fork start method unavailable"
)

#: fast enough for the tier-1 sweep; the rest run in the slow tier
FAST_PROTOCOLS = ("lock_server", "leader_election")


@pytest.fixture(autouse=True)
def fresh_cache_no_faults():
    """Differential runs must actually solve both sides."""
    old_cache = install_cache(None)
    yield
    install_fault_plan(None)
    install_cache(old_cache)


def _check(name, monkeypatch, *, slice_on=True, **kwargs):
    monkeypatch.setenv("REPRO_SLICE", "1" if slice_on else "0")
    bundle = ALL_PROTOCOLS[name].build()
    return check_inductive(bundle.program, list(bundle.invariant), **kwargs)


class TestSliceDifferential:
    @pytest.mark.parametrize("name", FAST_PROTOCOLS)
    def test_verdict_identical(self, name, monkeypatch):
        sliced = _check(name, monkeypatch, slice_on=True)
        full = _check(name, monkeypatch, slice_on=False)
        assert sliced.holds == full.holds is True
        assert sliced.cti is None and full.cti is None

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "name", sorted(set(ALL_PROTOCOLS) - set(FAST_PROTOCOLS))
    )
    def test_verdict_identical_slow(self, name, monkeypatch):
        sliced = _check(name, monkeypatch, slice_on=True)
        full = _check(name, monkeypatch, slice_on=False)
        assert sliced.holds == full.holds is True

    @pytest.mark.parametrize("name", FAST_PROTOCOLS)
    def test_slicing_actually_reduces_instances(
        self, name, monkeypatch, metrics_registry
    ):
        def instances(slice_on: bool) -> int:
            registry = MetricsRegistry()
            install_metrics(registry)
            _check(name, monkeypatch, slice_on=slice_on)
            return registry.counter(
                "solver_work_total", counter="instances"
            ).value

        # Slicing must cut grounded instances by at least 30% on each.
        sliced, full = instances(True), instances(False)
        assert 0 < sliced <= 0.7 * full, (sliced, full)

    def test_cti_identical_on_weakened_invariant(self, monkeypatch):
        """A failing check must show the same CTI with and without slicing.

        Dropping all but the mutex conjecture breaks inductiveness
        (lock_server's lattice is mutually inductive); the CTI comes from
        the full-VC fallback either way, so it is bit-identical.
        """
        bundle = ALL_PROTOCOLS["lock_server"].build()
        weakened = list(bundle.invariant[:1])  # mutex alone: not inductive

        def run():
            return check_inductive(bundle.program, weakened)

        monkeypatch.setenv("REPRO_SLICE", "1")
        sliced = run()
        monkeypatch.setenv("REPRO_SLICE", "0")
        full = run()
        assert sliced.holds == full.holds is False
        assert sliced.cti is not None and full.cti is not None
        assert str(sliced.cti) == str(full.cti)


class TestChaosWithSlicing:
    @needs_fork
    def test_dispatch_verdict_stable_under_crashes(
        self, monkeypatch, metrics_registry
    ):
        """Sliced parallel dispatch survives worker crashes unchanged."""
        from repro.solver import parse_fault_spec

        monkeypatch.setenv("REPRO_SLICE", "1")
        bundle = ALL_PROTOCOLS["lock_server"].build()
        baseline = check_inductive(bundle.program, list(bundle.invariant), jobs=2)
        install_fault_plan(parse_fault_spec("crash:0.3,seed:7"))
        chaotic = check_inductive(
            bundle.program, list(bundle.invariant), jobs=2,
            budget=Budget(wall_seconds=60.0),
        )
        install_fault_plan(None)
        assert chaotic.holds == baseline.holds is True
        assert not chaotic.unknown_obligations
        faults = sum(
            metrics_registry.counter(name).value
            for name in (
                "worker_crashes_total", "worker_kills_total",
                "worker_wedged_total",
            )
        )
        assert faults > 0
