"""Bounded verification: k-invariance checking and symbolic debugging.

Implements Section 4.1 of the paper.  An assertion ``phi`` is *k-invariant*
when it holds in every state reachable at the loop head within ``k`` loop
iterations (Eq. 3) -- with no bound on the size of the input configuration.
The checks here decide that exactly (Theorem 3.3), and when a check fails
they return a concrete finite :class:`~repro.core.trace.Trace` that can be
displayed to the user, reproducing the Figure 3 debugging workflow and the
Figure 4 error trace.

Two entry points:

* :func:`check_k_invariance` -- is a forall*exists* assertion k-invariant?
* :func:`find_error_trace` -- can any assertion (``abort``) be violated
  within ``k`` iterations?  This is the "debug the model first" phase.

Both, and the reachability test of a generalization
(:func:`repro.core.generalize.check_unreachable`), are thin wrappers over
one probe loop, :func:`run_probes`: it replays journaled probes, takes
the rest from the dispatch answer stream (serial and lazy, or one pool
batch with ``jobs > 1``), journals each fresh UNSAT, and folds the
answers into a trace, an unknown, or "holds".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable, Iterator, NamedTuple

from .. import obs
from ..obs import profile
from ..logic import syntax as s
from ..logic.fragments import is_forall_exists
from ..logic.printer import fingerprint
from ..logic.structures import Structure
from ..rml.ast import Program
from ..rml.encode import Env, StepEncoding, TransitionEncoder, project_state
from ..solver.budget import Budget, FailureReason
from ..solver.dispatch import answers
from ..solver.epr import EprResult, EprSolver
from .trace import Trace


@dataclass(frozen=True)
class BoundedResult:
    """Outcome of a bounded check.

    Three verdicts.  ``holds`` means every depth up to ``bound`` was
    conclusively refuted.  A violation carries a ``trace`` (and is a real
    violation regardless of unknowns at other depths).  When some depth
    exhausted its budget and no violation was found, ``unknown`` is True:
    ``verified_depth`` is the deepest prefix of conclusively-safe depths
    ("safe up to depth d") and ``failures`` lists the ``(depth, reason)``
    pairs that went unanswered.
    """

    holds: bool
    bound: int
    trace: Trace | None = None  # counterexample when the check fails
    depth: int | None = None  # loop iterations executed by the counterexample
    statistics: dict[str, int] = field(default_factory=dict)
    unknown: bool = False
    verified_depth: int | None = None
    failures: tuple[tuple[int, FailureReason], ...] = ()

    def __bool__(self) -> bool:
        return self.holds


class _Unroller:
    """Incrementally unrolls a program, sharing encodings across depths."""

    def __init__(self, program: Program, budget: Budget | None = None) -> None:
        self.program = program
        self.budget = budget
        self.encoder = TransitionEncoder(program)
        init = self.encoder.encode_step(program.init, self.encoder.base_env(), "init")
        self.init = init
        self.base_constraints: list[s.Formula] = [
            axiom.formula for axiom in program.axioms
        ]
        self.base_constraints.append(init.formula)
        self.envs: list[Env] = [init.post_env]  # state after j iterations
        self.steps: list[StepEncoding] = []

    def extend_to(self, depth: int) -> None:
        while len(self.steps) < depth:
            index = len(self.steps)
            step = self.encoder.encode_step(
                self.program.body, self.envs[-1], f"step{index}"
            )
            self.steps.append(step)
            self.envs.append(step.post_env)

    def solver_at(self, depth: int) -> EprSolver:
        """A solver loaded with init plus ``depth`` body transitions.

        The solver's vocabulary is the program vocabulary plus only the
        version/selector symbols these constraints mention: the encoder
        keeps minting symbols as deeper steps (and abort probes) are
        encoded, and dragging unused havoc constants into the universe
        would blow up axiom instantiation at high arities.
        """
        self.extend_to(depth)
        constraints = list(self.base_constraints)
        constraints.extend(self.steps[index].formula for index in range(depth))
        used: set = set()
        for constraint in constraints:
            used |= s.symbols_of(constraint)
        known = set(self.program.vocab.relations) | set(self.program.vocab.functions)
        extra_rels = [
            decl for decl in self.encoder.new_relations if decl in used and decl not in known
        ]
        extra_funcs = [
            decl for decl in self.encoder.new_functions if decl in used and decl not in known
        ]
        vocab = self.program.vocab.extended(relations=extra_rels, functions=extra_funcs)
        solver = EprSolver(vocab, budget=self.budget)
        for index, constraint in enumerate(constraints):
            solver.add(constraint, name=f"c{index}")
        return solver

    def trace_from(self, result: EprResult, depth: int, aborted: bool) -> Trace:
        assert result.model is not None
        states: list[Structure] = []
        for env in self.envs[: depth + 1]:
            states.append(project_state(result.model, self.program, env))
        labels = tuple(
            self._step_label(result.model, self.steps[index])
            for index in range(depth)
        )
        return Trace(self.program, tuple(states), labels, aborted=aborted)

    @staticmethod
    def _step_label(model: Structure, step: StepEncoding) -> str:
        for selector, labels in step.selectors:
            if model.rel_holds(selector, ()):
                return " / ".join(labels) if labels else "step"
        return "step"


class Probe(NamedTuple):
    """One independent bounded query: a depth, its solver, its journal key."""

    depth: int  # loop iterations before the probed state
    name: str  # query name on the worker pool
    key: str  # journal key (unused without a journal)
    build: Callable[[], EprSolver]  # the loaded solver, built on demand


def run_probes(
    unroller: _Unroller,
    kind: str,
    bound: int,
    span: str,
    probes: Iterable[Probe],
    journal=None,
    jobs: int | None = None,
    aborted: bool = False,
) -> BoundedResult:
    """Answer ``probes`` in order and fold them into one verdict.

    The one probe loop of every bounded check.  A probe the ``journal``
    holds as refuted (event kind ``span``) is answered from it; the rest
    take one :func:`~repro.solver.dispatch.answers` stream, so serially
    the first SAT ends the solving and with ``jobs > 1`` the live probes
    form one pool batch.  Each fresh UNSAT is journaled.  Every probe
    gets one ``span`` span ending with its ``verdict`` and ``source``
    (journal, cache or fresh); ``engine_queries_total{engine=bmc}``
    counts solver answers only.

    The first SAT probe (in order) is the violation, whatever unknowns
    came before it; otherwise any UNKNOWN makes the result unknown with
    ``verified_depth`` just below the shallowest unanswered depth.
    """
    statistics: dict[str, int] = {}
    failures: list[tuple[int, FailureReason]] = []
    with profile.engine("bmc"), obs.span("bmc", kind=kind, bound=bound) as sp:
        probes = list(probes)
        replayed = [_refuted(journal, span, probe.key) for probe in probes]
        stream = answers(
            [(p.name, p.build) for p, done in zip(probes, replayed) if not done],
            jobs,
        )
        for probe, done in zip(probes, replayed):
            with obs.span(span, depth=probe.depth) as probe_span:
                if done:
                    probe_span.set(verdict="unsat", source="journal")
                    _accumulate(statistics, {"journal_hits": 1})
                    continue
                result = next(stream)
                source = "cache" if result.cached else "fresh"
                probe_span.set(verdict=result.verdict, source=source)
            obs.count_engine_queries("bmc", (result,))
            _accumulate(statistics, result.statistics)
            if result.satisfiable:
                sp.set(holds=False, violation_depth=probe.depth)
                trace = unroller.trace_from(result, probe.depth, aborted)
                return BoundedResult(False, bound, trace, probe.depth, statistics)
            if result.unknown:
                failures.append((probe.depth, result.failure))
            elif journal is not None:
                journal.append(span, probe.key, verdict="unsat")
        if failures:
            sp.set(holds=False, unknown=True)
            return BoundedResult(
                False, bound, statistics=statistics, unknown=True,
                verified_depth=min(depth for depth, _ in failures) - 1,
                failures=tuple(failures),
            )
        sp.set(holds=True)
        return BoundedResult(True, bound, statistics=statistics)


def _refuted(journal, kind: str, key: str) -> bool:
    """Does the journal hold the probe under ``key`` as refuted?"""
    if journal is None:
        return False
    data = journal.replay(kind, key)
    return data is not None and data.get("verdict") == "unsat"


def _program_hash(program: Program, journal) -> str:
    """The program fingerprint that starts journal keys ("" without one)."""
    if journal is None:
        return ""
    from ..proof.ledger import program_fingerprint

    return program_fingerprint(program)


def check_k_invariance(
    program: Program,
    phi: s.Formula,
    k: int,
    unroller: _Unroller | None = None,
    jobs: int | None = None,
    budget: Budget | None = None,
    journal=None,
) -> BoundedResult:
    """Decide Eq. 3: does ``phi`` hold at the loop head for all j <= k?

    ``phi`` must be a closed forall*exists* assertion (so its negation is
    exists*forall*).  On failure the returned trace ends in a state
    violating ``phi`` after ``depth`` iterations.

    One probe per depth, answered by :func:`run_probes`: serially the
    first violating depth ends the check; with ``jobs > 1`` (the
    argument, else the run config's ``jobs``) the depths are one pool
    batch.  Either way the
    shallowest violation is reported.

    With a ``budget``, depths that exhaust it degrade to UNKNOWN instead
    of hanging: a violation found at *any* depth is still reported (it is
    real regardless of unanswered siblings); otherwise the result reports
    "safe up to ``verified_depth``" with the unanswered depths and their
    failure reasons.

    With a ``journal``, each depth conclusively refuted is recorded, and
    a resumed run answers recorded depths without building a solver.
    Only *unsat* is journaled: a violation needs its model re-solved for
    the trace, and unknowns must be retried.
    """
    if s.free_vars(phi):
        raise ValueError(f"k-invariance needs a closed formula, got: {phi}")
    if not is_forall_exists(phi):
        raise ValueError(f"k-invariance needs a forall*exists* formula, got: {phi}")
    unroller = unroller or _Unroller(program, budget)
    prefix = f"{_program_hash(program, journal)}:kinv:{fingerprint(phi)}"

    def violation_at(depth: int) -> EprSolver:
        solver = unroller.solver_at(depth)
        goal = unroller.encoder._rename(s.not_(phi), unroller.envs[depth])
        solver.add(goal, name="goal")
        return solver

    probes = [
        Probe(depth, f"depth{depth}", f"{prefix}:{depth}", partial(violation_at, depth))
        for depth in range(k + 1)
    ]
    return run_probes(unroller, "invariance", k, "bmc.depth", probes, journal, jobs)


def find_error_trace(
    program: Program,
    k: int,
    jobs: int | None = None,
    budget: Budget | None = None,
    journal=None,
) -> BoundedResult:
    """Search for an assertion violation within ``k`` loop iterations.

    Checks, at each depth j <= k, whether executing the body or the
    finalization command from the j-th loop-head state can reach ``abort``.
    This is the bounded-debugging phase of Figure 3.  The depth/command
    probes go through :func:`run_probes` like :func:`check_k_invariance`'s
    depths.  Probes that exhaust the ``budget`` degrade to UNKNOWN; see
    :class:`BoundedResult`.

    With a ``journal``, conclusively refuted probes are recorded as they
    are answered and replayed on resume without building their solvers; a
    sat probe is never journaled (its model -- the error trace -- is not
    persisted, so it must be re-solved), which keeps the resumed verdict
    identical.
    """
    unroller = _Unroller(program, budget)
    program_hash = _program_hash(program, journal)

    def abort_at(depth: int, abort: s.Formula) -> EprSolver:
        solver = unroller.solver_at(depth)
        solver.add(abort, name="abort")
        return solver

    def probes() -> Iterator[Probe]:
        index = 0
        for depth in range(k + 1):
            unroller.extend_to(depth)
            env = unroller.envs[depth]
            for command, label in ((program.body, "body"), (program.final, "final")):
                # Every probe is encoded, replayed ones too: encode_step
                # advances the encoder's symbol minting, keeping later
                # probes' encodings identical to the killed run's.
                abort = unroller.encoder.encode_step(
                    command, env, f"abort{depth}_{label}"
                ).abort_formula
                if abort == s.FALSE:
                    continue
                key = f"{program_hash}:abort:{depth}:{label}"
                yield Probe(
                    depth, f"abort{index}", key, partial(abort_at, depth, abort)
                )
                index += 1

    return run_probes(
        unroller, "error-trace", k, "bmc.probe", probes(), journal, jobs,
        aborted=True,
    )


def make_unroller(program: Program, budget: Budget | None = None) -> _Unroller:
    """Expose the incremental unroller for callers issuing repeated checks."""
    return _Unroller(program, budget)


def _accumulate(into: dict[str, int], new: dict[str, int]) -> None:
    for key, value in new.items():
        into[key] = into.get(key, 0) + value
