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
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import obs
from ..obs import profile
from ..logic import syntax as s
from ..logic.fragments import is_forall_exists
from ..logic.structures import Structure
from ..rml.ast import Program
from ..rml.encode import Env, StepEncoding, TransitionEncoder, project_state
from ..solver.budget import Budget, FailureReason
from ..solver.dispatch import query_of, resolve_jobs, solve_queries
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


def _replayed_unsat() -> EprResult:
    """A synthetic conclusive-unsat result standing in for journaled work."""
    return EprResult(False, statistics={"journal_hits": 1})


def _invariance_keys(program: Program, phi: s.Formula, k: int, journal) -> dict:
    """Journal keys for every depth of one k-invariance check."""
    if journal is None:
        return {}
    from ..logic.printer import fingerprint
    from ..proof.ledger import program_fingerprint

    program_hash = program_fingerprint(program)
    phi_hash = fingerprint(phi)
    return {
        depth: f"{program_hash}:kinv:{phi_hash}:{depth}"
        for depth in range(k + 1)
    }


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

    The per-depth queries are independent; with ``jobs > 1`` (or
    ``REPRO_JOBS`` set) they are solved in parallel across worker
    processes, reporting the shallowest violation.  Serial mode stops at
    the first violating depth instead.

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
    statistics: dict[str, int] = {}
    keys = _invariance_keys(program, phi, k, journal)
    with profile.engine("bmc"), obs.span("bmc", kind="invariance", bound=k) as sp:
        replayed: dict[int, EprResult] = {}
        if journal is not None:
            for depth in range(k + 1):
                data = journal.replay("bmc.depth", keys[depth])
                if data is not None and data.get("verdict") == "unsat":
                    replayed[depth] = _replayed_unsat()
        if resolve_jobs(jobs) > 1 and k > 0:
            depths = [d for d in range(k + 1) if d not in replayed]
            queries = []
            for depth in depths:
                solver = unroller.solver_at(depth)
                goal = unroller.encoder._rename(s.not_(phi), unroller.envs[depth])
                solver.add(goal, name="goal")
                queries.append(query_of(solver, name=f"depth{depth}"))
            with obs.span("bmc.dispatch", queries=len(queries)):
                batches = solve_queries(queries, jobs=jobs)
            solved = dict(zip(depths, (result for (result,) in batches)))
            if journal is not None:
                for depth in depths:
                    if solved[depth].is_unsat:
                        journal.append("bmc.depth", keys[depth], verdict="unsat")
            results = [
                replayed.get(depth, solved.get(depth)) for depth in range(k + 1)
            ]
        else:
            results = []
            for depth in range(k + 1):
                if depth in replayed:
                    results.append(replayed[depth])
                    continue
                solver = unroller.solver_at(depth)
                goal = unroller.encoder._rename(s.not_(phi), unroller.envs[depth])
                solver.add(goal, name="goal")
                with obs.span("bmc.depth", depth=depth) as depth_span:
                    result = solver.check()
                    depth_span.set(verdict=result.verdict)
                if journal is not None and result.is_unsat:
                    journal.append("bmc.depth", keys[depth], verdict="unsat")
                results.append(result)
                if result.satisfiable:
                    break
        _engine_metrics("bmc", [r for r in results if r is not None])
        failures: list[tuple[int, FailureReason]] = []
        for depth, result in enumerate(results):
            _accumulate(statistics, result.statistics)
            if result.satisfiable:
                trace = unroller.trace_from(result, depth, aborted=False)
                sp.set(holds=False, violation_depth=depth)
                return BoundedResult(False, k, trace, depth, statistics)
            if result.unknown:
                failures.append((depth, result.failure))
        if failures:
            sp.set(holds=False, unknown=True)
            return BoundedResult(
                False, k, statistics=statistics, unknown=True,
                verified_depth=min(depth for depth, _ in failures) - 1,
                failures=tuple(failures),
            )
        sp.set(holds=True)
        return BoundedResult(True, k, statistics=statistics)


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
    probes are independent and are fanned out like
    :func:`check_k_invariance` when ``jobs > 1``.  Probes that exhaust the
    ``budget`` degrade to UNKNOWN; see :class:`BoundedResult`.

    With a ``journal``, conclusively refuted probes are recorded as they
    complete and replayed on resume without building their solvers; a sat
    probe is never journaled (its model -- the error trace -- is not
    persisted, so it must be re-solved), which keeps the resumed verdict
    identical.
    """
    unroller = _Unroller(program, budget)
    statistics: dict[str, int] = {}
    program_hash = ""
    if journal is not None:
        from ..proof.ledger import program_fingerprint

        program_hash = program_fingerprint(program)
    with profile.engine("bmc"), obs.span("bmc", kind="error-trace", bound=k) as sp:
        probes: list[tuple[int, EprSolver | None, str]] = []
        replayed: dict[int, EprResult] = {}
        for depth in range(k + 1):
            unroller.extend_to(depth)
            env = unroller.envs[depth]
            for command, label in ((program.body, "body"), (program.final, "final")):
                # encode_step runs even for replayed probes: it advances
                # the encoder's symbol minting, keeping later probes'
                # encodings identical to the killed run's.
                abort = unroller.encoder.encode_step(
                    command, env, f"abort{depth}_{label}"
                ).abort_formula
                if abort == s.FALSE:
                    continue
                key = f"{program_hash}:abort:{depth}:{label}"
                if journal is not None:
                    data = journal.replay("bmc.probe", key)
                    if data is not None and data.get("verdict") == "unsat":
                        replayed[len(probes)] = _replayed_unsat()
                        probes.append((depth, None, key))
                        continue
                solver = unroller.solver_at(depth)
                solver.add(abort, name="abort")
                probes.append((depth, solver, key))
        if resolve_jobs(jobs) > 1 and len(probes) - len(replayed) > 1:
            live = [
                (index, solver)
                for index, (_, solver, _) in enumerate(probes)
                if solver is not None
            ]
            queries = [
                query_of(solver, name=f"abort{index}") for index, solver in live
            ]
            with obs.span("bmc.dispatch", queries=len(queries)):
                batches = solve_queries(queries, jobs=jobs)
            solved = dict(
                zip((index for index, _ in live), (result for (result,) in batches))
            )
            if journal is not None:
                for index, _ in live:
                    if solved[index].is_unsat:
                        journal.append(
                            "bmc.probe", probes[index][2], verdict="unsat"
                        )
            results = [
                replayed.get(index, solved.get(index))
                for index in range(len(probes))
            ]
        else:
            results = []
            for index, (depth, solver, key) in enumerate(probes):
                if solver is None:
                    results.append(replayed[index])
                    continue
                with obs.span("bmc.probe", depth=depth) as probe_span:
                    result = solver.check()
                    probe_span.set(verdict=result.verdict)
                if journal is not None and result.is_unsat:
                    journal.append("bmc.probe", key, verdict="unsat")
                results.append(result)
                if result.satisfiable:
                    break
        _engine_metrics("bmc", results)
        failures: list[tuple[int, FailureReason]] = []
        for (depth, _, _), result in zip(probes, results):
            _accumulate(statistics, result.statistics)
            if result.satisfiable:
                trace = unroller.trace_from(result, depth, aborted=True)
                sp.set(holds=False, violation_depth=depth)
                return BoundedResult(False, k, trace, depth, statistics)
            if result.unknown:
                failures.append((depth, result.failure))
        if failures:
            sp.set(holds=False, unknown=True)
            return BoundedResult(
                False, k, statistics=statistics, unknown=True,
                verified_depth=min(depth for depth, _ in failures) - 1,
                failures=tuple(failures),
            )
        sp.set(holds=True)
        return BoundedResult(True, k, statistics=statistics)


def make_unroller(program: Program, budget: Budget | None = None) -> _Unroller:
    """Expose the incremental unroller for callers issuing repeated checks."""
    return _Unroller(program, budget)


#: per-engine query/unknown metrics (no-op when metrics are off)
_engine_metrics = obs.count_engine_queries


def _accumulate(into: dict[str, int], new: dict[str, int]) -> None:
    for key, value in new.items():
        into[key] = into.get(key, 0) + value
