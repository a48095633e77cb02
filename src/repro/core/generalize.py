"""Interactive generalization from CTIs (Sections 4.4 and 4.5).

Workflow, exactly as in the paper:

1. the user picks a *generalization upper bound* ``s_u`` of the CTI by
   keeping some elements and forgetting positive/negative facts of chosen
   symbols (:meth:`~repro.logic.partial.PartialStructure.restrict_elements`
   / :meth:`~repro.logic.partial.PartialStructure.forget`);
2. **BMC**: :func:`check_unreachable` tests whether the conjecture
   ``phi(s_u)`` is k-invariant, i.e. whether any state containing ``s_u``
   as a sub-configuration is reachable within ``k`` iterations -- the
   diagram ``Diag(s_u)`` is asserted at each unrolling depth; a satisfying
   model is displayed as a concrete trace so the user can see why the
   generalization is wrong;
3. **Auto Generalize**: when ``phi(s_u)`` *is* k-invariant,
   :func:`auto_generalize` computes a minimal subset of the diagram's
   literals that stays k-unreachable.  Assumption-based unsat cores give a
   fast over-approximation, a deletion pass makes the set subset-minimal,
   and both phases run against *prepared* solver instances (one grounding
   per depth, one incremental SAT call per candidate subset).  Fewer
   literals = a weaker diagram = a *stronger* conjecture ``phi(s_m)``.

Facts about havoc scratch variables are normally irrelevant to
reachability-in-k but, being havocked, can accidentally be k-unreachable in
bogus ways; callers should build upper bounds from
:meth:`repro.core.session.Session.cti_partial`, which drops them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Mapping

from ..logic import syntax as s
from ..logic.partial import Fact, PartialStructure, conjecture
from ..logic.sorts import FuncDecl, RelDecl
from ..rml.ast import Program
from ..solver.epr import EprResult, EprSolver, PreparedEpr
from .bounded import Probe, _Unroller, _accumulate, make_unroller, run_probes
from .trace import Trace


@dataclass(frozen=True)
class ReachabilityResult:
    """Outcome of the BMC test on a generalization.

    ``unknown`` is True when some depth exhausted its budget and no depth
    was reachable: the structure is then neither shown reachable nor
    unreachable, and ``unreachable`` is False.
    """

    unreachable: bool
    bound: int
    trace: Trace | None = None  # a reachable extension of the structure
    depth: int | None = None
    statistics: dict[str, int] = field(default_factory=dict)
    unknown: bool = False

    def __bool__(self) -> bool:
        return self.unreachable


@dataclass(frozen=True)
class GeneralizeResult:
    """Outcome of BMC + Auto Generalize."""

    ok: bool
    partial: PartialStructure | None = None  # the generalized s_m
    conjecture: s.Formula | None = None  # phi(s_m)
    dropped: tuple[Fact, ...] = ()  # facts removed beyond the upper bound
    trace: Trace | None = None  # when not ok: why s_u is reachable
    depth: int | None = None
    statistics: dict[str, int] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.ok


def _fact_literal(
    fact: Fact,
    const_of: Mapping,
    symbol_map: Callable,
) -> s.Formula:
    symbol = symbol_map(fact.symbol)
    args = tuple(const_of[e] for e in fact.args)
    if isinstance(symbol, RelDecl):
        atom: s.Formula = s.Rel(symbol, args)
    else:
        atom = s.eq(s.App(symbol, args[:-1]), args[-1])
    return atom if fact.positive else s.not_(atom)


def _diagram_parts(
    partial: PartialStructure, env: Mapping, label: str = "diag"
) -> tuple[list[s.Formula], list[tuple[Fact, s.Formula]]]:
    """Hand-skolemized ``Diag(partial)`` at a vocabulary version ``env``.

    Element witnesses become fresh constants named *canonically after the
    elements* -- NOT after the caller's ``label``.  This is the pre-state
    snapshot convention: when two diagrams over the same elements are
    asserted into one solver (e.g. the diagram of a pre-state at version 0
    and of a post-state at the step's post versions), the same element maps
    to the same witness constant, so the post-state is pinned pointwise
    against the pre-state snapshot.  Witnesses named per *caller* would let
    the solver re-match elements by permutation, admitting relabeled
    (isomorphic-but-wrong) pre/post pairs -- e.g. ``p(X) := ~p(X)`` run
    from ``p = {e1}`` would accept the identity post-state ``p = {e1}``
    with the nullary constants drifted, which disagrees with the
    interpreter.  ``label`` is kept only for diagnostics.

    Returns the hard distinctness constraints and one formula per fact so
    facts can be tracked individually.
    """
    elems = partial.active_elements()
    const_of = {
        elem: s.App(FuncDecl(f"diag!{elem.name}", (), elem.sort), ())
        for elem in elems
    }
    hard: list[s.Formula] = []
    by_sort: dict[object, list] = {}
    for elem in elems:
        by_sort.setdefault(elem.sort, []).append(const_of[elem])
    for consts in by_sort.values():
        if len(consts) > 1:
            hard.append(s.distinct(*consts))
    fact_formulas = [
        (fact, _fact_literal(fact, const_of, lambda sym: env.get(sym, sym)))
        for fact in partial.facts()
    ]
    return hard, fact_formulas


def check_unreachable(
    program: Program,
    partial: PartialStructure,
    k: int,
    unroller: _Unroller | None = None,
    jobs: int | None = None,
) -> ReachabilityResult:
    """Is ``phi(partial)`` k-invariant?  (Eq. 3 applied to the conjecture.)

    Equivalently: is every state containing ``partial`` as a
    sub-configuration unreachable within ``k`` loop iterations?  One
    probe per depth through :func:`repro.core.bounded.run_probes`:
    serially the first reachable depth ends the check, with ``jobs > 1``
    the depths are one pool batch; the shallowest reachable depth is
    reported, and a depth that exhausts its budget makes the result
    ``unknown`` unless some depth is reachable.
    """
    unroller = unroller or make_unroller(program)

    def loaded_solver(depth: int) -> EprSolver:
        solver = unroller.solver_at(depth)
        env = unroller.envs[depth]
        hard, fact_formulas = _diagram_parts(partial, env, f"diag{depth}")
        for index, constraint in enumerate(hard):
            solver.add(constraint, name=f"distinct{index}")
        for index, (_, formula) in enumerate(fact_formulas):
            solver.add(formula, name=f"fact{index}")
        return solver

    probes = [
        Probe(depth, f"diag{depth}", "", functools.partial(loaded_solver, depth))
        for depth in range(k + 1)
    ]
    result = run_probes(unroller, "reachability", k, "bmc.reach", probes, jobs=jobs)
    return ReachabilityResult(
        result.holds, k, result.trace, result.depth, result.statistics,
        result.unknown,
    )


def auto_generalize(
    program: Program,
    upper_bound: PartialStructure,
    k: int,
    unroller: _Unroller | None = None,
    polish: bool = True,
) -> GeneralizeResult:
    """BMC + Auto Generalize (Section 4.5).

    Validates ``phi(s_u)`` by bounded verification; on success shrinks the
    diagram to a minimal literal subset that remains k-unreachable and
    returns the corresponding ``s_m`` with its conjecture.  ``polish=False``
    skips the deletion pass and returns the raw unsat-core generalization
    (the ablation benchmarks compare the two).
    """
    unroller = unroller or make_unroller(program)
    statistics: dict[str, int] = {}
    all_facts = list(upper_bound.facts())
    fact_names = {fact: f"fact{index}" for index, fact in enumerate(all_facts)}

    # One prepared (grounded) solver per depth, with every diagram fact as a
    # tracked constraint; subset solves are incremental SAT calls.
    prepared: list[PreparedEpr] = []
    for depth in range(k + 1):
        solver = unroller.solver_at(depth)
        env = unroller.envs[depth]
        hard, fact_formulas = _diagram_parts(upper_bound, env, f"gen{depth}")
        for index, constraint in enumerate(hard):
            solver.add(constraint, name=f"distinct{index}")
        for fact, formula in fact_formulas:
            solver.add(formula, name=fact_names[fact], track=True)
        prepared.append(solver.prepare())

    def reachable_with(names: set[str]) -> EprResult | None:
        """First sat result over the depths, or None when all unsat."""
        for depth_prepared in prepared:
            result = depth_prepared.solve(names)
            _accumulate(statistics, result.statistics)
            if result.satisfiable:
                return result
        return None

    # Validation plus phase 1 in one pass: each depth's unsat already
    # reports an assumption core; their union over-approximates the facts
    # needed for k-unreachability.
    all_names = set(fact_names.values())
    needed: set[str] = set()
    for depth, depth_prepared in enumerate(prepared):
        result = depth_prepared.solve(all_names)
        _accumulate(statistics, result.statistics)
        if result.satisfiable:
            trace = unroller.trace_from(result, depth, aborted=False)
            return GeneralizeResult(
                False, trace=trace, depth=depth, statistics=statistics
            )
        needed |= set(result.core)

    # Phase 2: deletion pass for subset minimality over the core survivors.
    kept = set(needed)
    if polish:
        for name in sorted(kept):
            attempt = kept - {name}
            if reachable_with(attempt) is None:
                kept = attempt

    name_to_fact = {name: fact for fact, name in fact_names.items()}
    kept_facts = [name_to_fact[name] for name in kept]
    candidate = upper_bound.keep_facts(kept_facts)

    # Exact recheck: dropping facts may deactivate elements, removing their
    # distinctness from the diagram -- a weaker formula than the subset the
    # prepared solvers certified.  Verify with the real conjecture
    # semantics and re-add facts if ever needed.
    exact = check_unreachable(program, candidate, k, unroller)
    _accumulate(statistics, exact.statistics)
    if not exact.unreachable:
        candidate = upper_bound
        for fact in all_facts:
            attempt = candidate.drop_fact(fact)
            again = check_unreachable(program, attempt, k, unroller)
            _accumulate(statistics, again.statistics)
            if again.unreachable:
                candidate = attempt

    kept_final = list(candidate.facts())
    dropped = tuple(fact for fact in all_facts if fact not in kept_final)
    return GeneralizeResult(
        True,
        partial=candidate,
        conjecture=conjecture(candidate),
        dropped=dropped,
        statistics=statistics,
    )
