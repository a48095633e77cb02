"""Grounding for EPR with stratified functions.

Satisfiability of an ``exists*forall*`` formula over a vocabulary with
stratified functions reduces to propositional satisfiability (Section 3.3 of
the paper): after skolemizing the existentials into fresh constants, the set
of ground terms is finite -- stratification means functions can only build
terms "downward" through the sort order, so the closure of the constants
under function application terminates.  Instantiating every universal
quantifier over that finite universe yields an equisatisfiable ground
formula, and the finite model property holds with the universe as domain
bound.

This module computes the ground-term universe and miniscopes universal
formulas into blocks; the clause templates of :mod:`repro.solver.template`
instantiate each block over the universe.  The equality theory over ground
terms lives in :mod:`repro.solver.equality`.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

from .. import obs
from ..logic import syntax as s
from ..logic.sorts import FuncDecl, Sort, Vocabulary
from ..obs import profile
from .budget import BudgetMeter


class GroundingExplosion(Exception):
    """Raised when the ground universe or instantiation exceeds safety caps."""


def ground_universe(
    vocab: Vocabulary,
    extra_constants: Sequence[FuncDecl] = (),
    max_terms_per_sort: int = 2000,
    meter: BudgetMeter | None = None,
) -> dict[Sort, list[s.Term]]:
    """The finite set of ground terms of each sort.

    Starts from the vocabulary's constants plus ``extra_constants`` (Skolem
    constants of the query), adds one anonymous constant to any otherwise
    empty sort (domains are non-empty), and closes under the proper function
    symbols following the stratification order from the top sorts down.

    ``meter`` adds cooperative budget checks to the closure loop (wall
    deadline via :meth:`BudgetMeter.check_deadline`); the hard
    ``max_terms_per_sort`` cap applies regardless.
    """
    with profile.phase("ground"):
        return _ground_universe(vocab, extra_constants, max_terms_per_sort, meter)


def _ground_universe(
    vocab: Vocabulary,
    extra_constants: Sequence[FuncDecl],
    max_terms_per_sort: int,
    meter: BudgetMeter | None,
) -> dict[Sort, list[s.Term]]:
    vocab.check_stratified()
    constants = list(vocab.constants()) + [c for c in extra_constants if c.is_constant]
    universe: dict[Sort, list[s.Term]] = {sort: [] for sort in vocab.sorts}
    for const in constants:
        universe[const.sort].append(s.App(const, ()))
    for sort in vocab.sorts:
        if not universe[sort]:
            universe[sort].append(s.App(FuncDecl(f"default_{sort.name}", (), sort), ()))
    # stratification_order lists result sorts before argument sorts, so walk
    # it from the top (argument) end down: by the time we reach a sort, the
    # universes of all sorts above it are complete.
    order = vocab.stratification_order()
    for sort in reversed(order):
        for func in vocab.proper_functions():
            if func.sort != sort:
                continue
            arg_spaces = [universe[arg_sort] for arg_sort in func.arg_sorts]
            for args in itertools.product(*arg_spaces):
                universe[sort].append(s.App(func, tuple(args)))
                if len(universe[sort]) > max_terms_per_sort:
                    raise GroundingExplosion(
                        f"sort {sort.name!r} exceeds {max_terms_per_sort} ground terms"
                    )
                if meter is not None and len(universe[sort]) % 256 == 0:
                    meter.check_deadline()
    if obs.enabled():
        obs.point(
            "grounding.universe",
            terms=sum(len(terms) for terms in universe.values()),
            sorts=len(universe),
        )
    return universe


def universe_estimate(vocab: Vocabulary) -> dict[str, int]:
    """Per-sort ground-universe sizes for a query with no Skolem constants.

    Pure-static: builds the same Herbrand universe a query over ``vocab``
    would start from (real queries add their Skolem constants on top) so
    ``repro analyze`` can preview how much a cone-of-influence restricted
    vocabulary shrinks the instantiation domains without issuing any
    solver query.
    """
    universe = ground_universe(vocab)
    return {sort.name: len(terms) for sort, terms in universe.items()}


def _miniscope(formula: s.Formula) -> Iterator[tuple[tuple[s.Var, ...], s.Formula]]:
    """Yield (variables, matrix) pairs covering ``formula`` conjunctively.

    ``formula`` is the output of skolemization: quantifier free, or
    universal blocks over quantifier-free matrices.  Miniscoping splits
    ``forall x. (p & q)`` into ``forall x. p`` and ``forall x. q``, and each
    conjunct keeps only the variables it actually mentions.  Axioms are
    conjunctions of small universal clauses, so this turns one cross
    product over the union of all their variables into several small ones.
    """
    if isinstance(formula, s.And):
        for arg in formula.args:
            yield from _miniscope(arg)
        return
    if isinstance(formula, s.Forall):
        inner_vars = formula.vars
        for vars_, matrix in _miniscope(formula.body):
            used = s.free_vars(matrix)
            outer = tuple(v for v in inner_vars if v in used)
            yield outer + vars_, matrix
        return
    yield (), formula
