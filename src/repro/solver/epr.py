"""The EPR decision procedure (Theorem 3.3 of the paper).

:class:`EprSolver` decides satisfiability of conjunctions of closed
``exists*forall*`` formulas over a vocabulary with stratified functions --
exactly the shape of every RML verification condition -- and, when
satisfiable, extracts a finite model as a
:class:`repro.logic.structures.Structure` (the finite model property in
action: these models are the paper's counterexamples to induction).

Pipeline per :meth:`EprSolver.check` call, all of it skipped when the
query cache already holds the answer (the key is taken from this input,
before step 1; see :mod:`repro.solver.cache`):

1. normalize each constraint (NNF, ite-elimination), skolemize its
   existentials into fresh constants -- sharing constants across disjuncts
   (:func:`repro.solver.split.hoist_existentials`) -- and name quantified
   disjuncts with selector propositions
   (:class:`repro.solver.split.DisjunctSplitter`) so universal blocks stay
   narrow;
2. compute the finite ground-term universe (stratified closure);
3. instantiate *small* universal blocks exhaustively; register blocks whose
   instance count exceeds a threshold for **model-based quantifier
   instantiation** (MBQI): they are only instantiated, on demand, over the
   representatives of the current candidate model;
4. Tseitin-encode the ground instances into a CDCL SAT solver, with one
   selector literal per *tracked* constraint -- steps 3 and 4 are one pass
   over integer term ids, through each block's clause template
   (:mod:`repro.solver.template`);
5. run a CEGAR loop: refute equality-congruence violations (lazy congruence
   closure, :mod:`repro.solver.equality`) and violated lazy universal
   instances until a stable model emerges or the formula is refuted;
6. on sat, quotient the universe by the model's equality and read off a
   finite structure; on unsat, report the failed selectors as an unsat core
   over constraint names.

Symbols occurring in constraints but missing from the vocabulary (e.g. the
fresh constants a caller mints for diagram elements) are adopted
automatically: constants join the universe, relations and functions join
the congruence machinery; extraction still projects onto the declared
vocabulary.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping

from .. import obs
from ..obs import profile
from ..obs.metrics import WORK_COUNTERS
from ..logic import syntax as s
from ..logic.sorts import FuncDecl, RelDecl, Sort, Vocabulary
from ..recovery import heartbeat
from ..logic.structures import Elem, Structure
from ..logic.subst import FreshNames
from ..logic.transform import eliminate_ite, nnf, skolemize_ea
from .budget import Budget, BudgetExceeded, BudgetMeter, FailureReason
from .cache import query_cache
from .cnf import CnfBuilder, TermTable, term_key
from .equality import EqualityTheory
from .mbqi import CompiledBlock, compile_block
from .grounding import GroundingExplosion, ground_universe, _miniscope
from .sat import Solver
from .template import block_template


@contextmanager
def _gc_paused():
    """Suspend the cyclic garbage collector for one grounding or solve.

    Grounding and CDCL search allocate millions of short-lived, acyclic
    objects (terms, clauses, literal lists) that reference counting frees;
    the collector's generation sweeps over the large live heap found
    nothing to reclaim yet cost a fifth of solver time.  Nested uses are
    no-ops, and a collector the caller disabled stays disabled.

    The collection the paused allocations are owed runs on the way out,
    timed as the ``gc`` phase: the young generation, or the middle one
    when its own count is past its threshold, as the collector would
    pick.  Left to the collector, it would run at the first allocation
    after re-enabling, still inside the caller's query span but outside
    every phase.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        with profile.phase("gc"):
            gc.collect(1 if gc.get_count()[1] > gc.get_threshold()[1] else 0)
        gc.enable()


#: Salt of the query-cache key.  Bump it whenever solving semantics change
#: (normalization, grounding, search, model extraction), so results stored
#: by an older solver read as misses.
KEY_VERSION = 1


def _key_tokens(value, out: list[str]) -> None:
    """Append an injective encoding of an AST value to ``out``.

    A prefix walk over each node's compared fields: the class name, then
    every field in order, tuples prefixed with their length.  Symbols are
    kept by name (their signatures are in the vocabulary or in the adopted
    symbols the key also covers), variables by name and sort.  Spans are
    not compared fields, so they never reach the key.  The pretty-printer
    is not injective -- a one-argument ``And`` prints as its argument, a
    ``Var`` like a constant of the same name -- and both differences can
    change the grounding, hence this walk.  Every token is an identifier,
    a ``#length`` or the ``repr`` of a string, none of which contains a
    newline, so newline-joined tokens decode uniquely.
    """
    kind = type(value)
    if kind is tuple:
        out.append(f"#{len(value)}")
        for item in value:
            _key_tokens(item, out)
    elif kind is str:
        out.append(repr(value))
    elif kind is RelDecl or kind is FuncDecl or kind is Sort:
        out.append(repr(value.name))
    else:
        out.append(kind.__name__)
        for name in s.compared_fields(kind):
            _key_tokens(getattr(value, name), out)


def _enabled_key(enabled: Iterable[str] | None) -> tuple[str, ...] | None:
    """The enabled half of a cache key: sorted names, None for all."""
    return None if enabled is None else tuple(sorted(enabled))


def _served(hit: EprResult) -> EprResult:
    """A stored result, reported the way every cache hit is reported.

    One ``epr.solve`` span with ``cached=True`` and the verdict, the
    ``queries_total``/``cache_hits_total`` counters, and a result flagged
    ``cached`` with ``{"cache_hits": 1}`` statistics.  Nothing was
    grounded, so there is no ``epr.prepare`` span.
    """
    result = replace(hit, statistics={"cache_hits": 1}, cached=True)
    with obs.span("epr.solve") as sp:
        sp.set(verdict=result.verdict, cached=True)
    if obs.metrics_enabled():
        obs.inc("queries_total", verdict=result.verdict)
        obs.inc("cache_hits_total")
    return result


@dataclass(frozen=True)
class EprResult:
    """Outcome of an EPR satisfiability check.

    Three verdicts, not two: ``satisfiable`` / refuted / **unknown**.  An
    unknown result (``unknown=True``, with ``satisfiable=False`` and a
    typed :class:`~repro.solver.budget.FailureReason` in ``failure``) means
    the query exhausted its resource budget or its worker died -- it proves
    nothing.  Callers that interpret "not satisfiable" as a proof MUST
    check ``unknown`` first; :attr:`is_unsat` bundles both checks.
    """

    satisfiable: bool
    model: Structure | None = None
    term_to_elem: Mapping[s.Term, Elem] | None = None
    core: frozenset[str] = frozenset()
    statistics: dict[str, int] = field(default_factory=dict)
    unknown: bool = False
    failure: FailureReason | None = None
    #: answered from the query cache (``statistics`` is then
    #: ``{"cache_hits": 1}``)
    cached: bool = False

    def __bool__(self) -> bool:
        return self.satisfiable

    @property
    def is_unsat(self) -> bool:
        """Conclusively refuted (not merely "no model produced")."""
        return not self.satisfiable and not self.unknown

    @property
    def verdict(self) -> str:
        if self.unknown:
            return "unknown"
        return "sat" if self.satisfiable else "unsat"


def unknown_result(
    reason: FailureReason, statistics: dict[str, int] | None = None
) -> EprResult:
    """An UNKNOWN outcome carrying its typed failure reason."""
    return EprResult(
        False, unknown=True, failure=reason, statistics=statistics or {}
    )


def unanswered(reason: FailureReason) -> EprResult:
    """An UNKNOWN for a query that gave up before any solve ran.

    Counted like every answer (``queries_total`` and a cache miss), since
    :meth:`PreparedEpr.solve`, which counts the others, never saw it.
    """
    if obs.metrics_enabled():
        obs.inc("queries_total", verdict="unknown")
        obs.inc("cache_misses_total")
    return unknown_result(reason)


@dataclass(frozen=True)
class _Constraint:
    name: str
    formula: s.Formula
    tracked: bool


def _decl_key(decl) -> tuple[str, str]:
    """Stable sort key for relation/function declarations by kind + name."""
    return (type(decl).__name__, decl.name)


@dataclass(eq=False)
class _LazyBlock:
    """A universal block instantiated on demand (MBQI)."""

    vars: tuple[s.Var, ...]
    matrix: s.Formula
    selector: int | None
    _compiled: object = field(default=None, init=False, repr=False)
    _template: object = field(default=None, init=False, repr=False)

    def scanner(self) -> CompiledBlock | None:
        """The compiled scan, built on the block's first refinement round;
        None when the interpreter (``_eval_in_env``) evaluates the block."""
        if self._compiled is None:
            self._compiled = compile_block(self.vars, self.matrix) or False
        return self._compiled or None

    def template(self):
        """The clause template falsified instances are asserted through."""
        if self._template is None:
            self._template = block_template(self.vars, self.matrix)
        return self._template


class EprSolver:
    """Accumulates closed exists*forall* constraints and decides them.

    ``exclusive_tracked=True`` declares that tracked constraints will only
    ever be solved one at a time (:meth:`PreparedEpr.solve` with a single
    name).  Their Skolem constants are then drawn from one shared pool --
    exactly like disjuncts of a single formula -- which keeps the ground
    universe proportional to the *largest* tracked constraint instead of
    their total.  This is what makes batched Houdini over hundreds of
    template candidates feasible.
    """

    def __init__(
        self,
        vocab: Vocabulary,
        eager_threshold: int = 3000,
        exclusive_tracked: bool = False,
        canonical_models: bool = False,
        budget: Budget | None = None,
    ) -> None:
        self.vocab = vocab
        self.eager_threshold = eager_threshold
        self.exclusive_tracked = exclusive_tracked
        self.canonical_models = canonical_models
        self.budget = budget if budget is not None and not budget.unlimited else None
        self._constraints: list[_Constraint] = []
        self._names: set[str] = set()
        self._digest: str | None = None  # input digest, reset by add()
        #: enabled sets already looked up and missed; the next prepare()
        #: hands them to its PreparedEpr so a miss is not read twice
        self._missed: set[tuple[str, ...] | None] = set()

    def add(self, formula: s.Formula, name: str | None = None, track: bool = False) -> str:
        """Add a constraint; returns its (possibly generated) name.

        Tracked constraints participate in unsat cores; untracked ones are
        hard background (axioms, transition encodings).
        """
        if name is None:
            name = f"c{len(self._constraints)}"
        if name in self._names:
            raise ValueError(f"duplicate constraint name {name!r}")
        self._names.add(name)
        self._constraints.append(_Constraint(name, formula, track))
        self._digest = None
        return name

    def add_all(self, formulas: Iterable[s.Formula]) -> None:
        for formula in formulas:
            self.add(formula)

    # ------------------------------------------------------------ cache key

    def _input_digest(self) -> str:
        """sha256 over everything a solve's answer depends on.

        The query-cache key is this digest paired with the enabled set.  It
        is computed from the solver's input, before any grounding, and
        covers: the :data:`KEY_VERSION` salt; the vocabulary in declaration
        order; the adopted symbols with their sorts (a constant declared
        rather than adopted changes the extracted structure); each
        constraint's name, tracked flag and formula, in order; and the
        options that change answers.  The budget is left out: a result
        that exhausted it is UNKNOWN, and UNKNOWN is never stored.
        """
        if self._digest is None:
            from ..analysis.symmetry import symmetry_enabled

            working, _ = self._working_vocabulary()
            adopted = (
                working.relations[len(self.vocab.relations):],
                working.functions[len(self.vocab.functions):],
            )
            options = (
                self.eager_threshold,
                self.exclusive_tracked,
                self.canonical_models,
                symmetry_enabled(),
            )
            tokens = [
                f"v{KEY_VERSION}", repr(self.vocab), repr(adopted),
                repr(options), f"#{len(self._constraints)}",
            ]
            for constraint in self._constraints:
                tokens.append(repr(constraint.name))
                tokens.append("1" if constraint.tracked else "0")
                _key_tokens(constraint.formula, tokens)
            self._digest = hashlib.sha256(
                "\n".join(tokens).encode()
            ).hexdigest()
        return self._digest

    def _cached(self, enabled: Iterable[str] | None = None) -> EprResult | None:
        """The stored answer for ``enabled``, looked up before grounding.

        A hit is reported like every hit (:func:`_served`); a miss is
        remembered, and the next :meth:`prepare` passes it on so the
        solve that follows does not read the store again.
        """
        cache = query_cache()
        if cache is None:
            return None
        names = _enabled_key(enabled)
        if names in self._missed:
            return None
        with profile.phase("cache"):
            key = (self._input_digest(), names)
        hit = cache.lookup(key)
        if hit is None:
            self._missed.add(names)
            return None
        return _served(hit)

    # ------------------------------------------------------------- checking

    def prepare(self) -> "PreparedEpr":
        """Ground all constraints once, returning a reusable solver instance.

        The returned :class:`PreparedEpr` can be solved repeatedly under
        different subsets of the *tracked* constraints -- the deletion-based
        core minimization of the auto-generalizer re-solves dozens of
        subsets, and sharing the grounding makes each re-solve a plain
        incremental SAT call.

        When the solver carries a :class:`Budget`, grounding runs under a
        fresh meter: the wall deadline and the grounded-instance cap are
        checked cooperatively, raising :class:`BudgetExceeded` (use
        :meth:`check` for the catching, UNKNOWN-returning wrapper).
        """
        with obs.span("epr.prepare", constraints=len(self._constraints)) as sp:
            with profile.collect() as prof, _gc_paused():
                prepared = self._prepare()
                with profile.phase("cache"):
                    prepared._digest = self._input_digest()
            prepared._missed, self._missed = self._missed, set()
            sp.set(instances=prepared.instance_count)
            if prof.wall:
                phases = prof.attrs_ms()
                sp.set(**phases)
                profile.publish(prof)
                # Surfaced through the *first* solve's statistics so
                # per-query consumers see prepare phases exactly once per
                # grounding.
                prepared._pending_phases = phases
            return prepared

    def _prepare(self) -> "PreparedEpr":
        from .split import DisjunctSplitter, SkolemPool, hoist_existentials

        meter = self.budget.start() if self.budget is not None else None

        with profile.phase("normalize"):
            working_vocab, adopted_constants = self._working_vocabulary()
            fresh = FreshNames(
                itertools.chain(
                    (decl.name for decl in working_vocab.relations),
                    (decl.name for decl in working_vocab.functions),
                )
            )
            splitter = DisjunctSplitter(fresh)
            shared_pool = SkolemPool(fresh) if self.exclusive_tracked else None
            skolemized: list[tuple[_Constraint, s.Formula]] = []
            extra_constants: list[FuncDecl] = list(adopted_constants)
            for constraint in self._constraints:
                pool = shared_pool if constraint.tracked else None
                hoisted, constants = hoist_existentials(
                    nnf(eliminate_ite(constraint.formula)), fresh, pool=pool
                )
                extra_constants.extend(constants)
                split = splitter.split(hoisted)
                result = skolemize_ea(split, fresh)
                skolemized.append((constraint, result.universal))
                extra_constants.extend(result.constants)

        universe = ground_universe(working_vocab, extra_constants, meter=meter)
        with profile.phase("theory"):
            sat = Solver()
            builder = CnfBuilder(sat, TermTable(universe))
            equality = EqualityTheory(builder, working_vocab, universe)
        prepared = PreparedEpr(
            self, working_vocab, universe, sat, builder, equality,
            exclusive=self.exclusive_tracked,
        )
        prepared._meter = meter

        # Each block's instances go through its clause template, in
        # ``itertools.product`` order over the universe's term ids.
        with profile.phase("instantiate"):
            term_id = builder.terms.index
            sort_ids = {
                sort: [term_id[term] for term in terms]
                for sort, terms in universe.items()
            }
            for constraint, universal in skolemized:
                selector: int | None = None
                if constraint.tracked:
                    selector = sat.new_var()
                    prepared.selector_of[constraint.name] = selector
                    prepared.selectors[selector] = constraint.name
                for vars_, matrix in _miniscope(universal):
                    count = 1
                    for var in vars_:
                        count *= len(universe[var.sort])
                    if count > self.eager_threshold and vars_:
                        prepared.lazy_blocks.append(
                            _LazyBlock(tuple(vars_), matrix, selector)
                        )
                        continue
                    if not vars_:
                        prepared.assert_instance(matrix, selector)
                        continue
                    domains = [sort_ids[var.sort] for var in vars_]
                    block_template(tuple(vars_), matrix)(
                        prepared, itertools.product(*domains), selector
                    )
        self._break_symmetries(prepared, working_vocab)
        prepared._meter = None
        return prepared

    def _break_symmetries(
        self, prepared: "PreparedEpr", working_vocab: Vocabulary
    ) -> None:
        """Assert lex-leader constraints over anonymous-constant orbits.

        Declared constants occurring in no constraint are interchangeable
        within their sort (permuting them is an automorphism of the ground
        instance set), so constraining models to lexicographic leaders over
        their unary-relation memberships preserves satisfiability.  Skipped
        under canonical-models mode -- least-model minimization already
        determinizes model choice there, and the extra clauses would only
        perturb the canonical shape -- and behind ``REPRO_SYMMETRY``.
        """
        from ..analysis.symmetry import (
            lex_leader_constraints,
            query_orbits,
            symmetry_enabled,
        )

        if self.canonical_models or not symmetry_enabled():
            return
        with profile.phase("symmetry"):
            formulas = [constraint.formula for constraint in self._constraints]
            orbits = query_orbits(working_vocab, formulas)
            if not orbits:
                return
            used: set = set()
            for formula in formulas:
                used.update(s.symbols_of(formula))
            count = 0
            for constraint in lex_leader_constraints(orbits, working_vocab, used):
                if prepared.assert_instance(constraint, None):
                    count += 1
        prepared.symmetry_orbits = len(orbits)
        if count:
            obs.inc("symmetry_constraints_total", count)
        obs.set_gauge("symmetry_orbits", len(orbits))

    def check(self, max_rounds: int = 10_000) -> EprResult:
        """Decide the conjunction of all added constraints.

        The query cache is asked first, so a hit grounds nothing.
        Degrades gracefully: a grounding explosion or an exhausted budget
        yields an UNKNOWN :class:`EprResult` (with the typed failure
        reason) instead of an exception.
        """
        hit = self._cached()
        if hit is not None:
            return hit
        try:
            prepared = self.prepare()
        except BudgetExceeded as exceeded:
            return unanswered(exceeded.reason)
        except GroundingExplosion:
            return unanswered(FailureReason.GROUNDING_BLOWUP)
        return prepared.solve(max_rounds=max_rounds)

    # --------------------------------------------------- MBQI refinement

    def _refine_lazy(
        self,
        prepared: "PreparedEpr",
        reps: Mapping[s.Term, s.Term],
        model: dict[int, bool],
    ) -> int:
        """Instantiate lazy universal blocks over the model's representatives,
        asserting every instance the current model falsifies through the
        block's clause template."""
        universe, builder = prepared.universe, prepared.builder
        meter = prepared._meter
        rep_terms: dict[Sort, list[s.Term]] = {}
        for sort, terms in universe.items():
            rep_terms[sort] = sorted({reps[t] for t in terms}, key=term_key)
        # The truth of r(t..) in the candidate *quotient* model: some true
        # atom exists whose argument classes match.  This is exactly how
        # model extraction reads relations, so an instance this evaluator
        # accepts is an instance the extracted structure satisfies.
        # Compiled scans read the same facts over integer representative
        # ids (see :mod:`repro.solver.mbqi`).
        rep_list = [rep for terms in rep_terms.values() for rep in terms]
        rep_id = {rep: index for index, rep in enumerate(rep_list)}
        term_id = builder.terms.index
        to_term_id = [term_id[rep] for rep in rep_list].__getitem__
        true_ids: dict[RelDecl, set] = {}
        true_atoms: list[s.Rel] = []
        for atom, var in builder.atoms.items():
            if isinstance(atom, s.Rel) and model.get(var, False):
                true_atoms.append(atom)
                args = atom.args
                if len(args) == 1:
                    key = rep_id[reps[args[0]]]
                else:
                    key = tuple(rep_id[reps[arg]] for arg in args)
                true_ids.setdefault(atom.rel, set()).add(key)
        true_canon: set[tuple[RelDecl, tuple[s.Term, ...]]] | None = None
        func_tables: dict[FuncDecl, dict] = {}
        no_facts: frozenset = frozenset()
        counter = [0]  # evaluated combinations, for the deadline checks
        added = 0
        for block in prepared.lazy_blocks:
            if block.selector is not None and not model.get(block.selector, False):
                continue  # tracked constraint currently disabled
            compiled = block.scanner()
            const_ids = None
            if compiled is not None:
                try:
                    const_ids = [rep_id[reps[c]] for c in compiled.consts]
                except KeyError:
                    pass  # left to the interpreter, which fails (or not) lazily
            if const_ids is None:
                if true_canon is None:
                    true_canon = {
                        (atom.rel, tuple(reps[arg] for arg in atom.args))
                        for atom in true_atoms
                    }
                added += self._refine_interpreted(
                    block, prepared, rep_terms, reps, true_canon, counter
                )
                continue
            missing = [func for func in compiled.funcs if func not in func_tables]
            if missing:
                func_tables.update(self._function_tables(missing, reps, rep_id))
            falsified = compiled.scan(
                [[rep_id[t] for t in rep_terms[var.sort]] for var in block.vars],
                [true_ids.get(rel, no_facts) for rel in compiled.rels],
                [func_tables[func] for func in compiled.funcs],
                const_ids,
                meter,
                counter,
            )
            added += block.template()(
                prepared,
                (tuple(map(to_term_id, combo)) for combo in falsified),
                block.selector,
            )
        return added

    @staticmethod
    def _function_tables(
        funcs: list[FuncDecl],
        reps: Mapping[s.Term, s.Term],
        rep_id: Mapping[s.Term, int],
    ) -> dict[FuncDecl, dict]:
        """Per function: argument ids -> the result's id, over the
        applications to representatives only (the terms ``_term_rep``
        looks up)."""
        tables: dict[FuncDecl, dict] = {func: {} for func in funcs}
        for term, rep in reps.items():
            if not isinstance(term, s.App) or not term.args:
                continue
            table = tables.get(term.func)
            if table is None:
                continue
            ids = [rep_id.get(arg) for arg in term.args]
            if None in ids:
                continue  # an argument that is not a representative
            table[ids[0] if len(ids) == 1 else tuple(ids)] = rep_id[rep]
        return tables

    def _refine_interpreted(
        self, block, prepared, rep_terms, reps, true_canon, counter
    ) -> int:
        """The AST-walking scan of one block: the reference the compiled
        scan agrees with, and the fallback for matrices it cannot take."""
        meter = prepared._meter
        term_id = prepared.builder.terms.index

        def falsified():
            domains = [rep_terms[var.sort] for var in block.vars]
            for combo in itertools.product(*domains):
                counter[0] += 1
                if meter is not None and counter[0] % 256 == 0:
                    meter.check_deadline()
                env = dict(zip(block.vars, combo))
                if not self._eval_in_env(block.matrix, env, true_canon, reps):
                    yield tuple(term_id[term] for term in combo)

        return block.template()(prepared, falsified(), block.selector)

    def _term_rep(
        self, term: s.Term, env: Mapping[s.Var, s.Term], reps: Mapping[s.Term, s.Term]
    ) -> s.Term:
        if isinstance(term, s.Var):
            return env[term]  # bound to a representative already
        assert isinstance(term, s.App)
        if not term.args:
            return reps[term]
        args = tuple(self._term_rep(arg, env, reps) for arg in term.args)
        return reps[s.App(term.func, args)]

    def _eval_in_env(
        self,
        formula: s.Formula,
        env: Mapping[s.Var, s.Term],
        true_canon: set[tuple[RelDecl, tuple[s.Term, ...]]],
        reps: Mapping[s.Term, s.Term],
    ) -> bool:
        """Evaluate a QF matrix in the candidate quotient model under ``env``.

        Relation atoms with no true representative-signature atom default to
        false, matching model extraction.  Builds no substituted AST: only
        the falsified combinations are asserted, through the template.
        """
        if isinstance(formula, s.Rel):
            signature = tuple(self._term_rep(arg, env, reps) for arg in formula.args)
            return (formula.rel, signature) in true_canon
        if isinstance(formula, s.Eq):
            return self._term_rep(formula.lhs, env, reps) == self._term_rep(
                formula.rhs, env, reps
            )
        if isinstance(formula, s.Not):
            return not self._eval_in_env(formula.arg, env, true_canon, reps)
        if isinstance(formula, s.And):
            return all(
                self._eval_in_env(a, env, true_canon, reps) for a in formula.args
            )
        if isinstance(formula, s.Or):
            return any(
                self._eval_in_env(a, env, true_canon, reps) for a in formula.args
            )
        if isinstance(formula, s.Implies):
            return (not self._eval_in_env(formula.lhs, env, true_canon, reps)) or (
                self._eval_in_env(formula.rhs, env, true_canon, reps)
            )
        if isinstance(formula, s.Iff):
            return self._eval_in_env(formula.lhs, env, true_canon, reps) == (
                self._eval_in_env(formula.rhs, env, true_canon, reps)
            )
        raise TypeError(f"not a ground formula: {formula!r}")

    # -------------------------------------------------- working vocabulary

    def _working_vocabulary(self) -> tuple[Vocabulary, list[FuncDecl]]:
        """Adopt symbols used in constraints but absent from the vocabulary."""
        extra_relations: list[RelDecl] = []
        extra_functions: list[FuncDecl] = []
        adopted_constants: list[FuncDecl] = []
        known = set(self.vocab.relations) | set(self.vocab.functions)
        seen: set = set(known)
        for constraint in self._constraints:
            # Deterministic adoption order: symbols_of returns a frozenset,
            # and frozenset iteration order varies with hash randomization.
            # Adoption order decides universe and SAT-variable numbering,
            # hence the model a solve returns, and the query-cache key
            # hashes the adopted symbols in this order -- iterating the raw
            # set would give every interpreter its own keys (defeating the
            # cross-process disk cache) and its own models.
            for decl in sorted(s.symbols_of(constraint.formula), key=_decl_key):
                if decl in seen:
                    continue
                seen.add(decl)
                if decl.name in self.vocab:
                    raise ValueError(
                        f"symbol {decl.name!r} conflicts with the vocabulary"
                    )
                if isinstance(decl, RelDecl):
                    extra_relations.append(decl)
                else:
                    extra_functions.append(decl)
                    if decl.is_constant:
                        adopted_constants.append(decl)
        if not extra_relations and not extra_functions:
            return self.vocab, []
        working = self.vocab.extended(
            relations=extra_relations, functions=extra_functions
        )
        return working, adopted_constants

    @staticmethod
    def _stats(
        sat: Solver, instances: int, rounds: int, congruence: int, lazy: int
    ) -> dict[str, int]:
        return {
            "instances": instances,
            "cegar_rounds": rounds,
            "congruence_clauses": congruence,
            "lazy_instances": lazy,
            "sat_vars": sat.num_vars,
            **sat.statistics,
        }

    # ----------------------------------------------------- model extraction

    def _extract(
        self,
        builder: CnfBuilder,
        model: dict[int, bool],
        reps: Mapping[s.Term, s.Term],
        universe: Mapping[Sort, list[s.Term]],
        working_vocab: Vocabulary,
    ) -> tuple[Structure, dict[s.Term, Elem]]:
        elem_of_rep: dict[s.Term, Elem] = {}
        domain: dict[Sort, tuple[Elem, ...]] = {}
        for sort in self.vocab.sorts:
            class_reps = sorted({reps[term] for term in universe[sort]}, key=term_key)
            elems = tuple(
                Elem(f"{sort.name}{index}", sort) for index in range(len(class_reps))
            )
            domain[sort] = elems
            for rep, elem in zip(class_reps, elems):
                elem_of_rep[rep] = elem
        term_to_elem = {
            term: elem_of_rep[reps[term]]
            for sort in self.vocab.sorts
            for term in universe[sort]
        }

        positive: dict[RelDecl, set[tuple[Elem, ...]]] = {
            rel: set() for rel in self.vocab.relations
        }
        for atom, var in builder.atoms.items():
            if not isinstance(atom, s.Rel) or not model.get(var, False):
                continue
            if atom.rel not in positive:
                continue  # selector or adopted symbol, not in the base vocabulary
            positive[atom.rel].add(tuple(term_to_elem[arg] for arg in atom.args))
        rels = {rel: frozenset(tuples) for rel, tuples in positive.items()}

        funcs: dict[FuncDecl, dict[tuple[Elem, ...], Elem]] = {}
        rep_term_of_elem = {elem: rep for rep, elem in elem_of_rep.items()}
        for func in self.vocab.functions:
            table: dict[tuple[Elem, ...], Elem] = {}
            for elem_args in itertools.product(
                *(domain[sort] for sort in func.arg_sorts)
            ):
                term_args = tuple(rep_term_of_elem[elem] for elem in elem_args)
                value_term = s.App(func, term_args)
                table[elem_args] = term_to_elem[value_term]
            funcs[func] = table

        structure = Structure(self.vocab, domain, rels, funcs)
        return structure, term_to_elem


class PreparedEpr:
    """A grounded EPR instance supporting repeated subset solves.

    ``solve(enabled)`` decides the untracked constraints conjoined with the
    tracked constraints whose names are in ``enabled`` (all of them when
    ``enabled`` is None).  Congruence clauses and lazy universal instances
    learned by earlier solves persist: congruence clauses are theory-valid,
    and lazy instances carry their constraint's selector, so they only bite
    when that constraint is enabled.
    """

    def __init__(
        self, owner, working_vocab, universe, sat, builder, equality, exclusive=False
    ):
        self._owner = owner
        self.exclusive = exclusive
        self.working_vocab = working_vocab
        self.universe = universe
        self.sat = sat
        self.builder = builder
        self.equality = equality
        self.selectors: dict[int, str] = {}
        self.selector_of: dict[str, int] = {}
        self.lazy_blocks: list[_LazyBlock] = []
        #: formula ids of the instances asserted without a selector
        self._asserted: set[int] = set()
        self.instance_count = 0
        self.symmetry_orbits = 0  # orbits broken at grounding time
        self._digest = ""  # the owner's input digest, set by prepare()
        #: enabled sets the owner looked up and missed before grounding
        self._missed: set[tuple[str, ...] | None] = set()
        self._meter: BudgetMeter | None = None  # active during prepare/solve
        self._pending_phases: dict[str, int] = {}  # prepare phases, unreported

    def assert_instance(self, instance: s.Formula, selector: int | None) -> bool:
        """Assert a ground formula given as an AST (a block without
        variables, a lex-leader constraint); False for a duplicate.

        Interning an instance asserted before encodes nothing new, so the
        duplicate test can follow it.
        """
        if self._meter is not None:
            self._meter.charge_instances()
        builder = self.builder
        fid = builder.intern(instance)
        if selector is None:
            if fid in self._asserted:
                return False
            self._asserted.add(fid)
            builder.solver.add_clause([builder.lits[fid]])
        else:
            builder.solver.add_clause([-selector, builder.lits[fid]])
        self.instance_count += 1
        return True

    def solve(
        self, enabled: Iterable[str] | None = None, max_rounds: int = 10_000
    ) -> EprResult:
        names = None if enabled is None else frozenset(enabled)
        cache = query_cache()
        key = None
        if cache is not None:
            key = (self._fingerprint(), _enabled_key(names))
            if key[1] in self._missed:
                self._missed.discard(key[1])  # the owner just missed it
            else:
                hit = cache.lookup(key)
                if hit is not None:
                    return _served(hit)
        with obs.span("epr.solve") as sp:
            with profile.collect() as prof, _gc_paused():
                outcome = self._solve(names, max_rounds)
                if key is not None:
                    cache.store(key, outcome)
            statistics = outcome.statistics
            if prof.wall:
                phases = prof.attrs_ms()
                sp.set(**phases)
                profile.publish(prof)
                statistics.update(phases)
            if self._pending_phases:
                # Prepare-time phases (normalize, ground, instantiate...)
                # ride the first solved query's statistics; they are not set
                # on this span -- they already live on the epr.prepare span,
                # and hotspot reports sum phases across both span kinds.
                statistics.update(self._pending_phases)
                self._pending_phases = {}
            sp.set(
                verdict=outcome.verdict,
                cached=False,
                instances=statistics.get("instances", self.instance_count),
                solve_ms=statistics.get("solve_ms", 0),
                cegar_rounds=statistics.get("cegar_rounds", 0),
                conflicts=statistics.get("conflicts", 0),
            )
            if obs.metrics_enabled():
                obs.inc("queries_total", verdict=outcome.verdict)
                obs.inc("cache_misses_total")
                obs.observe("query_latency_ms", statistics.get("solve_ms", 0))
                obs.observe("grounded_instances", self.instance_count)
                for counter in WORK_COUNTERS:
                    if statistics.get(counter):
                        obs.inc(
                            "solver_work_total", statistics[counter],
                            counter=counter,
                        )
            return outcome

    def _solve(
        self, names: frozenset[str] | None, max_rounds: int
    ) -> EprResult:
        if names is None:
            if self.exclusive and len(self.selectors) > 1:
                raise ValueError(
                    "exclusive_tracked solvers must enable one constraint at a time"
                )
            assumptions = sorted(self.selectors)
        else:
            if self.exclusive and len(names) > 1:
                raise ValueError(
                    "exclusive_tracked solvers must enable one constraint at a time"
                )
            unknown = names - set(self.selector_of)
            if unknown:
                raise KeyError(f"unknown tracked constraints: {sorted(unknown)}")
            assumptions = sorted(self.selector_of[name] for name in names)
        owner = self._owner
        start = time.perf_counter()
        counters = {"rounds": 0, "congruence": 0, "lazy": 0}
        self._meter = owner.budget.start() if owner.budget is not None else None
        try:
            result, reps = self._stable_solve(assumptions, counters, max_rounds)
            if result.satisfiable and owner.canonical_models:
                result, reps = self._canonicalize(
                    assumptions, result, reps, counters, max_rounds
                )
        except BudgetExceeded as exceeded:
            statistics = owner._stats(
                self.sat, self.instance_count, counters["rounds"],
                counters["congruence"], counters["lazy"],
            )
            statistics["solve_ms"] = int((time.perf_counter() - start) * 1000)
            # UNKNOWN proves nothing and is never stored by the cache.
            return unknown_result(exceeded.reason, statistics)
        finally:
            self._meter = None
        statistics = owner._stats(
            self.sat, self.instance_count, counters["rounds"],
            counters["congruence"], counters["lazy"],
        )
        statistics["solve_ms"] = int((time.perf_counter() - start) * 1000)
        if not result.satisfiable:
            core = frozenset(
                self.selectors[lit] for lit in result.core if lit in self.selectors
            )
            return EprResult(False, core=core, statistics=statistics)
        with profile.phase("extract"):
            structure, term_to_elem = owner._extract(
                self.builder, result.model, reps, self.universe,
                self.working_vocab,
            )
        return EprResult(
            True,
            model=structure,
            term_to_elem=term_to_elem,
            statistics=statistics,
        )

    def _fingerprint(self) -> str:
        """The query-cache digest: the owner's input digest at prepare().

        Solving is deterministic given the solver's input and the enabled
        set, so a stored result is what a re-solve would compute, minus
        the statistics.  The digest is taken from the input rather than
        from this grounding, so a lookup needs no grounding at all.
        """
        return self._digest

    def _stable_solve(self, assumptions, counters, max_rounds):
        """Run the CEGAR loop to a stable SAT model (with its equality
        representatives) or an UNSAT result; refutes congruence violations
        and violated lazy universal instances along the way."""
        owner = self._owner
        while True:
            counters["rounds"] += 1
            if counters["rounds"] > max_rounds:
                raise RuntimeError("instantiation/congruence loop failed to converge")
            heartbeat.beat()  # liveness for the pool watchdog
            if self._meter is not None:
                self._meter.check_deadline()
            result = self.sat.solve(assumptions, self._meter)
            if not result.satisfiable:
                return result, None
            with profile.phase("theory"):
                reps = self.equality.classes(result.model)
                violations = self.equality.congruence_violations(
                    result.model, reps
                )
            if violations:
                with profile.phase("theory"):
                    for clause in violations:
                        self.sat.add_clause(clause)
                        counters["congruence"] += 1
                continue
            with profile.phase("theory"):
                new_instances = owner._refine_lazy(self, reps, result.model)
            if new_instances:
                counters["lazy"] += new_instances
                continue
            return result, reps

    def _canonicalize(self, assumptions, result, reps, counters, max_rounds):
        """Refine a stable model into the lexicographically sparsest one.

        Scans base-vocabulary relation atoms in a fixed semantic order --
        sorted by ``(relation name, argument term keys)`` -- and greedily
        commits each to false whenever a stable model allows it (one
        assumption-based re-solve per atom that is currently true).  The
        scan repeats because MBQI trials can mint new ground atoms.  The
        outcome is model-choice determinism: solver heuristics (decision
        order, phase saving, restart timing) no longer pick which of several
        minimal models is returned.
        """
        base_rels = set(self._owner.vocab.relations)
        forced: list[int] = []
        decided: set[int] = set()
        while True:
            # The scan itself is model post-processing; the phase block
            # closes before the per-atom re-solves (which time their own
            # sat/theory phases), keeping phases disjoint.
            with profile.phase("extract"):
                pending = sorted(
                    ((atom.rel.name, tuple(term_key(a) for a in atom.args)), var)
                    for atom, var in self.builder.atoms.items()
                    if isinstance(atom, s.Rel)
                    and atom.rel in base_rels
                    and var not in decided
                )
            if not pending:
                return result, reps
            for _, var in pending:
                decided.add(var)
                if not result.model.get(var, False):
                    forced.append(-var)
                    continue
                trial, trial_reps = self._stable_solve(
                    assumptions + forced + [-var], counters, max_rounds
                )
                if trial.satisfiable:
                    forced.append(-var)
                    result, reps = trial, trial_reps
                else:
                    forced.append(var)


def solve_epr(
    vocab: Vocabulary,
    formulas: Iterable[s.Formula | tuple[str, s.Formula]],
    tracked: Iterable[tuple[str, s.Formula]] = (),
) -> EprResult:
    """One-shot convenience wrapper around :class:`EprSolver`."""
    solver = EprSolver(vocab)
    for item in formulas:
        if isinstance(item, tuple):
            solver.add(item[1], name=item[0])
        else:
            solver.add(item)
    for name, formula in tracked:
        solver.add(formula, name=name, track=True)
    return solver.check()
