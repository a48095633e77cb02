"""Ground equality theory, enforced lazily.

The grounding of :mod:`repro.solver.grounding` treats ``=`` as an ordinary
predicate over ground terms, so the equality axioms must be supplied:

* **reflexivity** is folded away during canonicalization (``t = t`` is
  true) and **symmetry** holds because each unordered pair has a single
  variable;
* **transitivity** and **congruence** are enforced *lazily*: a candidate
  SAT model's true equalities induce a union-find quotient; the theory then
  reports refutation clauses for

  - equality atoms assigned false whose endpoints the quotient merged
    (transitivity violations, refuted with a chain of triangle clauses
    along the connecting path),
  - function applications with congruent arguments in different classes,
  - relation atoms with congruent argument tuples but different truth
    values.

Eager per-sort transitivity would be cubic in the ground universe --
transition unrollings of protocols with function state (e.g. the
distributed lock's per-step ``ep`` versions, each contributing ``|node|``
epoch terms) push universes past a hundred terms per sort, where ``n^3``
clauses dominate everything.  Lazily, only the equalities the formula (or
an earlier refutation) actually mentions cost anything.

Termination: every reported clause is violated by the current model and
drawn from a finite space (triples/pairs over the finite universe), so the
CEGAR loop in :mod:`repro.solver.epr` converges.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Mapping

from ..logic import syntax as s
from ..logic.sorts import Sort, Vocabulary
from .cnf import CnfBuilder, term_key


class EqualityTheory:
    """Manages equality reasoning over a ground universe, lazily."""

    def __init__(
        self,
        builder: CnfBuilder,
        vocab: Vocabulary,
        universe: Mapping[Sort, list[s.Term]],
    ) -> None:
        self.builder = builder
        self.vocab = vocab
        self.universe = {sort: list(terms) for sort, terms in universe.items()}
        # The builder's term numbering (universe terms first, in universe
        # order); relation atoms keep their argument numbers so congruence
        # checks compare small ints.
        table = builder.terms
        table.add_universe(self.universe)
        self._terms: list[s.Term] = table.terms
        self._term_index: dict[s.Term, int] = table.index
        # The builder's atoms split by kind, in creation order.  Atoms are
        # only ever added, so each refinement round indexes just the new
        # ones instead of rescanning every relation atom.
        self._eq_atoms: list[tuple[s.Eq, int]] = []
        self._rel_atoms: dict[object, list[tuple[s.Rel, int, tuple[int, ...]]]] = {}
        self._indexed = 0

    def _index_atoms(self) -> None:
        atoms = self.builder.atoms
        if len(atoms) == self._indexed:
            return
        for atom, var in itertools.islice(atoms.items(), self._indexed, None):
            if isinstance(atom, s.Eq):
                self._eq_atoms.append((atom, var))
            elif isinstance(atom, s.Rel):
                ids = tuple(self._term_index[arg] for arg in atom.args)
                self._rel_atoms.setdefault(atom.rel, []).append((atom, var, ids))
        self._indexed = len(atoms)

    # ------------------------------------------------------------- quotient

    def _true_edges(self, model: dict[int, bool]) -> dict[s.Term, list[s.Term]]:
        adjacency: dict[s.Term, list[s.Term]] = {}
        for atom, var in self._eq_atoms:
            if model.get(var, False):
                adjacency.setdefault(atom.lhs, []).append(atom.rhs)
                adjacency.setdefault(atom.rhs, []).append(atom.lhs)
        return adjacency

    def classes(self, model: dict[int, bool]) -> dict[s.Term, s.Term]:
        """Map each universe term to its class representative under ``model``.

        Classes are the connected components of the true-equality graph;
        representatives are the lexicographically least member (by
        :func:`term_key`), making extraction deterministic.
        """
        self._index_atoms()
        adjacency = self._true_edges(model)
        reps: dict[s.Term, s.Term] = {}
        seen: set[s.Term] = set()
        for terms in self.universe.values():
            for term in terms:
                if term in seen:
                    continue
                component = self._component(term, adjacency)
                seen |= component
                rep = min(component, key=term_key)
                for member in component:
                    reps[member] = rep
        # Terms that appear in equality atoms but lie outside the universe
        # cannot exist: atoms are built from universe terms only.
        return reps

    @staticmethod
    def _component(start: s.Term, adjacency) -> set[s.Term]:
        component = {start}
        queue = deque([start])
        while queue:
            term = queue.popleft()
            for neighbor in adjacency.get(term, ()):
                if neighbor not in component:
                    component.add(neighbor)
                    queue.append(neighbor)
        return component

    @staticmethod
    def _parents(start: s.Term, adjacency) -> dict[s.Term, s.Term]:
        """BFS parent pointers from ``start`` over its whole component.

        Each node keeps the parent it is first reached from, so the path a
        search that stopped at some goal would read off is the same as the
        one read from this forest.
        """
        parents: dict[s.Term, s.Term] = {start: start}
        queue = deque([start])
        while queue:
            term = queue.popleft()
            for neighbor in adjacency.get(term, ()):
                if neighbor not in parents:
                    parents[neighbor] = term
                    queue.append(neighbor)
        return parents

    @staticmethod
    def _path(start: s.Term, goal: s.Term, parents) -> list[s.Term]:
        """The path of true equality edges from ``start`` to ``goal``."""
        path = [goal]
        while path[-1] != start:
            path.append(parents[path[-1]])
        path.reverse()
        return path

    # ------------------------------------------------------------ violations

    def congruence_violations(
        self, model: dict[int, bool], reps: dict[s.Term, s.Term]
    ) -> list[list[int]]:
        """Refutation clauses for equality semantics violated by the model."""
        self._index_atoms()
        clauses: list[list[int]] = []
        clauses.extend(self._transitivity_violations(model, reps))
        clauses.extend(self._function_violations(model, reps))
        clauses.extend(self._relation_violations(model, reps))
        return clauses

    def _transitivity_violations(
        self, model: dict[int, bool], reps: dict[s.Term, s.Term]
    ) -> list[list[int]]:
        """False equality atoms whose endpoints the quotient merged.

        Refuted with triangle clauses along the connecting path:
        ``eq(t0,ti-1) & eq(ti-1,ti) -> eq(t0,ti)`` for each prefix, ending
        at the falsified atom.  New intermediate equality variables are
        created on demand.
        """
        clauses: list[list[int]] = []
        adjacency = None
        # One BFS forest per start term per round, shared by every atom
        # with that left-hand side.
        forests: dict[s.Term, dict[s.Term, s.Term]] = {}
        # Atoms minted below by eq_lit are indexed next round, not visited
        # now (and are unassigned in ``model`` anyway).
        for atom, var in self._eq_atoms:
            if model.get(var, False):
                continue
            lhs, rhs = atom.lhs, atom.rhs
            lhs_rep, rhs_rep = reps.get(lhs), reps.get(rhs)
            if (lhs_rep is not rhs_rep and lhs_rep != rhs_rep) or lhs == rhs:
                continue
            if adjacency is None:
                adjacency = self._true_edges(model)
            parents = forests.get(lhs)
            if parents is None:
                parents = forests[lhs] = self._parents(lhs, adjacency)
            path = self._path(lhs, rhs, parents)
            for index in range(2, len(path)):
                prefix = self.builder.eq_lit(path[0], path[index - 1])
                edge = self.builder.eq_lit(path[index - 1], path[index])
                conclusion = self.builder.eq_lit(path[0], path[index])
                clauses.append([-prefix, -edge, conclusion])
        return clauses

    def _function_violations(
        self, model: dict[int, bool], reps: dict[s.Term, s.Term]
    ) -> list[list[int]]:
        clauses: list[list[int]] = []
        for func in self.vocab.proper_functions():
            groups: dict[tuple[s.Term, ...], list[s.App]] = {}
            for term in self.universe[func.sort]:
                if isinstance(term, s.App) and term.func == func:
                    signature = tuple(reps[arg] for arg in term.args)
                    groups.setdefault(signature, []).append(term)
            for members in groups.values():
                anchor = members[0]
                for other in members[1:]:
                    if reps[anchor] == reps[other]:
                        continue
                    clause = [self.builder.eq_lit(anchor, other)]
                    for arg_a, arg_b in zip(anchor.args, other.args):
                        if arg_a != arg_b:
                            clause.append(-self.builder.eq_lit(arg_a, arg_b))
                    clauses.append(clause)
        return clauses

    def _relation_violations(
        self, model: dict[int, bool], reps: dict[s.Term, s.Term]
    ) -> list[list[int]]:
        clauses: list[list[int]] = []
        index = self._term_index
        # Argument classes by number: term number -> its rep's number.
        rep_of = [index[reps[term]] for term in self._terms].__getitem__
        for atoms in self._rel_atoms.values():
            groups: dict[tuple[int, ...], list[tuple[s.Rel, int]]] = {}
            for atom, var, ids in atoms:
                signature = tuple(map(rep_of, ids))
                groups.setdefault(signature, []).append((atom, var))
            for members in groups.values():
                anchor_atom, anchor_var = members[0]
                anchor_value = model.get(anchor_var, False)
                for atom, var in members[1:]:
                    if model.get(var, False) == anchor_value:
                        continue
                    premise = []
                    for arg_a, arg_b in zip(anchor_atom.args, atom.args):
                        if arg_a != arg_b:
                            premise.append(-self.builder.eq_lit(arg_a, arg_b))
                    clauses.append(premise + [-anchor_var, var])
                    clauses.append(premise + [anchor_var, -var])
        return clauses
