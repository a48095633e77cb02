"""A CDCL SAT solver.

The paper relies on Z3 to decide EPR satisfiability; since this reproduction
is dependency-free, the decision procedure bottoms out in this solver.  It is
a conflict-driven clause-learning solver with the standard ingredients:

* two-watched-literal unit propagation;
* first-UIP conflict analysis with clause learning, learned-clause
  minimization and non-chronological backjumping;
* VSIDS-style variable activities with exponential decay and phase saving;
* Luby-sequence restarts;
* learned-clause database reduction by activity;
* incremental solving under *assumptions*, returning a failed-assumption set
  (the unsat core used by the auto-generalizer, Section 4.5).

Variables are positive integers handed out by :meth:`Solver.new_var`;
literals are signed integers (``-v`` is the negation of ``v``).  Assumptions
are handled MiniSat-style: they are asserted as the first decisions; when an
assumption turns out false, :meth:`Solver.solve` reports unsat together with
the subset of assumptions responsible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .. import obs
from ..obs import profile
from ..recovery import heartbeat
from .budget import BudgetMeter

_UNASSIGNED = 0
_TRUE = 1
_FALSE = -1


@dataclass(eq=False, slots=True)
class _Clause:
    lits: list[int]
    learned: bool = False
    activity: float = 0.0


class _VarHeap:
    """Max-heap over variables keyed by activity (MiniSat's order heap).

    Supports lazy membership: variables are re-inserted on backtracking and
    assigned variables popped off are simply skipped.  The solver's
    ``_backtrack`` and ``_decide`` inline insertion and popping on
    ``_heap``/``_position``; ``_position[var]`` is -1 off the heap.
    """

    def __init__(self, activity: list[float]) -> None:
        self._activity = activity
        self._heap: list[int] = []
        self._position: list[int] = [-1]  # 1-indexed by variable

    def register_var(self) -> None:
        self._position.append(-1)

    def push(self, var: int) -> None:
        if self._position[var] >= 0:
            return
        self._heap.append(var)
        self._position[var] = len(self._heap) - 1
        self._sift_up(len(self._heap) - 1)

    def update(self, var: int) -> None:
        """Re-establish heap order after ``var``'s activity increased."""
        if self._position[var] >= 0:
            self._sift_up(self._position[var])

    def _sift_up(self, index: int) -> None:
        heap, pos, act = self._heap, self._position, self._activity
        var = heap[index]
        key = act[var]
        while index > 0:
            parent = (index - 1) >> 1
            parent_var = heap[parent]
            if act[parent_var] >= key:
                break
            heap[index] = parent_var
            pos[parent_var] = index
            index = parent
        heap[index] = var
        pos[var] = index


@dataclass(frozen=True)
class SatResult:
    """Outcome of a :meth:`Solver.solve` call.

    ``model`` maps every variable to a boolean when satisfiable.  ``core`` is
    a subset of the assumption literals sufficient for unsatisfiability when
    unsat (empty when the formula is unsatisfiable outright).
    """

    satisfiable: bool
    model: dict[int, bool] = field(default_factory=dict)
    core: frozenset[int] = frozenset()

    def __bool__(self) -> bool:
        return self.satisfiable


class Solver:
    """An incremental CDCL SAT solver."""

    def __init__(self) -> None:
        self._num_vars = 0
        self._clauses: list[_Clause] = []
        self._learned: list[_Clause] = []
        # Indexed by *literal*: ``_values[lit]`` is the literal's value.
        # Negative literals use Python's negative indexing, so the list
        # keeps ``2 * capacity + 1`` slots and is regrown (rebuilt) when
        # variables outgrow it; ``_values[var]`` is the variable's value.
        self._values: list[int] = [_UNASSIGNED] * 33
        # Watch lists, indexed by literal the same way (None: no list yet).
        self._watches: list[list[_Clause] | None] = [None] * 33
        self._capacity = 16
        self._levels: list[int] = [0]
        self._reasons: list[_Clause | None] = [None]
        self._activity: list[float] = [0.0]
        self._polarity: list[bool] = [False]  # phase saving
        self._seen: list[bool] = [False]  # scratch for conflict analysis
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._propagate_head = 0
        self._var_inc = 1.0
        self._var_decay = 0.95
        self._cla_inc = 1.0
        self._cla_decay = 0.999
        self._order = _VarHeap(self._activity)
        self._unsat = False
        self.statistics = {"conflicts": 0, "decisions": 0, "propagations": 0, "restarts": 0}

    # ------------------------------------------------------------ interface

    @property
    def num_vars(self) -> int:
        return self._num_vars

    def new_var(self) -> int:
        self._num_vars += 1
        if self._num_vars > self._capacity:
            self._grow()
        self._levels.append(0)
        self._reasons.append(None)
        self._activity.append(0.0)
        self._polarity.append(False)
        self._seen.append(False)
        self._order.register_var()
        self._order.push(self._num_vars)
        return self._num_vars

    def _grow(self) -> None:
        old_values, old_watches = self._values, self._watches
        capacity = self._capacity
        self._capacity = 2 * capacity
        values = [_UNASSIGNED] * (2 * self._capacity + 1)
        watches: list[list[_Clause] | None] = [None] * (2 * self._capacity + 1)
        for var in range(1, capacity + 1):
            values[var] = old_values[var]
            values[-var] = old_values[-var]
            watches[var] = old_watches[var]
            watches[-var] = old_watches[-var]
        self._values = values
        self._watches = watches

    def add_clause(self, lits: Iterable[int]) -> None:
        """Add a clause; duplicates are merged and tautologies dropped."""
        if self._unsat:
            return
        if self._trail_lim:
            self._backtrack(0)
        values = self._values
        num_vars = self._num_vars
        unique: list[int] = []
        seen: set[int] = set()
        for lit in lits:
            var = lit if lit > 0 else -lit
            if not 1 <= var <= num_vars:
                raise ValueError(f"unknown variable in literal {lit}")
            if -lit in seen:
                return  # tautology
            if lit in seen:
                continue
            seen.add(lit)
            value = values[lit]
            if value == _TRUE:
                return  # already satisfied at level 0
            if value == _FALSE:
                continue  # falsified at level 0: drop the literal
            unique.append(lit)
        if not unique:
            self._unsat = True
            return
        if len(unique) == 1:
            if not self._enqueue(unique[0], None) or self._propagate() is not None:
                self._unsat = True
            return
        clause = _Clause(unique)
        self._clauses.append(clause)
        self._watch(clause)

    def add_clauses(self, clauses: Iterable[Iterable[int]]) -> None:
        for clause in clauses:
            self.add_clause(clause)

    def solve(
        self, assumptions: Sequence[int] = (), meter: BudgetMeter | None = None
    ) -> SatResult:
        """Decide satisfiability under the given assumption literals.

        ``meter`` enables cooperative budget enforcement: every conflict
        and decision is charged against it, and it raises
        :class:`~repro.solver.budget.BudgetExceeded` when the conflict/
        decision cap or the wall-clock deadline is crossed.  The solver is
        left in a consistent state (the next ``solve`` backtracks to the
        root), so a budget-exceeded search can be retried or abandoned.
        """
        if not obs.enabled():
            with profile.phase("sat"):
                return self._solve(assumptions, meter)
        before = self.statistics["conflicts"]
        with profile.phase("sat"):
            result = self._solve(assumptions, meter)
        obs.point(
            "sat.solve",
            verdict="sat" if result.satisfiable else "unsat",
            conflicts=self.statistics["conflicts"] - before,
            vars=self._num_vars,
        )
        return result

    def _solve(
        self, assumptions: Sequence[int] = (), meter: BudgetMeter | None = None
    ) -> SatResult:
        for lit in assumptions:
            if not 1 <= abs(lit) <= self._num_vars:
                raise ValueError(f"unknown variable in assumption {lit}")
        if self._unsat:
            return SatResult(False)
        self._backtrack(0)
        if self._propagate() is not None:
            self._unsat = True
            return SatResult(False)
        restart_count = 1
        conflicts_until_restart = _luby(restart_count) * 64
        conflict_count = 0
        max_learned = max(2000, len(self._clauses) // 2)
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.statistics["conflicts"] += 1
                conflict_count += 1
                heartbeat.beat()  # liveness for the pool watchdog
                if meter is not None:
                    meter.charge_conflict()
                if self._decision_level() == 0:
                    self._unsat = True
                    return SatResult(False)
                learned, backjump = self._analyze(conflict)
                self._backtrack(backjump)
                self._learn(learned)
                self._decay_activities()
                if conflict_count >= conflicts_until_restart:
                    conflict_count = 0
                    restart_count += 1
                    conflicts_until_restart = _luby(restart_count) * 64
                    self.statistics["restarts"] += 1
                    self._backtrack(0)
                if len(self._learned) > max_learned:
                    self._reduce_learned()
                    max_learned = int(max_learned * 1.3)
                continue
            level = self._decision_level()
            if level < len(assumptions):
                # Assert the next assumption as a decision.
                lit = assumptions[level]
                value = self._value(lit)
                if value == _TRUE:
                    # Already implied; open a dummy level to keep alignment.
                    self._new_decision_level()
                    continue
                if value == _FALSE:
                    core = self._analyze_final(lit)
                    self._backtrack(0)
                    return SatResult(False, core=frozenset(core))
                self._new_decision_level()
                self._enqueue(lit, None)
                continue
            lit = self._decide()
            if lit is None:
                model = dict(
                    zip(
                        range(1, self._num_vars + 1),
                        map(_TRUE.__eq__, self._values[1 : self._num_vars + 1]),
                    )
                )
                self._backtrack(0)
                return SatResult(True, model=model)
            self.statistics["decisions"] += 1
            if self.statistics["decisions"] % 2048 == 0:
                heartbeat.beat()  # conflict-free search must still look alive
            if meter is not None:
                meter.charge_decision()
            self._new_decision_level()
            self._enqueue(lit, None)

    # ------------------------------------------------------------ internals

    def _value(self, lit: int) -> int:
        return self._values[lit]

    def _decision_level(self) -> int:
        return len(self._trail_lim)

    def _new_decision_level(self) -> None:
        self._trail_lim.append(len(self._trail))

    def _watch(self, clause: _Clause) -> None:
        watches = self._watches
        for lit in (-clause.lits[0], -clause.lits[1]):
            watch = watches[lit]
            if watch is None:
                watches[lit] = [clause]
            else:
                watch.append(clause)

    def _enqueue(self, lit: int, reason: _Clause | None) -> bool:
        value = self._value(lit)
        if value == _FALSE:
            return False
        if value == _TRUE:
            return True
        var = abs(lit)
        self._values[lit] = _TRUE
        self._values[-lit] = _FALSE
        self._levels[var] = self._decision_level()
        self._reasons[var] = reason
        self._polarity[var] = lit > 0
        self._trail.append(lit)
        return True

    def _propagate(self) -> _Clause | None:
        # The hot loop of the solver: literal values and enqueueing are
        # inlined (same order of operations as ``_value``/``_enqueue``).
        trail = self._trail
        head = self._propagate_head
        if head >= len(trail):
            return None
        values = self._values
        watches = self._watches
        levels = self._levels
        reasons = self._reasons
        polarity = self._polarity
        level = len(self._trail_lim)
        propagated = 0
        conflict: _Clause | None = None
        while head < len(trail):
            lit = trail[head]
            head += 1
            propagated += 1
            watchers = watches[lit]
            if not watchers:
                continue
            false_lit = -lit
            still_watching: list[_Clause] = []
            keep = still_watching.append
            # Appends made below go to other literals' lists, never to
            # ``watchers`` (a clause's literals are distinct), so it can be
            # iterated directly.  Values are compared as the literals 1
            # (_TRUE) and -1 (_FALSE).
            for clause in watchers:
                lits = clause.lits
                first = lits[0]
                if first == false_lit:
                    first = lits[1]
                    lits[0] = first
                    lits[1] = false_lit
                value = values[first]
                if value == 1:
                    keep(clause)
                    continue
                if len(lits) > 2:
                    for slot in range(2, len(lits)):
                        other = lits[slot]
                        if values[other] != -1:
                            lits[slot] = lits[1]
                            lits[1] = other
                            watch = watches[-other]
                            if watch is None:
                                watches[-other] = [clause]
                            else:
                                watch.append(clause)
                            break
                    else:
                        other = 0
                    if other:
                        continue  # the clause now watches ``other``
                keep(clause)
                if value == -1:
                    conflict = clause
                    still_watching.extend(watchers[watchers.index(clause) + 1 :])
                    break
                values[first] = 1
                values[-first] = -1
                var = first if first > 0 else -first
                levels[var] = level
                reasons[var] = clause
                polarity[var] = first > 0
                trail.append(first)
            watches[lit] = still_watching
            if conflict is not None:
                self.statistics["propagations"] += propagated
                self._propagate_head = len(trail)
                return conflict
        self.statistics["propagations"] += propagated
        self._propagate_head = head
        return None

    def _analyze(self, conflict: _Clause) -> tuple[list[int], int]:
        """First-UIP conflict analysis: (learned clause, backjump level)."""
        learned: list[int] = [0]  # slot 0 reserved for the asserting literal
        seen = self._seen
        counter = 0
        lit = 0
        clause: _Clause | None = conflict
        index = len(self._trail) - 1
        level = self._decision_level()
        touched: list[int] = []
        while True:
            assert clause is not None, "decision literal reached before UIP"
            self._bump_clause(clause)
            for reason_lit in clause.lits:
                if reason_lit == lit:
                    continue
                var = abs(reason_lit)
                if not seen[var] and self._levels[var] > 0:
                    seen[var] = True
                    touched.append(var)
                    self._bump_var(var)
                    if self._levels[var] >= level:
                        counter += 1
                    else:
                        learned.append(reason_lit)
            while True:
                trail_lit = self._trail[index]
                index -= 1
                if seen[abs(trail_lit)]:
                    break
            lit = -trail_lit
            counter -= 1
            clause = self._reasons[abs(trail_lit)]
            if counter == 0:
                break
        learned[0] = lit
        learned = self._minimize_learned(learned)
        for var in touched:
            seen[var] = False
        if len(learned) == 1:
            return learned, 0
        backjump = 0
        swap_index = 1
        for position in range(1, len(learned)):
            var_level = self._levels[abs(learned[position])]
            if var_level > backjump:
                backjump = var_level
                swap_index = position
        learned[1], learned[swap_index] = learned[swap_index], learned[1]
        return learned, backjump

    def _minimize_learned(self, learned: list[int]) -> list[int]:
        """Drop literals whose reason clauses lie entirely inside the clause."""
        seen = self._seen
        kept = [learned[0]]
        for lit in learned[1:]:
            reason = self._reasons[abs(lit)]
            if reason is None:
                kept.append(lit)
                continue
            redundant = all(
                abs(other) == abs(lit)
                or seen[abs(other)]
                or self._levels[abs(other)] == 0
                for other in reason.lits
            )
            if not redundant:
                kept.append(lit)
        return kept

    def _analyze_final(self, failed: int) -> set[int]:
        """Assumptions responsible for the next assumption being false.

        ``failed`` is the assumption literal found falsified.  Walks the
        implication graph from ``-failed`` back to decision literals, which
        at this point in the search are all assumptions.
        """
        core: set[int] = {failed}
        var = abs(failed)
        if self._levels[var] == 0:
            return core
        marked = {var}
        for trail_lit in reversed(self._trail):
            trail_var = abs(trail_lit)
            if trail_var not in marked:
                continue
            reason = self._reasons[trail_var]
            if reason is None:
                core.add(trail_lit)
            else:
                for other in reason.lits:
                    other_var = abs(other)
                    if other_var != trail_var and self._levels[other_var] > 0:
                        marked.add(other_var)
        return core

    def _backtrack(self, level: int) -> None:
        trail_lim = self._trail_lim
        if len(trail_lim) <= level:
            return
        boundary = trail_lim[level]
        trail = self._trail
        values = self._values
        # Reasons are only read for assigned variables, so they are left
        # as they are.  Unassigned variables go back on the order heap
        # (``_VarHeap.push`` inlined: this runs for every literal ever
        # undone).
        heap = self._order._heap
        position = self._order._position
        activity = self._activity
        for trail_index in range(len(trail) - 1, boundary - 1, -1):
            lit = trail[trail_index]
            values[lit] = 0  # _UNASSIGNED
            values[-lit] = 0
            var = lit if lit > 0 else -lit
            if position[var] >= 0:
                continue
            index = len(heap)
            heap.append(var)
            key = activity[var]
            while index > 0:
                parent = (index - 1) >> 1
                parent_var = heap[parent]
                if activity[parent_var] >= key:
                    break
                heap[index] = parent_var
                position[parent_var] = index
                index = parent
            heap[index] = var
            position[var] = index
        del trail[boundary:]
        del trail_lim[level:]
        if self._propagate_head > len(trail):
            self._propagate_head = len(trail)

    def _decide(self) -> int | None:
        # Pops the most active variable, skipping assigned ones
        # (``_VarHeap.pop`` inlined).
        values = self._values
        heap = self._order._heap
        position = self._order._position
        activity = self._activity
        while heap:
            var = heap[0]
            last = heap.pop()
            position[var] = -1
            if heap:
                size = len(heap)
                index = 0
                key = activity[last]
                while True:
                    child = 2 * index + 1
                    if child >= size:
                        break
                    if child + 1 < size and activity[heap[child + 1]] > activity[heap[child]]:
                        child += 1
                    child_var = heap[child]
                    if key >= activity[child_var]:
                        break
                    heap[index] = child_var
                    position[child_var] = index
                    index = child
                heap[index] = last
                position[last] = index
            if values[var] == _UNASSIGNED:
                return var if self._polarity[var] else -var
        return None

    def _learn(self, lits: list[int]) -> None:
        if len(lits) == 1:
            self._enqueue(lits[0], None)
            return
        clause = _Clause(list(lits), learned=True, activity=self._cla_inc)
        self._learned.append(clause)
        self._watch(clause)
        self._enqueue(lits[0], clause)

    def _bump_var(self, var: int) -> None:
        self._activity[var] += self._var_inc
        if self._activity[var] > 1e100:
            for index in range(1, self._num_vars + 1):
                self._activity[index] *= 1e-100
            self._var_inc *= 1e-100
        self._order.update(var)

    def _bump_clause(self, clause: _Clause) -> None:
        if not clause.learned:
            return
        clause.activity += self._cla_inc
        if clause.activity > 1e20:
            for learned in self._learned:
                learned.activity *= 1e-20
            self._cla_inc *= 1e-20

    def _decay_activities(self) -> None:
        self._var_inc /= self._var_decay
        self._cla_inc /= self._cla_decay

    def _reduce_learned(self) -> None:
        """Drop the less active half of the learned clauses."""
        locked = {
            id(self._reasons[abs(lit)])
            for lit in self._trail
            if self._reasons[abs(lit)] is not None
        }
        self._learned.sort(key=lambda c: c.activity)
        half = len(self._learned) // 2
        dropped_ids = {
            id(c)
            for c in self._learned[:half]
            if id(c) not in locked and len(c.lits) > 2
        }
        if not dropped_ids:
            return
        self._learned = [c for c in self._learned if id(c) not in dropped_ids]
        watches = self._watches
        for index, watch in enumerate(watches):
            if watch:
                watches[index] = [c for c in watch if id(c) not in dropped_ids]


def _luby(index: int) -> int:
    """The Luby restart sequence (1-based): 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ..."""
    position = index - 1  # the classic formulation is 0-based
    size, seq = 1, 0
    while size < position + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != position:
        size = (size - 1) // 2
        seq -= 1
        position %= size
    return 1 << seq
