"""Compiled evaluation of lazy universal blocks (the MBQI scan).

Each CEGAR round evaluates every lazy block's quantifier-free matrix on
every combination of class representatives, in the candidate quotient
model, and instantiates the combinations that falsify it.  Walking the
formula AST for each combination dominated BMC on the larger protocols, so
:func:`compile_block` turns a block into a Python generator that runs the
whole scan as nested loops over integer representative ids:

* each representative gets an id for the round;
* a relation becomes a set of true id tuples (an int set when unary);
* a function becomes a table from argument ids to the result's id;
* a constant becomes its representative's id.

The generated expression is the matrix itself, connective for connective,
so it evaluates (and short-circuits) exactly like
``EprSolver._eval_in_env``, and the scan yields the falsifying
combinations in ``itertools.product`` order.  Matrices the compiler does
not handle (free variables, unexpected nodes, very deep nesting) return
``None`` and are scanned by the interpreter.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from ..logic import syntax as s

#: Deeper matrices are left to the interpreter: nested parentheses past
#: this depth approach the Python parser's own limits.
MAX_DEPTH = 60


class _NotCompilable(Exception):
    pass


class CompiledBlock(NamedTuple):
    """A lazy block's scan, compiled once and run every round.

    ``scan(domains, rel_tables, func_tables, const_ids, meter, counter)``
    yields the id combinations (one id per block variable, drawn from
    ``domains``) whose instance the round's model falsifies.  The three
    tables follow the order of ``rels``, ``funcs`` and ``consts``, the
    symbols the generated code reads.  ``counter`` is a one-element list
    holding the running count of evaluated combinations; every 256th
    evaluation checks ``meter``'s deadline.
    """

    scan: Callable
    rels: list
    funcs: list
    consts: list


def compile_block(vars_: tuple[s.Var, ...], matrix: s.Formula) -> CompiledBlock | None:
    """Compile a block's scan, or ``None`` when the interpreter must run it."""
    compiler = _Compiler(vars_)
    try:
        expression = compiler.formula(matrix, 0)
    except _NotCompilable:
        return None
    source = compiler.source(expression)
    namespace: dict = {}
    try:
        exec(compile(source, "<mbqi block>", "exec"), namespace)
    except (SyntaxError, RecursionError, MemoryError):
        return None
    return CompiledBlock(
        namespace["scan"], compiler.rels, compiler.funcs, compiler.consts
    )


class _Compiler:
    def __init__(self, vars_: tuple[s.Var, ...]) -> None:
        self.vars = {var: f"v{index}" for index, var in enumerate(vars_)}
        self.rels: list = []
        self.funcs: list = []
        self.consts: list = []
        self._slots: dict = {}

    def _slot(self, kind: list, prefix: str, symbol) -> str:
        key = (prefix, symbol)
        name = self._slots.get(key)
        if name is None:
            name = self._slots[key] = f"{prefix}{len(kind)}"
            kind.append(symbol)
        return name

    def term(self, term: s.Term, depth: int) -> str:
        if depth > MAX_DEPTH:
            raise _NotCompilable
        if isinstance(term, s.Var):
            name = self.vars.get(term)
            if name is None:
                raise _NotCompilable
            return name
        if not isinstance(term, s.App):
            raise _NotCompilable
        if not term.args:
            return self._slot(self.consts, "c", term)
        table = self._slot(self.funcs, "f", term.func)
        return f"{table}[{self._key([self.term(a, depth + 1) for a in term.args])}]"

    @staticmethod
    def _key(args: list[str]) -> str:
        return args[0] if len(args) == 1 else f"({', '.join(args)})"

    def formula(self, formula: s.Formula, depth: int) -> str:
        if depth > MAX_DEPTH:
            raise _NotCompilable
        if isinstance(formula, s.Rel):
            table = self._slot(self.rels, "r", formula.rel)
            if not formula.args:
                return f"(() in {table})"
            args = [self.term(a, depth + 1) for a in formula.args]
            return f"({self._key(args)} in {table})"
        if isinstance(formula, s.Eq):
            lhs = self.term(formula.lhs, depth + 1)
            rhs = self.term(formula.rhs, depth + 1)
            return f"({lhs} == {rhs})"
        if isinstance(formula, s.Not):
            return f"(not {self.formula(formula.arg, depth + 1)})"
        if isinstance(formula, (s.And, s.Or)):
            if not formula.args:
                return "True" if isinstance(formula, s.And) else "False"
            joiner = " and " if isinstance(formula, s.And) else " or "
            parts = [self.formula(a, depth + 1) for a in formula.args]
            return f"({joiner.join(parts)})"
        if isinstance(formula, s.Implies):
            lhs = self.formula(formula.lhs, depth + 1)
            rhs = self.formula(formula.rhs, depth + 1)
            return f"((not {lhs}) or {rhs})"
        if isinstance(formula, s.Iff):
            lhs = self.formula(formula.lhs, depth + 1)
            rhs = self.formula(formula.rhs, depth + 1)
            return f"({lhs} == {rhs})"
        raise _NotCompilable

    def source(self, expression: str) -> str:
        lines = ["def scan(D, R, F, C, meter, counter):"]
        for kind, prefix, table in (
            (self.rels, "r", "R"), (self.funcs, "f", "F"), (self.consts, "c", "C")
        ):
            for index in range(len(kind)):
                lines.append(f"    {prefix}{index} = {table}[{index}]")
        lines.append("    n = counter[0]")
        indent = "    "
        for index in range(len(self.vars)):
            lines.append(f"{indent}for v{index} in D[{index}]:")
            indent += "    "
        combo = ", ".join(f"v{index}" for index in range(len(self.vars)))
        lines += [
            f"{indent}n += 1",
            f"{indent}if not n & 255 and meter is not None:",
            f"{indent}    meter.check_deadline()",
            f"{indent}if not {expression}:",
            f"{indent}    counter[0] = n",
            f"{indent}    yield ({combo},)",
            "    counter[0] = n",
        ]
        return "\n".join(lines) + "\n"
