"""Concrete syntax for RML programs.

The paper presents RML models as programs of the Figure 1 shape: sorted
declarations, axioms, an initialization block, and a nondeterministic loop
that asserts the safety properties and then chooses an operation.  This
parser accepts exactly that shape::

    program leader_election

    sort node
    sort id

    relation le : id, id
    relation leader : node
    function idn : node -> id
    variable n : node

    axiom unique_ids: forall N1, N2. N1 ~= N2 -> idn(N1) ~= idn(N2)

    init {
        assume forall X:node. ~leader(X);
    }

    safety single_leader: forall N1, N2. leader(N1) & leader(N2) -> N1 = N2

    action send {
        havoc n;
        insert pnd(idn(n), m);
    }

The loop body is ``assert <each safety>; (action_1 | ... | action_k)``,
matching Figure 1's structure (the safety assertion at the loop head, then
the nondeterministic choice of operations).  Statements::

    skip;  abort;
    assume <formula-EA>;                assert [<label>:] <formula-AE>;
    havoc <variable>;    <variable> := *;    <variable> := <term>;
    insert r(t1, ..);    remove r(t1, ..);
    update r(X, Y) := <QF formula over X, Y>;
    update f(X) := <term over X>;
    f(t1, ..) := <term>;                # point update (Figure 12 sugar)
    if <formula-AF> { ... } [else { ... }];
    either { ... } or { ... } [or { ... }];     # nondeterministic choice

Formulas use the syntax of :mod:`repro.logic.parser`; an optional ``final``
block gives ``C_final``.  The result is a fully checked
:class:`repro.rml.ast.Program`.
"""

from __future__ import annotations

from ..logic import syntax as s
from ..logic.lexer import ParseError, Token, TokenStream, tokenize
from ..logic.parser import _Elaborator, _FormulaParser, _Scope
from ..logic.sorts import FuncDecl, RelDecl, Sort, Vocabulary
from .ast import (
    Abort,
    Assume,
    Axiom,
    Command,
    Havoc,
    Invariant,
    Program,
    ProofDecl,
    Skip,
    UpdateFunc,
    UpdateRel,
    choice,
    seq,
)
from ..logic.lexer import Span
from .sugar import SugarError, assert_, assign, if_, insert, remove
from .typecheck import check_program


def _spanned(command: Command, span: Span) -> Command:
    """Attach ``span`` to a freshly built command (in place, frozen or not)."""
    if getattr(command, "span", None) is None:
        object.__setattr__(command, "span", span)
    return command


class _ProgramParser:
    def __init__(self, source: str, check: bool = True) -> None:
        self.stream = TokenStream(tokenize(source))
        self.check = check
        self.name = "program"
        self.sorts: list[Sort] = []
        self.relations: list[RelDecl] = []
        self.functions: list[FuncDecl] = []
        self.axioms: list[Axiom] = []
        self.safeties: list[tuple[str, s.Formula, Span]] = []
        self.invariants: list[Invariant] = []
        self.proofs: list[ProofDecl] = []
        self.decl_spans: dict[str, Span] = {}
        self.init_command: Command = Skip()
        self.final_command: Command = Skip()
        self.actions: list[tuple[str, Command]] = []
        self._vocab: Vocabulary | None = None

    # ------------------------------------------------------------- helpers

    @property
    def vocab(self) -> Vocabulary:
        if self._vocab is None:
            self._vocab = Vocabulary(
                tuple(self.sorts), tuple(self.relations), tuple(self.functions)
            )
        return self._vocab

    def _invalidate(self) -> None:
        self._vocab = None

    def _sort(self, token: Token) -> Sort:
        sort = Sort(token.text)
        if sort not in self.sorts:
            raise ParseError(f"unknown sort {token.text!r}", token)
        return sort

    def _sort_list(self) -> list[Sort]:
        sorts = [self._sort(self.stream.expect_ident("sort"))]
        while self.stream.accept(","):
            sorts.append(self._sort(self.stream.expect_ident("sort")))
        return sorts

    def _formula(self, free: dict[str, Sort] | None = None) -> s.Formula:
        parser = _FormulaParser(self.stream)
        tree = parser.formula()
        elaborator = _Elaborator(self.vocab, dict(free or {}))
        elaborator._quant_slots = {}
        scope = _Scope({})
        elaborator.infer(tree, scope)
        return elaborator.build(tree, scope)

    def _term(self, free: dict[str, Sort] | None = None) -> s.Term:
        parser = _FormulaParser(self.stream)
        tree = parser.term()
        elaborator = _Elaborator(self.vocab, dict(free or {}))
        elaborator._quant_slots = {}
        scope = _Scope({})
        elaborator.infer_term(tree, None, scope)
        return elaborator.build_term(tree, scope)

    # ---------------------------------------------------------- top level

    def parse(self) -> Program:
        stream = self.stream
        if stream.at_ident() and stream.current.text == "program":
            stream.advance()
            self.name = stream.expect_ident("program name").text
        while stream.current.kind != "eof":
            token = stream.current
            word = token.text
            if word == "sort":
                stream.advance()
                ident = stream.expect_ident("sort name")
                self.sorts.append(Sort(ident.text))
                self.decl_spans[ident.text] = ident.span
                self._invalidate()
            elif word == "relation":
                stream.advance()
                ident = stream.expect_ident("relation name")
                arg_sorts: list[Sort] = []
                if stream.accept(":"):
                    arg_sorts = self._sort_list()
                self.relations.append(RelDecl(ident.text, tuple(arg_sorts)))
                self.decl_spans[ident.text] = ident.span
                self._invalidate()
            elif word == "function":
                stream.advance()
                ident = stream.expect_ident("function name")
                stream.expect(":")
                arg_sorts = self._sort_list()
                stream.expect("->")
                result = self._sort(stream.expect_ident("sort"))
                self.functions.append(FuncDecl(ident.text, tuple(arg_sorts), result))
                self.decl_spans[ident.text] = ident.span
                self._invalidate()
            elif word == "variable":
                stream.advance()
                ident = stream.expect_ident("variable name")
                stream.expect(":")
                sort = self._sort(stream.expect_ident("sort"))
                self.functions.append(FuncDecl(ident.text, (), sort))
                self.decl_spans[ident.text] = ident.span
                self._invalidate()
            elif word == "axiom":
                stream.advance()
                ident = stream.expect_ident("axiom name")
                stream.expect(":")
                self.axioms.append(Axiom(ident.text, self._formula(), span=ident.span))
            elif word == "safety":
                stream.advance()
                ident = stream.expect_ident("safety name")
                stream.expect(":")
                self.safeties.append((ident.text, self._formula(), ident.span))
            elif word == "invariant":
                stream.advance()
                ident = stream.expect_ident("invariant name")
                stream.expect(":")
                self.invariants.append(
                    Invariant(ident.text, self._formula(), span=ident.span)
                )
            elif word == "proof":
                stream.advance()
                self.proofs.append(self._proof_decl())
            elif word == "init":
                stream.advance()
                self.init_command = self._block()
            elif word == "final":
                stream.advance()
                self.final_command = self._block()
            elif word == "action":
                stream.advance()
                name = stream.expect_ident("action name").text
                self.actions.append((name, self._block()))
            else:
                raise ParseError(f"unexpected declaration {token}", token)
        return self._build(check=self.check)

    def _proof_decl(self) -> ProofDecl:
        """``proof <name> proves <inv, ...> [with <lemma, ...>]``."""
        stream = self.stream
        ident = stream.expect_ident("proof name")
        keyword = stream.expect_ident("'proves'")
        if keyword.text != "proves":
            raise ParseError("expected 'proves' after proof name", keyword)
        proves, prove_spans = self._name_list("invariant name")
        uses: list[str] = []
        use_spans: list[Span | None] = []
        if stream.at_ident() and stream.current.text == "with":
            stream.advance()
            uses, use_spans = self._name_list("lemma name")
        return ProofDecl(
            ident.text,
            tuple(proves),
            tuple(uses),
            span=ident.span,
            prove_spans=tuple(prove_spans),
            use_spans=tuple(use_spans),
        )

    def _name_list(self, what: str) -> tuple[list[str], list[Span | None]]:
        names: list[str] = []
        spans: list[Span | None] = []
        token = self.stream.expect_ident(what)
        names.append(token.text)
        spans.append(token.span)
        while self.stream.accept(","):
            token = self.stream.expect_ident(what)
            names.append(token.text)
            spans.append(token.span)
        return names, spans

    def _build(self, check: bool = True) -> Program:
        asserts = []
        for name, formula, span in self.safeties:
            try:
                asserts.append(_spanned(assert_(formula, label=name), span))
            except SugarError as error:
                raise ParseError(
                    f"safety {name!r}: {error}",
                    Token("ident", name, span.line, span.col),
                ) from error
        if len(self.actions) > 1:
            labels = tuple(name for name, _ in self.actions)
            body = seq(*asserts, choice(*(c for _, c in self.actions), labels=labels))
        elif self.actions:
            body = seq(*asserts, self.actions[0][1])
        else:
            body = seq(*asserts)
        program = Program(
            name=self.name,
            vocab=self.vocab,
            axioms=tuple(self.axioms),
            init=self.init_command,
            body=body,
            final=self.final_command,
            invariants=tuple(self.invariants),
            proofs=tuple(self.proofs),
            decl_spans=dict(self.decl_spans),
        )
        if check:
            check_program(program)
        return program

    # ------------------------------------------------------------- blocks

    def _block(self) -> Command:
        opening = self.stream.expect("{")
        commands: list[Command] = []
        while not self.stream.at("}"):
            commands.append(self._statement())
            self.stream.expect(";")
        self.stream.expect("}")
        return _spanned(seq(*commands), opening.span)

    def _statement(self) -> Command:
        token = self.stream.current
        try:
            command = self._statement_inner()
        except SugarError as error:
            raise ParseError(str(error), token) from error
        return _spanned(command, token.span)

    def _statement_inner(self) -> Command:
        stream = self.stream
        token = stream.current
        word = token.text
        if word == "skip":
            stream.advance()
            return Skip()
        if word == "abort":
            stream.advance()
            return Abort()
        if word == "assume":
            stream.advance()
            return Assume(self._formula())
        if word == "assert":
            stream.advance()
            label = None
            if stream.at_ident() and stream.peek().text == ":":
                label = stream.advance().text
                stream.advance()
            return assert_(self._formula(), label=label)
        if word == "havoc":
            stream.advance()
            name = stream.expect_ident("variable name")
            decl = self.vocab.get(name.text)
            if not isinstance(decl, FuncDecl) or not decl.is_constant:
                raise ParseError(f"{name.text!r} is not a program variable", name)
            return Havoc(decl)
        if word in ("insert", "remove"):
            stream.advance()
            name = stream.expect_ident("relation name")
            decl = self.vocab.get(name.text)
            if not isinstance(decl, RelDecl):
                raise ParseError(f"{name.text!r} is not a relation", name)
            args: list[s.Term] = []
            if decl.arity:
                stream.expect("(")
                args.append(self._term())
                while stream.accept(","):
                    args.append(self._term())
                stream.expect(")")
            ctor = insert if word == "insert" else remove
            return ctor(decl, *args)
        if word == "update":
            stream.advance()
            return self._bulk_update()
        if word == "if":
            stream.advance()
            condition = self._formula()
            then = self._block()
            otherwise: Command = Skip()
            if stream.at_ident() and stream.current.text == "else":
                stream.advance()
                otherwise = self._block()
            return if_(condition, then, otherwise)
        if word == "either":
            stream.advance()
            branches = [self._block()]
            while stream.at_ident() and stream.current.text == "or":
                stream.advance()
                branches.append(self._block())
            if len(branches) < 2:
                raise ParseError("'either' needs at least one 'or' branch", token)
            return choice(*branches)
        # Assignment forms: v := term / v := * / f(t, ..) := term.
        name = stream.expect_ident("statement")
        decl = self.vocab.get(name.text)
        if not isinstance(decl, FuncDecl):
            raise ParseError(
                f"unknown statement or assignable symbol {name.text!r}", name
            )
        args: list[s.Term] = []
        if stream.at("("):
            stream.expect("(")
            args.append(self._term())
            while stream.accept(","):
                args.append(self._term())
            stream.expect(")")
        stream.expect(":=")
        if stream.at("*"):
            stream.advance()
            if args:
                raise ParseError("':= *' (havoc) applies to program variables", name)
            return Havoc(decl)
        value = self._term()
        return assign(decl, tuple(args), value)

    def _bulk_update(self) -> Command:
        stream = self.stream
        name = stream.expect_ident("relation or function name")
        decl = self.vocab.get(name.text)
        if decl is None:
            raise ParseError(f"unknown symbol {name.text!r}", name)
        params: list[s.Var] = []
        arg_sorts = decl.arg_sorts
        if not arg_sorts:
            # Optional empty parens: ``update r() := phi``.
            if stream.accept("("):
                stream.expect(")")
        if arg_sorts:
            stream.expect("(")
            index = 0
            while True:
                param = stream.expect_ident("parameter variable")
                if param.text in self.vocab:
                    raise ParseError(
                        f"update parameter {param.text!r} shadows a declared symbol",
                        param,
                    )
                if index >= len(arg_sorts):
                    raise ParseError(f"too many parameters for {name.text!r}", param)
                params.append(s.Var(param.text, arg_sorts[index]))
                index += 1
                if not stream.accept(","):
                    break
            stream.expect(")")
            if len(params) != len(arg_sorts):
                raise ParseError(f"too few parameters for {name.text!r}", name)
        stream.expect(":=")
        free = {var.name: var.sort for var in params}
        if isinstance(decl, RelDecl):
            formula = self._formula(free)
            return UpdateRel(decl, tuple(params), formula)
        term = self._term(free)
        return UpdateFunc(decl, tuple(params), term)


def parse_program(source: str, check: bool = True) -> Program:
    """Parse (and, unless ``check=False``, typecheck) an RML program.

    With ``check=False`` the program is returned as parsed so that callers
    like ``repro lint`` can run the collect-all diagnostics pass
    (:func:`repro.rml.typecheck.program_diagnostics`) themselves instead of
    stopping at the first :class:`~repro.rml.typecheck.ProgramError`.
    """
    return _ProgramParser(source, check=check).parse()
