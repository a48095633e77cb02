"""A small hand-written lexer shared by the formula and RML parsers.

Tokens carry their source position for error reporting.  Comments run from
``#`` to end of line.  Multi-character operators are matched longest-first.
"""

from __future__ import annotations

from dataclasses import dataclass

_PUNCTUATION = (
    ":=",
    "~=",
    "->",
    "<->",
    "(",
    ")",
    "{",
    "}",
    ",",
    ".",
    ":",
    ";",
    "=",
    "&",
    "|",
    "~",
    "*",
)


@dataclass(frozen=True, slots=True)
class Span:
    """A half-open source region ``[start, end)`` in 1-based line/column.

    Spans flow from :class:`Token` through both parsers into the logic and
    RML ASTs (as non-comparing ``span`` fields) so that static analysis can
    point diagnostics at the offending source text.  Spans never affect
    structural equality or hashing of the nodes that carry them.
    """

    line: int
    col: int
    end_line: int
    end_col: int

    def union(self, other: "Span | None") -> "Span":
        """The smallest span covering both operands."""
        if other is None:
            return self
        start = min((self.line, self.col), (other.line, other.col))
        end = max((self.end_line, self.end_col), (other.end_line, other.end_col))
        return Span(start[0], start[1], end[0], end[1])

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


class LexError(Exception):
    """Raised on an unrecognized character; carries its source position."""

    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col
        self.span = Span(line, col, line, col + 1)


@dataclass(frozen=True, slots=True)
class Token:
    kind: str  # "ident", "punct", or "eof"
    text: str
    line: int
    col: int

    @property
    def span(self) -> Span:
        """The source region this token occupies (single line)."""
        return Span(self.line, self.col, self.line, self.col + max(len(self.text), 1))

    def __str__(self) -> str:
        return "end of input" if self.kind == "eof" else repr(self.text)


def tokenize(source: str) -> list[Token]:
    """Split ``source`` into tokens, ending with a single EOF token."""
    tokens: list[Token] = []
    line, col = 1, 1
    i = 0
    length = len(source)
    while i < length:
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < length and source[i] != "\n":
                i += 1
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < length and (source[i].isalnum() or source[i] in "_'"):
                i += 1
            text = source[start:i]
            tokens.append(Token("ident", text, line, col))
            col += len(text)
            continue
        for punct in _PUNCTUATION:
            if source.startswith(punct, i):
                tokens.append(Token("punct", punct, line, col))
                i += len(punct)
                col += len(punct)
                break
        else:
            raise LexError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


class TokenStream:
    """Cursor over a token list with one-token lookahead helpers."""

    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    @property
    def current(self) -> Token:
        return self._tokens[self._pos]

    def at(self, text: str) -> bool:
        return self.current.kind != "eof" and self.current.text == text

    def at_ident(self) -> bool:
        return self.current.kind == "ident"

    def peek(self, offset: int = 1) -> Token:
        index = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def advance(self) -> Token:
        token = self.current
        if token.kind != "eof":
            self._pos += 1
        return token

    def accept(self, text: str) -> bool:
        if self.at(text):
            self.advance()
            return True
        return False

    def expect(self, text: str) -> Token:
        if not self.at(text):
            raise ParseError(f"expected {text!r}, found {self.current}", self.current)
        return self.advance()

    def expect_ident(self, description: str = "identifier") -> Token:
        if self.current.kind != "ident":
            raise ParseError(f"expected {description}, found {self.current}", self.current)
        return self.advance()

    def expect_eof(self) -> None:
        if self.current.kind != "eof":
            raise ParseError(f"trailing input: {self.current}", self.current)


class ParseError(Exception):
    """A syntax or sort-resolution error with source position.

    The raw message, the offending token, and its :class:`Span` are kept as
    attributes (``bare_message``, ``token``, ``span``) so callers --
    notably the diagnostics engine in :mod:`repro.analysis` -- can render
    the error with a source excerpt instead of reparsing ``str(error)``.
    """

    def __init__(self, message: str, token: Token | None = None) -> None:
        self.bare_message = message
        self.token = token
        self.span: Span | None = token.span if token is not None else None
        if token is not None:
            message = f"{message} (line {token.line}, column {token.col})"
        super().__init__(message)
