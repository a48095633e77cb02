"""Multi-error diagnostics with source spans.

The analysis subsystem reports problems the way a compiler does: every
diagnostic carries a stable code (``RML001``...), a severity, an optional
:class:`~repro.logic.lexer.Span` pointing into the source text, and a chain
of notes adding provenance (e.g. the edges of a quantifier-alternation
cycle).  Collect-all is the design center -- checkers append to a
:class:`Diagnostics` sink and keep going, so one run of ``repro lint``
surfaces every violation instead of the first.

The code registry below is the single source of truth for default
severities and the one-line rule descriptions used by the SARIF backend and
the README.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, replace
from typing import Iterable, Iterator

from ..logic.lexer import Span


class Severity(enum.IntEnum):
    """Diagnostic severity; lower values sort first (most severe)."""

    ERROR = 0
    WARNING = 1
    NOTE = 2

    @property
    def label(self) -> str:
        return self.name.lower()


#: code -> (default severity, one-line rule description)
CODES: dict[str, tuple[Severity, str]] = {
    # Parse-level failures surfaced through the diagnostics pipeline.
    "RML000": (Severity.ERROR, "syntax error"),
    # Well-formedness (Sections 3.1/3.3 restrictions; previously raise-on-first).
    "RML001": (Severity.ERROR, "function symbols are not stratified"),
    "RML002": (Severity.ERROR, "formula must be closed"),
    "RML003": (Severity.ERROR, "formula is not exists*forall*"),
    "RML004": (Severity.ERROR, "relation update right-hand side is not quantifier free"),
    "RML005": (Severity.ERROR, "update right-hand side has stray free variables"),
    "RML006": (Severity.ERROR, "symbol is not in the program vocabulary"),
    "RML007": (Severity.ERROR, "update of an undeclared symbol"),
    "RML008": (Severity.ERROR, "ite condition is not quantifier free"),
    "RML009": (Severity.ERROR, "havoc of an undeclared program variable"),
    # Lints (suspicious but not fragment-breaking).
    "RML101": (Severity.WARNING, "unused sort"),
    "RML102": (Severity.WARNING, "unused relation"),
    "RML103": (Severity.WARNING, "unused function or constant"),
    "RML104": (Severity.WARNING, "quantifier binder shadows an enclosing binder"),
    "RML105": (Severity.WARNING, "assume formula is equivalent to false"),
    "RML106": (Severity.WARNING, "dead choice branch (assume false)"),
    "RML107": (Severity.WARNING, "update right-hand side is the updated symbol itself (no-op)"),
    # Semantic dependency analysis (footprints, cone of influence, symmetry).
    "RML108": (Severity.WARNING, "transition writes a relation no invariant or property reads"),
    "RML109": (Severity.WARNING, "invariant mentions a symbol no transition touches"),
    "RML110": (Severity.WARNING, "axiom is disconnected from the proof goal"),
    "RML111": (Severity.WARNING, "sort is one blocker from interchangeable"),
    # Decidability analysis.
    "RML201": (Severity.ERROR, "quantifier-alternation graph has a cycle (VC outside EPR)"),
    # Proof management (named invariants, proof declarations, the proof DAG).
    "RML301": (Severity.ERROR, "proof references an unknown invariant name"),
    "RML302": (Severity.ERROR, "duplicate invariant or proof declaration"),
    "RML303": (Severity.ERROR, "'with' references an invariant no proof establishes"),
    "RML304": (Severity.ERROR, "proof-dependency cycle (circular 'with' assumptions)"),
    "RML305": (Severity.ERROR, "invariant formula is not a closed universal formula"),
    "RML306": (Severity.WARNING, "named invariant is never referenced by any proof"),
}


@dataclass(frozen=True)
class Note:
    """A secondary message attached to a diagnostic (provenance, hints)."""

    message: str
    span: Span | None = None


@dataclass(frozen=True)
class Diagnostic:
    """One reported problem.

    ``origin`` names the artifact the span refers to -- a file path for
    ``repro lint FILE``, a bundled-protocol name otherwise -- and is what
    the SARIF backend records as the artifact URI.
    """

    code: str
    message: str
    severity: Severity
    span: Span | None = None
    notes: tuple[Note, ...] = ()
    origin: str = "<program>"

    def with_origin(self, origin: str) -> "Diagnostic":
        return replace(self, origin=origin)

    def sort_key(self) -> tuple:
        span = self.span
        return (
            self.origin,
            span.line if span else 0,
            span.col if span else 0,
            self.severity,
            self.code,
        )


class Diagnostics:
    """A collect-all sink for diagnostics.

    Checkers ``emit`` freely; callers read ``items`` (sorted by source
    position) and branch on ``has_errors``.  The sink never raises -- the
    thin compatibility wrappers in :mod:`repro.rml.typecheck` convert the
    first error back into an exception for the legacy API.
    """

    def __init__(self, origin: str = "<program>") -> None:
        self.origin = origin
        self._items: list[Diagnostic] = []

    def emit(
        self,
        code: str,
        message: str,
        *,
        span: Span | None = None,
        severity: Severity | None = None,
        notes: Iterable[Note] = (),
    ) -> Diagnostic:
        if code not in CODES:
            raise KeyError(f"unregistered diagnostic code {code!r}")
        if severity is None:
            severity = CODES[code][0]
        diagnostic = Diagnostic(
            code, message, severity, span, tuple(notes), self.origin
        )
        self._items.append(diagnostic)
        return diagnostic

    def extend(self, diagnostics: Iterable[Diagnostic]) -> None:
        self._items.extend(d.with_origin(self.origin) for d in diagnostics)

    @property
    def items(self) -> tuple[Diagnostic, ...]:
        return tuple(sorted(self._items, key=Diagnostic.sort_key))

    @property
    def errors(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.items if d.severity is Severity.ERROR)

    @property
    def has_errors(self) -> bool:
        return any(d.severity is Severity.ERROR for d in self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.items)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _excerpt(source: str, span: Span) -> list[str]:
    """A gcc-style source excerpt with a caret line under the span."""
    lines = source.splitlines()
    if not (1 <= span.line <= len(lines)):
        return []
    text = lines[span.line - 1]
    gutter = f"{span.line:>5} | "
    width = max(span.end_col - span.col, 1) if span.end_line == span.line else 1
    caret = " " * (span.col - 1) + "^" + "~" * (width - 1)
    return [gutter + text, " " * (len(gutter) - 2) + "| " + caret]


def render_text(
    diagnostic: Diagnostic, source: str | None = None
) -> str:
    """Render one diagnostic in compiler style.

    With ``source`` available the offending line is excerpted with a caret;
    notes follow, each with its own excerpt when it has a span.
    """
    where = f"{diagnostic.origin}:"
    if diagnostic.span is not None:
        where += f"{diagnostic.span.line}:{diagnostic.span.col}:"
    lines = [
        f"{where} {diagnostic.severity.label}[{diagnostic.code}]: {diagnostic.message}"
    ]
    if source is not None and diagnostic.span is not None:
        lines.extend(_excerpt(source, diagnostic.span))
    for note in diagnostic.notes:
        position = f"{note.span.line}:{note.span.col}: " if note.span else ""
        lines.append(f"  note: {position}{note.message}")
        if source is not None and note.span is not None:
            lines.extend("  " + line for line in _excerpt(source, note.span))
    return "\n".join(lines)


def render_all(
    diagnostics: Iterable[Diagnostic], sources: dict[str, str] | None = None
) -> str:
    sources = sources or {}
    return "\n".join(
        render_text(d, sources.get(d.origin)) for d in diagnostics
    )


def to_json(diagnostics: Iterable[Diagnostic]) -> str:
    """A stable machine-readable dump (``repro lint --format json``)."""
    payload = []
    for d in diagnostics:
        entry: dict = {
            "code": d.code,
            "severity": d.severity.label,
            "message": d.message,
            "origin": d.origin,
        }
        if d.span is not None:
            entry["span"] = {
                "line": d.span.line,
                "col": d.span.col,
                "end_line": d.span.end_line,
                "end_col": d.span.end_col,
            }
        if d.notes:
            entry["notes"] = [
                {"message": n.message}
                | ({"line": n.span.line, "col": n.span.col} if n.span else {})
                for n in d.notes
            ]
        payload.append(entry)
    return json.dumps({"schema": 1, "diagnostics": payload}, indent=2)
