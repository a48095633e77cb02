"""Static analysis: decidability (QAG), diagnostics, lint rules, SARIF.

This package turns the dynamic "the solver will tell us" story into a
static one: every VC the engines generate is checked for membership in the
paper's decidable fragment (EPR + stratified functions) *before* any solver
runs, and violations come back as compiler-style diagnostics with source
spans and provenance.

Beyond fragment checks, the semantic layer (:mod:`repro.analysis.deps`,
:mod:`repro.analysis.symmetry`) computes per-transition/per-formula
footprints, the program dependency graph, cone-of-influence VC slices,
and sort-interchangeability reports -- consumed by the engines (slicing),
the lint rules RML108-RML111/RML306, and the ``repro analyze``
subcommand.

Layering: this ``__init__`` (and the modules it imports -- ``diagnostics``,
``qag``, ``sarif``) depends only on :mod:`repro.logic`, because
:mod:`repro.rml.typecheck` imports the diagnostics engine.  The modules
that analyze whole RML programs -- :mod:`repro.analysis.lint`,
:mod:`repro.analysis.preflight`, :mod:`repro.analysis.deps`, and
:mod:`repro.analysis.symmetry` -- import :mod:`repro.rml` (preflight also
:mod:`repro.core`) and must be accessed as explicit submodules
(``from repro.analysis import lint``).
"""

from .diagnostics import (
    CODES,
    Diagnostic,
    Diagnostics,
    Note,
    Severity,
    render_all,
    render_text,
    to_json,
)
from .qag import Qag, QagEdge, build_qag, formula_edges, qag_diagnostics
from .sarif import to_sarif

__all__ = [
    "CODES",
    "Diagnostic",
    "Diagnostics",
    "Note",
    "Qag",
    "QagEdge",
    "Severity",
    "build_qag",
    "formula_edges",
    "qag_diagnostics",
    "render_all",
    "render_text",
    "to_json",
    "to_sarif",
]
