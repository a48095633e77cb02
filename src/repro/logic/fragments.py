"""Quantifier-fragment classification (paper Figure 11).

RML restricts where each fragment may appear:

* relation updates use quantifier-free formulas (``phi_QF``);
* ``assume`` commands and axioms use closed exists*forall* formulas
  (``phi_EA``);
* ``assert`` takes forall*exists* formulas (``phi_AE``);
* ``if`` conditions take alternation-free formulas (``phi_AF``).

The checks here are *semantic up to prenexing*: a formula counts as
exists*forall* if quantifiers from independent subformulas can be interleaved
into that shape (see :func:`repro.logic.transform.prenex`), not merely if it
is written with that literal prefix.
"""

from __future__ import annotations

import re

from . import syntax as s
from .transform import prenex


def is_quantifier_free(formula: s.Formula) -> bool:
    if isinstance(formula, (s.Rel, s.Eq)):
        return True
    if isinstance(formula, s.Not):
        return is_quantifier_free(formula.arg)
    if isinstance(formula, (s.And, s.Or)):
        return all(is_quantifier_free(a) for a in formula.args)
    if isinstance(formula, (s.Implies, s.Iff)):
        return is_quantifier_free(formula.lhs) and is_quantifier_free(formula.rhs)
    if isinstance(formula, (s.Forall, s.Exists)):
        return False
    raise TypeError(f"not a formula: {formula!r}")


def is_alternation_free(formula: s.Formula) -> bool:
    """Membership in ``phi_AF``: quantifiers only directly over QF bodies."""
    if isinstance(formula, (s.Rel, s.Eq)):
        return True
    if isinstance(formula, s.Not):
        return is_alternation_free(formula.arg)
    if isinstance(formula, (s.And, s.Or)):
        return all(is_alternation_free(a) for a in formula.args)
    if isinstance(formula, (s.Implies, s.Iff)):
        return is_alternation_free(formula.lhs) and is_alternation_free(formula.rhs)
    if isinstance(formula, (s.Forall, s.Exists)):
        return is_quantifier_free(formula.body) or (
            type(formula.body) is type(formula) and is_alternation_free(formula.body)
        )
    raise TypeError(f"not a formula: {formula!r}")


def _collapsed_prefix(formula: s.Formula, prefer: str) -> str:
    return prenex(formula, prefer=prefer).collapsed()  # type: ignore[arg-type]


def _require_closed(formula: s.Formula, check: str) -> None:
    free = s.free_vars(formula)
    if free:
        names = ", ".join(sorted(v.name for v in free))
        raise ValueError(
            f"{check} is defined on closed formulas only; free variables: {names}"
        )


def is_exists_forall(formula: s.Formula) -> bool:
    """Membership of a *closed* formula in ``phi_EA`` (exists*forall*) up to prenexing.

    Raises :class:`ValueError` on an open formula: free variables act as
    constants under satisfiability but as outermost universals under
    validity, so classifying an open formula here would silently pick one
    reading.  Callers must check closedness first (and report it as its own
    error) before asking about the fragment.
    """
    _require_closed(formula, "is_exists_forall")
    return re.fullmatch("E?A?", _collapsed_prefix(formula, "E")) is not None


def is_forall_exists(formula: s.Formula) -> bool:
    """Membership of a *closed* formula in ``phi_AE`` (forall*exists*) up to prenexing.

    Raises :class:`ValueError` on an open formula; see :func:`is_exists_forall`.
    """
    _require_closed(formula, "is_forall_exists")
    return re.fullmatch("A?E?", _collapsed_prefix(formula, "A")) is not None


def is_universal(formula: s.Formula) -> bool:
    """True for formulas prenexable to forall* over a QF matrix."""
    return _collapsed_prefix(formula, "A") in ("", "A")
