"""Decision procedures: CDCL SAT, grounding, and the EPR solver.

This package replaces the paper's use of Z3.  The public entry points are
:class:`~repro.solver.epr.EprSolver` / :func:`~repro.solver.epr.solve_epr`
for EPR satisfiability with finite-model extraction and unsat cores, and
:class:`~repro.solver.sat.Solver` for raw propositional problems.
"""

from .budget import (
    Budget,
    BudgetExceeded,
    BudgetMeter,
    FailureReason,
)
from .cache import DiskCache, QueryCache, install_cache, query_cache
from .cnf import CnfBuilder, TermTable, term_key
from .dispatch import (
    Query,
    query_of,
    resolve_jobs,
    shutdown_pool,
    solve_queries,
    worker_pool,
)
from .epr import EprResult, EprSolver, solve_epr, unknown_result
from .equality import EqualityTheory
from .faults import FaultPlan, install_fault_plan, parse_fault_spec
from .grounding import GroundingExplosion, ground_universe
from .sat import SatResult, Solver

__all__ = [
    "Budget",
    "BudgetExceeded",
    "BudgetMeter",
    "CnfBuilder",
    "DiskCache",
    "EprResult",
    "EprSolver",
    "EqualityTheory",
    "FailureReason",
    "FaultPlan",
    "GroundingExplosion",
    "Query",
    "QueryCache",
    "SatResult",
    "Solver",
    "TermTable",
    "ground_universe",
    "install_cache",
    "install_fault_plan",
    "parse_fault_spec",
    "query_cache",
    "query_of",
    "resolve_jobs",
    "shutdown_pool",
    "solve_epr",
    "solve_queries",
    "worker_pool",
    "term_key",
    "unknown_result",
]
