"""Command-line interface: ``python -m repro <command> ...``.

Subcommands mirror the paper's workflow:

* ``list`` -- the available protocol models;
* ``bmc <protocol> [-k N] [--drop-axiom NAME]`` -- bounded debugging
  (Section 4.1): search for an assertion violation within N iterations and
  print the counterexample trace, Figure 4 style;
* ``check <protocol>`` -- check the published invariant is inductive
  (Eq. 2) and print the conjectures;
* ``session <protocol>`` -- replay the interactive search with the oracle
  policy, printing the transcript and the G count (Figure 14);
* ``table`` -- print the Figure 14 reproduction table;
* ``verify <file.rml>`` -- parse an RML text model (or a bundled
  protocol's packaged model), run bounded debugging, and check any
  invariant conjectures passed via ``--conjecture``;
* ``lint [target ...]`` -- static analysis: well-formedness, lint rules,
  and the quantifier-alternation-graph decidability check over every VC;
  targets are protocol names or ``.rml`` files, output is
  ``--format text|json|sarif``;
* ``report <trace.jsonl>`` -- render the per-phase / per-query breakdown
  of a trace produced with ``--trace`` (``--hotspots`` for the
  phase-decomposition profiler view).

The solving subcommands run the same analysis as a pre-flight: a program
whose VCs leave the decidable fragment fails fast with exit code 2 and a
compiler-style diagnostic, before any solver query (disable with
``--no-preflight``).

Every solving subcommand accepts the observability flags ``--trace FILE``
(JSONL span trace), ``--metrics FILE`` (JSON metrics snapshot),
``--stats`` (a summary of the same registry, printed at exit), and
``--progress`` (live span echo on stderr); see :mod:`repro.obs`.  Query
caching is controlled with ``--persist-cache`` / ``--cache-dir DIR``
(disk-backed cache shared across runs; see :mod:`repro.solver.cache`) and
``--no-cache``.

:func:`main` resolves the run's settings once into a frozen
:class:`repro.config.RunConfig`: the ``REPRO_*`` environment variables,
overridden by the flags given, with defaults for the rest.  The command
runs inside :func:`repro.config.using`; a flag never writes the
environment, so an in-process ``main`` call leaves nothing behind.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

from . import config, obs
from .core.bounded import BoundedResult, find_error_trace
from .core.induction import Conjecture, check_inductive
from .core.policy import OraclePolicy
from .core.session import Session
from .logic import parse_formula
from .protocols import ALL_PROTOCOLS
from .recovery import (
    EXIT_RESUMABLE,
    Interrupted,
    Journal,
    active_journal,
    default_run_dir,
    install_handlers,
    load_meta,
    set_active_journal,
    write_meta,
)
from .recovery.journal import JOURNAL_NAME

#: Exit code for UNKNOWN outcomes (budget exhausted), distinct from
#: 0 = verified and 1 = violation/not-inductive.
EXIT_UNKNOWN = 2


#: flags that, when given, replace the run config field of the same name
_CONFIG_FLAGS = (
    "jobs", "timeout", "conflict_budget", "memory_mb", "retries",
    "cache_dir", "ledger_dir", "slice",
)


def _config_of(args: argparse.Namespace) -> config.RunConfig:
    """The run's config: the environment's, overridden by the flags given.

    ``--cache-dir`` implies persistence -- pointing at a store you do not
    want used would be a strange request.
    """
    changes = {
        name: getattr(args, name)
        for name in _CONFIG_FLAGS
        if getattr(args, name, None) is not None
    }
    if getattr(args, "cache_dir", None) or getattr(args, "persist_cache", False):
        changes["cache_persist"] = True
    if getattr(args, "no_cache", False):
        changes["cache"] = False
    if getattr(args, "no_ledger", False):
        changes["ledger"] = False
    return dataclasses.replace(config.current(), **changes)


def _open_journal(
    args: argparse.Namespace, argv: list[str]
) -> tuple[Journal | None, str | None]:
    """Open this run's write-ahead journal, honoring the recovery flags.

    Returns ``(journal, run_dir)`` -- both None for subcommands without
    recovery options or when journaling is off.  Journaling turns on with
    ``--run-dir`` or ``--resume``; the run directory defaults to the
    deterministic :func:`~repro.recovery.resume.default_run_dir`, so a bare
    ``--resume`` lands on the directory the killed run wrote to.  The
    journal is registered as the process-wide active journal (flushed by
    the signal path) and closed by :func:`main`'s teardown.
    """
    if not hasattr(args, "resume"):
        return None, None
    target = (
        getattr(args, "protocol", None)
        or getattr(args, "target", None)
        or getattr(args, "file", None)
        or ""
    )
    if not (args.run_dir or args.resume):
        return None, None
    run_dir = args.run_dir or default_run_dir(args.command, target)
    path = os.path.join(run_dir, JOURNAL_NAME)
    if args.resume and os.path.exists(path):
        journal = Journal.resume(path)
    else:
        journal = Journal.fresh(
            path, {"command": args.command, "target": target}
        )
    write_meta(run_dir, args.command, argv, target)
    set_active_journal(journal)
    return journal, run_dir


def _report_unknown(result: BoundedResult, bound: int) -> None:
    """Print the graceful-degradation summary for an unknown BMC result."""
    verified = result.verified_depth
    if verified is not None and verified >= 0:
        print(f"safe up to depth {verified}", end=", ")
    reasons = ", ".join(
        f"depth {depth} unknown ({reason.value})" for depth, reason in result.failures
    )
    print(f"bound {bound} not fully explored: {reasons}")


def _preflight(
    args: argparse.Namespace,
    program,
    conjectures=(),
    origin: str = "<program>",
    source: str | None = None,
) -> bool:
    """Run the decidability pre-flight; True means solving may proceed.

    On error-severity diagnostics, prints them compiler-style on stderr
    and returns False (callers exit with ``EXIT_UNKNOWN`` -- the program
    was neither verified nor refuted, solving never started).
    """
    if getattr(args, "no_preflight", False):
        return True
    from .analysis import preflight
    from .analysis.diagnostics import Severity, render_text

    diagnostics = preflight.preflight_program(program, conjectures, origin=origin)
    errors = [d for d in diagnostics if d.severity is Severity.ERROR]
    for diagnostic in errors:
        print(render_text(diagnostic, source), file=sys.stderr)
    if errors:
        print(
            f"{origin}: {len(errors)} error(s); refusing to start the solver "
            "(use --no-preflight to override)",
            file=sys.stderr,
        )
        return False
    return True


def _bundle(name: str):
    try:
        module = ALL_PROTOCOLS[name]
    except KeyError:
        raise SystemExit(
            f"unknown protocol {name!r}; choose from {', '.join(sorted(ALL_PROTOCOLS))}"
        )
    return module.build()


def _load_target(target: str):
    """Read and parse a target: a bundled protocol name or an ``.rml`` file.

    A bundled name reads its packaged model file, so both kinds of target
    take the same path.  Returns ``(program, source, failure)``: when the
    target cannot be parsed, ``program`` is None and ``failure`` is an
    ``RML000`` diagnostic (``source`` is None as well when the target is
    neither a protocol nor a file).
    """
    from .analysis.diagnostics import Diagnostics
    from .logic.lexer import LexError, ParseError
    from .protocols.base import model_file
    from .rml.parser import parse_program

    sink = Diagnostics(target)
    if target in ALL_PROTOCOLS:
        source = model_file(target).read_text()
    elif os.path.exists(target):
        with open(target) as handle:
            source = handle.read()
    else:
        failure = sink.emit(
            "RML000",
            f"unknown target: neither a protocol "
            f"({', '.join(sorted(ALL_PROTOCOLS))}) nor a file",
        )
        return None, None, failure
    try:
        return parse_program(source, check=False), source, None
    except (LexError, ParseError) as error:
        message = getattr(error, "bare_message", None) or str(error)
        failure = sink.emit("RML000", message, span=error.span)
    except ValueError as error:
        # AST-constructor validation (duplicate declarations, bad sorts)
        # raises ValueError without a span.
        failure = sink.emit("RML000", str(error))
    return None, source, failure


def cmd_list(_args: argparse.Namespace) -> int:
    for name, module in sorted(ALL_PROTOCOLS.items()):
        bundle = module.build()
        print(
            f"{name:20s} sorts={bundle.sort_count()} symbols={bundle.symbol_count()} "
            f"invariant={len(bundle.invariant)} conjectures"
        )
    return 0


def cmd_bmc(args: argparse.Namespace) -> int:
    bundle = _bundle(args.protocol)
    program = bundle.program
    if args.drop_axiom:
        program = program.without_axiom(args.drop_axiom)
    if not _preflight(args, program, bundle.safety, origin=args.protocol):
        return EXIT_UNKNOWN
    budget = config.current().budget()
    start = time.time()
    result = find_error_trace(
        program, args.bound, budget=budget, journal=active_journal()
    )
    elapsed = time.time() - start
    if result.holds:
        print(f"no assertion violation within {args.bound} iterations "
              f"({elapsed:.1f}s)")
        return 0
    if result.unknown:
        _report_unknown(result, args.bound)
        return EXIT_UNKNOWN
    print(f"assertion violation at depth {result.depth} ({elapsed:.1f}s):")
    print()
    print(result.trace)
    return 1


def cmd_check(args: argparse.Namespace) -> int:
    bundle = _bundle(args.protocol)
    if not _preflight(
        args, bundle.program, tuple(bundle.safety) + tuple(bundle.invariant),
        origin=args.protocol,
    ):
        return EXIT_UNKNOWN
    budget = config.current().budget()
    start = time.time()
    result = check_inductive(
        bundle.program, list(bundle.invariant), budget=budget,
        journal=active_journal(),
    )
    elapsed = time.time() - start
    inconclusive = result.unknown_obligations and result.cti is None
    if inconclusive:
        print(f"invariant inductive: unknown ({elapsed:.1f}s)")
    else:
        print(f"invariant inductive: {result.holds} ({elapsed:.1f}s)")
    for conjecture in bundle.invariant:
        print(f"  {conjecture.name}: {conjecture.formula}")
    if result.unknown_obligations:
        print("obligations exhausting their budget:")
        for description in result.unknown_obligations:
            print(f"  {description}")
    if not result.holds and result.cti is not None:
        print()
        print(result.cti)
    if inconclusive:
        return EXIT_UNKNOWN
    return 0 if result.holds else 1


def cmd_session(args: argparse.Namespace) -> int:
    bundle = _bundle(args.protocol)
    if not _preflight(args, bundle.program, bundle.safety, origin=args.protocol):
        return EXIT_UNKNOWN
    session = Session(bundle.program, initial=bundle.safety)
    start = time.time()
    outcome = session.run(OraclePolicy(bundle.invariant), max_iterations=40)
    elapsed = time.time() - start
    print(f"success: {outcome.success}  G = {outcome.cti_count} CTIs "
          f"({elapsed:.1f}s)")
    for line in outcome.transcript:
        print("  " + line)
    return 0 if outcome.success else 1


def cmd_interactive(args: argparse.Namespace) -> int:
    from .core.interactive import run_interactive

    bundle = _bundle(args.protocol)
    session = Session(bundle.program, initial=bundle.safety, bmc_bound=args.bound)
    outcome = run_interactive(session)
    return 0 if outcome.success else 1


def cmd_table(_args: argparse.Namespace) -> int:
    print(f"{'protocol':22s} {'S':>3s} {'RF':>4s} {'C':>4s} {'I':>4s}")
    for name in sorted(ALL_PROTOCOLS):
        bundle = _bundle(name)
        print(
            f"{name:22s} {bundle.sort_count():3d} {bundle.symbol_count():4d} "
            f"{bundle.literal_count(bundle.safety):4d} "
            f"{bundle.literal_count(bundle.invariant):4d}"
        )
    print("\n(G requires a session replay: python -m repro session <protocol>)")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .analysis.diagnostics import render_text

    program, source, failure = _load_target(args.file)
    if program is None:
        print(render_text(failure, source), file=sys.stderr)
        return EXIT_UNKNOWN
    conjectures = [
        Conjecture(f"C{i}", parse_formula(text, program.vocab))
        for i, text in enumerate(args.conjecture or [])
    ]
    if not _preflight(args, program, conjectures, origin=args.file, source=source):
        return EXIT_UNKNOWN
    print(f"parsed {program.name!r}: {len(program.vocab.sorts)} sorts, "
          f"{len(program.vocab.relations)} relations")
    budget = config.current().budget()
    result = find_error_trace(
        program, args.bound, budget=budget, journal=active_journal()
    )
    if result.trace is not None:
        print(f"assertion violation at depth {result.depth}:")
        print(result.trace)
        return 1
    if result.unknown:
        _report_unknown(result, args.bound)
        return EXIT_UNKNOWN
    print(f"no assertion violation within {args.bound} iterations")
    if conjectures:
        check = check_inductive(
            program, conjectures, budget=budget, journal=active_journal()
        )
        if check.unknown_obligations and check.cti is None:
            print(f"conjunction of {len(conjectures)} conjectures inductive: "
                  "unknown (budget exhausted on: "
                  + ", ".join(check.unknown_obligations) + ")")
            return EXIT_UNKNOWN
        print(f"conjunction of {len(conjectures)} conjectures inductive: "
              f"{check.holds}")
        if not check.holds and check.cti is not None:
            print(check.cti)
        return 0 if check.holds else 1
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """Static analysis over protocol bundles and/or .rml files."""
    from .analysis import lint, to_json, to_sarif
    from .analysis.diagnostics import Severity, render_all

    targets = list(args.targets)
    if args.all or not targets:
        targets.extend(sorted(ALL_PROTOCOLS))
    diagnostics = []
    sources: dict[str, str] = {}
    with obs.span("analysis", kind="lint", targets=len(targets)):
        for target in targets:
            # A target that fails never aborts the batch: every failure
            # becomes a per-target RML000 diagnostic and the loop moves on
            # to the remaining targets.
            program, source, failure = _load_target(target)
            if source is not None:
                sources[target] = source
            if program is None:
                diagnostics.append(failure)
                continue
            diagnostics.extend(lint.lint_program(program, origin=target))
    diagnostics.sort(key=lambda d: d.sort_key())
    if args.format == "json":
        output = to_json(diagnostics)
    elif args.format == "sarif":
        output = to_sarif(diagnostics)
    else:
        output = render_all(diagnostics, sources)
        errors = sum(1 for d in diagnostics if d.severity is Severity.ERROR)
        warnings = sum(1 for d in diagnostics if d.severity is Severity.WARNING)
        summary = (
            f"{len(targets)} target(s): {errors} error(s), {warnings} warning(s)"
        )
        output = f"{output}\n{summary}" if output else summary
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(output)
            handle.write("\n")
    else:
        print(output)
    has_errors = any(d.severity is Severity.ERROR for d in diagnostics)
    return 1 if has_errors else 0


def _analyze_report(target: str, program) -> tuple[dict, list]:
    """The ``repro analyze`` report for one program (pure static).

    Returns ``(report dict, diagnostics)``.  Everything here is AST
    walking -- footprints, the dependency graph, slice previews over the
    Eq. 2 obligations, sort interchangeability, and the RML108-111/306
    rules.  No solver is ever constructed, so a run shows zero
    ``query_latency_ms`` samples (asserted in the tests).
    """
    from .analysis.deps import build_dependency_graph, transition_footprints
    from .analysis.lint import semantic_diagnostics
    from .analysis.symmetry import analyze_program_symmetry
    from .core.induction import obligations
    from .logic.sorts import StratificationError
    from .solver.grounding import GroundingExplosion, universe_estimate

    try:
        conjectures = [
            Conjecture(inv.name, inv.formula) for inv in program.invariants
        ]
    except ValueError:
        conjectures = []  # non-universal invariant: no slice preview
    transitions = [
        {
            "label": label,
            "reads": sorted(d.name for d in fp.reads),
            "writes": sorted(d.name for d in fp.writes),
            "quantified": sorted(sort.name for sort in fp.quantified),
        }
        for label, fp in transition_footprints(program)
    ]
    graph = build_dependency_graph(program)
    edges = [{"src": e.src, "dst": e.dst, "via": e.via} for e in graph.edges]

    def estimate(vocab) -> int | None:
        try:
            return sum(universe_estimate(vocab).values())
        except (GroundingExplosion, StratificationError):
            return None

    full_universe = estimate(program.vocab)
    full_symbols = len(program.vocab.relations) + len(program.vocab.functions)
    slices = []
    try:
        pending = obligations(program, conjectures, sliced=True)
    except Exception:
        pending = []  # wp over an ill-formed program; diagnostics explain why
    for obligation in pending:
        entry: dict = {
            "obligation": obligation.description,
            "dropped": list(obligation.sliced_dropped),
            "universe_full": full_universe,
        }
        if obligation.sliced_vocab is not None:
            entry["universe_sliced"] = estimate(obligation.sliced_vocab)
            entry["symbols_kept"] = len(obligation.sliced_vocab.relations) + len(
                obligation.sliced_vocab.functions
            )
        else:
            entry["universe_sliced"] = full_universe
            entry["symbols_kept"] = full_symbols
        slices.append(entry)
    symmetry = [
        {
            "sort": report.sort.name,
            "constants": len(report.constants),
            "interchangeable": report.interchangeable,
            "blockers": [b.reason for b in report.blockers],
        }
        for report in analyze_program_symmetry(program)
    ]
    diagnostics = list(semantic_diagnostics(program, origin=target))
    report = {
        "target": target,
        "transitions": transitions,
        "graph": {"symbols": list(graph.symbols), "edges": edges},
        "slices": slices,
        "symmetry": symmetry,
    }
    return report, diagnostics


def _render_analyze_text(reports: list[dict], diagnostics: list) -> str:
    """Human-readable ``repro analyze`` report."""
    lines: list[str] = []
    for report in reports:
        lines.append(f"== {report['target']} ==")
        lines.append("transitions:")
        for entry in report["transitions"]:
            reads = ", ".join(entry["reads"]) or "-"
            writes = ", ".join(entry["writes"]) or "-"
            lines.append(f"  {entry['label']:24s} reads: {reads}; writes: {writes}")
        graph = report["graph"]
        lines.append(
            f"dependency graph: {len(graph['symbols'])} symbols, "
            f"{len(graph['edges'])} edges"
        )
        lines.append("slice preview:")
        for entry in report["slices"]:
            dropped = ", ".join(entry["dropped"]) or "nothing"
            full = entry["universe_full"]
            sliced = entry["universe_sliced"]
            shrink = ""
            if full and sliced is not None and sliced < full:
                shrink = f" (universe {full} -> {sliced})"
            lines.append(f"  {entry['obligation']:32s} drops {dropped}{shrink}")
        if not report["slices"]:
            lines.append("  (no obligations)")
        lines.append("symmetry:")
        for entry in report["symmetry"]:
            if entry["interchangeable"]:
                verdict = f"interchangeable ({entry['constants']} constants)"
            else:
                verdict = f"blocked: {entry['blockers'][0]}"
                if len(entry["blockers"]) > 1:
                    verdict += f" (+{len(entry['blockers']) - 1} more)"
            lines.append(f"  sort {entry['sort']:16s} {verdict}")
        lines.append("")
    for diagnostic in diagnostics:
        where = diagnostic.origin
        if diagnostic.span is not None:
            where += f":{diagnostic.span.line}:{diagnostic.span.col}"
        lines.append(
            f"{where}: {diagnostic.severity.label}: "
            f"{diagnostic.code}: {diagnostic.message}"
        )
    lines.append(f"{len(reports)} target(s), {len(diagnostics)} diagnostic(s)")
    return "\n".join(lines)


def cmd_analyze(args: argparse.Namespace) -> int:
    """Semantic dependency analysis: ``repro analyze [target ...]``."""
    from .analysis import to_json, to_sarif
    from .analysis.diagnostics import Severity

    targets = list(args.targets)
    if args.all or not targets:
        targets.extend(sorted(ALL_PROTOCOLS))
    reports: list[dict] = []
    diagnostics: list = []
    with obs.span("analysis", kind="analyze", targets=len(targets)):
        for target in targets:
            # Same batch discipline as ``repro lint``: a failing target
            # becomes an RML000 diagnostic, never an aborted batch.
            program, _source, failure = _load_target(target)
            if program is None:
                diagnostics.append(failure)
                continue
            report, found = _analyze_report(target, program)
            reports.append(report)
            diagnostics.extend(found)
    diagnostics.sort(key=lambda d: d.sort_key())
    if args.format == "json":
        payload = {
            "targets": reports,
            "diagnostics": json.loads(to_json(diagnostics)),
        }
        output = json.dumps(payload, indent=2)
    elif args.format == "sarif":
        output = to_sarif(diagnostics, driver="repro-analyze")
    else:
        output = _render_analyze_text(reports, diagnostics)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(output)
            handle.write("\n")
    else:
        print(output)
    has_errors = any(d.severity is Severity.ERROR for d in diagnostics)
    return 1 if has_errors else 0


def _target_plan(args: argparse.Namespace):
    """Resolve ``args.target`` into ``(plan, origin, source)``.

    Targets are protocol names or ``.rml`` files; either way the plan
    comes from the declared ``invariant``/``proof`` blocks.  The program
    goes through the collect-all diagnostics pass first, so proof-layer
    errors -- unknown names, duplicate declarations, a
    ``with``-cycle (``RML304``) -- are rejected here, before any solver
    work, with compiler-style sourced diagnostics.  Returns None after
    printing them (callers exit with ``EXIT_UNKNOWN``).
    """
    from .analysis.diagnostics import Severity, render_text
    from .proof.manager import plan_of
    from .rml.typecheck import program_diagnostics

    target = args.target
    program, source, failure = _load_target(target)
    if source is None:
        raise SystemExit(render_text(failure))
    if program is None:
        print(render_text(failure, source), file=sys.stderr)
        return None
    diagnostics = [
        d.with_origin(target)
        for d in program_diagnostics(program)
        if d.severity is Severity.ERROR
    ]
    if diagnostics:
        for diagnostic in diagnostics:
            print(render_text(diagnostic, source), file=sys.stderr)
        print(
            f"{target}: {len(diagnostics)} error(s); refusing to start the "
            "solver",
            file=sys.stderr,
        )
        return None
    return plan_of(program), target, source


def cmd_prove(args: argparse.Namespace) -> int:
    """Discharge the target's proof DAG, honoring the proven-lemma ledger."""
    from .proof.ledger import default_ledger
    from .proof.manager import prove

    resolved = _target_plan(args)
    if resolved is None:
        return EXIT_UNKNOWN
    plan, origin, source = resolved
    conjectures = tuple(plan.invariants.values())
    if not _preflight(args, plan.program, conjectures, origin=origin,
                      source=source):
        return EXIT_UNKNOWN
    ledger = default_ledger()
    start = time.time()
    report = prove(
        plan, budget=config.current().budget(), ledger=ledger,
        journal=active_journal(),
    )
    elapsed = time.time() - start
    if args.format == "json":
        payload = {
            "schema": 1,
            "program": report.program,
            "ok": report.ok,
            "queries": report.queries,
            "ledger_hits": report.ledger_hits,
            "ledger_misses": report.ledger_misses,
            "ledger_hit_rate": report.hit_rate,
            "frontiers": [list(layer) for layer in report.frontiers],
            "unknown": list(report.unknown),
            "failed_node": report.failed_node,
            "elapsed_s": round(elapsed, 3),
            "outcomes": [
                {
                    "node": outcome.node,
                    "obligation": outcome.description,
                    "via": outcome.via,
                }
                for outcome in report.outcomes
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        frontier_text = " | ".join(
            ", ".join(layer) for layer in report.frontiers
        )
        print(f"proof DAG: {frontier_text or '(empty)'}")
        print(
            f"obligations: {report.ledger_hits} from ledger, "
            f"{report.queries} solved "
            f"(hit rate {report.hit_rate:.2f}, {elapsed:.1f}s)"
        )
        if report.cti is not None:
            print(f"proof node {report.failed_node!r} failed:")
            print()
            print(report.cti)
        elif report.unknown:
            print("obligations exhausting their budget:")
            for description in report.unknown:
                print(f"  {description}")
        else:
            print(f"{report.program}: all proof obligations discharged")
    if report.cti is not None:
        return 1
    return 0 if report.ok else EXIT_UNKNOWN


def cmd_status(args: argparse.Namespace) -> int:
    """Per-invariant proven/unproven/stale table from the ledger."""
    from .proof.ledger import Ledger
    from .proof.manager import status

    resolved = _target_plan(args)
    if resolved is None:
        return EXIT_UNKNOWN
    plan, origin, _source = resolved
    ledger = Ledger(config.current().ledger_dir)  # --no-ledger gates writes
    rows = status(plan, ledger)
    if args.format == "json":
        payload = {
            "schema": 1,
            "program": plan.program.name,
            "ledger": ledger.root,
            "invariants": [
                {
                    "name": row.name,
                    "proof": row.proof,
                    "state": row.state,
                    "provenance": [
                        {
                            "kind": entry.kind,
                            "engine": entry.engine,
                            "budget": entry.budget,
                            "git_rev": entry.git_rev,
                            "run_id": entry.run_id,
                            "wall_ms": entry.wall_ms,
                            "created_unix": entry.created_unix,
                        }
                        for entry in row.entries
                    ],
                }
                for row in rows
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"{'invariant':24s} {'proof':12s} {'state':10s} provenance")
        for row in rows:
            if row.entries:
                entry = row.entries[-1]
                parts = [f"engine={entry.engine}"]
                if entry.git_rev:
                    parts.append(f"rev={entry.git_rev}")
                if entry.run_id:
                    parts.append(f"run={entry.run_id}")
                provenance = " ".join(parts)
            else:
                provenance = "-"
            print(f"{row.name:24s} {row.proof:12s} {row.state:10s} {provenance}")
    return 0 if all(row.state == "proven" for row in rows) else 1


def cmd_resume(args: argparse.Namespace) -> int:
    """Re-invoke the command recorded in a run directory, resuming it."""
    meta = load_meta(args.run_dir)
    if meta is None:
        print(
            f"{args.run_dir}: no readable meta.json -- not a run directory "
            "(or written by an incompatible version)",
            file=sys.stderr,
        )
        return EXIT_UNKNOWN
    argv = list(meta.argv)
    if "--resume" not in argv:
        argv.append("--resume")
    print(f"resuming: repro {' '.join(argv)}", file=sys.stderr)
    return main(argv)


def cmd_report(args: argparse.Namespace) -> int:
    try:
        events = obs.load_trace(args.trace_file)
    except OSError as error:
        print(f"cannot read trace: {error}", file=sys.stderr)
        return 1
    except obs.TraceParseError as error:
        print(f"malformed trace: {error}", file=sys.stderr)
        return 1
    try:
        if getattr(args, "hotspots", False):
            print(obs.render_hotspots(events, top=args.top))
        else:
            print(obs.render_report(events))
    except BrokenPipeError:  # report | head: the reader left, that's fine
        sys.stderr.close()  # suppress the shutdown-time flush warning too
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Ivy (PLDI 2016) reproduction: interactive safety verification",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add_obs_options(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument(
            "--trace", default=None, metavar="FILE",
            help="write a JSONL span trace (render with: repro report FILE)",
        )
        subparser.add_argument(
            "--metrics", default=None, metavar="FILE",
            help="write a JSON metrics snapshot (counters/histograms/rates)",
        )
        subparser.add_argument(
            "--progress", action="store_true",
            help="echo top-level trace spans to stderr as they run",
        )

    list_parser = commands.add_parser("list", help="list protocol models")
    add_obs_options(list_parser)
    list_parser.set_defaults(func=cmd_list)

    def add_preflight_options(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument(
            "--no-preflight", action="store_true",
            help="skip the static decidability analysis before solving",
        )

    def add_solver_options(subparser: argparse.ArgumentParser) -> None:
        add_obs_options(subparser)
        add_preflight_options(subparser)
        subparser.add_argument(
            "-j", "--jobs", type=int, default=None,
            help="solve independent queries on N worker processes "
                 "(default: REPRO_JOBS or serial)",
        )
        subparser.add_argument(
            "--stats", action="store_true",
            help="print aggregate solver statistics after the run",
        )
        subparser.add_argument(
            "--timeout", type=float, default=None, metavar="SECONDS",
            help="wall-clock budget per query; exhausted queries degrade to "
                 "UNKNOWN (default: REPRO_TIMEOUT or unlimited)",
        )
        subparser.add_argument(
            "--conflict-budget", type=int, default=None, metavar="N",
            help="SAT conflict cap per query "
                 "(default: REPRO_CONFLICT_BUDGET or unlimited)",
        )
        subparser.add_argument(
            "--memory-mb", type=int, default=None, metavar="MB",
            help="address-space cap for worker processes "
                 "(default: REPRO_MEMORY_MB or unlimited)",
        )
        subparser.add_argument(
            "--retries", type=int, default=None, metavar="N",
            help="crashed/hung worker retries before the in-process "
                 "fallback (default: REPRO_RETRIES or 2)",
        )
        subparser.add_argument(
            "--persist-cache", action="store_true",
            help="keep query results in a disk cache shared across runs "
                 "(REPRO_CACHE_PERSIST)",
        )
        subparser.add_argument(
            "--cache-dir", default=None, metavar="DIR",
            help="disk cache location, implies --persist-cache "
                 "(default: REPRO_CACHE_DIR or .repro-cache)",
        )
        subparser.add_argument(
            "--no-cache", action="store_true",
            help="disable query-result caching entirely (REPRO_CACHE=0)",
        )
        subparser.add_argument(
            "--run-dir", default=None, metavar="DIR",
            help="run directory for the write-ahead journal; implies "
                 "journaling (default: a deterministic directory under "
                 "REPRO_RUNS_DIR or .repro-runs when journaling is on)",
        )
        subparser.add_argument(
            "--resume", action="store_true",
            help="replay the run directory's journal, skipping work the "
                 "killed run already completed",
        )
        subparser.add_argument(
            "--slice", dest="slice", action="store_true", default=None,
            help="cone-of-influence VC slicing before grounding "
                 "(REPRO_SLICE, default on)",
        )
        subparser.add_argument(
            "--no-slice", dest="slice", action="store_false",
            help="solve every VC unsliced over the full vocabulary",
        )

    bmc = commands.add_parser("bmc", help="bounded debugging (Section 4.1)")
    bmc.add_argument("protocol")
    bmc.add_argument("-k", "--bound", type=int, default=3)
    bmc.add_argument("--drop-axiom", help="remove an axiom first (Figure 4)")
    add_solver_options(bmc)
    bmc.set_defaults(func=cmd_bmc)

    check = commands.add_parser("check", help="check the published invariant")
    check.add_argument("protocol")
    add_solver_options(check)
    check.set_defaults(func=cmd_check)

    session = commands.add_parser("session", help="replay the interactive search")
    session.add_argument("protocol")
    add_obs_options(session)
    add_preflight_options(session)
    session.set_defaults(func=cmd_session)

    interactive = commands.add_parser(
        "interactive", help="drive the CTI loop yourself (the paper's UI, headless)"
    )
    interactive.add_argument("protocol")
    interactive.add_argument("-k", "--bound", type=int, default=3)
    add_obs_options(interactive)
    interactive.set_defaults(func=cmd_interactive)

    table = commands.add_parser("table", help="print the Figure 14 model statistics")
    add_obs_options(table)
    table.set_defaults(func=cmd_table)

    verify = commands.add_parser("verify", help="verify an RML text model")
    verify.add_argument("file")
    verify.add_argument("-k", "--bound", type=int, default=3)
    verify.add_argument(
        "--conjecture",
        action="append",
        help="invariant conjecture (repeatable); checked for inductiveness",
    )
    add_solver_options(verify)
    verify.set_defaults(func=cmd_verify)

    lint = commands.add_parser(
        "lint", help="static analysis: well-formedness, lints, QAG decidability"
    )
    lint.add_argument(
        "targets", nargs="*", metavar="TARGET",
        help="protocol name or .rml file (default: every bundled protocol)",
    )
    lint.add_argument(
        "--all", action="store_true",
        help="also lint every bundled protocol in addition to TARGETs",
    )
    lint.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="output format (default: text)",
    )
    lint.add_argument(
        "--output", default=None, metavar="FILE",
        help="write the report to FILE instead of stdout",
    )
    add_obs_options(lint)
    lint.set_defaults(func=cmd_lint)

    analyze = commands.add_parser(
        "analyze",
        help="semantic dependency analysis: footprints, VC slices, symmetry",
    )
    analyze.add_argument(
        "targets", nargs="*", metavar="TARGET",
        help="protocol name or .rml file (default: every bundled protocol)",
    )
    analyze.add_argument(
        "--all", action="store_true",
        help="also analyze every bundled protocol in addition to TARGETs",
    )
    analyze.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="output format (default: text)",
    )
    analyze.add_argument(
        "--output", default=None, metavar="FILE",
        help="write the report to FILE instead of stdout",
    )
    add_obs_options(analyze)
    analyze.set_defaults(func=cmd_analyze)

    def add_ledger_options(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument(
            "--ledger-dir", default=None, metavar="DIR",
            help="proven-lemma ledger location "
                 "(default: REPRO_LEDGER_DIR or .repro-ledger)",
        )

    prove = commands.add_parser(
        "prove", help="discharge the proof-dependency DAG, honoring the ledger"
    )
    prove.add_argument(
        "target", help="protocol name or .rml file with invariant/proof decls"
    )
    prove.add_argument(
        "--no-ledger", action="store_true",
        help="solve every obligation fresh; record nothing (REPRO_LEDGER=0)",
    )
    prove.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)",
    )
    add_ledger_options(prove)
    add_solver_options(prove)
    prove.set_defaults(func=cmd_prove)

    status = commands.add_parser(
        "status", help="per-invariant proven/unproven/stale table from the ledger"
    )
    status.add_argument(
        "target", help="protocol name or .rml file with invariant/proof decls"
    )
    status.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)",
    )
    add_ledger_options(status)
    add_obs_options(status)
    status.set_defaults(func=cmd_status)

    report = commands.add_parser(
        "report", help="render the breakdown of a --trace JSONL file"
    )
    report.add_argument("trace_file", metavar="TRACE")
    report.add_argument(
        "--hotspots", action="store_true",
        help="per-phase decomposition of query wall time: phase totals, "
             "per-engine p50/p95/p99, the slowest queries",
    )
    report.add_argument(
        "--top", type=int, default=10, metavar="N",
        help="queries to list in the --hotspots view (default: 10)",
    )
    report.set_defaults(func=cmd_report)

    resume = commands.add_parser(
        "resume", help="resume a killed run from its run directory"
    )
    resume.add_argument(
        "run_dir", metavar="RUN_DIR",
        help="run directory holding the journal and meta.json "
             "(see ls .repro-runs)",
    )
    resume.set_defaults(func=cmd_resume)
    return parser


def _install_obs(args: argparse.Namespace, argv: list[str]):
    """Install tracer/metrics from the CLI flags; returns teardown.

    ``--metrics FILE`` and ``--stats`` both install a metrics registry.
    The teardown uninstalls every layer, closes the trace file, dumps the
    metrics snapshot and prints the ``--stats`` summary -- it runs in
    ``main``'s finally block so traces and metrics survive crashed runs
    too.
    """
    trace_path = getattr(args, "trace", None)
    metrics_path = getattr(args, "metrics", None)
    stats = getattr(args, "stats", False)
    progress = getattr(args, "progress", False)
    trace_file = open(trace_path, "w") if trace_path else None
    if trace_file is not None or progress:
        tracer = obs.Tracer(sink=trace_file, progress=progress)
        obs.install_tracer(tracer)
        tracer.emit_header(argv)
    registry: obs.MetricsRegistry | None = None
    if metrics_path or stats:
        registry = obs.MetricsRegistry()
        obs.install_metrics(registry)

    def teardown() -> None:
        obs.install_tracer(None)
        obs.install_metrics(None)
        if trace_file is not None:
            trace_file.close()
        if registry is not None and metrics_path:
            with open(metrics_path, "w") as handle:
                json.dump(registry.to_dict(), handle, indent=2, sort_keys=True)
                handle.write("\n")
        if registry is not None and stats:
            print()
            print(registry.format_stats())

    return teardown


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code.

    SIGINT/SIGTERM are translated into a resumable exit: the write-ahead
    journal (when one is active) is flushed and closed, the worker pool
    is shut down so no children outlive the run, and the process exits
    with :data:`~repro.recovery.EXIT_RESUMABLE` (75) plus a hint naming
    the ``repro resume`` command that picks the run back up.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    raw_argv = list(argv) if argv is not None else sys.argv[1:]
    with config.using(_config_of(args)):
        return _run(args, raw_argv)


def _run(args: argparse.Namespace, raw_argv: list[str]) -> int:
    """Run the parsed command under the installed run config."""
    teardown = _install_obs(args, raw_argv)
    restore_signals = install_handlers()
    journal, run_dir = _open_journal(args, raw_argv)
    try:
        if not obs.enabled():
            return args.func(args)
        attrs = {
            key: value
            for key, value in (
                ("protocol", getattr(args, "protocol", None)),
                ("target", getattr(args, "target", None)),
                ("file", getattr(args, "file", None)),
                ("bound", getattr(args, "bound", None)),
                ("jobs", getattr(args, "jobs", None)),
                ("resume", getattr(args, "resume", None) or None),
            )
            if value is not None
        }
        with obs.span(f"repro.{args.command}", **attrs) as sp:
            code = args.func(args)
            sp.set(exit_code=code)
            return code
    except Interrupted as stop:
        from .solver.dispatch import shutdown_pool

        shutdown_pool()
        print(f"\ninterrupted ({stop})", file=sys.stderr)
        if run_dir is not None:
            print(
                f"resume with: python -m repro resume {run_dir}",
                file=sys.stderr,
            )
        return EXIT_RESUMABLE
    finally:
        if journal is not None:
            obs.set_gauge("resume_reused_ratio", journal.reused_ratio())
            journal.close()
            if active_journal() is journal:
                set_active_journal(None)
        restore_signals()
        teardown()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
