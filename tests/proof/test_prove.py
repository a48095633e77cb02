"""End-to-end proof management: prove/status, the CLI, engine reruns."""

import json

import pytest

from repro.cli import main
from repro.core.houdini import houdini
from repro.core.induction import check_inductive
from repro.core.session import Session
from repro.proof.ledger import Ledger
from repro.proof.manager import MAIN_PROOF, NO_ABORT, plan_of, prove, status
from repro.protocols import lock_server
from repro.rml.parser import parse_program

DIAMOND_SOURCE = """
program diamond

sort t

relation r1 : t
relation r2 : t
relation r3 : t
relation r4 : t

init {
    assume forall X:t. ~r1(X);
    assume forall X:t. ~r2(X);
    assume forall X:t. ~r3(X);
    assume forall X:t. ~r4(X);
}

safety empty: forall X:t. ~r1(X)

invariant i1: forall X:t. ~r1(X)
invariant i2: forall X:t. ~r2(X)
invariant i3: forall X:t. ~r3(X)
invariant i4: forall X:t. ~r4(X)

proof p1 proves i1
proof p2 proves i2 with i1
proof p3 proves i3 with i1
proof p4 proves i4 with i2, i3

action noop {
    assume true;
}
"""

CYCLE_SOURCE = """
program cyc

sort t

relation r : t

init {
    assume forall X:t. ~r(X);
}

invariant a: forall X:t. ~r(X)
invariant b: forall X:t. ~r(X)

proof pa proves a with b
proof pb proves b with a

action noop {
    assume true;
}
"""


@pytest.fixture(scope="module")
def bundle():
    return lock_server.build()


# ----------------------------------------------------------------- the parser


def test_invariant_and_proof_declarations_parse():
    program = parse_program(DIAMOND_SOURCE)
    assert [inv.name for inv in program.invariants] == ["i1", "i2", "i3", "i4"]
    assert program.invariant_named("i2") is not None
    assert [(p.name, p.proves, p.uses) for p in program.proofs] == [
        ("p1", ("i1",), ()),
        ("p2", ("i2",), ("i1",)),
        ("p3", ("i3",), ("i1",)),
        ("p4", ("i4",), ("i2", "i3")),
    ]
    # Spans are threaded for diagnostics.
    assert program.invariants[0].span is not None
    assert program.proofs[3].use_spans[1] is not None


def test_proof_requires_proves_keyword():
    from repro.logic.lexer import ParseError

    with pytest.raises(ParseError):
        parse_program("program p\nsort t\ninit { assume true; }\nproof q: x\n")


# ---------------------------------------------------------------- plan shapes


def test_bundle_plan_is_single_main_node(bundle):
    plan = plan_of(bundle.program)
    assert [node.name for node in plan.nodes] == [MAIN_PROOF]
    assert plan.frontiers() == [(MAIN_PROOF,)]
    assert set(plan.invariants) == {c.name for c in bundle.invariant}
    assert plan.prover_of("C0") == MAIN_PROOF


def test_declared_proofs_shape_the_plan():
    plan = plan_of(parse_program(DIAMOND_SOURCE))
    assert plan.frontiers() == [("p1",), ("p2", "p3"), ("p4",)]
    assert plan.node_named("p4").lemmas == ("i2", "i3")


# -------------------------------------------------------------- prove + ledger


def test_prove_twice_issues_zero_queries_second_time(tmp_path, bundle):
    ledger = Ledger(str(tmp_path))
    plan = plan_of(bundle.program)

    cold = prove(plan, ledger=ledger)
    assert cold.ok and cold.queries > 0 and cold.ledger_hits == 0

    warm = prove(plan, ledger=ledger)
    assert warm.ok
    assert warm.queries == 0
    assert warm.hit_rate == 1.0
    assert warm.ledger_hits == cold.queries
    assert all(outcome.via == "ledger" for outcome in warm.outcomes)

    rows = status(plan, ledger)
    assert {row.name for row in rows} == set(plan.invariants) | {NO_ABORT}
    assert all(row.state == "proven" for row in rows)
    assert all(row.entries for row in rows)


def test_diamond_obligations_discharged_exactly_once(tmp_path):
    plan = plan_of(parse_program(DIAMOND_SOURCE))
    ledger = Ledger(str(tmp_path))
    report = prove(plan, ledger=ledger)
    assert report.ok
    # 4 invariants x (initiation + consecution) + 1 no-abort, no repeats:
    # i1's proof is not re-run for p2/p3/p4, only assumed.
    assert report.queries == 9
    solved = [(o.node, o.description) for o in report.outcomes]
    assert len(solved) == len(set(solved))
    assert prove(plan, ledger=ledger).queries == 0


def test_cold_prove_resolves_the_git_revision_once(tmp_path, bundle, monkeypatch):
    import subprocess

    from repro.proof import ledger as ledger_module

    real_run = subprocess.run
    git_calls = []

    def counting_run(argv, *args, **kwargs):
        if argv and argv[0] == "git":
            git_calls.append(argv)
        return real_run(argv, *args, **kwargs)

    monkeypatch.setattr(subprocess, "run", counting_run)
    ledger_module.git_rev.cache_clear()
    report = prove(plan_of(bundle.program), ledger=Ledger(str(tmp_path)))
    assert report.ok and report.queries > 1
    assert len(git_calls) <= 1, git_calls


def test_prove_without_ledger_solves_every_time(bundle):
    plan = plan_of(bundle.program)
    first = prove(plan)
    second = prove(plan)
    assert first.ok and second.ok
    assert first.queries == second.queries > 0
    assert second.ledger_hits == 0


def test_identical_obligations_share_one_ledger_entry(tmp_path):
    """Content addressing: same-formula invariants prove once, even cold."""
    twins = parse_program(
        "program twins\n\nsort t\n\nrelation r : t\n\n"
        "init {\n    assume forall X:t. ~r(X);\n}\n\n"
        "invariant a: forall X:t. ~r(X)\n"
        "invariant b: forall X:t. ~r(X)\n\n"
        "action noop {\n    assume true;\n}\n"
    )
    report = prove(plan_of(twins), ledger=Ledger(str(tmp_path)))
    assert report.ok
    # b's obligations are byte-identical to a's (same key), so each pair
    # is solved once even on the cold run; every invariant still gets an
    # outcome and a provenance entry.
    assert report.queries == 2
    assert len(report.outcomes) == 4
    assert all(
        row.state == "proven"
        for row in status(plan_of(twins), Ledger(str(tmp_path)))
    )


@pytest.mark.parametrize(
    "name, instances", [("lock_server", 597), ("leader_election", 4558)]
)
def test_parallel_and_serial_prove_agree(name, instances, tmp_path, monkeypatch):
    """``-j 2`` discharges like ``-j 1``: sliced queries, same answers."""
    from repro import obs
    from repro.protocols import ALL_PROTOCOLS
    from repro.solver.dispatch import shutdown_pool

    monkeypatch.setenv("REPRO_CACHE", "0")
    plan = plan_of(ALL_PROTOCOLS[name].build().program)
    runs = []
    for jobs in (1, 2):
        root = str(tmp_path / f"jobs{jobs}")
        registry = obs.MetricsRegistry()
        old = obs.install_metrics(registry)
        try:
            report = prove(plan, jobs=jobs, ledger=Ledger(root))
        finally:
            obs.install_metrics(old)
            shutdown_pool()
        counters = registry.to_dict()["counters"]
        runs.append((
            report.ok,
            [(o.node, o.description, o.via) for o in report.outcomes],
            sorted(entry.key for entry in Ledger(root).entries()),
            counters["solver_work_total{counter=instances}"],
        ))
    assert runs[0] == runs[1]
    assert runs[0][0] and runs[0][3] == instances


def test_prove_reports_cti_on_buggy_protocol(tmp_path):
    broken = parse_program(
        DIAMOND_SOURCE.replace(
            "action noop {\n    assume true;\n}",
            "variable c : t\n\naction bad {\n    havoc c;\n    insert r1(c);\n}",
        )
    )
    report = prove(plan_of(broken), ledger=Ledger(str(tmp_path)))
    assert not report.ok
    assert report.cti is not None
    assert report.failed_node is not None
    # Nothing unsound was recorded: a rerun still fails.
    assert not prove(plan_of(broken), ledger=Ledger(str(tmp_path))).ok


# ------------------------------------------------------------------ the CLI


def write_rml(tmp_path, source, name="model.rml"):
    path = tmp_path / name
    path.write_text(source)
    return str(path)


def test_cli_prove_cold_then_warm(tmp_path, capsys):
    ledger_dir = str(tmp_path / "ledger")
    code = main(["prove", "lock_server", "--ledger-dir", ledger_dir])
    assert code == 0
    assert "all proof obligations discharged" in capsys.readouterr().out

    code = main(
        ["prove", "lock_server", "--ledger-dir", ledger_dir, "--format", "json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["queries"] == 0
    assert payload["ledger_hit_rate"] == 1.0

    code = main(
        ["status", "lock_server", "--ledger-dir", ledger_dir, "--format", "json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert all(
        row["state"] == "proven" for row in payload["invariants"]
    )


def test_cli_status_unproven_exits_nonzero(tmp_path, capsys):
    code = main(
        ["status", "lock_server", "--ledger-dir", str(tmp_path / "empty")]
    )
    assert code == 1
    assert "unproven" in capsys.readouterr().out


def test_cli_prove_rejects_with_cycle_before_solving(tmp_path, capsys):
    path = write_rml(tmp_path, CYCLE_SOURCE)
    code = main(["prove", path, "--ledger-dir", str(tmp_path / "ledger")])
    captured = capsys.readouterr()
    assert code == 2
    assert "RML304" in captured.err
    assert "closes the cycle" in captured.err
    assert "refusing to start the solver" in captured.err
    # Pre-solve: nothing was recorded.
    assert not (tmp_path / "ledger").exists()


def test_cli_prove_rml_file_with_proofs(tmp_path, capsys):
    path = write_rml(tmp_path, DIAMOND_SOURCE)
    ledger_dir = str(tmp_path / "ledger")
    assert main(["prove", path, "--ledger-dir", ledger_dir]) == 0
    capsys.readouterr()
    assert main(["status", path, "--ledger-dir", ledger_dir]) == 0
    out = capsys.readouterr().out
    assert "proven" in out and "p4" in out


def test_cli_prove_unknown_target_errors():
    with pytest.raises(SystemExit):
        main(["prove", "no_such_protocol_or_file"])


# ------------------------------------------------------------- engine reruns


def test_check_inductive_consults_the_ledger(tmp_path, bundle):
    ledger = Ledger(str(tmp_path))
    cold = check_inductive(bundle.program, bundle.invariant, ledger=ledger)
    assert cold.holds
    assert cold.statistics.get("ledger_hits", 0) == 0
    warm = check_inductive(bundle.program, bundle.invariant, ledger=ledger)
    assert warm.holds
    assert warm.statistics["ledger_hits"] > 0
    assert warm.statistics.get("ledger_misses", 0) == 0


def test_session_seeds_from_declared_invariants_and_uses_ledger(tmp_path):
    program = parse_program(DIAMOND_SOURCE)
    session = Session.from_program(program, ledger=Ledger(str(tmp_path)))
    assert [c.name for c in session.conjectures] == ["i1", "i2", "i3", "i4"]
    assert session.check().holds
    warm = session.check()
    assert warm.holds and warm.statistics["ledger_hits"] > 0


def test_houdini_skips_a_fully_ledgered_pool(tmp_path, bundle):
    ledger = Ledger(str(tmp_path))
    first = houdini(bundle.program, bundle.invariant, ledger=ledger)
    assert first.invariant == tuple(bundle.invariant)
    second = houdini(bundle.program, bundle.invariant, ledger=ledger)
    assert second.invariant == tuple(bundle.invariant)
    assert second.rounds == 0
    assert second.statistics["ledger_hits"] > 0
