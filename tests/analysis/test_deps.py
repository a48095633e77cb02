"""Footprints, the dependency graph, and cone-of-influence VC slicing."""

import pytest

from repro import obs
from repro.analysis.deps import (
    build_dependency_graph,
    command_footprint,
    formula_footprint,
    slice_hypotheses,
    slice_vc,
    transition_footprints,
)
from repro.core.induction import Conjecture, check_inductive, obligations
from repro.logic import App, FuncDecl, Rel, RelDecl, Sort, Var, vocabulary
from repro.logic import syntax as s
from repro.obs.metrics import MetricsRegistry, install_metrics
from repro.rml.parser import parse_program

node = Sort("node")
color = Sort("color")
r = RelDecl("r", (node,))
q = RelDecl("q", (node,))
pc = RelDecl("pc", (color,))
f = FuncDecl("f", (node,), node)
X, Y = Var("X", node), Var("Y", node)
C = Var("C", color)

TOY = """program toy

sort node
sort color

relation r : node
relation pc : color

variable v : node

init {
    assume forall X:node. ~r(X);
}

axiom colors: forall C:color. ~pc(C)

invariant keep: forall X:node. ~r(X)

action churn {
    havoc v;
    insert r(v);
    remove r(v);
}

action tick {
    assume forall X:node. ~r(X);
}
"""


class TestFormulaFootprint:
    def test_reads_and_polarity(self):
        formula = s.implies(Rel(r, (X,)), Rel(q, (X,)))
        fp = formula_footprint(s.forall((X,), formula))
        assert fp.reads == {r, q}
        assert r in fp.negative and r not in fp.positive
        assert q in fp.positive and q not in fp.negative

    def test_iff_lands_both(self):
        fp = formula_footprint(s.iff(Rel(r, (X,)), Rel(q, (X,))))
        assert r in fp.positive and r in fp.negative

    def test_quantified_sorts(self):
        fp = formula_footprint(s.forall((X,), s.exists((C,), Rel(pc, (C,)))))
        assert fp.quantified == {node, color}

    def test_cardinality_channel(self):
        # forall X, Y. X = Y mentions no symbol but bounds |node|.
        fp = formula_footprint(s.forall((X, Y), s.Eq(X, Y)))
        assert fp.reads == frozenset()
        assert fp.cardinality == {node}
        assert node in fp.sorts()

    def test_function_sorts_included(self):
        fp = formula_footprint(s.forall((X,), s.Eq(App(f, (X,)), X)))
        assert f in fp.reads
        assert node in fp.sorts()


class TestCommandFootprints:
    def test_transition_footprints_per_branch(self):
        program = parse_program(TOY, check=False)
        labeled = dict(transition_footprints(program))
        assert "churn" in labeled and "tick" in labeled
        churn = labeled["churn"]
        # havoc'd state variables count as writes alongside the relation.
        assert {d.name for d in churn.writes} == {"r", "v"}
        assert {d.name for d in labeled["tick"].writes} == set()
        assert "init" in labeled
        assert {d.name for d in labeled["init"].reads} == {"r"}

    def test_update_reads_its_own_formula(self):
        program = parse_program(TOY, check=False)
        body = command_footprint(program.body)
        assert {"r", "v"} <= {d.name for d in body.writes}


class TestDependencyGraph:
    def test_co_occurrence_edges_with_provenance(self):
        program = parse_program(TOY, check=False)
        graph = build_dependency_graph(program)
        assert set(graph.symbols) == {"r", "pc", "v"}
        # r and v co-occur in the churn transition; pc stays in its own
        # component -- no edge bridges the two.
        assert graph.neighbors("r") == {"v"}
        assert graph.reachable(["r"]) == {"r", "v"}
        assert "pc" not in graph.reachable(["r"])
        via = {e.via for e in graph.edges}
        assert "transition churn" in via

    def test_reachable_is_transitive(self):
        source = TOY.replace(
            "axiom colors: forall C:color. ~pc(C)",
            "axiom colors: forall C:color. ~pc(C)\n"
            "relation mid : node\n"
            "axiom link1: forall X:node. r(X) -> mid(X)\n"
            "axiom link2: forall C:color, X:node. mid(X) -> ~pc(C)",
        )
        program = parse_program(source, check=False)
        graph = build_dependency_graph(program)
        assert {"r", "mid", "pc"} <= graph.reachable(["r"])


class TestSliceHypotheses:
    def test_disconnected_hypothesis_dropped(self):
        goal = s.exists((X,), Rel(r, (X,)))
        hyps = [
            ("near", s.forall((X,), s.implies(Rel(r, (X,)), Rel(q, (X,))))),
            ("far", s.forall((C,), s.not_(Rel(pc, (C,))))),
        ]
        result = slice_hypotheses(goal, hyps)
        assert result.dropped_labels == ("far",)
        assert [label for label, _ in result.kept] == ["near"]
        assert 0 < result.ratio < 1

    def test_transitive_connection_kept(self):
        goal = s.exists((X,), Rel(r, (X,)))
        hyps = [
            ("bridge", s.forall((X,), s.implies(Rel(r, (X,)), Rel(q, (X,))))),
            ("beyond", s.forall((X,), Rel(q, (X,)))),
        ]
        result = slice_hypotheses(goal, hyps)
        assert result.dropped == ()

    def test_cardinality_coupling_respected(self):
        # The hypothesis bounds |node| without naming a symbol; the goal
        # quantifies over node, so dropping it would be model-changing.
        goal = s.exists((X,), Rel(r, (X,)))
        hyps = [("one_node", s.forall((X, Y), s.Eq(X, Y)))]
        result = slice_hypotheses(goal, hyps)
        assert result.dropped == ()

    def test_cardinality_of_unrelated_sort_dropped(self):
        goal = s.exists((X,), Rel(r, (X,)))
        c2 = Var("C2", color)
        hyps = [("one_color", s.forall((C, c2), s.Eq(C, c2)))]
        result = slice_hypotheses(goal, hyps)
        assert result.dropped_labels == ("one_color",)


class TestSliceVc:
    def test_restricted_vocabulary(self):
        vocab = vocabulary(
            sorts=[node, color], relations=[r, q, pc], functions=[]
        )
        goal = s.exists((X,), Rel(r, (X,)))
        sliced, restricted, result = slice_vc(
            vocab, [("far", s.forall((C,), s.not_(Rel(pc, (C,)))))], goal
        )
        assert result.dropped_labels == ("far",)
        assert pc not in restricted.relations
        assert q not in restricted.relations  # unmentioned symbols pruned too
        assert r in restricted.relations
        assert restricted.sorts == vocab.sorts  # sorts always survive

    def test_noop_slice_returns_same_vocab(self):
        vocab = vocabulary(sorts=[node], relations=[r], functions=[])
        goal = s.exists((X,), Rel(r, (X,)))
        _, restricted, result = slice_vc(
            vocab, [("near", s.forall((X,), s.not_(Rel(r, (X,)))))], goal
        )
        assert result.dropped == ()
        assert restricted is vocab


class TestObligationSlicing:
    def test_obligations_carry_slice_fields(self):
        program = parse_program(TOY, check=False)
        conjectures = [Conjecture(i.name, i.formula) for i in program.invariants]
        pending = obligations(program, conjectures, sliced=True)
        consecution = next(o for o in pending if o.kind == "consecution")
        # The color-only axiom is outside the goal's cone.
        assert "axiom colors" in consecution.sliced_dropped
        assert consecution.sliced_vc is not None
        assert consecution.sliced_vocab is not None
        assert not any(
            rel.name == "pc" for rel in consecution.sliced_vocab.relations
        )

    def test_slicing_disabled_by_flag(self, configure):
        configure(slice=False)
        program = parse_program(TOY, check=False)
        conjectures = [Conjecture(i.name, i.formula) for i in program.invariants]
        for obligation in obligations(program, conjectures):
            assert obligation.sliced_vc is None
            assert obligation.sliced_vocab is None
            assert obligation.sliced_dropped == ()

    def test_explicit_override_beats_env(self, configure):
        configure(slice=False)
        program = parse_program(TOY, check=False)
        conjectures = [Conjecture(i.name, i.formula) for i in program.invariants]
        pending = obligations(program, conjectures, sliced=True)
        assert any(o.sliced_vc is not None for o in pending)

    def test_verdict_identical_sliced_and_unsliced(self, configure):
        program = parse_program(TOY, check=False)
        conjectures = [Conjecture(i.name, i.formula) for i in program.invariants]
        configure(slice=True)
        sliced = check_inductive(program, conjectures)
        configure(slice=False)
        full = check_inductive(program, conjectures)
        assert sliced.holds == full.holds is True


class TestAnalysisMemoization:
    def test_qag_edge_cache_counts_hits(self):
        from repro.analysis.qag import formula_edges

        registry = MetricsRegistry()
        old = install_metrics(registry)
        try:
            fresh = RelDecl("memo_probe", (node,))
            formula = s.forall((X,), s.exists((Y,), Rel(fresh, (Y,))))
            first = formula_edges(formula, vc="a")
            second = formula_edges(formula, vc="b")
        finally:
            install_metrics(old)
        assert [e.key for e in first] == [e.key for e in second]
        assert first[0].vc == "a" and second[0].vc == "b"
        counter = registry._counters.get("analysis_cache_hits_total{kind=qag}")
        assert counter is not None and counter.value >= 1

    def test_preflight_cache_counts_hits_and_relabels(self):
        from repro.analysis.preflight import preflight_program

        program = parse_program(TOY, check=False)
        registry = MetricsRegistry()
        old = install_metrics(registry)
        try:
            first = preflight_program(program, origin="first")
            second = preflight_program(program, origin="second")
        finally:
            install_metrics(old)
        assert [d.code for d in first] == [d.code for d in second]
        assert all(d.origin == "second" for d in second)
        counter = registry._counters.get(
            "analysis_cache_hits_total{kind=preflight}"
        )
        assert counter is not None and counter.value >= 1
