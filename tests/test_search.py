import pytest

from plf import (
    Exhausted,
    LimitReached,
    Proved,
    SearchLimits,
    check_proof,
    check_statement_proof,
    init_search,
    load_system,
    render_string,
    run,
)
from plf.proof import proof_leaves
from plf.search import expand_enode, extract_proof, propagate_anode, seed_leaf_spts
from plf.term import EMPTY, Substitution, apply, freeze_expression, unify_substitutions
from helpers import assertion_multiset, expr, sub


def fresh_state(d, sid, **kwargs):
    state = init_search(d, d.statement(sid), **kwargs)
    state.limits = SearchLimits()
    return state


def test_init(hilbert):
    state = fresh_state(hilbert, "id")
    assert len(state.queue) == 1
    root = state.goals[state.root]
    assert render_string(root.expression) == "( p -> p )"
    assert root.scope == frozenset()
    assert root.certs == []


def test_init_rejects_foreign_statement(hilbert):
    from plf import Statement, UnknownStatementError

    foreign = Statement("zz", (), freeze_expression(expr(hilbert, "q")))
    with pytest.raises(UnknownStatementError):
        init_search(hilbert, foreign)


def test_expand_root_only_mp_applies(hilbert):
    # with the goal's variables frozen, A1 and A2 propositions clash against
    # the atomic sides of ( p -> p ); only MP's bare-variable proposition fits
    state = fresh_state(hilbert, "id")
    rids = expand_enode(state, state.root)
    assert [state.rules[r].assertion.id for r in rids] == ["MP"]
    mp = state.rules[rids[0]]
    kids = [render_string(state.goals[g].expression) for g in mp.children]
    assert kids[1].endswith("-> ( p -> p ) )")
    # edge invariant
    theta = mp.edge_unifier
    assert apply(theta, mp.assertion.proposition) == apply(
        theta, state.goals[state.root].expression
    )


def test_expand_bare_variable_forks_every_assertion(hilbert):
    state = fresh_state(hilbert, "id")
    expand_enode(state, state.root)
    mp_children = state.rules[0].children
    minor = mp_children[0]  # a bare fresh variable
    rids = expand_enode(state, minor)
    assert [state.rules[r].assertion.id for r in rids] == ["A1", "A2", "MP"]


def test_expand_zero_assertions():
    d = load_system(
        'kind wff\nrule c : wff ::= "c"\nvar p : wff\nstatement s : => "c"\n'
    )
    state = fresh_state(d, "s")
    assert expand_enode(state, state.root) == []


SEEDED = """\
kind wff
var ph ps p q : wff
rule imp : wff ::= "(" wff "->" wff ")"
axiom MP : "ph" "( ph -> ps )" => "ps"
statement s : "( p -> q )" => "q"
"""


def test_seed_leaf_certificates():
    d = load_system(SEEDED)
    state = fresh_state(d, "s")
    expand_enode(state, state.root)  # MP forks: children ph#0, ( ph#0 -> q )
    mp = state.rules[0]
    major = state.goals[mp.children[1]]
    assert render_string(major.expression) == "( ph#0 -> q )"
    leaf_certs = [state.certs[c] for c in major.certs if not state.certs[c].children]
    assert len(leaf_certs) == 1
    assert leaf_certs[0].label == Substitution(
        {state.system.grammar.variable("ph#0"): freeze_expression(expr(d, "p"))}
    )


def test_seed_no_match():
    d = load_system(SEEDED)
    state = fresh_state(d, "s")
    # the root goal is q, which does not match the premise ( p -> q )
    assert seed_leaf_spts(state, state.root) == []


def test_seed_exact_premise_is_empty_substitution():
    d = load_system(
        'kind wff\nvar p : wff\nrule imp : wff ::= "(" wff "->" wff ")"\n'
        'statement s : "p" => "p"\n'
    )
    state = fresh_state(d, "s")
    created = seed_leaf_spts(state, state.root)
    assert len(created) == 1
    assert state.certs[created[0]].label == EMPTY
    assert state.proved == created[0]


def test_goal_equal_to_premise_proved_with_single_leaf():
    d = load_system(
        'kind wff\nvar p q : wff\nrule imp : wff ::= "(" wff "->" wff ")"\n'
        'statement s : "( p -> q )" => "( p -> q )"\n'
    )
    state = fresh_state(d, "s")
    out = run(state, SearchLimits(max_depth=2, timeout=5))
    assert isinstance(out, Proved)
    assert out.proof.inference is None
    assert check_statement_proof(d, d.statement("s"), out.proof) == []


def test_run_hilbert_id(hilbert):
    state = fresh_state(hilbert, "id")
    out = run(state, SearchLimits(max_depth=6, timeout=10))
    assert isinstance(out, Proved)
    assert check_statement_proof(hilbert, hilbert.statement("id"), out.proof) == []
    assert assertion_multiset(out.proof) == {"A1": 2, "A2": 1, "MP": 2}


def test_run_unprovable_goal_hits_limits(hilbert):
    d = load_system(
        """\
kind wff
var ph ps ch p q r : wff
rule imp : wff ::= "(" wff "->" wff ")"
axiom A1 : => "( ph -> ( ps -> ph ) )"
axiom A2 : => "( ( ph -> ( ps -> ch ) ) -> ( ( ph -> ps ) -> ( ph -> ch ) ) )"
axiom MP : "ph" "( ph -> ps )" => "ps"
statement q_alone : => "q"
"""
    )
    state = fresh_state(d, "q_alone")
    out = run(state, SearchLimits(max_depth=2, max_nodes=200, timeout=5))
    assert isinstance(out, LimitReached)


def test_universal_axiom_proves_anything():
    d = load_system(
        'kind wff\nvar ph p q : wff\nrule imp : wff ::= "(" wff "->" wff ")"\n'
        'axiom any : => "ph"\n'
        'statement s : => "( p -> ( q -> p ) )"\n'
    )
    state = fresh_state(d, "s")
    out = run(state, SearchLimits(max_depth=1, timeout=5))
    assert isinstance(out, Proved)
    proof = out.proof
    assert proof.inference.assertion_id == "any"
    assert proof.inference.children == ()


def test_exhausted_when_nothing_applies():
    d = load_system(
        'kind wff\nrule c : wff ::= "c"\nrule d2 : wff ::= "d"\nvar p : wff\n'
        'axiom onlyc : => "c"\nstatement s : => "d"\n'
    )
    state = fresh_state(d, "s")
    out = run(state, SearchLimits(max_depth=4, timeout=5))
    assert isinstance(out, Exhausted)


def test_node_cap_trips(hilbert):
    state = fresh_state(hilbert, "id")
    out = run(state, SearchLimits(max_nodes=1, timeout=5))
    assert isinstance(out, LimitReached)
    assert out.limit == "nodes"


def test_propagation_clash_skipped():
    d = load_system(SEEDED)
    g = d.grammar
    state = fresh_state(d, "s")
    expand_enode(state, state.root)
    mp = state.rules[0]
    minor_goal = state.goals[mp.children[0]]  # bare ph#0
    before = len(mp.certs)
    tested_before = state.stats.tuples_tested
    # hand-plant a clashing leaf certificate on the minor premise: ph#0 := q
    # cannot be reconciled with the major's ph#0 := p
    cid = state._add_cert(
        minor_goal.id,
        False,
        Substitution({g.variable("ph#0"): freeze_expression(expr(d, "q"))}),
        (),
    )
    propagate_anode(state, mp.id, cid)
    assert state.stats.tuples_tested > tested_before
    assert len(mp.certs) == before


def test_extract_premise_less_transition():
    d = load_system(
        'kind wff\nvar ph p : wff\nrule imp : wff ::= "(" wff "->" wff ")"\n'
        'axiom any : => "( ph -> ph )"\n'
        'statement s : => "( p -> p )"\n'
    )
    state = fresh_state(d, "s")
    out = run(state, SearchLimits(max_depth=2, timeout=5))
    assert isinstance(out, Proved)
    inf = out.proof.inference
    assert inf.children == ()
    assert apply(inf.witness, d.assertion("any").proposition) == out.proof.expression


def test_certificate_sets_only_grow(hilbert):
    state = fresh_state(hilbert, "id")
    out = run(state, SearchLimits(max_depth=6, timeout=10))
    assert state.stats.certificates == len(state.certs)
    assert state.stats.tuples_unified <= state.stats.tuples_tested
    # every certificate created is still attached to its node
    attached = sum(len(g.certs) for g in state.goals.values()) + sum(
        len(r.certs) for r in state.rules.values()
    )
    assert attached == len(state.certs)


def test_self_check_mode_finds_no_violations(hilbert):
    state = fresh_state(hilbert, "id", self_check=True)
    out = run(state, SearchLimits(max_depth=6, timeout=10))
    assert isinstance(out, Proved)
    assert state.self_check_failures == []


def test_trace_stream(hilbert):
    lines = []
    state = init_search(hilbert, hilbert.statement("id"), trace=lines.append)
    run(state, SearchLimits(max_depth=6, timeout=10))
    assert lines[0] == "EXPAND e0"
    assert any(l.startswith("ANODE a0 MP {") for l in lines)
    assert any(l.startswith("SPT-LEAF") for l in lines) is False  # no premises here
    assert any(l.startswith("SPT a") for l in lines)
    assert any(l.startswith("SPT e") for l in lines)
    assert lines[-1] == "PROVED e0"


def test_tracing_off_builds_no_trace_text(hilbert, monkeypatch):
    # trace text is rendered by substitution_text through plf.term's
    # render_string; with no trace callback the search must never reach it
    def refuse(e):
        raise AssertionError("trace text built with tracing off")

    monkeypatch.setattr("plf.term.render_string", refuse)
    out = run(init_search(hilbert, hilbert.statement("id")), SearchLimits(max_depth=6))
    assert isinstance(out, Proved)


def test_extracted_proof_is_more_general_than_instance(hilbert):
    # the proof the engine finds for ( p -> p ) keeps a free variable where
    # the textbook proof commits to p
    from test_proof import textbook_id_proof
    from plf.proof import generality, substitute_proof

    state = fresh_state(hilbert, "id")
    out = run(state, SearchLimits(max_depth=6, timeout=10))
    textbook = textbook_id_proof(hilbert)
    delta = generality(out.proof, textbook)
    assert delta is not None
    assert substitute_proof(delta, out.proof) == textbook


def test_duplicate_certificates_are_not_readded():
    d = load_system(SEEDED)
    g = d.grammar
    state = fresh_state(d, "s")
    expand_enode(state, state.root)
    mp = state.rules[0]
    major = state.goals[mp.children[1]]
    count = len(major.certs)
    # replay the premise seeding: same label, same (empty) children
    assert seed_leaf_spts(state, major.id) == []
    assert len(major.certs) == count


def test_trace_includes_premise_leaves():
    d = load_system(SEEDED)
    lines = []
    state = init_search(d, d.statement("s"), trace=lines.append)
    run(state, SearchLimits(max_depth=3, timeout=5))
    assert any(l.startswith("SPT-LEAF e") for l in lines)
