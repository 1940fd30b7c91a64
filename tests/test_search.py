import dataclasses
from contextlib import nullcontext

import pytest

import plf.search
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
from plf.proof import proof_leaves, serialize_proof
from plf.search import expand_enode, extract_proof, propagate_anode, seed_leaf_spts
from plf.grammar import Apply
from plf.term import (
    EMPTY,
    Substitution,
    apply,
    freeze_expression,
    unifier_com,
    unifier_delta,
    unify_substitutions,
    variables_of,
)
from conftest import HILBERT_PLS
from helpers import (
    assertion_multiset,
    certificate_problems,
    expr,
    flagged,
    reference_expand_enode,
    reference_propagate_anode,
    search_with_and_without_closure,
    STOP_ORDER,
    sub,
    without_closure,
)
from randsys import corpus
from test_acceptance import CORPUS_SEED, CORPUS_SYSTEMS, SEARCH_LIMITS


def fresh_state(d, sid):
    state = init_search(d, d.statement(sid))
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
    expand_enode(state, state.root)
    rids = state.goals[state.root].children
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
    expand_enode(state, minor)
    rids = state.goals[minor].children
    assert [state.rules[r].assertion.id for r in rids] == ["A1", "A2", "MP"]


def test_expand_zero_assertions():
    d = load_system(
        'kind wff\nrule c : wff ::= "c"\nvar p : wff\nstatement s : => "c"\n'
    )
    state = fresh_state(d, "s")
    expand_enode(state, state.root)
    assert state.goals[state.root].children == []


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
    leaf_certs = [state.certs[c] for c in major.certs if state.certs[c].rule is None]
    assert len(leaf_certs) == 1
    assert leaf_certs[0].label == Substitution(
        {state.system.grammar.variable("ph#0"): freeze_expression(expr(d, "p"))}
    )


def test_seed_no_match():
    d = load_system(SEEDED)
    state = fresh_state(d, "s")
    # the root goal is q, which does not match the premise ( p -> q )
    seed_leaf_spts(state, state.root)
    assert state.goals[state.root].certs == []


def test_seed_exact_premise_is_empty_substitution():
    d = load_system(
        'kind wff\nvar p : wff\nrule imp : wff ::= "(" wff "->" wff ")"\n'
        'statement s : "p" => "p"\n'
    )
    state = fresh_state(d, "s")
    propagate_anode(state)  # init_search seeded the root
    created = state.goals[state.root].certs
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


# The three hard statements of the benchmark's Hilbert ladder; ch stands in
# for the ladder's fourth statement variable.
HARD_HILBERT = load_system(
    HILBERT_PLS
    + 'statement syld : "( p -> ( q -> r ) )" "( p -> ( r -> ch ) )" => "( p -> ( q -> ch ) )"\n'
    + 'statement imim1 : => "( ( p -> q ) -> ( ( q -> r ) -> ( p -> r ) ) )"\n'
    + 'statement syl5 : "( p -> q )" "( r -> ( q -> ch ) )" => "( r -> ( p -> ch ) )"\n'
)
HARD_AT_CAP_20 = [
    (HARD_HILBERT, sid, SearchLimits(max_depth=8, max_spts_per_node=20, timeout=600.0))
    for sid in ("syld", "imim1", "syl5")
]


def test_timeout_holds_inside_crossing(monkeypatch):
    # at the default cap syld crosses about a million tuples, most of them
    # at a few rule nodes near the root; a clock that jumps past the
    # deadline on its 3000th read must stop the crossing at once
    state = fresh_state(HARD_HILBERT, "syld")
    reads = 0
    tested_when_passed = []

    def clock():
        nonlocal reads
        reads += 1
        if reads < 3000:
            return 0.0
        if not tested_when_passed:
            tested_when_passed.append(state.stats.tuples_tested)
        return 1e9

    monkeypatch.setattr(plf.search.time, "monotonic", clock)
    out = run(state, SearchLimits(max_depth=8, timeout=60.0))
    assert isinstance(out, LimitReached)
    assert out.limit == "timeout"
    assert tested_when_passed and tested_when_passed[0] > 0
    assert state.stats.tuples_tested - tested_when_passed[0] <= 1


def _search_record(state, outcome):
    """Everything a search decides: verdict, limit, proof text, node and
    certificate counts, every certificate in id order, and the delta and
    com that each certificate's stored unifier stands for."""
    stats = outcome.stats
    certs = list(state.certs.values())  # id, goal, rule, label, children, unifier, first
    return (
        type(outcome).__name__,
        getattr(outcome, "limit", None),
        serialize_proof(outcome.proof) if isinstance(outcome, Proved) else None,
        (stats.goal_nodes, stats.rule_nodes, stats.certificates),
        certs,
        [(unifier_delta(c.unifier), unifier_com(c.unifier, c.first)) for c in certs],
    )


def _same_as_reference_crossing(monkeypatch, d, sid, limits):
    """Run the search and the reference crossing (no cut-off at full nodes);
    require the same record and no more tuples tested.  Returns both
    outcomes, the search's first."""
    with monkeypatch.context() as m:
        m.setattr(plf.search, "_cross", reference_propagate_anode)
        ref_state = init_search(d, d.statement(sid))
        ref = run(ref_state, limits)
    state = init_search(d, d.statement(sid))
    out = run(state, limits)
    assert _search_record(state, out) == _search_record(ref_state, ref)
    assert out.stats.tuples_tested <= ref.stats.tuples_tested
    return out, ref


# A rule node that fills puts its goal at the cap too, which closes the
# goal's subtree, so no crossing starts there again; the full-node stop
# saves only the rest of the crossing under way when the node fills.  At
# cap 10 that happens on all three hard items (1 to 3 tuples each).
@pytest.mark.parametrize("sid", ["syld", "imim1", "syl5"])
def test_crossing_equals_reference_on_hard_hilbert(monkeypatch, sid):
    limits = SearchLimits(max_depth=8, max_spts_per_node=10, timeout=600.0)
    out, ref = _same_as_reference_crossing(monkeypatch, HARD_HILBERT, sid, limits)
    assert out.stats.tuples_tested < ref.stats.tuples_tested


# Slices on which the cap trips.  Of the first 250 systems, only s1 of the
# 152nd (corpus index 151) fills a rule node mid-crossing, and only at cap
# 40, so only that slice shows the full-node stop saving tuples; at caps 2
# and 120 the two crossings test the same tuples.
@pytest.mark.parametrize(
    "cap, systems, saves",
    [
        pytest.param(2, 80, False, id="2"),
        pytest.param(40, 152, True, id="40"),
        pytest.param(120, CORPUS_SYSTEMS, False, id="120"),
    ],
)
def test_crossing_equals_reference_on_corpus(monkeypatch, cap, systems, saves):
    limits = SearchLimits(max_depth=6, max_nodes=4000, max_spts_per_node=cap, timeout=600.0)
    verdicts = set()
    tested = [0, 0]
    for d in corpus(CORPUS_SEED, systems):
        for s in d.statements:
            out, ref = _same_as_reference_crossing(monkeypatch, d, s.id, limits)
            verdicts.add(type(out).__name__)
            tested[0] += out.stats.tuples_tested
            tested[1] += ref.stats.tuples_tested
    assert verdicts == {"Proved", "Exhausted", "LimitReached"}
    assert (tested[0] < tested[1]) == saves


def _tree_record(state, lines):
    """Every goal and rule node as built, the fresh-name counter and the
    trace, flags included."""
    goals = [
        (flagged(g.expression), g.depth, g.parent, sorted(map(flagged, g.scope)), g.children)
        for g in state.goals.values()
    ]
    rules = [
        (
            r.assertion.id,
            [flagged(e) for e in (*r.assertion.premises, r.assertion.proposition)],
            [(flagged(v), flagged(w)) for v, w in r.rename.items()],
            [(flagged(v), flagged(t)) for v, t in r.edge_unifier.items()],
            r.parent,
            r.children,
        )
        for r in state.rules.values()
    ]
    return goals, rules, state.supply.counter, lines


def _same_as_reference_expansion(monkeypatch, d, sid, limits):
    """Run the traced search with expansion by lookup and with the reference
    expansion (rename and unify every assertion for every goal); require the
    same search record, tree, fresh names and trace.  Returns the state and
    outcome of expansion by lookup."""
    runs = []
    for patched in (True, False):
        lines = []
        with monkeypatch.context() as m:
            if patched:
                m.setattr(plf.search, "expand_enode", reference_expand_enode)
            state = init_search(d, d.statement(sid), trace=lines.append)
            out = run(state, limits)
        runs.append((state, out, (_search_record(state, out), _tree_record(state, lines))))
    assert runs[0][2] == runs[1][2]
    assert runs[0][0].expansions == {}  # the reference does not look up
    return runs[1][0], runs[1][1]


@pytest.mark.parametrize("sid", ["syld", "imim1", "syl5"])
def test_expansion_equals_reference_on_hard_hilbert(monkeypatch, sid):
    # at cap 0 no goal holds a certificate, so none is ever full and the
    # whole depth-8 tree is built: its 511 goal nodes fall into 15 variant
    # classes; at cap 20 full goals close their subtrees early
    limits = SearchLimits(max_depth=8, max_spts_per_node=0, timeout=600.0)
    state, out = _same_as_reference_expansion(monkeypatch, HARD_HILBERT, sid, limits)
    assert 0 < len(state.expansions) < out.stats.goal_nodes / 10
    limits = dataclasses.replace(limits, max_spts_per_node=20)
    _, out = _same_as_reference_expansion(monkeypatch, HARD_HILBERT, sid, limits)
    assert out.stats.certificates > 0


def test_expansion_equals_reference_on_corpus(monkeypatch):
    verdicts = set()
    for d in corpus(CORPUS_SEED, 40):
        for s in d.statements:
            _, out = _same_as_reference_expansion(monkeypatch, d, s.id, SEARCH_LIMITS)
            verdicts.add(type(out).__name__)
    assert verdicts == {"Proved", "Exhausted", "LimitReached"}


def _counting_builds(monkeypatch):
    """The ids of the looked-up rule nodes that get built, in build order."""
    built = []
    build = plf.search._build_rule

    def counted(rule):
        built.append(rule.id)
        build(rule)

    monkeypatch.setattr(plf.search, "_build_rule", counted)
    return built


def test_search_without_certificates_builds_no_looked_up_node(monkeypatch):
    built = _counting_builds(monkeypatch)
    d = corpus(CORPUS_SEED, 152)[151]
    state = init_search(d, d.statement("s0"))
    out = run(state, SEARCH_LIMITS)
    assert isinstance(out, LimitReached) and out.limit == "nodes"
    assert state.certs == {}
    assert built == []
    # 1,407 of its 1,422 rule nodes were made by lookup
    assert sum(r.lookup is not None for r in state.rules.values()) > len(state.rules) / 2


def _built_as_read(state, built):
    """Crossing reads a rule node's edge unifier only for a tuple that
    unifies, so the node then holds a certificate, and extraction reads only
    certified nodes; with no cap tripped, the looked-up nodes built must be
    exactly the certified ones, each built once.  Returns how many stayed
    unbuilt."""
    assert not state.certs_capped
    unbuilt = {r.id for r in state.rules.values() if r.lookup is not None}
    looked_up = set(built) | unbuilt
    assert len(built) == len(set(built))
    assert set(built) == {rid for rid in looked_up if state.rules[rid].certs}
    return len(unbuilt)


def test_searches_build_only_the_looked_up_nodes_they_read(monkeypatch, hilbert):
    built = _counting_builds(monkeypatch)
    state = init_search(hilbert, hilbert.statement("id"))
    assert isinstance(run(state, SearchLimits(max_depth=6)), Proved)
    assert _built_as_read(state, built) and built
    unbuilt = 0
    # no search of this slice trips the cap; with failed subtrees dropped,
    # 40 systems leave too few looked-up nodes unbuilt
    for d in corpus(CORPUS_SEED, 60):
        for s in d.statements:
            built.clear()
            state = init_search(d, d.statement(s.id))
            run(state, SEARCH_LIMITS)
            unbuilt += _built_as_read(state, built)
    assert unbuilt > 1000


def test_every_looked_up_rule_node_builds_as_the_reference_expands(monkeypatch):
    # untraced searches leave most looked-up rule nodes unbuilt; reading every
    # field builds them, and each must pass the edge check and equal the node
    # the reference expansion made, flags included
    deferred = 0
    for d in corpus(CORPUS_SEED, 60):
        for s in d.statements:
            with monkeypatch.context() as m:
                m.setattr(plf.search, "expand_enode", reference_expand_enode)
                ref_state = init_search(d, d.statement(s.id))
                ref = run(ref_state, SEARCH_LIMITS)
            state = init_search(d, d.statement(s.id))
            out = run(state, SEARCH_LIMITS)
            deferred += sum(r.lookup is not None for r in state.rules.values())
            for r in state.rules.values():
                theta = r.edge_unifier
                assert apply(theta, r.assertion.proposition) == apply(theta, state.goals[r.parent].expression)
            assert _tree_record(state, []) == _tree_record(ref_state, [])
            assert _search_record(state, out) == _search_record(ref_state, ref)
    assert deferred > 500  # nodes the searches themselves never built


NODE_SWEEP = load_system(HILBERT_PLS + 'statement syl : "( p -> q )" "( q -> r )" => "( p -> r )"\n')


def test_node_limit_equals_reference(monkeypatch):
    # an expansion cut short by the node limit is not recorded, and the limit
    # trips at the same rule node whether the goal was looked up or not
    cases = [(NODE_SWEEP, "id"), (NODE_SWEEP, "syl")]
    cases += [(d, d.statements[0].id) for d in corpus(CORPUS_SEED, 6)]
    tripped = 0
    for d, sid in cases:
        for n in range(1, 61):
            limits = SearchLimits(max_depth=6, max_nodes=n, max_spts_per_node=120, timeout=600.0)
            _, out = _same_as_reference_expansion(monkeypatch, d, sid, limits)
            assert out.stats.nodes <= n
            tripped += isinstance(out, LimitReached) and out.limit == "nodes"
    assert tripped > 60


def test_cut_short_expansion_is_not_recorded(hilbert):
    # MP alone unifies with ( p -> p ) and needs three more nodes
    state = fresh_state(hilbert, "id")
    state.limits = SearchLimits(max_nodes=3)
    assert expand_enode(state, state.root) is False
    assert state.goals[state.root].children == []
    assert state.expansions == {}
    state.limits = SearchLimits(max_nodes=4)
    assert expand_enode(state, state.root) is True
    assert len(state.goals[state.root].children) == 1
    assert len(state.expansions) == 1


def _imp(left, right):
    return Apply(expr(HARD_HILBERT, "( ph -> ps )").production, (left, right))


def _key(e):
    return plf.search._variant_key(e)[0]


def test_variant_key_shared_by_goals_renamed_apart():
    h = HARD_HILBERT
    assert _key(expr(h, "( ph#3 -> ( ps#3 -> ph#3 ) )")) == _key(expr(h, "( ch#7 -> ( ph#9 -> ch#7 ) )"))
    p = freeze_expression(expr(h, "p"))
    assert _key(_imp(p, expr(h, "ph#3"))) == _key(_imp(p, expr(h, "ps#12")))
    closed = freeze_expression(expr(h, "( p -> q )"))
    assert _key(_imp(closed, expr(h, "ph#3"))) == _key(_imp(closed, expr(h, "ch#5")))
    variables = plf.search._variant_key(expr(h, "( ps#3 -> ( ph#3 -> ps#3 ) )"))[1]
    assert [v.name for v in variables] == ["ps#3", "ph#3"]


def test_variant_key_tells_goals_apart():
    h = HARD_HILBERT
    frozen = freeze_expression
    # a frozen variable
    assert _key(_imp(frozen(expr(h, "p")), expr(h, "ph#3"))) != _key(
        _imp(frozen(expr(h, "q")), expr(h, "ph#3"))
    )
    # sharing
    assert _key(expr(h, "( ph#3 -> ph#3 )")) != _key(expr(h, "( ph#3 -> ps#3 )"))
    # a frozen/replaceable twin, which == does not tell apart
    assert frozen(expr(h, "( ph -> ph )")) == expr(h, "( ph -> ph )")
    assert _key(frozen(expr(h, "( ph -> ph )"))) != _key(expr(h, "( ph -> ph )"))
    assert _key(_imp(frozen(expr(h, "ph")), expr(h, "ph"))) != _key(expr(h, "( ph -> ph )"))
    # a variable's kind
    d = load_system(
        'kind wff\nkind set\nkind class\ncoerce set into class\n'
        'rule eq : wff ::= class "=" class\nvar x y : set\nvar A B : class\n'
    )
    assert _key(expr(d, "x#1 = y#1")) != _key(expr(d, "A#1 = B#1"))
    assert _key(expr(d, "x#1 = y#1")) == _key(expr(d, "y#4 = x#2"))


# Every assertion has a premise and the statement has none, so expanding
# goals made by hand creates no certificate that would climb above them.
NO_CERTS = load_system(
    """\
kind wff
var ph ps ch p : wff
rule imp : wff ::= "(" wff "->" wff ")"
rule neg : wff ::= "-." wff
axiom con : "( -. ps -> -. ph )" => "( ph -> ps )"
axiom ax : "ph" "( ps -> ch )" => "( ph -> ( ps -> ch ) )"
axiom mp : "ph" "( ph -> ps )" => "ps"
statement s : => "( p -> p )"
"""
)


def test_variant_hit_renames_simultaneously(monkeypatch):
    # ( ph#3 -> ps#3 ) records its class, which ( ps#3 -> ph#3 ) then looks
    # up: ph#3 and ps#3 swap, which renaming one after the other would merge
    records = []
    for expand in (reference_expand_enode, expand_enode):
        lines = []
        state = init_search(NO_CERTS, NO_CERTS.statement("s"), trace=lines.append)
        state.limits = SearchLimits()
        state.supply.counter = 4  # ph#3 and ps#3 are not fresh
        for text in ("( ph#3 -> ps#3 )", "( ps#3 -> ph#3 )"):
            e = expr(NO_CERTS, text)
            expand(state, state._new_goal(e, 1, None, frozenset(variables_of(e))))
        records.append(_tree_record(state, lines))
    assert records[0] == records[1]
    assert len(state.expansions) == 1
    con = state.rules[3]  # con, ax, mp for each goal
    assert con.assertion.id == "con"
    assert render_string(state.goals[con.children[0]].expression) == "( -. ph#3 -> -. ps#3 )"


def _certificate_invariants(state):
    """What makes dedup keys unnecessary: no node holds a certificate twice,
    no rule node derives two from one tuple, a derived label speaks only of
    its goal, and a goal holds only its own leaves and its rule children's
    certificates.  Every node keeps to the cap.  Returns the number of
    distinct certificates held."""
    held = set()
    for node in (*state.goals.values(), *state.rules.values()):
        assert len(set(node.certs)) == len(node.certs) <= state.limits.max_spts_per_node
        held.update(node.certs)
    for rule in state.rules.values():
        tuples = [state.certs[c].children for c in rule.certs]
        assert len(set(tuples)) == len(tuples)
        scope = state.goals[rule.parent].scope
        for c in rule.certs:
            cert = state.certs[c]
            assert (cert.goal, cert.rule) == (rule.parent, rule.id)
            assert all(v in scope for v, _ in cert.label.items())
    for goal in state.goals.values():
        for c in goal.certs:
            cert = state.certs[c]
            assert cert.goal == goal.id
            assert cert.rule is None or cert.rule in goal.children
    return len(held)


def test_certificate_invariants_hold():
    cases = HARD_AT_CAP_20 + [(d, s.id, SEARCH_LIMITS) for d in corpus(CORPUS_SEED, 40) for s in d.statements]
    verdicts = set()
    for d, sid, limits in cases:
        state = init_search(d, d.statement(sid))
        out = run(state, limits)
        verdicts.add(type(out).__name__)
        assert _certificate_invariants(state) == state.stats.certificates
    assert verdicts == {"Proved", "Exhausted", "LimitReached"}


def test_full_node_stops_crossing_on_syld():
    # goals near the root fill soon after the cap trips, and nothing beneath
    # them is expanded or crossed: 27 goal nodes and 543 tuples, where the
    # search without the closure builds all 511 goal nodes of the depth-8
    # tree and crosses 3,944 tuples (17,808 when every tuple is crossed);
    # every goal left at the depth cap lies beneath a full goal, so the
    # search ends at the certificate cap, not the depth limit
    state = fresh_state(HARD_HILBERT, "syld")
    out = run(state, SearchLimits(max_depth=8, max_spts_per_node=20, timeout=600.0))
    assert isinstance(out, LimitReached) and out.limit == "spts"
    assert out.stats.goal_nodes < 50 and out.stats.tuples_tested < 1000


# The open goal k x#0 is proved by up from two goals h y#1 and h z#1, each of
# which h1, h2 and h3 prove outright, so the rule node of up crosses 3 x 3
# tuples that all unify, and each certificate binds x#0 to its own pair.  Its
# sibling n x#0 is proved only with x#0 := d, which no pair reconciles with:
# top crosses every certificate of k against it in vain.  So the search
# cannot end Proved, yet every goal holds a certificate and no node fails.
NINE_TUPLES = """\
kind wff
var x y z : wff
rule g : wff ::= "g"
rule k : wff ::= "k" wff
rule n : wff ::= "n" wff
rule h : wff ::= "h" wff
rule a : wff ::= "a"
rule b : wff ::= "b"
rule c : wff ::= "c"
rule d : wff ::= "d"
rule pair : wff ::= "(" wff "," wff ")"
axiom h1 : => "h a"
axiom h2 : => "h b"
axiom h3 : => "h c"
axiom up : "h y" "h z" => "k ( y , z )"
axiom nd : => "n d"
axiom top : "k x" "n x" => "g"
statement s : => "g"
"""


# up's certificates come three at a time, as the certificates of h z#1 (a
# then b then c) are crossed against the three of h y#1.
@pytest.mark.parametrize(
    "cap, verdict, tested, ref_tested",
    [
        pytest.param(10, "Exhausted", 9, 9, id="10-Exhausted-9"),
        # the node is exactly full after the last tuple
        pytest.param(9, "Exhausted", 9, 9, id="9-Exhausted-9"),
        # the last tuple is rejected by the cap
        pytest.param(8, "LimitReached", 9, 9, id="8-LimitReached-9"),
        # the fifth is rejected and the rest are not crossed; the reference
        # crosses the sixth, the end of the crossing under way, but k is then
        # full, which closes its subtree, so z#1 := c is crossed by neither
        pytest.param(4, "LimitReached", 5, 6, id="4-LimitReached-5"),
    ],
)
def test_cap_boundary_between_spts_and_exhausted(monkeypatch, cap, verdict, tested, ref_tested):
    # tested counts up's tuples; top then crosses each certificate k holds
    d = load_system(NINE_TUPLES)
    limits = SearchLimits(max_depth=4, max_spts_per_node=cap, timeout=600.0)
    out, ref = _same_as_reference_crossing(monkeypatch, d, "s", limits)
    assert type(out).__name__ == verdict
    if verdict == "LimitReached":
        assert out.limit == "spts"
    held = min(cap, 9)
    assert (out.stats.tuples_tested, ref.stats.tuples_tested) == (tested + held, ref_tested + held)
    state = init_search(d, d.statement("s"))
    run(state, limits)
    assert state.failed == set()
    k = state.goals[state.rules[0].children[0]]
    assert k.scope and len({state.certs[c].label for c in k.certs}) == held


def test_propagation_clash_skipped():
    d = load_system(SEEDED)
    g = d.grammar
    state = fresh_state(d, "s")
    expand_enode(state, state.root)
    mp = state.rules[0]
    minor_goal = state.goals[mp.children[0]]  # bare ph#0
    before = len(mp.certs)
    tested_before = state.stats.tuples_tested
    # plant a clashing leaf certificate for the minor premise on the agenda:
    # ph#0 := q cannot be reconciled with the major's ph#0 := p
    state.agenda.append((minor_goal.id, None, Substitution({g.variable("ph#0"): freeze_expression(expr(d, "q"))})))
    propagate_anode(state)
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
    assert state.stats.tuples_unified <= state.stats.tuples_tested
    # every certificate created is still held by the node that took it first:
    # its rule node, or its goal for a premise leaf
    for c in state.certs.values():
        assert c.id in (state.goals[c.goal] if c.rule is None else state.rules[c.rule]).certs
    assert _certificate_invariants(state) == state.stats.certificates


def test_every_certificate_unfolds_to_a_valid_proof(hilbert):
    state = fresh_state(hilbert, "id")
    out = run(state, SearchLimits(max_depth=6, timeout=10))
    assert isinstance(out, Proved)
    assert certificate_problems(state) == []


@pytest.mark.parametrize("field", ["label", "delta"])
def test_certificate_problems_reports_a_tampered_certificate(hilbert, field):
    # the soundness check can fail: one stored certificate with a wrong
    # label (its claimed instance) or delta (its children's reconciliation,
    # which extraction builds from the stored unifier: emptied here)
    state = fresh_state(hilbert, "id")
    run(state, SearchLimits(max_depth=6, timeout=10))
    stored = {"label": "label", "delta": "unifier"}[field]
    victim = next(c for c in state.certs.values() if getattr(c, stored))
    state.certs[victim.id] = dataclasses.replace(victim, **{stored: EMPTY})
    assert victim.id in [cid for cid, _ in certificate_problems(state)]


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


def test_duplicate_certificates_are_not_readded(monkeypatch):
    # only a premise leaf could repeat, from a statement that lists the same
    # premise twice; the search keeps the premises deduplicated
    d = load_system(SEEDED + 'statement twice : "( p -> q )" "( p -> q )" => "q"\n')
    for sid in ("s", "twice"):
        state = fresh_state(d, sid)
        with monkeypatch.context() as m:
            m.setattr(plf.search, "propagate_anode", lambda state: None)  # expand without draining
            expand_enode(state, state.root)
        mp = state.rules[0]
        # one leaf per child: ph#0 := ( p -> q ) for the minor premise, ph#0 := p for the major
        assert [(goal, rule) for goal, rule, _ in state.agenda] == [(kid, None) for kid in mp.children]
        propagate_anode(state)
        major = state.goals[mp.children[1]]
        assert [state.certs[c].rule for c in major.certs] == [None]


def test_trace_includes_premise_leaves():
    d = load_system(SEEDED)
    lines = []
    state = init_search(d, d.statement("s"), trace=lines.append)
    run(state, SearchLimits(max_depth=3, timeout=5))
    assert any(l.startswith("SPT-LEAF e") for l in lines)


# R restates any expression, so every goal it expands repeats itself.
RESTATE = (
    'kind wff\nvar ph p : wff\nrule c : wff ::= "c"\n'
    'axiom R : "ph" => "ph"\n'
    'statement s : => "p"\n'
    'statement t : "p" => "p"\n'
)


@pytest.mark.parametrize("depth", [1, 3, 6])
def test_closed_repeat_of_an_ancestor_is_cut(depth):
    d = load_system(RESTATE)
    lines = []
    state = init_search(d, d.statement("s"), trace=lines.append)
    out = run(state, SearchLimits(max_depth=depth, timeout=5))
    # the root "p" forks R, whose premise is "p" again; without the cut
    # that chain runs into the depth limit
    assert isinstance(out, Exhausted)
    assert out.stats.goal_nodes == 2
    assert "LOOP e1" in lines
    proved = run(init_search(d, d.statement("t")), SearchLimits(max_depth=depth, timeout=5))
    assert isinstance(proved, Proved)


def test_open_repeat_of_an_ancestor_is_expanded():
    d = load_system(
        'kind wff\nvar ph ps q : wff\nrule imp : wff ::= "(" wff "->" wff ")"\n'
        'axiom R : "ph" => "ph"\naxiom MP : "ph" "( ph -> ps )" => "ps"\n'
        'statement s : => "q"\n'
    )
    lines = []
    state = init_search(d, d.statement("s"), trace=lines.append)
    run(state, SearchLimits(max_depth=3, timeout=5))
    # e4 is R's premise under MP's minor premise e2, both ph#1; the
    # regularity argument covers closed goals only, so only e1 is cut
    repeat = state.goals[4]
    assert repeat.scope and repeat.expression == state.goals[state.rules[repeat.parent].parent].expression
    assert "EXPAND e4" in lines
    assert [l for l in lines if l.startswith("LOOP")] == ["LOOP e1"]


def _ancestor_rules(state, goal_id):
    rule_id = state.goals[goal_id].parent
    while rule_id is not None:
        yield rule_id
        rule_id = state.goals[state.rules[rule_id].parent].parent


def _failed_ancestor_only(state, goal):
    """``plf.search._cut`` without the loop check: a goal is dropped only
    under a failed rule node."""
    return None if state.failed.isdisjoint(_ancestor_rules(state, goal.id)) else "failed"


def test_loop_check_keeps_proofs_and_only_improves_verdicts(monkeypatch):
    at_corpus = SearchLimits(max_depth=6, max_nodes=4000, max_spts_per_node=120, timeout=600.0)
    cases = HARD_AT_CAP_20 + [(d, s.id, at_corpus) for d in corpus(CORPUS_SEED, 40) for s in d.statements]
    changed = 0
    for d, sid, limits in cases:
        out = run(init_search(d, d.statement(sid)), limits)
        with monkeypatch.context() as m:
            m.setattr(plf.search, "_cut", _failed_ancestor_only)
            uncut = run(init_search(d, d.statement(sid)), limits)
        if isinstance(uncut, Proved) or isinstance(out, Proved):
            assert isinstance(uncut, Proved) and isinstance(out, Proved), sid
            assert serialize_proof(out.proof) == serialize_proof(uncut.proof)
            continue
        before, after = getattr(uncut, "limit", None), getattr(out, "limit", None)
        assert STOP_ORDER[after] >= STOP_ORDER[before], (sid, before, after)
        changed += before != after
    assert changed > 0


def test_proof_at_the_node_limit_is_kept():
    # the root forks "any", whose certificate proves it at once, before "big"
    # would need three nodes more: the certificate must be carried up before
    # the node limit stops the expansion
    d = load_system(
        'kind wff\nvar ph p : wff\nrule imp : wff ::= "(" wff "->" wff ")"\n'
        'axiom any : => "ph"\naxiom big : "ph" "ph" => "ph"\nstatement s : => "p"\n'
    )
    for n in (2, 3):
        out = run(init_search(d, d.statement("s")), SearchLimits(max_nodes=n, timeout=5))
        assert isinstance(out, Proved) and out.stats.nodes == 2
        assert out.proof.inference.assertion_id == "any"


def test_node_limit_below_one_is_refused(hilbert):
    # the root goal is a node, so a search under max_nodes=0 would break it
    with pytest.raises(ValueError, match="max_nodes must be >= 1"):
        run(init_search(hilbert, hilbert.statement("id")), SearchLimits(max_nodes=0))


# g needs n and k (top) or w (alt); n has no assertion, so top fails as soon
# as n is expanded, and k, under it, is never expanded.  w leads down a chain
# w <= v <= u, and u has no assertion either.
FAILS = """\
kind wff
rule g : wff ::= "g"
rule n : wff ::= "n"
rule k : wff ::= "k"
rule m : wff ::= "m"
rule w : wff ::= "w"
rule v : wff ::= "v"
rule u : wff ::= "u"
axiom top : "n" "k" => "g"
axiom alt : "w" => "g"
axiom km : "m" => "k"
axiom wv : "v" => "w"
axiom vu : "u" => "v"
statement s : => "g"
"""


@pytest.mark.parametrize("depth", [3, 4])
def test_goal_at_the_depth_cap_never_fails(depth):
    # at depth 3, u sits at the cap: it is not expanded and does not fail, so
    # alt and g stay live and the verdict names the depth limit; at depth 4,
    # u is expanded, has no rule node, and its failure reaches the root
    d = load_system(FAILS)
    lines = []
    state = init_search(d, d.statement("s"), trace=lines.append)
    out = run(state, SearchLimits(max_depth=depth, timeout=5))
    assert state.failed >= {0}  # top, failed by n
    if depth == 3:
        assert isinstance(out, LimitReached) and out.limit == "depth"
        assert state.failed == {0}
    else:
        assert isinstance(out, Exhausted)
        assert state.failed == {0, 1, 2, 3}  # top, alt, wv, vu
    # n is e1, k is e2, w is e3, v is e4 and u is e5; k is dropped, under top
    expanded = [l for l in lines if l.startswith("EXPAND")]
    assert expanded == ["EXPAND e0", "EXPAND e1", "EXPAND e3", "EXPAND e4", "EXPAND e5"][: depth + 1]


def test_no_goal_under_a_failed_rule_node_is_expanded(monkeypatch):
    expand = plf.search.expand_enode
    expanded = [0, 0]  # without failure propagation, with it

    def counted(state, goal_id):
        assert state.failed.isdisjoint(_ancestor_rules(state, goal_id))
        expanded[propagating] += 1
        return expand(state, goal_id)

    monkeypatch.setattr(plf.search, "expand_enode", counted)
    failed = 0
    for d in corpus(CORPUS_SEED, 40):
        for s in d.statements:
            for propagating in (0, 1):
                with monkeypatch.context() as m:
                    if not propagating:
                        m.setattr(plf.search, "_fail", lambda state, goal_id: False)
                    state = init_search(d, d.statement(s.id))
                    run(state, SEARCH_LIMITS)
            failed += len(state.failed)
    # 1,027 expansions without failure propagation and 436 with it, which
    # fails 168 rule nodes
    assert expanded[1] < expanded[0] / 2 and failed > 100


def test_no_certificate_passes_through_a_failed_node():
    # a failed rule node has a child that never holds a certificate, so no
    # certificate is derived there, and no proof found, whose certificates
    # are among these, passes through one
    proved = failed = 0
    for d in corpus(CORPUS_SEED, CORPUS_SYSTEMS):
        for s in d.statements:
            state = init_search(d, d.statement(s.id))
            proved += isinstance(run(state, SEARCH_LIMITS), Proved)
            failed += len(state.failed)
            assert all(c.rule not in state.failed for c in state.certs.values())
    assert proved > 300 and failed > 1000


def test_failure_is_sound_at_small_caps():
    # a goal fails only if it matches no premise, whatever the cap keeps: at
    # cap 0 every leaf is refused, and failing the goals that hold no leaf
    # would end searches Exhausted that prove at a larger cap
    systems = corpus(CORPUS_SEED, CORPUS_SYSTEMS)
    proved_above = set()
    checked = 0
    for cap in (1000, 120, 1, 0):
        limits = dataclasses.replace(SEARCH_LIMITS, max_spts_per_node=cap, timeout=600.0)
        for i, d in enumerate(systems):
            for s in d.statements:
                out = run(init_search(d, d.statement(s.id)), limits)
                if (i, s.id) in proved_above:
                    assert not isinstance(out, Exhausted), (cap, i, s.id)
                    checked += 1
                if isinstance(out, Proved):
                    proved_above.add((i, s.id))
    assert checked > 3 * 300


def _corpus_at_caps(caps, systems=150):
    cases = []
    for cap in caps:
        limits = dataclasses.replace(SEARCH_LIMITS, max_spts_per_node=cap, timeout=600.0)
        cases += [(d, s.id, limits) for d in corpus(CORPUS_SEED, systems) for s in d.statements]
    return cases


def test_closure_keeps_proofs_and_only_improves_verdicts():
    changed = saved = 0
    for d, sid, limits in HARD_AT_CAP_20 + _corpus_at_caps((1, 2, 4, 120)):
        out, unclosed = search_with_and_without_closure(d, sid, limits)
        changed += (type(out), getattr(out, "limit", None)) != (type(unclosed), getattr(unclosed, "limit", None))
        saved += d is not HARD_HILBERT and out.stats.nodes + out.stats.tuples_tested < (
            unclosed.stats.nodes + unclosed.stats.tuples_tested
        )
    # the three hard items move from the depth limit to the cap; on corpus
    # no verdict moves, and the closure saves work in 8 searches, all at
    # caps 1 and 2 (at 4 and 120 no goal with a certificate fills)
    assert changed >= 3 and saved > 0


def _under_a_full_goal(state, rule_id):
    """Whether, once the cap has tripped, the rule node's parent goal or a
    goal above it holds at least one certificate and its cap of them."""
    cap = state.limits.max_spts_per_node
    while rule_id is not None:
        goal = state.goals[state.rules[rule_id].parent]
        if state.certs_capped and goal.certs and len(goal.certs) >= cap:
            return True
        rule_id = goal.parent
    return False


def test_no_goal_under_a_full_goal_is_expanded_or_crossed(monkeypatch):
    expand, cross = plf.search.expand_enode, plf.search._cross
    work = {}  # (hard, closing) -> [expansions, crossings started]

    def expanded(state, goal_id):
        assert not (closing and _under_a_full_goal(state, state.goals[goal_id].parent))
        work[hard, closing][0] += 1
        return expand(state, goal_id)

    def crossed(state, rule_id, trigger):
        assert not (closing and _under_a_full_goal(state, rule_id))
        work[hard, closing][1] += 1
        return cross(state, rule_id, trigger)

    monkeypatch.setattr(plf.search, "expand_enode", expanded)
    monkeypatch.setattr(plf.search, "_cross", crossed)
    for d, sid, limits in HARD_AT_CAP_20 + _corpus_at_caps((1, 2)):
        hard = d is HARD_HILBERT
        for closing in (False, True):
            work.setdefault((hard, closing), [0, 0])
            with nullcontext() if closing else without_closure():
                run(init_search(d, d.statement(sid)), limits)
    # the hard items: 765 expansions and 7,556 crossings without the
    # closure, 43 and 301 with it; corpus at caps 1 and 2: 7,686 and 969
    # without, 7,526 and 648 with
    assert all(c < o / 10 for c, o in zip(work[True, True], work[True, False]))
    assert all(c < o for c, o in zip(work[False, True], work[False, False]))


# g needs k x and n x (top).  k x is proved outright three ways (ka, kb,
# kc) and also by kh from h x, whose chain of hh steps never ends; n x is
# proved only with x := d, which no label of k reconciles with.  At caps 1
# and 2, k refuses a label and is full, so h x, beneath it, is never
# expanded.  At cap 3 nothing is refused, and the h chain runs into the
# depth limit.
CLOSES = """\
kind wff
var x : wff
rule g : wff ::= "g"
rule k : wff ::= "k" wff
rule n : wff ::= "n" wff
rule h : wff ::= "h" wff
rule a : wff ::= "a"
rule b : wff ::= "b"
rule c : wff ::= "c"
rule d : wff ::= "d"
axiom top : "k x" "n x" => "g"
axiom ka : => "k a"
axiom kb : => "k b"
axiom kc : => "k c"
axiom kh : "h x" => "k x"
axiom hh : "h x" => "h x"
axiom nd : => "n d"
statement s : => "g"
"""


@pytest.mark.parametrize("cap", [1, 2, 3])
def test_full_goal_leaves_its_subtree_unexpanded(cap):
    d = load_system(CLOSES)
    limits = SearchLimits(max_depth=5, max_spts_per_node=cap, timeout=5)
    lines = []
    state = init_search(d, d.statement("s"), trace=lines.append)
    out = run(state, limits)
    k = state.goals[1]  # g is e0, k x#0 is e1, n x#0 is e2 and h x#0 is e3
    assert len(k.certs) == cap and state.certs_capped == (cap < 3)
    expanded = [l for l in lines if l.startswith("EXPAND")]
    if cap < 3:
        assert isinstance(out, LimitReached) and out.limit == "spts"
        assert expanded == ["EXPAND e0", "EXPAND e1", "EXPAND e2"]
        assert state.failed == set()
    else:
        assert isinstance(out, LimitReached) and out.limit == "depth"
        assert expanded[3:] == ["EXPAND e3", "EXPAND e4", "EXPAND e5"]
    with without_closure():
        unclosed = run(init_search(d, d.statement("s")), limits)
    assert isinstance(unclosed, LimitReached) and unclosed.limit == "depth"
