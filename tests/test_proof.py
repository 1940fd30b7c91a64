import random
import re

import pytest

import plf.grammar
import plf.proof
from plf import (
    AmbiguousParseError,
    Inference,
    ProofNode,
    ProofSyntaxError,
    Proved,
    SearchLimits,
    UnknownAssertionError,
    check_proof,
    check_statement_proof,
    init_search,
    load_system,
    parse_proof,
    run,
    serialize_proof,
)
from plf.grammar import parse_any_kind
from plf.proof import _ProofParser, congruent, generality, proof_leaves, substitute_proof
from plf.term import EMPTY, Substitution, apply, freeze_expression
from conftest import HILBERT_PLS
from helpers import (
    NAT_PLS,
    a1_mp_chain_proof,
    assertion_multiset,
    expr,
    implication_chain,
    random_expression,
    sub,
    successor_chain_proof,
)
from randsys import corpus
from test_acceptance import CORPUS_SEED, SEARCH_LIMITS


def textbook_id_proof(d):
    """The classic five-step derivation of ( p -> p ) from A1, A2 and MP."""
    e = lambda text: expr(d, text)
    s = lambda **kv: sub(d, **kv)
    minor = ProofNode(e("( p -> ( p -> p ) )"), Inference("A1", s(ph="p", ps="p"), ()))
    a1_big = ProofNode(
        e("( p -> ( ( p -> p ) -> p ) )"),
        Inference("A1", s(ph="p", ps="( p -> p )"), ()),
    )
    a2 = ProofNode(
        e(
            "( ( p -> ( ( p -> p ) -> p ) ) -> "
            "( ( p -> ( p -> p ) ) -> ( p -> p ) ) )"
        ),
        Inference("A2", s(ph="p", ps="( p -> p )", ch="p"), ()),
    )
    mp1 = ProofNode(
        e("( ( p -> ( p -> p ) ) -> ( p -> p ) )"),
        Inference(
            "MP",
            s(
                ph="( p -> ( ( p -> p ) -> p ) )",
                ps="( ( p -> ( p -> p ) ) -> ( p -> p ) )",
            ),
            (a1_big, a2),
        ),
    )
    return ProofNode(
        e("( p -> p )"),
        Inference("MP", s(ph="( p -> ( p -> p ) )", ps="( p -> p )"), (minor, mp1)),
    )


@pytest.fixture()
def id_proof(hilbert):
    return textbook_id_proof(hilbert)


def test_textbook_proof_valid(hilbert, id_proof):
    assert check_proof(hilbert, id_proof) == []
    assert check_statement_proof(hilbert, hilbert.statement("id"), id_proof) == []
    assert assertion_multiset(id_proof) == {"A1": 2, "A2": 1, "MP": 2}


def test_altered_witness_rejected(hilbert, id_proof):
    # corrupt ph := q inside the second transition (the big A1 step)
    bad_inner = ProofNode(
        id_proof.inference.children[1].inference.children[0].expression,
        Inference("A1", sub(hilbert, ph="q", ps="( p -> p )"), ()),
    )
    mp1 = id_proof.inference.children[1]
    bad_mp1 = ProofNode(
        mp1.expression,
        Inference("MP", mp1.inference.witness, (bad_inner, mp1.inference.children[1])),
    )
    bad = ProofNode(
        id_proof.expression,
        Inference("MP", id_proof.inference.witness, (id_proof.inference.children[0], bad_mp1)),
    )
    violations = check_proof(hilbert, bad)
    assert violations
    assert any("A1" in v.message for v in violations)


def test_single_node_tree_valid(hilbert):
    leaf = ProofNode(expr(hilbert, "( p -> q )"))
    assert check_proof(hilbert, leaf) == []


def test_unknown_assertion_raises(hilbert):
    tree = ProofNode(expr(hilbert, "p"), Inference("nope", EMPTY, ()))
    with pytest.raises(UnknownAssertionError):
        check_proof(hilbert, tree)


def test_statement_root_mismatch(hilbert, id_proof):
    from plf import Statement

    other = Statement("qq", (), freeze_expression(expr(hilbert, "( q -> q )")))
    violations = check_statement_proof(hilbert, other, id_proof)
    assert any("root" in v.message for v in violations)


def test_statement_leaf_condition(hilbert):
    from plf import Statement

    goal = freeze_expression(expr(hilbert, "q"))
    prem = freeze_expression(expr(hilbert, "p"))
    st = Statement("st", (prem,), goal)
    # a bare leaf that is not the premise
    bad = ProofNode(goal)
    violations = check_statement_proof(hilbert, st, bad)
    assert any("premise" in v.message for v in violations)
    ok = ProofNode(prem)
    st2 = Statement("st2", (prem,), prem)
    assert check_statement_proof(hilbert, st2, ok) == []


def test_substitute_proof_identity(hilbert, id_proof):
    assert substitute_proof(EMPTY, id_proof) == id_proof


def test_substitute_proof_instance_still_valid(hilbert, id_proof):
    g = hilbert.grammar
    sigma = Substitution({g.variable("p"): expr(hilbert, "( q -> r )")})
    # p is frozen inside the statement goal but replaceable in this tree
    replaceable = _thaw(id_proof)
    instance = substitute_proof(sigma, replaceable)
    assert check_proof(hilbert, instance) == []
    assert instance.expression == expr(hilbert, "( ( q -> r ) -> ( q -> r ) )")


def test_substitute_proof_disjoint_unchanged(hilbert, id_proof):
    sigma = sub(hilbert, ch="q")
    assert substitute_proof(sigma, id_proof) == id_proof


def _thaw(node):
    from plf.grammar import Apply, Var

    def thaw_expr(e):
        if isinstance(e, Var):
            return Var(e.name, e.kind, True)
        return Apply(e.production, tuple(thaw_expr(c) for c in e.children))

    inf = node.inference
    if inf is None:
        return ProofNode(thaw_expr(node.expression))
    return ProofNode(
        thaw_expr(node.expression),
        Inference(inf.assertion_id, inf.witness, tuple(_thaw(c) for c in inf.children)),
    )


def test_congruent(hilbert, id_proof):
    assert congruent(id_proof, id_proof)
    other = substitute_proof(
        Substitution({hilbert.grammar.variable("p"): expr(hilbert, "q")}), _thaw(id_proof)
    )
    assert congruent(id_proof, other)
    swapped = ProofNode(
        id_proof.expression,
        Inference("A1", id_proof.inference.witness, id_proof.inference.children),
    )
    assert not congruent(id_proof, swapped)


def test_generality_reflexive(hilbert, id_proof):
    assert generality(id_proof, id_proof) == EMPTY


def test_generality_instance(hilbert, id_proof):
    general = _thaw(id_proof)
    sigma = Substitution({hilbert.grammar.variable("p"): expr(hilbert, "( q -> r )")})
    instance = substitute_proof(sigma, general)
    delta = generality(general, instance)
    assert delta is not None
    assert substitute_proof(delta, general) == instance
    assert congruent(general, instance)


def test_generality_clash_absent(hilbert):
    e = lambda t: expr(hilbert, t)
    t1 = ProofNode(e("( ph -> ph )"))
    t2 = ProofNode(e("( p -> q )"))
    assert generality(t1, t2) is None


def test_monotonicity_random(hilbert):
    g = hilbert.grammar
    rng = random.Random(41)
    leaves = {"wff": [g.variable(n) for n in ("p", "q", "r")]}
    base = _thaw(textbook_id_proof(hilbert))
    for _ in range(100):
        sigma = Substitution(
            {g.variable("p"): random_expression(rng, g, "wff", 9, leaves)}
        )
        out = substitute_proof(sigma, base)
        assert check_proof(hilbert, out) == []
        assert out.expression == apply(sigma, base.expression)
        for before, after in zip(proof_leaves(base), proof_leaves(out)):
            assert after.expression == apply(sigma, before.expression)


def test_serialize_parse_round_trip(hilbert, id_proof):
    text = serialize_proof(id_proof)
    assert parse_proof(text, hilbert) == id_proof


def test_hyp_leaf_parses(hilbert):
    tree = parse_proof('(hyp "( p -> q )")', hilbert)
    assert tree == ProofNode(expr(hilbert, "( p -> q )"))


def test_malformed_proof_raises(hilbert):
    with pytest.raises(ProofSyntaxError):
        parse_proof('(step "p" by MP with { } from', hilbert)
    with pytest.raises(ProofSyntaxError):
        parse_proof("(nonsense)", hilbert)
    with pytest.raises(UnknownAssertionError):
        parse_proof('(step "p" by missing with { } from)', hilbert)


def test_perturbed_serialized_witness_fails(hilbert, id_proof):
    text = serialize_proof(id_proof)
    corrupted = text.replace('ph := "( p -> ( p -> p ) )"', 'ph := "( p -> ( q -> p ) )"', 1)
    assert corrupted != text
    tree = parse_proof(corrupted, hilbert)
    assert check_proof(hilbert, tree)


# -- one chart memo per proof file -------------------------------------------

LADDER = load_system(
    HILBERT_PLS
    + 'statement a1d : "( p -> q )" => "( p -> ( r -> q ) )"\n'
    + 'statement com12 : "( p -> ( q -> r ) )" => "( q -> ( p -> r ) )"\n'
    + 'statement imim2 : => "( ( p -> q ) -> ( ( r -> p ) -> ( r -> q ) ) )"\n'
    + 'statement syl : "( p -> q )" "( q -> r )" => "( p -> r )"\n'
    + 'statement a2i : "( p -> ( q -> r ) )" => "( ( p -> q ) -> ( p -> r ) )"\n'
    + 'statement sylcom : "( p -> ( q -> r ) )" "( q -> ( r -> ch ) )" => "( p -> ( q -> ch ) )"\n'
)


def _searched_proofs():
    """(system, .plp text) of every proof the searches of the Hilbert ladder
    statements above and of the first corpus systems write."""
    ladder = SearchLimits(max_depth=8, max_nodes=100_000, max_spts_per_node=1000, timeout=60)
    runs = [(LADDER, s, ladder) for s in LADDER.statements]
    runs += [(d, s, SEARCH_LIMITS) for d in corpus(CORPUS_SEED, 100) for s in d.statements]
    out = []
    for d, s, limits in runs:
        found = run(init_search(d, s), limits)
        if isinstance(found, Proved):
            out.append((d, serialize_proof(found.proof)))
    return out


def _nat_chain(depth):
    d = load_system(NAT_PLS + 'statement deep : => "N' + " s" * depth + ' z"\n')
    return d, successor_chain_proof(depth)


def _a1_mp_chain(depth):
    d = load_system(HILBERT_PLS + f'statement c : "p" => "{implication_chain(depth)}"\n')
    return d, a1_mp_chain_proof(depth)


def _parse_with_fresh_charts(monkeypatch, text, d):
    """parse_proof with every expression text charted on its own."""
    with monkeypatch.context() as m:
        m.setattr(plf.proof, "parse_any_kind", lambda g, tokens, spans: parse_any_kind(g, tokens))
        return parse_proof(text, d)


def test_shared_chart_parses_equal_fresh_charts(monkeypatch):
    searched = _searched_proofs()
    assert len(searched) == 137  # all seven ladder statements and 130 corpus ones
    chains = [_a1_mp_chain(depth) for depth in (1, 2, 18)] + [_nat_chain(depth) for depth in (1, 40)]
    for d, text in searched + chains:
        tree = parse_proof(text, d)
        assert tree == _parse_with_fresh_charts(monkeypatch, text, d)
        assert serialize_proof(tree) == text


def test_shared_chart_checks_tokens_on_a_hit(monkeypatch):
    # every span of every text hashes alike, so lookups meet other spans' entries
    monkeypatch.setattr(plf.grammar, "hash", lambda value: 0, raising=False)
    for d, text in [_a1_mp_chain(6), _nat_chain(6)]:
        assert parse_proof(text, d) == _parse_with_fresh_charts(monkeypatch, text, d)


def test_shared_chart_shares_subterms():
    d, text = _a1_mp_chain(5)
    root = parse_proof(text, d)
    # the minor premise's text is a subterm of the root's: one tree for both
    assert root.inference.children[0].expression is root.expression.children[1]


SUM_PLS = """\
kind s
var x y : s
rule atom : s ::= "a"
rule cat : s ::= s "+" s
axiom join : => "x + y"
"""


def test_ambiguity_reported_at_first_ambiguous_text(monkeypatch):
    # "a + a" fills the entries "a + a + a" is built from; the later
    # "a + a + a + a" (five trees) is never reached
    d = load_system(SUM_PLS)
    text = (
        '(step "a + a" by join with { x := "a" ; y := "a + a + a" } from\n'
        '  (hyp "a + a + a + a"))\n'
    )
    message = re.escape("'a + a + a' is ambiguous: at least 2 parse trees")
    with pytest.raises(AmbiguousParseError, match=message):
        parse_proof(text, d)
    with pytest.raises(AmbiguousParseError, match=message):
        _parse_with_fresh_charts(monkeypatch, text, d)


class _CountingSpans(dict):
    """A shared chart memo that counts the entries filled into it."""

    fills = 0

    def __setitem__(self, key, value):
        self.fills += 1
        dict.__setitem__(self, key, value)


def _entries_filled(d, text):
    parser = _ProofParser(d, text)
    parser.spans = _CountingSpans()
    parser.node()
    return parser.spans.fills


@pytest.mark.parametrize(
    "chain, depths",
    [(_nat_chain, (100, 200, 400)), (_a1_mp_chain, (25, 50, 100))],
    ids=["successor", "a1_mp"],
)
def test_chart_entries_grow_linearly_in_proof_depth(chain, depths):
    # each level adds a constant number of new spans; the rest are reused
    counts = [_entries_filled(*chain(depth)) for depth in depths]
    assert counts[0] >= depths[0]
    for shorter, longer in zip(counts, counts[1:]):
        assert longer <= 2.2 * shorter, counts
