import random

import pytest

from plf import (
    Inference,
    ProofNode,
    ProofSyntaxError,
    UnknownAssertionError,
    check_proof,
    check_statement_proof,
    parse_proof,
    serialize_proof,
)
from plf.proof import congruent, generality, proof_leaves, substitute_proof
from plf.term import EMPTY, Substitution, apply, freeze_expression
from helpers import assertion_multiset, expr, random_expression, sub


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
