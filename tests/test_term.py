import itertools
import random

import pytest

from plf import KindMismatchError, render_string
from plf.grammar import Grammar, Var
from plf.term import (
    EMPTY,
    Substitution,
    apply,
    compose,
    freeze_expression,
    match_expression,
    replaceable_variables,
    restrict,
    substitution_text,
    unify_expressions,
    unify_substitutions,
    variables_of,
)
from helpers import enumerate_trees, expr, random_expression, sub


# -- apply ---------------------------------------------------------------


def test_apply_single_variable(hilbert):
    s = sub(hilbert, ph="( p -> q )")
    assert apply(s, expr(hilbert, "ph")) == expr(hilbert, "( p -> q )")


def test_apply_empty_is_identity(hilbert):
    e = expr(hilbert, "( p -> q )")
    assert apply(EMPTY, e) == e


def test_apply_simultaneous(hilbert):
    s = sub(hilbert, ph="p", ps="( q -> p )")
    assert apply(s, expr(hilbert, "( ph -> ps )")) == expr(hilbert, "( p -> ( q -> p ) )")


def test_apply_skips_non_replaceable_occurrences(hilbert):
    g = hilbert.grammar
    s = Substitution({g.variable("p"): expr(hilbert, "q")})
    frozen_p = freeze_expression(expr(hilbert, "p"))
    assert apply(s, frozen_p) == frozen_p
    assert apply(s, expr(hilbert, "p")) == expr(hilbert, "q")


def test_kind_preservation_random(hilbert):
    g = hilbert.grammar
    rng = random.Random(3)
    leaves = {"wff": [g.variable(n) for n in ("p", "q", "ph", "ps")]}
    for _ in range(100):
        e = random_expression(rng, g, "wff", 11, leaves)
        s = sub(hilbert, ph="( q -> q )", ps="p")
        assert apply(s, e).kind == e.kind


# -- compose -------------------------------------------------------------


def test_compose_example_against_defining_equation(hilbert):
    outer = sub(hilbert, ps="q")
    inner = sub(hilbert, ph="( p -> ps )")
    composed = compose(outer, inner)
    assert composed == sub(hilbert, ph="( p -> q )", ps="q")
    # pointwise check on every declared variable
    for name in hilbert.grammar.variables:
        v = hilbert.grammar.variable(name)
        assert apply(composed, v) == apply(outer, apply(inner, v))


def test_compose_identities(hilbert):
    theta = sub(hilbert, ph="( p -> q )", ps="r")
    assert compose(EMPTY, theta) == theta
    assert compose(theta, EMPTY) == theta


def test_compose_distributes_over_apply_random(hilbert):
    g = hilbert.grammar
    rng = random.Random(11)
    leaves = {"wff": [g.variable(n) for n in ("p", "q", "ph", "ps", "ch")]}
    pool = [g.variable(n) for n in ("ph", "ps", "ch")]
    for _ in range(120):
        a = _random_sub(rng, hilbert, pool, leaves)
        b = _random_sub(rng, hilbert, pool, leaves)
        e = random_expression(rng, g, "wff", 9, leaves)
        assert apply(compose(a, b), e) == apply(a, apply(b, e))


def test_compose_associative_random(hilbert):
    g = hilbert.grammar
    rng = random.Random(13)
    leaves = {"wff": [g.variable(n) for n in ("p", "q", "ph", "ps", "ch")]}
    pool = [g.variable(n) for n in ("ph", "ps", "ch")]
    for _ in range(120):
        a = _random_sub(rng, hilbert, pool, leaves)
        b = _random_sub(rng, hilbert, pool, leaves)
        c = _random_sub(rng, hilbert, pool, leaves)
        assert compose(a, compose(b, c)) == compose(compose(a, b), c)


def _random_sub(rng, d, pool, leaves):
    bindings = {}
    for v in pool:
        if rng.random() < 0.6:
            bindings[v] = random_expression(rng, d.grammar, v.kind.name, 7, leaves)
    return Substitution(bindings)


# -- matching ------------------------------------------------------------


def test_match_bare_variable(hilbert):
    got = match_expression(expr(hilbert, "ph"), expr(hilbert, "( p -> q )"))
    assert got == sub(hilbert, ph="( p -> q )")


def test_match_forced_failure(hilbert):
    assert match_expression(expr(hilbert, "( ph -> ph )"), expr(hilbert, "( p -> q )")) is None


def test_match_structural(hilbert):
    got = match_expression(expr(hilbert, "( ph -> ps )"), expr(hilbert, "( p -> ( q -> p ) )"))
    assert got == sub(hilbert, ph="p", ps="( q -> p )")


def test_match_respects_frozen_pattern_variables(hilbert):
    pattern = freeze_expression(expr(hilbert, "ph"))
    assert match_expression(pattern, expr(hilbert, "( p -> q )")) is None
    assert match_expression(pattern, expr(hilbert, "ph")) == EMPTY


def test_match_uniqueness_by_enumeration(hilbert):
    g = hilbert.grammar
    rng = random.Random(17)
    leaves = {"wff": [g.variable(n) for n in ("ph", "ps", "p", "q")]}
    ground = {"wff": [freeze_expression(g.variable(n)) for n in ("p", "q")]}
    for _ in range(60):
        pattern = random_expression(rng, g, "wff", 7, leaves)
        target_sub = Substitution(
            {
                v: random_expression(rng, g, v.kind.name, 5, ground)
                for v in replaceable_variables(pattern)
            }
        )
        target = apply(target_sub, pattern)
        found = match_expression(pattern, target)
        assert found is not None and apply(found, pattern) == target
        solutions = _enumerate_matches(pattern, target)
        assert len(solutions) == 1


def _enumerate_matches(pattern, target):
    """Brute force: try every map from pattern variables to target subterms."""
    pvars = sorted(replaceable_variables(pattern), key=lambda v: v.name)
    subterms = []

    def collect(e):
        if e not in subterms:
            subterms.append(e)
        if not isinstance(e, Var):
            for c in e.children:
                collect(c)

    collect(target)
    found = []
    for images in itertools.product(subterms, repeat=len(pvars)):
        try:
            candidate = Substitution(zip(pvars, images))
        except KindMismatchError:
            continue
        if apply(candidate, pattern) == target and candidate not in found:
            found.append(candidate)
    return found


# -- unification ----------------------------------------------------------


def test_unify_variable_against_term(hilbert):
    got = unify_expressions(expr(hilbert, "ph"), expr(hilbert, "( ps -> q )"))
    assert got == sub(hilbert, ph="( ps -> q )")


def test_unify_forced_by_structure(hilbert):
    # p, q act as constants: freeze them in both sides
    f1 = _freeze_names(expr(hilbert, "( ph -> p )"), {"p", "q"})
    f2 = _freeze_names(expr(hilbert, "( q -> ps )"), {"p", "q"})
    got = unify_expressions(f1, f2)
    assert got is not None
    assert apply(got, f1) == apply(got, f2)
    assert {v.name: render_string(e) for v, e in got.items()} == {"ph": "q", "ps": "p"}


def test_unify_occurs_check(hilbert):
    assert unify_expressions(expr(hilbert, "ph"), expr(hilbert, "( ph -> q )")) is None


def test_unify_solvability_symmetric(hilbert):
    g = hilbert.grammar
    rng = random.Random(23)
    leaves = {"wff": [g.variable(n) for n in ("ph", "ps", "p")]}
    for _ in range(120):
        e1 = random_expression(rng, g, "wff", 7, leaves)
        e2 = random_expression(rng, g, "wff", 7, leaves)
        d12 = unify_expressions(e1, e2)
        d21 = unify_expressions(e2, e1)
        assert (d12 is None) == (d21 is None)
        if d12 is not None:
            assert apply(d12, e1) == apply(d12, e2)
            assert apply(d21, e1) == apply(d21, e2)
            # equal up to renaming: each instance matches the other
            assert match_expression(apply(d12, e1), apply(d21, e1)) is not None
            assert match_expression(apply(d21, e1), apply(d12, e1)) is not None


def _freeze_names(e, names):
    from plf.grammar import Apply

    if isinstance(e, Var):
        return Var(e.name, e.kind, False) if e.name in names else e
    return Apply(e.production, tuple(_freeze_names(c, names) for c in e.children))


# -- unification of substitution sets -------------------------------------


def test_unify_substitutions_example(hilbert):
    theta1 = Substitution({_v(hilbert, "ph"): _frozen_expr(hilbert, "( p -> ps )", {"p", "q"})})
    theta2 = Substitution({_v(hilbert, "ph"): _frozen_expr(hilbert, "( ch -> q )", {"p", "q"})})
    out = unify_substitutions([theta1, theta2])
    assert out is not None
    delta, com = out
    assert {v.name: render_string(e) for v, e in delta.items()} == {"ps": "q", "ch": "p"}
    assert {v.name: render_string(e) for v, e in com.items()} == {
        "ph": "( p -> q )",
        "ps": "q",
        "ch": "p",
    }
    assert compose(delta, theta1) == compose(delta, theta2) == com


def test_unify_substitutions_identical(hilbert):
    theta = sub(hilbert, ph="( p -> q )")
    delta, com = unify_substitutions([theta, theta])
    assert delta == EMPTY
    assert com == theta


def test_unify_substitutions_constant_clash(hilbert):
    t1 = Substitution({_v(hilbert, "ph"): _frozen_expr(hilbert, "p", {"p", "q", "r"})})
    t2 = Substitution({_v(hilbert, "ph"): _frozen_expr(hilbert, "( q -> r )", {"p", "q", "r"})})
    assert unify_substitutions([t1, t2]) is None


def test_unify_substitutions_empty_sequence():
    assert unify_substitutions([]) == (EMPTY, EMPTY)


def _v(d, name):
    return d.grammar.variable(name)


def _frozen_expr(d, text, frozen_names):
    return _freeze_names(expr(d, text), frozen_names)


def test_unify_substitutions_factorization_random(hilbert):
    g = hilbert.grammar
    rng = random.Random(29)
    ground = [freeze_expression(g.variable(n)) for n in ("p", "q")]
    pool = [g.variable(n) for n in ("ph", "ps")]
    universe = enumerate_trees(g, ground + pool, 5)
    for _ in range(40):
        thetas = [
            Substitution(
                {v: rng.choice(universe) for v in pool if rng.random() < 0.6}
            )
            for _ in range(rng.choice([2, 3]))
        ]
        out = unify_substitutions(thetas)
        enumerated = _enumerate_unifiers(thetas, pool, universe)
        if out is None:
            assert enumerated == []
        else:
            delta, com = out
            for i, j in itertools.combinations(range(len(thetas)), 2):
                assert compose(delta, thetas[i]) == compose(delta, thetas[j])
            assert com == compose(delta, thetas[0])
            for eta in enumerated:
                assert _factors_through(eta, delta, pool)


def _enumerate_unifiers(thetas, pool, universe):
    found = []
    options = [None] + list(universe)
    for images in itertools.product(options, repeat=len(pool)):
        bindings = {v: img for v, img in zip(pool, images) if img is not None}
        try:
            eta = Substitution(bindings)
        except KindMismatchError:
            continue
        composites = [compose(eta, t) for t in thetas]
        if all(c == composites[0] for c in composites) and eta not in found:
            found.append(eta)
    return found


def _factors_through(eta, delta, pool):
    """eta == eta' o delta for some eta', pointwise over the problem's variables."""
    relevant = set(pool) | set(delta) | set(eta)
    pairs = [(apply(delta, v), apply(eta, v)) for v in relevant]
    from plf.term import match_many

    eta_prime = match_many(pairs)
    if eta_prime is None:
        return False
    return all(apply(eta_prime, apply(delta, v)) == apply(eta, v) for v in relevant)


# -- restrict and substitution basics --------------------------------------


def test_restrict(hilbert):
    s = sub(hilbert, ph="p", ps="q")
    only_ph = restrict(s, [_v(hilbert, "ph")])
    assert only_ph == sub(hilbert, ph="p")
    assert restrict(s, []) == EMPTY
    assert restrict(EMPTY, [_v(hilbert, "ph")]) == EMPTY


def test_substitution_drops_identity_bindings(hilbert):
    v = _v(hilbert, "ph")
    assert Substitution({v: v}) == EMPTY


def test_substitution_rejects_frozen_domain(hilbert):
    frozen = Var("p", hilbert.grammar.kind("wff"), False)
    with pytest.raises(ValueError):
        Substitution({frozen: expr(hilbert, "q")})


def test_substitution_text_sorted(hilbert):
    s = sub(hilbert, ps="q", ph="( p -> q )")
    assert substitution_text(s) == '{ ph := "( p -> q )" ; ps := "q" }'
    assert substitution_text(EMPTY) == "{ }"


def test_substitution_kind_conformity():
    g = Grammar(
        kinds=["class", "set"],
        coercions=[("set", "class")],
        variables=[("A", "class"), ("x", "set")],
    )
    a, x = g.variable("A"), g.variable("x")
    assert Substitution({a: x})[a] == x
    with pytest.raises(KindMismatchError):
        Substitution({x: a})


def test_variables_of(hilbert):
    e = expr(hilbert, "( ph -> ( p -> ph ) )")
    assert {v.name for v in variables_of(e)} == {"ph", "p"}
    frozen = freeze_expression(e)
    assert replaceable_variables(frozen) == set()
