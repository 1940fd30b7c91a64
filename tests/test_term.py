import itertools
import random

import pytest

from plf import KindMismatchError, load_system, render_string
from plf.grammar import Apply, Grammar, Var
from plf.term import (
    EMPTY,
    Substitution,
    apply,
    compose,
    freeze_expression,
    match_expression,
    resolve,
    restrict,
    _unify_pairs,
    substitution_text,
    unifier_com,
    unifier_delta,
    unify_expressions,
    unify_substitutions,
    variables_of,
)
from conftest import HILBERT_PLS
from helpers import (
    _ref_apply,
    enumerate_trees,
    expr,
    flagged,
    random_expression,
    reference_unify_pairs,
    reference_unify_substitutions,
    sub,
)


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


def test_equal_productions_of_two_loads_match_and_unify(hilbert):
    # productions are compared by identity first; equal but distinct ones,
    # as two loads of one text give, must still count as the same
    other = load_system(HILBERT_PLS)
    assert other.grammar.productions == hilbert.grammar.productions
    assert other.grammar.productions[0] is not hilbert.grammar.productions[0]
    pattern, target = expr(hilbert, "( ph -> ps )"), expr(other, "( p -> ( q -> p ) )")
    assert match_expression(pattern, target) == sub(hilbert, ph="p", ps="( q -> p )")
    assert unify_expressions(pattern, target) == sub(hilbert, ph="p", ps="( q -> p )")
    assert match_expression(expr(hilbert, "( ph -> ph )"), target) is None


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
                for v in variables_of(pattern) if v.replaceable
            }
        )
        target = apply(target_sub, pattern)
        found = match_expression(pattern, target)
        assert found is not None and apply(found, pattern) == target
        solutions = _enumerate_matches(pattern, target)
        assert len(solutions) == 1


def _enumerate_matches(pattern, target):
    """Brute force: try every map from pattern variables to target subterms."""
    pvars = sorted({v for v in variables_of(pattern) if v.replaceable}, key=lambda v: v.name)
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
    delta, com = unifier_delta(out), unifier_com(out, theta1)
    assert {v.name: render_string(e) for v, e in delta.items()} == {"ps": "q", "ch": "p"}
    assert {v.name: render_string(e) for v, e in com.items()} == {
        "ph": "( p -> q )",
        "ps": "q",
        "ch": "p",
    }
    assert compose(delta, theta1) == compose(delta, theta2) == com


def test_unify_substitutions_identical(hilbert):
    theta = sub(hilbert, ph="( p -> q )")
    out = unify_substitutions([theta, theta])
    delta, com = unifier_delta(out), unifier_com(out, theta)
    assert delta == EMPTY
    assert com == theta


def test_unify_substitutions_constant_clash(hilbert):
    t1 = Substitution({_v(hilbert, "ph"): _frozen_expr(hilbert, "p", {"p", "q", "r"})})
    t2 = Substitution({_v(hilbert, "ph"): _frozen_expr(hilbert, "( q -> r )", {"p", "q", "r"})})
    assert unify_substitutions([t1, t2]) is None


def test_unify_substitutions_empty_sequence():
    out = unify_substitutions([])
    assert (unifier_delta(out), unifier_com(out, EMPTY)) == (EMPTY, EMPTY)


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
            delta, com = unifier_delta(out), unifier_com(out, thetas[0])
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


# -- differential check against the eager reference unifier ---------------


def _exact(bindings):
    """Bindings in order, flags included; None stays None."""
    if bindings is None:
        return None
    return [(v.name, v.replaceable, flagged(e)) for v, e in bindings.items()]


def _resolved(bound):
    """Triangular bindings with every bound variable resolved, in binding
    order; None stays None."""
    if bound is None:
        return None
    memo = {}
    return {v: resolve(bound, memo, v) for v in bound}


def _mixed_leaves(g):
    """Fresh (replaceable) and frozen variables, including frozen twins of
    replaceable names: ``==`` equates twins, substitution tells them apart."""
    fresh = [g.variable(n) for n in ("ph", "ps")]
    fresh += [Var(f"{n}#1", g.kind("wff"), True) for n in ("ph", "ps")]
    frozen = [freeze_expression(g.variable(n)) for n in ("ph", "ps", "p")]
    return {"wff": fresh + frozen}


def _flip(rng, e):
    """``e`` with the flag of some twin-named variable occurrences toggled:
    equal to ``e`` under ``==``, but not under substitution."""
    from plf.grammar import Apply

    if isinstance(e, Var):
        if e.name in ("ph", "ps") and rng.random() < 0.5:
            return Var(e.name, e.kind, not e.replaceable)
        return e
    return Apply(e.production, tuple(_flip(rng, c) for c in e.children))


def _random_pair(rng, g, leaves):
    """Two random terms; often (X -> Y) against (flipped X -> Z), so that Y
    and Z are unified before the twins X and flipped X are compared."""
    size = lambda: rng.choice([3, 7, 11, 15])
    e1 = random_expression(rng, g, "wff", size(), leaves)
    if rng.random() < 0.5 or isinstance(e1, Var):
        return e1, random_expression(rng, g, "wff", size(), leaves)
    from plf.grammar import Apply

    x, _ = e1.children
    return e1, Apply(e1.production, (_flip(rng, x), random_expression(rng, g, "wff", size(), leaves)))


def test_unify_expressions_equals_reference_random(hilbert):
    g = hilbert.grammar
    rng = random.Random(41)
    leaves = _mixed_leaves(g)
    unified = 0
    for _ in range(3000):
        e1, e2 = _random_pair(rng, g, leaves)
        raw = _resolved(_unify_pairs([(e1, e2)]))
        assert _exact(raw) == _exact(reference_unify_pairs([(e1, e2)]))
        got = unify_expressions(e1, e2)
        assert _exact(got) == _exact(None if raw is None else Substitution(raw))
        unified += got is not None
    assert unified > 300  # the sample is not dominated by clashes


def _random_thetas(rng, g, leaves):
    """One to three substitutions over the replaceable leaves whose images
    are fresh random terms or flipped copies of shared ones."""
    domain = [v for v in leaves["wff"] if v.replaceable]
    shared = {v: random_expression(rng, g, "wff", rng.choice([1, 3, 7]), leaves) for v in domain}
    thetas = []
    for _ in range(rng.choice([1, 2, 2, 3])):
        bindings = {}
        for v in domain:
            roll = rng.random()
            if roll < 0.3:
                bindings[v] = _flip(rng, shared[v])
            elif roll < 0.5:
                bindings[v] = random_expression(rng, g, "wff", rng.choice([1, 3, 7]), leaves)
        thetas.append(Substitution(bindings))
    return thetas


def test_unify_substitutions_equals_reference_random(hilbert):
    g = hilbert.grammar
    rng = random.Random(43)
    leaves = _mixed_leaves(g)
    unified = 0
    for _ in range(1500):
        thetas = _random_thetas(rng, g, leaves)
        got = unify_substitutions(thetas)
        want = reference_unify_substitutions(thetas)
        if want is None:
            assert got is None
            continue
        unified += 1
        assert got is not None
        got = unifier_delta(got), unifier_com(got, thetas[0])
        assert [_exact(s) for s in got] == [_exact(s) for s in want]
    assert unified > 300


def test_resolve_equals_apply_of_delta_random(hilbert):
    # the triangular unifier against the eager reference: its delta and com
    # through the accessors, and the resolver's image of random terms, with
    # the memo shared across terms, against apply(delta, e); mapping through
    # the first substitution first gives apply(com, e), the crossing's
    # label.  Substitution drops a variable bound to its frozen twin as an
    # identity, so there the images differ in that flag alone (the search
    # has no twins: fresh names hold "#"); flags are compared against the
    # resolved bindings before Substitution filters them.
    g = hilbert.grammar
    rng = random.Random(47)
    leaves = _mixed_leaves(g)
    unified = 0
    for _ in range(1000):
        thetas = _random_thetas(rng, g, leaves)
        bound = unify_substitutions(thetas)
        want = reference_unify_substitutions(thetas)
        assert (bound is None) == (want is None)
        if bound is None:
            continue
        unified += 1
        delta, com = unifier_delta(bound), unifier_com(bound, thetas[0])
        assert (_exact(delta), _exact(com)) == (_exact(want[0]), _exact(want[1]))
        exact = _resolved(bound)
        memo = {}
        for _ in range(4):
            e = random_expression(rng, g, "wff", rng.choice([1, 3, 7, 11]), leaves)
            image = resolve(bound, memo, e)
            assert image == apply(delta, e)
            assert flagged(image) == flagged(_ref_apply(exact, e))
            assert resolve(bound, memo, apply(thetas[0], e)) == apply(com, e)
    assert unified > 200


def _chain(implication, antecedents, last):
    """( a1 -> ( a2 -> ... ( an -> last ) ) ), built without the parser."""
    from plf.grammar import Apply

    out = last
    for a in reversed(antecedents):
        out = Apply(implication, (a, out))
    return out


def test_unify_deep_chains_without_recursion(hilbert):
    g = hilbert.grammar
    wff = g.kind("wff")
    (imp,) = [p for p in g.productions if p.id == "imp"]
    p, q = (freeze_expression(g.variable(n)) for n in ("p", "q"))
    y = Var("ps#0", wff, True)
    xs = [Var(f"ph#{k}", wff, True) for k in range(4000)]
    tail = _chain(imp, xs[2000:], q)
    # y takes a 2,000-deep image; then x0 := p and each x_k := x_(k-1) for
    # k < 2000, a binding chain 2,000 long that resolves to p throughout
    left = _chain(imp, xs[:2000], tail)
    right = _chain(imp, [p] + xs[:1999], y)
    want = Substitution({**{x: p for x in xs[:2000]}, y: tail})
    assert unify_expressions(left, right) == want


def test_unify_substitutions_deep_image_without_recursion(hilbert):
    # ph takes a 2,000-deep image ending in ps, and ps := p: crossing reads
    # the unifier through resolve, which composes nothing, so no recursion
    g = hilbert.grammar
    (imp,) = [p for p in g.productions if p.id == "imp"]
    ph, ps = _v(hilbert, "ph"), _v(hilbert, "ps")
    p, q = (freeze_expression(g.variable(n)) for n in ("p", "q"))
    bound = unify_substitutions([
        Substitution({ph: _chain(imp, [q] * 2000, ps)}),
        Substitution({ps: p}),
    ])
    assert bound is not None
    assert resolve(bound, {}, ph) == _chain(imp, [q] * 2000, p)
    assert resolve(bound, {}, ps) == p


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
    assert {v for v in variables_of(frozen) if v.replaceable} == set()
    # a frozen twin does not hide a replaceable occurrence, in either order
    (imp,) = [p for p in hilbert.grammar.productions if p.id == "imp"]
    (ph,) = [v for v in variables_of(e) if v.name == "ph"]
    for mixed in (Apply(imp, (freeze_expression(ph), ph)), Apply(imp, (ph, freeze_expression(ph)))):
        assert [v.replaceable for v in variables_of(mixed)] == [True]


def test_freeze_deep_goal_without_recursion():
    # a 1,000-deep ( q -> ... p ) goal: 4,001 tokens, loaded and frozen
    depth = 1000
    text = "( q -> " * depth + "p" + " )" * depth
    assert len(text.split()) == 4001
    d = load_system(HILBERT_PLS + f'statement deep : => "{text}"\n')
    g = d.grammar
    imp = next(p for p in g.productions if p.id == "imp")
    built = g.variable("p")
    for _ in range(depth):
        built = Apply(imp, (g.variable("q"), built))
    goal = d.statement("deep").goal
    assert goal == built
    for _ in range(depth):
        assert not goal.open and not goal.children[0].replaceable
        goal = goal.children[1]
    assert not goal.replaceable


def test_freeze_returns_closed_subterms_unchanged(hilbert):
    e = expr(hilbert, "( ( p -> q ) -> r )")
    frozen = freeze_expression(e)
    assert frozen == e and not frozen.open
    assert not any(v.replaceable for v in frozen.children[0].children)
    assert freeze_expression(frozen) is frozen
    assert freeze_expression(frozen.children[1]) is frozen.children[1]
