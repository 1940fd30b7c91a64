import random
import weakref

import pytest

from plf import AmbiguousParseError, NoParseError, UnknownKindError, load_system, render_string
from plf.grammar import (
    Apply,
    Grammar,
    Kind,
    Lit,
    Slot,
    Var,
    _Chart,
    parse_any_kind,
    render_expression,
)
from conftest import HILBERT_PLS
from helpers import (
    enumerate_trees,
    parse_all,
    parse_expression,
    random_expression,
    reference_parse_all,
    reference_parse_any_kind,
    reference_parse_expression,
)
from randsys import corpus


def test_parse_single_variable(hilbert):
    e = parse_expression(hilbert.grammar, "wff", ["p"])
    assert isinstance(e, Var)
    assert e.name == "p"
    assert e.kind.name == "wff"


def test_parse_implication(hilbert):
    e = parse_expression(hilbert.grammar, "wff", "( p -> q )".split())
    assert isinstance(e, Apply)
    assert e.production.id == "imp"
    assert [c.name for c in e.children] == ["p", "q"]


def test_duplicate_production_is_ambiguous():
    g = Grammar(
        kinds=["wff"],
        rules=[
            ("imp1", "wff", [Lit("("), Slot("wff"), Lit("->"), Slot("wff"), Lit(")")]),
            ("imp2", "wff", [Lit("("), Slot("wff"), Lit("->"), Slot("wff"), Lit(")")]),
        ],
        variables=[("p", "wff"), ("q", "wff")],
    )
    with pytest.raises(AmbiguousParseError):
        parse_expression(g, "wff", "( p -> q )".split())


def test_no_parse(hilbert):
    with pytest.raises(NoParseError):
        parse_expression(hilbert.grammar, "wff", "( p ->".split())
    with pytest.raises(NoParseError):
        parse_expression(hilbert.grammar, "wff", ["mystery"])


def test_unknown_kind(hilbert):
    with pytest.raises(UnknownKindError):
        parse_expression(hilbert.grammar, "nope", ["p"])
    with pytest.raises(UnknownKindError):
        hilbert.grammar.kind("nope")


def test_coercible_reflexive(hilbert):
    assert "wff" in hilbert.grammar.kind("wff").accepts


@pytest.fixture(scope="module")
def class_set():
    return Grammar(
        kinds=["class", "set"],
        coercions=[("set", "class")],
        variables=[("A", "class"), ("x", "set")],
    )


def test_class_set_coercion(class_set):
    assert "set" in class_set.kind("class").accepts
    assert "class" not in class_set.kind("set").accepts


def test_coercion_closure_transitive():
    g = Grammar(kinds=["a", "b", "c"], coercions=[("b", "a"), ("c", "b")])
    assert "b" in g.kind("a").accepts
    assert "c" in g.kind("b").accepts
    assert "c" in g.kind("a").accepts
    assert "a" not in g.kind("c").accepts


def test_render_examples(hilbert):
    g = hilbert.grammar
    assert render_expression(parse_expression(g, "wff", ["p"])) == ["p"]
    imp = parse_expression(g, "wff", "( p -> q )".split())
    assert render_expression(imp) == "( p -> q )".split()
    nested = parse_expression(g, "wff", "( p -> ( q -> p ) )".split())
    assert render_string(nested) == "( p -> ( q -> p ) )"


def test_parse_render_round_trip_random(hilbert):
    g = hilbert.grammar
    rng = random.Random(7)
    leaves = {"wff": [g.variable(n) for n in ("p", "q", "r", "ph")]}
    for _ in range(200):
        e = random_expression(rng, g, "wff", 13, leaves)
        assert parse_expression(g, "wff", render_expression(e)) == e


def test_ambiguity_soundness_against_enumeration(hilbert):
    # if parse returns a tree, independent generation finds exactly one tree
    # rendering to the same tokens
    g = hilbert.grammar
    pool = [g.variable(n) for n in ("p", "q")]
    universe = enumerate_trees(g, pool, 9)
    assert universe, "enumeration produced nothing"
    for e in universe:
        tokens = render_expression(e)
        parsed = parse_expression(g, "wff", tokens)
        same = [t for t in universe if render_expression(t) == tokens]
        assert parsed == e
        assert len(same) == 1


def test_left_recursive_grammar_terminates():
    g = Grammar(
        kinds=["s"],
        rules=[
            ("cat", "s", [Slot("s"), Lit("+"), Slot("s")]),
            ("atom", "s", [Lit("a")]),
        ],
    )
    assert parse_expression(g, "s", ["a"]).production.id == "atom"
    assert parse_expression(g, "s", "a + a".split()).production.id == "cat"
    # two associativities: genuinely ambiguous
    with pytest.raises(AmbiguousParseError):
        parse_expression(g, "s", "a + a + a".split())


def test_parse_any_kind_dedups_across_kinds(class_set):
    e = parse_any_kind(class_set, ["x"])
    assert e == Var("x", class_set.kind("set"))


def test_parse_all_counts(hilbert):
    assert len(parse_all(hilbert.grammar, "wff", "( p -> q )".split())) == 1
    assert parse_all(hilbert.grammar, "wff", ") p".split()) == []


def test_fresh_suffixed_variables_resolve(hilbert):
    e = parse_expression(hilbert.grammar, "wff", ["ph#3"])
    assert e == Var("ph#3", hilbert.grammar.kind("wff"))
    with pytest.raises(NoParseError):
        parse_expression(hilbert.grammar, "wff", ["zz#3"])


# -- the hash/eq contract the kernel's dicts and sets rely on ---------------


def test_var_equality_and_hash_ignore_the_replaceable_flag(hilbert):
    k = hilbert.grammar.kind("wff")
    fresh, frozen = Var("p", k, True), Var("p", k, False)
    assert fresh == frozen and hash(fresh) == hash(frozen)
    assert frozen in {fresh} and fresh in {frozen}
    assert {fresh: 1}[frozen] == 1 and {frozen: 2}[fresh] == 2
    assert Var("q", k) != fresh
    assert Var("p", Kind("other")) != fresh


def test_kind_equality_and_hash_ignore_accepts():
    plain, wide = Kind("class"), Kind("class", frozenset({"set"}))
    assert plain == wide and hash(plain) == hash(wide)
    assert {plain: 1}[wide] == 1
    assert Kind("set") != plain


def test_apply_equality_is_structural(hilbert):
    g = hilbert.grammar
    one = parse_expression(g, "wff", "( p -> ( q -> p ) )".split())
    two = parse_expression(g, "wff", "( p -> ( q -> p ) )".split())
    assert one is not two
    assert one == two and hash(one) == hash(two)
    assert {one: 1}[two] == 1
    for other in ("( q -> ( q -> p ) )", "( p -> ( p -> q ) )", "( ( p -> q ) -> p )"):
        assert one != parse_expression(g, "wff", other.split())
    assert one != Var("p", g.kind("wff"))


def test_term_nodes_are_lean(hilbert):
    # slotted: no per-node dict; an Apply can still be weakly referenced
    g = hilbert.grammar
    e = parse_expression(g, "wff", "( p -> q )".split())
    for node in (e, *e.children):
        assert not hasattr(node, "__dict__")
    assert weakref.ref(e)() is e
    assert repr(Var("p", g.kind("wff"), False)) == (
        "Var(name='p', kind=Kind(name='wff'), replaceable=False)"
    )


# -- the literal-anchored chart against the reference chart -----------------


def _sum_grammar():
    return Grammar(
        kinds=["s"],
        rules=[
            ("cat", "s", [Slot("s"), Lit("+"), Slot("s")]),
            ("atom", "s", [Lit("a")]),
        ],
    )


def _mixed_grammar():
    # a slot followed by a slot and then a literal, a left-recursive rule
    # ending in a literal, a prefix rule ending in a slot, a coercion and an
    # ambiguous two-slot rule
    return Grammar(
        kinds=["e", "n"],
        rules=[
            ("pair", "e", [Lit("["), Slot("e"), Slot("e"), Lit("]")]),
            ("bang", "e", [Slot("e"), Lit("!")]),
            ("neg", "e", [Lit("-"), Slot("e")]),
            ("plus", "e", [Slot("e"), Lit("+"), Slot("n")]),
            ("juxt", "e", [Slot("e"), Slot("e")]),
            ("one", "n", [Lit("1")]),
        ],
        variables=[("x", "e"), ("y", "e"), ("k", "n")],
        coercions=[("n", "e")],
    )


def _leaves(g):
    out = {}
    for name, decl in g.variables.items():
        out.setdefault(decl.kind.name, []).append(g.variable(name))
    return out


def _mutate(rng, tokens, vocabulary):
    tokens = list(tokens)
    at = rng.randrange(len(tokens))
    op = rng.randrange(4)
    if op == 0 and len(tokens) > 1:
        del tokens[at]
    elif op == 1:
        tokens.insert(at, tokens[at])
    elif op == 2:
        other = rng.randrange(len(tokens))
        tokens[at], tokens[other] = tokens[other], tokens[at]
    else:
        tokens[at] = rng.choice(vocabulary)
    return tokens


def _outcome(parse, *args):
    try:
        return parse(*args)
    except (NoParseError, AmbiguousParseError) as exc:
        return type(exc), str(exc)


def test_chart_equals_reference_chart_random(hilbert, class_set):
    systems = corpus(20260810, 40)
    coercive = [d.grammar for d in systems if len(d.grammar.kinds) > 1][:2]
    plain = [d.grammar for d in systems if len(d.grammar.kinds) == 1][:2]
    # (grammar, kind of the generated expressions, their maximum length);
    # the ambiguous grammars stay short, their tree counts grow like Catalan's
    cases = [
        (hilbert.grammar, "wff", 25),
        (class_set, "class", 1),
        (_sum_grammar(), "s", 11),
        (_mixed_grammar(), "e", 8),
    ] + [(g, "t", 15) for g in coercive + plain]
    rng = random.Random(20260810)
    for g, kind, max_tokens in cases:
        vocabulary = sorted(g.literals) + sorted(g.variables) + ["zz"]
        if g.variables:
            vocabulary.append(sorted(g.variables)[0] + "#2")
        leaves = _leaves(g)
        for _ in range(300):
            rendered = render_expression(random_expression(rng, g, kind, max_tokens, leaves))
            for mutations in (0, 1, 1, 2, 3):
                tokens = rendered
                for _ in range(mutations):
                    tokens = _mutate(rng, tokens, vocabulary)
                for k in g.kinds:
                    # the chart keeps the first two of the reference's trees
                    assert parse_all(g, k, tokens) == reference_parse_all(g, k, tokens)[:2], tokens
                    assert _outcome(parse_expression, g, k, tokens) == _outcome(
                        reference_parse_expression, g, k, tokens
                    ), tokens
                assert _outcome(parse_any_kind, g, tokens) == _outcome(
                    reference_parse_any_kind, g, tokens
                ), tokens


def _right_chain(depth):
    text = "p"
    for _ in range(depth):
        text = f"( q -> {text} )"
    return text


def test_deep_chain_loads_without_recursion():
    depth = 400
    text = _right_chain(depth)
    assert len(text.split()) == 1601
    d = load_system(HILBERT_PLS + f'statement deep : => "{text}"\n')
    g = d.grammar
    imp = next(p for p in g.productions if p.id == "imp")
    built = g.variable("p")
    for _ in range(depth):
        built = Apply(imp, (g.variable("q"), built))
    assert d.statement("deep").goal == built


def test_deep_chains_compare_and_render_without_recursion(hilbert):
    # two separately built 2,000-deep chains: no shared subterm to shortcut on
    g = hilbert.grammar
    imp = next(p for p in g.productions if p.id == "imp")

    def chain(last):
        built = g.variable(last)
        for _ in range(2000):
            built = Apply(imp, (g.variable("q"), built))
        return built

    a, b, c = chain("p"), chain("p"), chain("r")
    assert a == b and not a != b
    assert a != c and not a == c
    assert render_string(a) == "( q -> " * 2000 + "p" + " )" * 2000


class _CountingMemo(dict):
    """A chart memo that counts its lookups: one per (kind, span) consulted."""

    lookups = 0

    def get(self, key, default=None):
        self.lookups += 1
        return dict.get(self, key, default)


def test_chart_work_stays_quadratic_in_chain_depth(hilbert):
    counts = []
    for depth in (25, 50, 100):
        chart = _Chart(hilbert.grammar, _right_chain(depth).split())
        chart._memo = _CountingMemo()
        assert len(chart.trees("wff", 0, len(chart.tokens))) == 1
        counts.append(chart._memo.lookups)
    assert counts[0] > 0  # the chart consults its memo once per (kind, span) it tries
    for shorter, longer in zip(counts, counts[1:]):
        assert longer <= 4.5 * shorter, counts
