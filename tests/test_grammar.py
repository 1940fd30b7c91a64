import random

import pytest

from plf import AmbiguousParseError, NoParseError, UnknownKindError, render_string
from plf.grammar import (
    Apply,
    Grammar,
    Lit,
    Slot,
    Var,
    parse_all,
    parse_any_kind,
    parse_expression,
    render_expression,
)
from helpers import enumerate_trees, random_expression


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
