import pytest

from plf import (
    GoalNotDerivedError,
    SaturationBounds,
    UniverseOverflowError,
    check_statement_proof,
    load_system,
    render_string,
    saturate,
)
from plf.oracle import dump_derived, expression_universe, oracle_proofs, provable
from plf.term import freeze_expression
from helpers import assertion_multiset, expr


def test_hilbert_id_derived_at_17_tokens(hilbert):
    s = hilbert.statement("id")
    sat = saturate(hilbert, s, SaturationBounds(17, 5))
    assert s.goal in sat.derived
    assert provable(hilbert, s, SaturationBounds(17, 5))


def test_hilbert_id_not_derived_at_13_tokens(hilbert):
    # the shortest derivation of ( p -> p ) routes through a 17-token
    # substitution image, so a 13-token universe cannot reach it
    s = hilbert.statement("id")
    assert not provable(hilbert, s, SaturationBounds(13, 5))


def test_zero_assertions_zero_premises():
    d = load_system('kind wff\nvar p : wff\nrule c : wff ::= "c"\nstatement s : => "c"\n')
    sat = saturate(d, d.statement("s"), SaturationBounds(5, 3))
    assert sat.derived == {}


def test_universal_axiom_derives_entire_universe(hilbert):
    d = load_system(
        'kind wff\nvar ph p : wff\nrule imp : wff ::= "(" wff "->" wff ")"\n'
        'axiom any : => "ph"\nstatement s : => "( p -> p )"\n'
    )
    s = d.statement("s")
    sat = saturate(d, s, SaturationBounds(9, 2))
    universe = {e for kind in sat.universe.values() for e in kind}
    assert set(sat.derived) == universe


def test_goal_equal_to_premise_round_zero(hilbert):
    d = load_system(
        'kind wff\nvar p q : wff\nrule imp : wff ::= "(" wff "->" wff ")"\n'
        'statement s : "( p -> q )" => "( p -> q )"\n'
    )
    s = d.statement("s")
    sat = saturate(d, s, SaturationBounds(5, 1))
    assert sat.derived[s.goal] == 0


def test_oracle_proofs_include_five_step_id(hilbert):
    s = hilbert.statement("id")
    bounds = SaturationBounds(17, 5)
    proofs = oracle_proofs(hilbert, s, bounds, s.goal, max_count=20)
    assert proofs
    multisets = [assertion_multiset(p) for p in proofs]
    assert {"A1": 2, "A2": 1, "MP": 2} in multisets
    for p in proofs:
        assert check_statement_proof(hilbert, s, p) == []
    # nondecreasing size
    sizes = [sum(m.values()) for m in multisets]
    assert sizes == sorted(sizes)


def test_oracle_proof_of_premise_is_single_leaf():
    d = load_system(
        'kind wff\nvar p q : wff\nrule imp : wff ::= "(" wff "->" wff ")"\n'
        'statement s : "( p -> q )" => "( p -> q )"\n'
    )
    s = d.statement("s")
    proofs = oracle_proofs(d, s, SaturationBounds(5, 1), s.goal, max_count=3)
    assert proofs[0].inference is None


def test_oracle_goal_not_derived(hilbert):
    s = hilbert.statement("id")
    bounds = SaturationBounds(9, 2)
    with pytest.raises(GoalNotDerivedError):
        oracle_proofs(hilbert, s, bounds, freeze_expression(expr(hilbert, "q")), 5)


def test_saturation_monotone_in_bounds(hilbert):
    s = hilbert.statement("id")
    small = saturate(hilbert, s, SaturationBounds(13, 3))
    large = saturate(hilbert, s, SaturationBounds(17, 4))
    assert set(small.derived) <= set(large.derived)


def test_universe_overflow(hilbert):
    s = hilbert.statement("id")
    with pytest.raises(UniverseOverflowError):
        saturate(hilbert, s, SaturationBounds(25, 2, universe_cap=50))


def test_universe_respects_coercion():
    d = load_system(
        "kind class\nkind set\ncoerce set into class\n"
        'rule zero : set ::= "0"\nrule sing : class ::= "{" class "}"\n'
        "var x : set\n"
        'statement t : => "{ 0 }"\n'
    )
    uni = expression_universe(d.grammar, (), 3, 1000)
    rendered = {render_string(e) for k in uni.values() for e in k}
    assert rendered == {"0", "{ 0 }"}


def test_dump_derived_sorted(hilbert):
    s = hilbert.statement("id")
    sat = saturate(hilbert, s, SaturationBounds(13, 2))
    text = dump_derived(sat)
    lines = text.strip().splitlines()
    assert lines == sorted(lines)
    assert all(l for l in lines)
