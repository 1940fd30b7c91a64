import pytest

from plf import (
    DuplicateIdError,
    NoParseError,
    SystemSyntaxError,
    UndeclaredVariableError,
    UnknownKindError,
    load_system,
    render_string,
    render_system,
)
from plf.grammar import Var
from plf.system import FreshSupply, rename_assertion
from plf.term import replaceable_variables, variables_of
from conftest import HILBERT_PLS


def test_load_hilbert(hilbert):
    assert [a.id for a in hilbert.assertions] == ["A1", "A2", "MP"]
    assert [s.id for s in hilbert.statements] == ["id"]
    mp = hilbert.assertion("MP")
    assert [render_string(p) for p in mp.premises] == ["ph", "( ph -> ps )"]
    assert render_string(mp.proposition) == "ps"


def test_statement_variables_frozen(hilbert):
    s = hilbert.statement("id")
    assert replaceable_variables(s.goal) == set()
    assert {v.name for v in variables_of(s.goal)} == {"p"}


def test_assertion_variables_replaceable(hilbert):
    a1 = hilbert.assertion("A1")
    assert {v.name for v in replaceable_variables(a1.proposition)} == {"ph", "ps"}


def test_truncated_expression():
    text = HILBERT_PLS + 'axiom X : => "( p ->"\n'
    with pytest.raises(NoParseError):
        load_system(text)


def test_duplicate_axiom_id():
    text = HILBERT_PLS + 'axiom A1 : => "p"\n'
    with pytest.raises(DuplicateIdError):
        load_system(text)


def test_unknown_kind_in_rule():
    with pytest.raises(UnknownKindError):
        load_system('kind wff\nrule bad : nope ::= "x"\n')


def test_undeclared_variable_in_axiom():
    with pytest.raises(UndeclaredVariableError):
        load_system('kind wff\nrule c : wff ::= "c"\naxiom a : => "zz"\n')


def test_hash_reserved():
    with pytest.raises(SystemSyntaxError):
        load_system("kind wff\nvar a#1 : wff\n")
    with pytest.raises(SystemSyntaxError):
        load_system('kind wff\nrule c : wff ::= "c#1"\n')


def test_variable_literal_collision():
    with pytest.raises(SystemSyntaxError):
        load_system('kind wff\nrule c : wff ::= "x"\nvar x : wff\n')


def test_comments_and_blank_lines():
    d = load_system("# header\n\nkind wff   # trailing\nvar p : wff\n")
    assert list(d.grammar.kinds) == ["wff"]
    assert "p" in d.grammar.variables


def test_rename_mp(hilbert):
    supply = FreshSupply()
    r, mapping = rename_assertion(hilbert.assertion("MP"), supply)
    assert [render_string(p) for p in r.premises] == ["ph#0", "( ph#0 -> ps#0 )"]
    assert render_string(r.proposition) == "ps#0"
    assert {v.name: w.name for v, w in mapping.items()} == {"ph": "ph#0", "ps": "ps#0"}
    assert supply.counter == 1


def test_rename_twice_disjoint(hilbert):
    supply = FreshSupply()
    a1 = hilbert.assertion("A1")
    first, _ = rename_assertion(a1, supply)
    second, _ = rename_assertion(a1, supply)
    names1 = {v.name for v in variables_of(first.proposition)}
    names2 = {v.name for v in variables_of(second.proposition)}
    assert names1 == {"ph#0", "ps#0"}
    assert names2 == {"ph#1", "ps#1"}
    assert not names1 & names2


def test_rename_no_variables_unchanged():
    d = load_system('kind wff\nrule c : wff ::= "c"\naxiom triv : => "c"\n')
    supply = FreshSupply()
    assert rename_assertion(d.assertion("triv"), supply) == (d.assertion("triv"), {})


def test_rename_suffix_erasure(hilbert):
    supply = FreshSupply(counter=5)
    r, _ = rename_assertion(hilbert.assertion("A2"), supply)
    stripped = " ".join(
        tok.split("#")[0] for tok in render_string(r.proposition).split()
    )
    assert stripped == render_string(hilbert.assertion("A2").proposition)


def test_load_render_round_trip(hilbert):
    assert load_system(render_system(hilbert)) == hilbert


def test_load_render_round_trip_with_coercion():
    text = (
        "kind class\nkind set\ncoerce set into class\n"
        'rule zero : set ::= "0"\nrule isin : class ::= "(" set "in" class ")"\n'
        "var A : class\nvar x : set\n"
        'axiom r : => "( x in A )"\n'
        'statement t : => "( 0 in 0 )"\n'
    )
    d = load_system(text)
    assert load_system(render_system(d)) == d


def test_unknown_statement(hilbert):
    from plf import UnknownStatementError

    with pytest.raises(UnknownStatementError):
        hilbert.statement("missing")


def test_unknown_assertion(hilbert):
    from plf import UnknownAssertionError

    with pytest.raises(UnknownAssertionError):
        hilbert.assertion("missing")
