import gc
import hashlib
import random
import weakref
from pathlib import Path

import pytest

import plf.oracle
from plf import (
    GoalNotDerivedError,
    SaturationBounds,
    UniverseOverflowError,
    check_statement_proof,
    load_system,
    render_string,
    saturate,
)
from plf.grammar import Apply
from plf.oracle import dump_derived, expression_universe, oracle_proofs
from plf.proof import serialize_proof
from plf.term import Substitution, freeze_expression
from conftest import HILBERT_PLS
from helpers import (
    assertion_multiset,
    expr,
    justification_triples,
    reference_ground,
    reference_saturate,
    saturation_digest,
)
from randsys import corpus
from record_saturations import read_digests
from test_acceptance import CORPUS_SEED, ORACLE_BOUNDS

DATA = Path(__file__).parent / "data"


def test_hilbert_id_derived_at_17_tokens(hilbert):
    s = hilbert.statement("id")
    assert s.goal in saturate(hilbert, s, SaturationBounds(17, 5)).derived


def test_hilbert_id_not_derived_at_13_tokens(hilbert):
    # the shortest derivation of ( p -> p ) routes through a 17-token
    # substitution image, so a 13-token universe cannot reach it
    s = hilbert.statement("id")
    assert s.goal not in saturate(hilbert, s, SaturationBounds(13, 5)).derived


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


def test_oracle_proofs_match_the_eagerly_recorded_trees(hilbert):
    # digest of the serialized proofs as oracle_proofs gave them when saturate
    # still built every witness and premise instance eagerly
    s = hilbert.statement("id")
    proofs = oracle_proofs(hilbert, s, SaturationBounds(17, 5), s.goal, max_count=20)
    text = "\n\n".join(serialize_proof(p) for p in proofs)
    assert len(proofs) == 4
    assert hashlib.sha256(text.encode("utf-8")).hexdigest()[:24] == "f27dfbb5b9543d0c6cdb7015"


def test_saturate_builds_a_witness_only_when_read(hilbert, monkeypatch):
    s = hilbert.statement("id")
    bounds = SaturationBounds(17, 5)
    expected = reference_saturate(hilbert, s, bounds).justifications[s.goal][0]
    built = []

    class Counted(Substitution):
        def __init__(self, bindings=()):
            super().__init__(bindings)
            built.append(self)

    monkeypatch.setattr(plf.oracle, "Substitution", Counted)
    sat = saturate(hilbert, s, bounds)
    assert built == []
    just = sat.justifications[s.goal][0]
    assert just.premises == expected[2] and built == []
    assert just.witness == expected[1] and len(built) == 1
    assert just.witness is built[0] and len(built) == 1


def test_oracle_proof_of_premise_is_single_leaf():
    d = load_system(
        'kind wff\nvar p q : wff\nrule imp : wff ::= "(" wff "->" wff ")"\n'
        'statement s : "( p -> q )" => "( p -> q )"\n'
    )
    s = d.statement("s")
    proofs = oracle_proofs(d, s, SaturationBounds(5, 1), s.goal, max_count=3)
    assert proofs[0].inference is None


def test_oracle_proof_takes_statement_premises_as_leaves():
    d = load_system(
        HILBERT_HEAD + 'axiom MP : "ph" "( ph -> ps )" => "ps"\nstatement s : "p" "( p -> q )" => "q"\n'
    )
    s = d.statement("s")
    (proof,) = oracle_proofs(d, s, SaturationBounds(5, 2), s.goal, max_count=1)
    assert proof.inference.assertion_id == "MP"
    assert [c.inference for c in proof.inference.children] == [None, None]
    assert check_statement_proof(d, s, proof) == []


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


def _assert_same_saturation(d, s, b):
    """Require the oracle and the reference to give the same saturation, in
    every insertion order and down to each justification's (assertion,
    witness, premises) triple, or both to raise UniverseOverflowError.
    Returns the oracle's saturation, or "overflow"."""
    results, records = [], []
    for run in (saturate, reference_saturate):
        try:
            sat = run(d, s, b)
        except UniverseOverflowError:
            results.append("overflow")
            records.append("overflow")
            continue
        results.append(sat)
        records.append((
            list(sat.derived.items()),
            justification_triples(sat),
            list(sat.universe.items()),
            sat.rounds_run,
        ))
    assert records[0] == records[1]
    return results[0]


@pytest.mark.parametrize(
    "bounds",
    [SaturationBounds(13, 3), SaturationBounds(17, 5), SaturationBounds(25, 2, universe_cap=50)],
)
def test_saturation_equals_reference_on_hilbert(hilbert, bounds):
    sat = _assert_same_saturation(hilbert, hilbert.statement("id"), bounds)
    assert (sat == "overflow") == (bounds.universe_cap == 50)


def test_saturation_equals_reference_on_corpus(corpus_saturations):
    # tests/record_saturations.py records the reference's saturations
    found, outcomes = [], set()
    for key, _, s, sat in corpus_saturations:
        found.append((key, saturation_digest(sat)))
        outcomes.add("overflow" if sat is None else s.goal in sat.derived)
    assert found == read_digests()
    assert outcomes == {True, False}


HILBERT_HEAD = 'kind wff\nvar ph ps p q : wff\nrule imp : wff ::= "(" wff "->" wff ")"\n'


def test_join_binds_a_repeated_premise_variable_once():
    d = load_system(
        HILBERT_HEAD
        + 'axiom MP : "ph" "( ph -> ps )" => "ps"\naxiom dup : "ph" => "( ph -> ph )"\n'
        'axiom un : "( ph -> ph )" => "ph"\nstatement s : "p" "( p -> q )" => "q"\n'
    )
    sat = _assert_same_saturation(d, d.statement("s"), SaturationBounds(9, 4))
    assert sat.derived[expr(d, "( ( q -> q ) -> ( q -> q ) )")] == 3


def test_ground_match_takes_equal_productions_of_another_load(hilbert):
    # the oracle's matcher compares productions by identity first; a fact
    # built from an equal production of another load must still match
    g = hilbert.grammar
    universe = expression_universe(g, (g.variable("p"), g.variable("q")), 5, 1000)
    plan = plf.oracle._Plan(hilbert.assertion("MP"), universe)
    fact = expr(load_system(HILBERT_PLS), "( p -> q )")
    env = plf.oracle._match(plan, plan.assertion.premises[1], fact, [None, None])
    assert [plan.pools[k][i] for k, i in enumerate(env)] == [g.variable("p"), g.variable("q")]


def test_join_matches_a_nullary_constant_in_a_premise():
    d = load_system(
        'kind wff\nvar ph p : wff\nrule c : wff ::= "c"\nrule imp : wff ::= "(" wff "->" wff ")"\n'
        'axiom elim : "( c -> ph )" => "ph"\naxiom intro : "ph" => "( c -> ph )"\n'
        'statement s : "( c -> p )" => "( c -> ( c -> p ) )"\n'
    )
    sat = _assert_same_saturation(d, d.statement("s"), SaturationBounds(5, 4))
    assert sat.derived[expr(d, "p")] == 1


def test_join_binds_a_coerced_image():
    d = load_system(
        "kind wff\nkind class\nkind set\ncoerce set into class\n"
        'rule el : wff ::= "(" class "e." class ")"\nrule sing : class ::= "{" class "}"\n'
        'rule zero : set ::= "0"\nvar A B : class\nvar y z : set\n'
        'axiom up : "( A e. B )" => "( { A } e. B )"\n'
        'statement s : "( y e. z )" => "( { y } e. z )"\n'
    )
    s = d.statement("s")
    sat = _assert_same_saturation(d, s, SaturationBounds(4, 3))
    (just,) = sat.justifications[s.goal]
    assert [image.kind.name for _, image in just.witness.items()] == ["set", "set"]


def test_join_skips_a_fact_whose_subterm_is_outside_the_universe():
    # ps would bind to ( ( p -> p ) -> p ), 7 tokens, outside the 5-token
    # universe; MP may therefore not take this premise
    d = load_system(
        HILBERT_HEAD + 'axiom MP : "ph" "( ph -> ps )" => "ps"\n'
        'statement s : "( p -> p )" "( ( p -> p ) -> ( ( p -> p ) -> p ) )" => "p"\n'
    )
    sat = _assert_same_saturation(d, d.statement("s"), SaturationBounds(5, 3))
    assert sat.rounds_run == 0 and sat.justifications == {}


def test_conclusion_only_variable_ranges_over_its_pool():
    d = load_system(
        HILBERT_HEAD + 'axiom weak : "ph" => "( ps -> ph )"\nstatement s : "p" => "( q -> p )"\n'
    )
    s = d.statement("s")
    sat = _assert_same_saturation(d, s, SaturationBounds(5, 3))
    pool = sat.universe["wff"]
    assert len(sat.justifications[s.goal]) == 1
    assert sum(1 for e, r in sat.derived.items() if r == 1) == len(pool)


def test_justification_cap_is_reached_in_the_reference_order():
    d = load_system(
        'kind wff\nvar ph p q : wff\nrule c : wff ::= "c"\nrule imp : wff ::= "(" wff "->" wff ")"\n'
        'axiom all : => "ph"\naxiom dup : "ph" => "( ph -> ph )"\n'
        'axiom k : "( ph -> ph )" => "c"\nstatement s : => "( p -> q )"\n'
    )
    sat = _assert_same_saturation(d, d.statement("s"), SaturationBounds(9, 3))
    rounds = [
        max((sat.derived[p] for p in j.premises), default=0)
        for j in sat.justifications[expr(d, "c")]
    ]
    # the cap of 64 falls inside round 3, among instances of round-2 facts
    assert len(rounds) == 64 and rounds.count(2) == 60


# -- builders ------------------------------------------------------------------


def _saturated_plans(monkeypatch, d, s, bounds):
    """The plans ``saturate`` builds for ``s``, after it ran, so that their
    memos hold what the saturation shared; none when the universe overflows."""
    plans = []

    class Recorded(plf.oracle._Plan):
        def __init__(self, a, universe):
            super().__init__(a, universe)
            plans.append(self)

    with monkeypatch.context() as patch:
        patch.setattr(plf.oracle, "_Plan", Recorded)
        try:
            saturate(d, s, bounds)
        except UniverseOverflowError:
            pass
    return plans


def _assert_builders_ground_like_the_reference(plan, rng, draws):
    """Every builder of ``plan`` gives ``reference_ground``'s term on
    ``draws`` random pool-index envs, as tuples and as lists (the join's
    range path hands the premise builders lists)."""
    if not all(plan.pools):
        return 0
    a = plan.assertion
    for n in range(draws):
        env = [rng.randrange(len(pool)) for pool in plan.pools]
        env = tuple(env) if n % 2 else env
        assert plan.build_conclusion(env) == reference_ground(plan, a.proposition, env)
        for build, premise in zip(plan.build_premises, a.premises, strict=True):
            assert build(env) == reference_ground(plan, premise, env)
    return 1


def test_builders_ground_like_the_reference_on_hilbert(monkeypatch):
    d = load_system((DATA / "hilbert.pls").read_text(encoding="utf-8"))
    plans = _saturated_plans(monkeypatch, d, d.statement("id"), SaturationBounds(17, 5))
    rng = random.Random(20261018)
    assert [p.assertion.id for p in plans] == ["A1", "A2", "MP"]
    assert sum(_assert_builders_ground_like_the_reference(p, rng, 400) for p in plans) == 3


def test_builders_ground_like_the_reference_on_the_corpus(monkeypatch):
    bounds = SaturationBounds(**ORACLE_BOUNDS)
    rng = random.Random(20261018)
    checked = 0
    for d in corpus(CORPUS_SEED, 40):
        for s in d.statements:
            for plan in _saturated_plans(monkeypatch, d, s, bounds):
                checked += _assert_builders_ground_like_the_reference(plan, rng, 20)
    assert checked > 300


def test_builders_share_open_subterms_and_keep_closed_ones(monkeypatch):
    d = load_system(
        "kind wff\nkind class\nkind set\ncoerce set into class\n"
        'rule c : wff ::= "c"\nrule imp : wff ::= "(" wff "->" wff ")"\n'
        'rule el : wff ::= "(" class "e." class ")"\nrule sing : class ::= "{" class "}"\n'
        'rule zero : set ::= "0"\nvar ph ps : wff\nvar A : class\nvar y : set\n'
        'axiom dup : "ph" => "( ph -> ph )"\n'
        'axiom t : "( ph -> ph )" => "( ( ph -> ph ) -> ( ( c -> c ) -> ( ps -> ( { A } e. 0 ) ) ) )"\n'
        'statement s : "( y e. 0 )" => "c"\n'
    )
    s = d.statement("s")
    bounds = SaturationBounds(5, 3)
    sat = _assert_same_saturation(d, s, bounds)
    assert any(j.assertion_id == "t" for js in sat.justifications.values() for j in js)
    plan = next(p for p in _saturated_plans(monkeypatch, d, s, bounds) if p.assertion.id == "t")
    assert [v.name for v in plan.variables] == ["A", "ph", "ps"]
    # A ranges over a coerced pool: set members stand for classes
    assert {e.kind.name for e in plan.pools[0]} == {"set", "class"}
    rng = random.Random(20261018)
    assert _assert_builders_ground_like_the_reference(plan, rng, 300) == 1

    closed = plan.assertion.proposition.children[1].children[0]  # ( c -> c )
    for n in range(50):
        env = tuple(rng.randrange(len(pool)) for pool in plan.pools)
        other = (rng.randrange(len(plan.pools[0])), env[1], rng.randrange(len(plan.pools[2])))
        first, second = plan.build_conclusion(env), plan.build_conclusion(other)
        # closed subterms, ( c -> c ) and the constant 0, are the pattern's own
        assert first.children[1].children[0] is closed
        assert first.children[1].children[1].children[1].children[1] is (
            plan.assertion.proposition.children[1].children[1].children[1].children[1]
        )
        # ( ph -> ph ), over ph alone, is built once per image of ph
        assert first.children[0] is second.children[0]
        assert plan.build_premises[0](list(other)) == first.children[0]
        # ( ps -> ( { A } e. 0 ) ), over A and ps, once per pair of images
        assert first.children[1].children[1] is plan.build_conclusion(
            (env[0], other[1], env[2])
        ).children[1].children[1]


def test_saturate_shares_subterms_over_some_of_the_variables(hilbert, monkeypatch):
    s = hilbert.statement("id")
    built = [0]
    init = Apply.__init__

    def counted(self, production, children):
        built[0] += 1
        init(self, production, children)

    with monkeypatch.context() as patch:
        patch.setattr(plf.oracle.Apply, "__init__", counted)
        sat = saturate(hilbert, s, SaturationBounds(17, 5))
    # rebuilding every subterm of every instance took 74,910
    assert built[0] <= 40_000 and len(sat.derived) == 12_704

    # ( ph -> ps ) of A2's conclusions: one object per image of (ph, ps)
    seen, repeats = {}, 0
    for conclusion, entries in sat.justifications.items():
        if any(j.assertion_id == "A2" for j in entries):
            ph_ps = conclusion.children[1].children[0]
            repeats += ph_ps in seen
            assert seen.setdefault(ph_ps, ph_ps) is ph_ps
    assert repeats > len(seen) > 1


def test_builders_keep_no_subterm_over_every_variable(hilbert, monkeypatch):
    # a term over all of a plan's variables is built for one instance only,
    # so no memo may keep it alive
    (a1,) = [
        p for p in _saturated_plans(monkeypatch, hilbert, hilbert.statement("id"), SaturationBounds(9, 2))
        if p.assertion.id == "A1"
    ]
    conclusion = a1.build_conclusion((0, 1))
    inner = weakref.ref(conclusion.children[1])
    outer = weakref.ref(conclusion)
    del conclusion
    gc.collect()
    assert outer() is None and inner() is None
