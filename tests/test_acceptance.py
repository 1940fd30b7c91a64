"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete.  The randomized criteria share one seeded corpus of small systems
(at most 4 assertions, 2 premises per assertion, 9-token expressions).
"""

import itertools
import random
import subprocess
import sys
import time
from collections import Counter

import pytest

from plf import (
    KindMismatchError,
    Proved,
    SaturationBounds,
    SearchLimits,
    UniverseOverflowError,
    check_proof,
    check_statement_proof,
    init_search,
    load_system,
    parse_proof,
    run,
    saturate,
)
from plf.grammar import Var
from plf.oracle import oracle_proofs
from plf.proof import congruent, generality, proof_leaves, substitute_proof
from plf.term import (
    Substitution,
    apply,
    compose,
    freeze_expression,
    match_expression,
    match_many,
    replaceable_variables,
    unify_substitutions,
    variables_of,
)
from conftest import HILBERT_PLS
from helpers import assertion_multiset, enumerate_trees, proof_nodes
from randsys import corpus

CORPUS_SEED = 20260810
CORPUS_SYSTEMS = 250  # x4 statements each = 1000 searches
ORACLE_BOUNDS = dict(max_expression_tokens=5, max_rounds=4, universe_cap=500)
SEARCH_LIMITS = SearchLimits(max_depth=6, max_nodes=4000, max_spts_per_node=120, timeout=10)


def report(n, ok, detail):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def corpus_systems():
    return corpus(CORPUS_SEED, CORPUS_SYSTEMS)


@pytest.fixture(scope="module")
def corpus_searches(corpus_systems):
    """(system, statement, state, outcome) for 1000 self-checked searches."""
    results = []
    for d in corpus_systems:
        for s in d.statements:
            state = init_search(d, s, self_check=True)
            outcome = run(state, SEARCH_LIMITS)
            results.append((d, s, state, outcome))
    return results


@pytest.fixture(scope="module")
def oracle_results(corpus_systems):
    """(system, statement, saturation or None) for the whole corpus."""
    out = []
    for d in corpus_systems:
        for s in d.statements:
            try:
                sat = saturate(d, s, SaturationBounds(**ORACLE_BOUNDS))
            except UniverseOverflowError:
                sat = None  # outside the stated bounds; not part of the criterion
            out.append((d, s, sat))
    return out


@pytest.fixture(scope="module")
def completeness_runs(oracle_results):
    """Fresh searches at max_depth = goal round + 2 for oracle-provable cases."""
    runs = []
    for d, s, sat in oracle_results:
        if sat is None or s.goal not in sat.derived:
            continue
        depth = sat.derived[s.goal] + 2
        state = init_search(d, s, self_check=True)
        outcome = run(
            state,
            SearchLimits(max_depth=depth, max_nodes=30_000, max_spts_per_node=400, timeout=20),
        )
        runs.append((d, s, sat, outcome, state))
    return runs


def test_criterion_1_end_to_end_hilbert(tmp_path):
    system_path = tmp_path / "hilbert.pls"
    system_path.write_text(HILBERT_PLS)
    proof_path = tmp_path / "id.plp"
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "plf", "prove", str(system_path),
         "--statement", "id", "-o", str(proof_path)],
        capture_output=True, text=True, timeout=30,
    )
    elapsed = time.monotonic() - started
    d = load_system(HILBERT_PLS)
    s = d.statement("id")
    tree = parse_proof(proof_path.read_text(), d)
    emitted = assertion_multiset(tree)

    # oracle cross-check: the smallest derivation shape.  (A 13-token
    # universe provably cannot reach ( p -> p ): the final modus ponens
    # needs a 17-token image, so the bound here is 17.)
    bounds = SaturationBounds(17, 5)
    sat = saturate(d, s, bounds)
    oracle = oracle_proofs(d, s, bounds, s.goal, max_count=5, saturation=sat)
    minimal = assertion_multiset(oracle[0])

    ok = (
        proc.returncode == 0
        and elapsed < 10.0
        and check_statement_proof(d, s, tree) == []
        and emitted == Counter({"A1": 2, "A2": 1, "MP": 2})
        and minimal == emitted
        and s.goal in sat.derived
    )
    report(1, ok, f"prove exit={proc.returncode} in {elapsed:.2f}s, multiset={dict(emitted)}")


def test_criterion_2_correctness_suite(corpus_searches):
    searches = len(corpus_searches)
    cert_count = sum(state.stats.certificates for _, _, state, _ in corpus_searches)
    violations = sum(len(state.self_check_failures) for _, _, state, _ in corpus_searches)
    bad_proved = 0
    for d, s, state, outcome in corpus_searches:
        if isinstance(outcome, Proved):
            if check_statement_proof(d, s, outcome.proof):
                bad_proved += 1
    ok = searches >= 1000 and violations == 0 and bad_proved == 0
    report(
        2,
        ok,
        f"{searches} searches, {cert_count} certificates extracted+checked, "
        f"{violations} violations, {bad_proved} bad Proved outcomes",
    )


def test_criterion_3_completeness_at_desk_scale(completeness_runs):
    provable = len(completeness_runs)
    proved = sum(1 for *_, outcome, _ in completeness_runs if isinstance(outcome, Proved))
    ok = provable > 0 and proved == provable
    report(3, ok, f"oracle-provable={provable}, search-proved={proved} (100% required)")


def test_criterion_4_generality(completeness_runs):
    checked = 0
    congruent_pairs = 0
    failures = 0
    for d, s, sat, outcome, _ in completeness_runs:
        if not isinstance(outcome, Proved):
            continue
        extracted = outcome.proof
        bounds = SaturationBounds(**ORACLE_BOUNDS)
        proofs = oracle_proofs(d, s, bounds, s.goal, max_count=20, saturation=sat)
        checked += 1
        for op in proofs:
            if not congruent(extracted, op):
                continue
            congruent_pairs += 1
            delta = generality(extracted, op)
            if delta is None or substitute_proof(delta, extracted) != op:
                failures += 1
    ok = checked > 0 and congruent_pairs > 0 and failures == 0
    report(
        4,
        ok,
        f"{checked} proved cases, {congruent_pairs} congruent oracle proofs, "
        f"{failures} generality failures",
    )


def test_criterion_5_monotonicity(completeness_runs, corpus_searches):
    rng = random.Random(CORPUS_SEED + 5)
    proofs = []
    for d, s, state, outcome in corpus_searches:
        if isinstance(outcome, Proved):
            proofs.append((d, s, outcome.proof))
    assert proofs, "no proved searches to draw from"
    pairs = 0
    failures = 0
    while pairs < 1000:
        d, s, tree = proofs[pairs % len(proofs)]
        pool = sorted(
            {v for node in proof_nodes(tree) for v in replaceable_variables(node.expression)},
            key=lambda v: v.name,
        )
        universe = [e for k in saturate_universe(d, s) for e in k]
        bindings = {}
        for v in pool:
            if rng.random() < 0.75:
                options = [e for e in universe if e.kind.name in v.kind.accepts]
                if options:
                    bindings[v] = rng.choice(options)
        sigma = Substitution(bindings)
        out = substitute_proof(sigma, tree)
        if check_proof(d, out):
            failures += 1
        if out.expression != apply(sigma, tree.expression):
            failures += 1
        for before, after in zip(proof_leaves(tree), proof_leaves(out)):
            if after.expression != apply(sigma, before.expression):
                failures += 1
        pairs += 1
    ok = failures == 0
    report(5, ok, f"{pairs} (proof, substitution) pairs, {failures} failures")


_universe_cache = {}


def saturate_universe(d, s):
    key = id(d)
    if key not in _universe_cache:
        from plf.oracle import expression_universe

        pool = tuple(sorted(variables_of(s.goal), key=lambda v: v.name))
        _universe_cache[key] = expression_universe(d.grammar, pool, 5, 2000).values()
    return _universe_cache[key]


def test_criterion_6_substitution_unification_kernel(hilbert):
    g = hilbert.grammar
    rng = random.Random(CORPUS_SEED + 6)
    pool = [g.variable("ph"), g.variable("ps")]
    ground = [freeze_expression(g.variable(n)) for n in ("p", "q")]
    universe = enumerate_trees(g, ground + pool, 5)
    options = [None] + universe

    cases = 0
    failures = 0
    while cases < 1000:
        thetas = [
            Substitution({v: rng.choice(universe) for v in pool if rng.random() < 0.6})
            for _ in range(rng.choice([2, 3]))
        ]
        out = unify_substitutions(thetas)
        enumerated = []
        for images in itertools.product(options, repeat=len(pool)):
            bindings = {v: img for v, img in zip(pool, images) if img is not None}
            eta = Substitution(bindings)
            composites = [compose(eta, t) for t in thetas]
            if all(c == composites[0] for c in composites[1:]):
                enumerated.append(eta)
        if out is None:
            if enumerated:
                failures += 1
        else:
            delta, com = out
            if any(
                compose(delta, thetas[i]) != compose(delta, thetas[j])
                for i in range(len(thetas))
                for j in range(i + 1, len(thetas))
            ):
                failures += 1
            if com != compose(delta, thetas[0]):
                failures += 1
            relevant = set(pool)
            for eta in enumerated:
                prime = match_many([(apply(delta, v), apply(eta, v)) for v in relevant])
                if prime is None or any(
                    apply(prime, apply(delta, v)) != apply(eta, v) for v in relevant
                ):
                    failures += 1
                    break
        cases += 1
    ok = failures == 0
    report(6, ok, f"{cases} substitution sets, {failures} disagreements with enumeration")


def test_criterion_7_matching_uniqueness(hilbert):
    from helpers import random_expression

    g = hilbert.grammar
    rng = random.Random(CORPUS_SEED + 7)
    leaves = {"wff": [g.variable(n) for n in ("ph", "ps", "p", "q")]}
    ground = {"wff": [freeze_expression(g.variable(n)) for n in ("p", "q")]}
    successes = 0
    failures = 0
    cases = 0
    while cases < 1000:
        pattern = random_expression(rng, g, "wff", 7, leaves)
        if rng.random() < 0.7:
            target_sub = Substitution(
                {
                    v: random_expression(rng, g, v.kind.name, 5, ground)
                    for v in replaceable_variables(pattern)
                }
            )
            target = apply(target_sub, pattern)
        else:
            target = random_expression(rng, g, "wff", 9, ground)
        found = match_expression(pattern, target)
        solutions = _all_matches(pattern, target)
        if found is not None:
            successes += 1
            if len(solutions) != 1 or apply(found, pattern) != target:
                failures += 1
        else:
            if solutions:
                failures += 1
        cases += 1
    ok = failures == 0 and successes >= 500
    report(7, ok, f"{cases} pairs, {successes} matches, {failures} uniqueness failures")


def _all_matches(pattern, target):
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


def test_criterion_8_perturbation_rejection(corpus_searches):
    proofs = []
    for d, s, state, outcome in corpus_searches:
        if isinstance(outcome, Proved) and outcome.proof.inference is not None:
            proofs.append((d, outcome.proof))
        if len(proofs) == 100:
            break
    assert len(proofs) == 100, f"only {len(proofs)} transition-bearing proofs available"

    mutations = 0
    accepted = 0

    for d, tree in proofs:
        nodes = list(proof_nodes(tree))
        for idx, node in enumerate(nodes):
            mutated = _mutate_expression(d, tree, idx)
            if mutated is not None:
                mutations += 1
                if not check_proof(d, mutated):
                    accepted += 1
            inf = node.inference
            if inf is None:
                continue
            for v in inf.witness:
                mutated = _mutate_witness(d, tree, idx, v)
                if mutated is not None:
                    mutations += 1
                    if not check_proof(d, mutated):
                        accepted += 1
    ok = mutations > 0 and accepted == 0
    report(8, ok, f"{mutations} single-site mutations, {accepted} wrongly accepted")


def _wrap_or_swap(d, e):
    """A well-kinded expression different from ``e``."""
    from plf.grammar import Apply, Slot

    for p in d.grammar.productions:
        if p.is_coercion:
            continue
        slots = [i for i in p.rhs if isinstance(i, Slot)]
        if not slots:
            ground = Apply(p, ())
            if ground != e and ground.kind.name in e.kind.accepts:
                return ground
    for p in d.grammar.productions:
        if p.is_coercion:
            continue
        slots = [i for i in p.rhs if isinstance(i, Slot)]
        if len(slots) >= 1 and all(
            e.kind.name in d.grammar.kind(s.kind).accepts for s in slots
        ) and p.result_kind.name in e.kind.accepts:
            return Apply(p, tuple(e for _ in slots))
    return None


def _rebuild(node, index, counter, transform):
    """Depth-first copy applying ``transform`` at position ``index``."""
    from plf import Inference, ProofNode

    my_index = counter[0]
    counter[0] += 1
    expr_out, inf_transform = transform(node) if my_index == index else (node.expression, None)
    inf = node.inference
    if inf is None:
        return ProofNode(expr_out)
    if inf_transform is not None:
        inf = inf_transform
    kids = tuple(_rebuild(c, index, counter, transform) for c in inf.children)
    return ProofNode(expr_out, Inference(inf.assertion_id, inf.witness, kids))


def _mutate_expression(d, tree, index):
    target = list(proof_nodes(tree))[index]
    replacement = _wrap_or_swap(d, target.expression)
    if replacement is None:
        return None

    def transform(node):
        return replacement, node.inference

    return _rebuild(tree, index, [0], transform)


def _mutate_witness(d, tree, index, var):
    from plf import Inference

    target = list(proof_nodes(tree))[index]
    old = target.inference.witness[var]
    replacement = _wrap_or_swap(d, old)
    if replacement is None or replacement.kind.name not in var.kind.accepts:
        return None
    new_witness = Substitution(
        {v: (replacement if v == var else img) for v, img in target.inference.witness.items()}
    )

    def transform(node):
        return node.expression, Inference(node.inference.assertion_id, new_witness, node.inference.children)

    return _rebuild(tree, index, [0], transform)


def test_criterion_9_determinism(tmp_path, corpus_systems):
    from plf import render_system

    system_path = tmp_path / "hilbert.pls"
    system_path.write_text(HILBERT_PLS)
    targets = [(system_path, "id")]
    # one corpus system too
    d = corpus_systems[0]
    corpus_path = tmp_path / "corpus0.pls"
    corpus_path.write_text(render_system(d))
    for s in d.statements:
        targets.append((corpus_path, s.id))

    mismatches = 0
    for path, sid in targets:
        blobs, stats = [], []
        for i in range(2):
            proof = tmp_path / f"{sid}_{i}.plp"
            proc = subprocess.run(
                [sys.executable, "-m", "plf", "prove", str(path), "--statement", sid,
                 "--max-depth", "5", "--max-nodes", "3000", "--timeout", "10",
                 "-o", str(proof)],
                capture_output=True, text=True, timeout=60,
            )
            blobs.append(proof.read_bytes() if proof.exists() else proc.returncode)
            stats.append(
                [l for l in proc.stdout.splitlines() if not l.startswith("wall_time")]
            )
        if blobs[0] != blobs[1] or stats[0] != stats[1]:
            mismatches += 1
    ok = mismatches == 0
    report(9, ok, f"{len(targets)} prove targets run twice, {mismatches} mismatches")
