"""Property tests: the search, the checker and the oracle agree on random
small systems drawn from the acceptance corpus generator, the search keeps
every limit it is given, closing the subtrees of full goals keeps every
proof and never makes a verdict worse, and `plf verify`, `plf prove` and
`plf oracle` answer every mutated copy of a real proof or system file
without a traceback.

Hypothesis runs derandomized with a bounded number of examples, so the suite
stays deterministic and fast; a failure shrinks to one generator seed.
"""

import dataclasses
import io
import random
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from plf import (
    Exhausted,
    Proved,
    SaturationBounds,
    SearchLimits,
    UniverseOverflowError,
    check_statement_proof,
    init_search,
    load_system,
    run,
    saturate,
)
from plf.cli import main
from plf.proof import serialize_proof
from conftest import HILBERT_PLS
from helpers import (
    NAT_PLS,
    a1_mp_chain_proof,
    implication_chain,
    search_with_and_without_closure,
    successor_chain_proof,
)
from randsys import random_system_text
from test_acceptance import ORACLE_BOUNDS, SEARCH_LIMITS


def _search(d, s):
    out = run(init_search(d, s), SEARCH_LIMITS)
    return out, serialize_proof(out.proof) if isinstance(out, Proved) else None


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_search_agrees_with_checker_and_oracle(seed):
    d = load_system(random_system_text(random.Random(seed)))
    for s in d.statements:
        out, text = _search(d, s)
        again, text_again = _search(d, s)
        assert (type(again), text_again) == (type(out), text)
        if isinstance(out, Proved):
            assert check_statement_proof(d, s, out.proof) == []
        elif isinstance(out, Exhausted):
            try:
                sat = saturate(d, s, SaturationBounds(**ORACLE_BOUNDS))
            except UniverseOverflowError:
                continue  # outside the oracle's bounds
            assert s.goal not in sat.derived


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=1, max_value=400),  # the root exists before any limit
    st.integers(min_value=0, max_value=12),
)
def test_search_keeps_its_limits(seed, depth, nodes, cap):
    d = load_system(random_system_text(random.Random(seed)))
    limits = SearchLimits(max_depth=depth, max_nodes=nodes, max_spts_per_node=cap, timeout=10)
    for s in d.statements:
        state = init_search(d, s)
        out = run(state, limits)
        assert out.stats.nodes <= nodes
        assert all(len(n.certs) <= cap for n in (*state.goals.values(), *state.rules.values()))
        assert all(state.goals[r.parent].depth < depth for r in state.rules.values())


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_closure_keeps_proofs_on_random_systems(seed):
    # each system runs at caps 0 to 3, since a goal with work beneath it
    # fills in only about 2% of random systems at cap 1; at cap 0 no goal
    # holds a certificate, so none is ever full and both searches do the
    # same work
    d = load_system(random_system_text(random.Random(seed)))
    for cap in range(4):
        limits = dataclasses.replace(SEARCH_LIMITS, max_spts_per_node=cap, timeout=600.0)
        for s in d.statements:
            out, unclosed = search_with_and_without_closure(d, s.id, limits)
            if cap == 0:
                assert dataclasses.replace(out.stats, wall_time=0) == dataclasses.replace(unclosed.stats, wall_time=0)
                assert getattr(out, "limit", None) == getattr(unclosed, "limit", None)


def _mutate(data, text, junk):
    """``text`` with one word dropped, duplicated or replaced by another word
    of the text or of ``junk``, or with one line cut short."""
    words = [m.span() for m in re.finditer(r"\S+", text)]
    how = data.draw(st.sampled_from(["drop", "duplicate", "replace", "cut"]))
    if how == "cut":
        line_start = data.draw(st.sampled_from([0] + [m.end() for m in re.finditer("\n", text)][:-1]))
        start = data.draw(st.integers(line_start, text.index("\n", line_start)))
        end = text.index("\n", start)
        new = ""
    else:
        start, end = data.draw(st.sampled_from(words))
        if how == "drop":
            new = ""
        elif how == "duplicate":
            new = f"{text[start:end]} {text[start:end]}"
        else:
            new = data.draw(st.sampled_from(sorted({text[a:b] for a, b in words}) + junk))
    return text[:start] + new + text[end:]


def _answers(argv):
    """Run the CLI; it must exit 0, 1 or 2, and on 2 write one ``error:``
    line to stderr and nothing else there."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    return code, err.getvalue()


_PLS_JUNK = ["kind", "var", "rule", "coerce", "into", "axiom", "statement", ":", "::=", "=>",
             '"', '""', "zz", "#"]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.data())
def test_prove_and_oracle_survive_mutated_systems(tmp_path_factory, data):
    # a word of the system dropped, duplicated or replaced, or a line cut
    # short: prove (small limits) and oracle (small bounds) answer proved or
    # derived (0), not (1) or error (2), never a traceback
    if data.draw(st.booleans()):
        text = HILBERT_PLS
    else:
        text = random_system_text(random.Random(data.draw(st.integers(0, 2**32 - 1))))
    sid = data.draw(st.sampled_from(re.findall(r"^statement (\S+)", text, re.M)))
    path = tmp_path_factory.mktemp("pls") / "mutated.pls"
    path.write_text(_mutate(data, text, _PLS_JUNK))
    _answers(["prove", str(path), "--statement", sid, "--max-depth", "4",
              "--max-nodes", "300", "--max-spts-per-node", "20", "--timeout", "5"])
    _answers(["oracle", str(path), "--statement", sid, "--max-size", "5", "--max-rounds", "2"])


@pytest.fixture(scope="module")
def proof_files(tmp_path_factory):
    """A directory and (system path, statement id, .plp text) of three real
    proofs: the search's proof of id, an A1/MP chain and a successor chain."""
    root = tmp_path_factory.mktemp("proofs")
    hilbert = load_system(HILBERT_PLS)
    found = run(init_search(hilbert, hilbert.statement("id")), SEARCH_LIMITS)
    systems = [
        (HILBERT_PLS, "id", serialize_proof(found.proof)),
        (HILBERT_PLS + f'statement c : "p" => "{implication_chain(4)}"\n', "c", a1_mp_chain_proof(4)),
        (NAT_PLS + 'statement n : => "N s s s z"\n', "n", successor_chain_proof(3)),
    ]
    cases = []
    for k, (system, sid, text) in enumerate(systems):
        path = root / f"system{k}.pls"
        path.write_text(system)
        cases.append((str(path), sid, text))
    return root, cases


_PLP_JUNK = ["(", ")", "{", "}", ";", ":=", '"', '""', "step", "hyp", "by", "with", "from", "zz", "#"]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data())
def test_verify_survives_mutated_proofs(proof_files, data):
    # a word of the file dropped, duplicated or replaced, or a line cut short:
    # verify answers valid (0), invalid (1) or error (2), never a traceback
    root, cases = proof_files
    system, sid, text = data.draw(st.sampled_from(cases))
    proof = root / "mutated.plp"
    proof.write_text(_mutate(data, text, _PLP_JUNK))
    code, err = _answers(["verify", system, str(proof), "--statement", sid])
    if code != 2:
        assert err == ""
