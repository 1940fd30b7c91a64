"""Property tests: the search, the checker and the oracle agree on random
small systems drawn from the acceptance corpus generator, and `plf verify`
answers every mutated copy of a real proof file without a traceback.

Hypothesis runs derandomized with a bounded number of examples, so the suite
stays deterministic and fast; a failure shrinks to one generator seed.
"""

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


_JUNK = ["(", ")", "{", "}", ";", ":=", '"', '""', "step", "hyp", "by", "with", "from", "zz", "#"]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data())
def test_verify_survives_mutated_proofs(proof_files, data):
    # a word of the file dropped, duplicated or replaced, or a line cut short:
    # verify answers valid (0), invalid (1) or error (2), never a traceback
    root, cases = proof_files
    system, sid, text = data.draw(st.sampled_from(cases))
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
            new = data.draw(st.sampled_from(sorted({text[a:b] for a, b in words}) + _JUNK))
    proof = root / "mutated.plp"
    proof.write_text(text[:start] + new + text[end:])
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["verify", system, str(proof), "--statement", sid])
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == ""
