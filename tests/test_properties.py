"""Property tests: the search, the checker and the oracle agree on random
small systems drawn from the acceptance corpus generator.

Hypothesis runs derandomized with a bounded number of examples, so the suite
stays deterministic and fast; a failure shrinks to one generator seed.
"""

import random

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
from plf.proof import serialize_proof
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
