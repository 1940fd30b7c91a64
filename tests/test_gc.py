"""``run`` and ``saturate`` pause Python's cyclic garbage collector.

The pause is safe only because the paused code builds no reference cycles,
so that reference counting frees everything it drops; and it is invisible to
the caller only if the collector's state is restored however the call ends.
"""

import gc
from pathlib import Path

import pytest

from plf import (
    LimitReached,
    Proved,
    SaturationBounds,
    SearchLimits,
    UniverseOverflowError,
    check_statement_proof,
    init_search,
    load_system,
    parse_proof,
    run,
    saturate,
    serialize_proof,
)

DATA = Path(__file__).parent / "data"


@pytest.fixture()
def hilbert_file():
    return load_system((DATA / "hilbert.pls").read_text())


def _restoring(enabled):
    """Set the collector to ``enabled``; return the function that puts the
    state found here back."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    return gc.enable if was else gc.disable


def test_paused_code_leaves_no_cyclic_garbage(hilbert_file):
    d = hilbert_file
    s = d.statement("id")
    was_enabled, flags = gc.isenabled(), gc.get_debug()
    gc.collect()  # what earlier code left is not this test's concern
    del gc.garbage[:]
    gc.disable()
    gc.set_debug(flags | gc.DEBUG_SAVEALL)
    try:
        proved = run(init_search(d, s), SearchLimits(max_depth=6, timeout=30))
        capped = run(init_search(d, s), SearchLimits(max_depth=2, timeout=30))
        sat = saturate(d, s, SaturationBounds(9, 3))
        text = serialize_proof(proved.proof)
        violations = check_statement_proof(d, s, parse_proof(text, d))
        del proved, capped, sat, text
        gc.collect()
        garbage = sorted({type(x).__name__ for x in gc.garbage})
        del gc.garbage[:]
    finally:
        gc.set_debug(flags)
        if was_enabled:
            gc.enable()
    assert violations == []
    assert garbage == []


@pytest.mark.parametrize("enabled", [True, False])
def test_run_restores_the_collector_state(hilbert_file, enabled):
    d = hilbert_file
    s = d.statement("id")

    def refuse(line):
        raise RuntimeError("trace refused")

    restore = _restoring(enabled)
    try:
        proved = run(init_search(d, s), SearchLimits(max_depth=6, timeout=30))
        after_proved = gc.isenabled()
        capped = run(init_search(d, s), SearchLimits(max_depth=2, timeout=30))
        after_capped = gc.isenabled()
        with pytest.raises(RuntimeError, match="trace refused"):
            run(init_search(d, s, trace=refuse), SearchLimits(max_depth=6, timeout=30))
        after_raise = gc.isenabled()
    finally:
        restore()
    assert isinstance(proved, Proved) and isinstance(capped, LimitReached)
    assert after_proved is after_capped is after_raise is enabled


@pytest.mark.parametrize("enabled", [True, False])
def test_saturate_restores_the_collector_state(hilbert_file, enabled):
    d = hilbert_file
    s = d.statement("id")
    restore = _restoring(enabled)
    try:
        sat = saturate(d, s, SaturationBounds(9, 3))
        after_saturate = gc.isenabled()
        with pytest.raises(UniverseOverflowError):
            saturate(d, s, SaturationBounds(9, 3, universe_cap=3))
        after_raise = gc.isenabled()
    finally:
        restore()
    assert sat.rounds_run > 0
    assert after_saturate is after_raise is enabled
