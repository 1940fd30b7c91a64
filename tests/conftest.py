import gc

import pytest

from plf import load_system

HILBERT_PLS = """\
# classical implicational fragment, Hilbert style
kind wff
var ph ps ch p q r : wff
rule imp : wff ::= "(" wff "->" wff ")"
axiom A1 : => "( ph -> ( ps -> ph ) )"
axiom A2 : => "( ( ph -> ( ps -> ch ) ) -> ( ( ph -> ps ) -> ( ph -> ch ) ) )"
axiom MP : "ph" "( ph -> ps )" => "ps"
statement id : => "( p -> p )"
"""


@pytest.fixture(scope="session")
def hilbert():
    return load_system(HILBERT_PLS)


@pytest.fixture()
def hilbert_path(tmp_path):
    path = tmp_path / "hilbert.pls"
    path.write_text(HILBERT_PLS)
    return path


@pytest.fixture(scope="session")
def corpus_saturations():
    """(key, system, statement, saturation or None) for every statement of
    the acceptance corpus at its oracle bounds, computed once for both the
    oracle's corpus differential and acceptance criterion 3.

    The saturations live until the session ends, about half a million
    objects.  Every full collection of the cyclic garbage collector would
    walk them again, which costs the later tests more time than sharing
    saves, so they are frozen out of it until then."""
    from plf import saturate
    from record_saturations import saturate_corpus

    saturations = list(saturate_corpus(saturate))
    gc.freeze()
    yield saturations
    gc.unfreeze()
