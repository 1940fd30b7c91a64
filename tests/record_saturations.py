"""Record the reference saturations of the acceptance corpus as digests.

    PYTHONPATH=src python tests/record_saturations.py

Writes tests/data/corpus_saturations.txt: one line per corpus statement,
``<system index> <statement id> <digest>``, where the digest (helpers.
saturation_digest) covers the derived facts and rounds, the justification
lists, the universe and rounds_run, or reads "overflow".  Only the reference
saturation of helpers.py is run, so the file is independent of plf.oracle;
test_oracle.py compares plf.oracle.saturate against it.  Re-record only when
the corpus, its bounds or the reference change, never to make a failing
check pass.
"""

from __future__ import annotations

from pathlib import Path

from plf import SaturationBounds, UniverseOverflowError
from helpers import reference_saturate, saturation_digest
from randsys import corpus
from test_acceptance import CORPUS_SEED, CORPUS_SYSTEMS, ORACLE_BOUNDS

DIGESTS = Path(__file__).resolve().parent / "data" / "corpus_saturations.txt"


def saturate_corpus(saturate):
    """Yield (key, system, statement, saturation or None) for every
    statement of the acceptance corpus, saturated at its bounds."""
    bounds = SaturationBounds(**ORACLE_BOUNDS)
    for index, d in enumerate(corpus(CORPUS_SEED, CORPUS_SYSTEMS)):
        for s in d.statements:
            try:
                sat = saturate(d, s, bounds)
            except UniverseOverflowError:
                sat = None
            yield f"{index} {s.id}", d, s, sat


def read_digests():
    """The recorded (key, digest) pairs, in corpus order."""
    lines = DIGESTS.read_text(encoding="utf-8").splitlines()
    return [tuple(line.rsplit(" ", 1)) for line in lines]


def main():
    lines = [
        f"{key} {saturation_digest(sat)}" for key, _, _, sat in saturate_corpus(reference_saturate)
    ]
    DIGESTS.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"recorded {len(lines)} digests in {DIGESTS}")


if __name__ == "__main__":
    main()
