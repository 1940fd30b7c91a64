"""Frozen copy of the random small-system generator from tests/randsys.py.

Kept with the benchmark so that edits under tests/ cannot move the corpus.
It produces .pls text only and imports nothing from plf.  Do not edit the
generator body: the recorded oracle answers in data/oracle_known.json depend
on every random draw it makes.
"""

from __future__ import annotations

import random

def random_system_text(rng: random.Random, statements: int = 4) -> str:
    lines = ["kind t"]
    coercive = rng.random() < 0.2
    if coercive:
        lines.append("kind s")
        lines.append("coerce s into t")

    atoms = ["ca"] if rng.random() < 0.6 else ["ca", "cb"]
    for a in atoms:
        lines.append(f'rule {a} : t ::= "{a}"')
    if coercive:
        lines.append('rule cs : s ::= "cs"')

    ops = []
    if rng.random() < 0.9:
        ops.append(("f", 1))
    if rng.random() < 0.7:
        ops.append(("g", 2))
    for name, arity in ops:
        slots = " ".join(["t"] * arity)
        lines.append(f'rule {name} : t ::= "{name}" {slots}')

    lines.append("var u v : t")
    lines.append("var x y : t")
    if coercive:
        lines.append("var z : s")

    def rand_expr(leaves, budget):
        choices = list(atoms)
        if coercive:
            choices.append("cs")
        terminals = choices + leaves
        usable_ops = [(n, a) for n, a in ops if 1 + a <= budget]
        if usable_ops and rng.random() < 0.6:
            name, arity = rng.choice(usable_ops)
            spare = budget - 1 - arity
            parts = []
            for _ in range(arity):
                extra = rng.randint(0, spare)
                spare -= extra
                parts.append(rand_expr(leaves, 1 + extra))
            return f"{name} " + " ".join(parts)
        return rng.choice(terminals)

    n_assertions = rng.randint(1, 4)
    for i in range(n_assertions):
        avars = ["u", "v"][: rng.randint(0, 2)]
        n_premises = rng.randint(0, 2)
        premises = [rand_expr(avars, rng.randint(1, 7)) for _ in range(n_premises)]
        proposition = rand_expr(avars, rng.randint(1, 9))
        quoted = " ".join(f'"{p}"' for p in premises)
        sep = " " if quoted else ""
        lines.append(f"axiom a{i} : {quoted}{sep}=> \"{proposition}\"")

    for i in range(statements):
        svars = ["x"][: rng.randint(0, 1)]
        n_premises = 1 if rng.random() < 0.25 else 0
        premises = [rand_expr(svars, rng.randint(1, 5)) for _ in range(n_premises)]
        goal = rand_expr(svars, rng.randint(1, 7))
        quoted = " ".join(f'"{p}"' for p in premises)
        sep = " " if quoted else ""
        lines.append(f"statement s{i} : {quoted}{sep}=> \"{goal}\"")

    return "\n".join(lines) + "\n"


def corpus_texts(seed: int, count: int) -> list:
    """The first ``count`` systems of the corpus with this seed, as text."""
    rng = random.Random(seed)
    return [random_system_text(rng) for _ in range(count)]
