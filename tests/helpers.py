"""Shared test utilities: expression builders, random generators, and the
independent brute-force enumerators the properties check against."""

from __future__ import annotations

import random
from collections import Counter

from plf import Inference, ProofNode
from plf.grammar import Apply, Var, parse_any_kind, render_expression
from plf.term import Substitution


def expr(d, text):
    """Parse a whitespace-separated expression under any kind."""
    return parse_any_kind(d.grammar, text.split())


def sub(d, **images):
    """Substitution from declared-variable names to expression strings."""
    g = d.grammar
    return Substitution({g.variable(name): expr(d, image) for name, image in images.items()})


def assertion_multiset(t: ProofNode) -> Counter:
    out = Counter()

    def walk(node):
        if node.inference is not None:
            out[node.inference.assertion_id] += 1
            for child in node.inference.children:
                walk(child)

    walk(t)
    return out


def proof_nodes(t: ProofNode):
    yield t
    if t.inference is not None:
        for child in t.inference.children:
            yield from proof_nodes(child)


def random_expression(rng: random.Random, grammar, kind_name, max_tokens, leaves):
    """Random expression of (a kind accepted by) ``kind_name`` whose render
    stays within ``max_tokens``.  ``leaves`` maps kind names to Var lists."""
    from plf.grammar import Lit, Slot

    structural = [p for p in grammar.productions if not p.is_coercion]

    def gen(kname, budget):
        accepted = grammar.kind(kname).accepts
        atoms = [v for k, vs in leaves.items() if k in accepted for v in vs]
        options = [("leaf", None)] if atoms else []
        for p in structural:
            if p.result_kind.name not in accepted:
                continue
            lits = sum(1 for i in p.rhs if isinstance(i, Lit))
            slots = [i.kind for i in p.rhs if isinstance(i, Slot)]
            if lits + len(slots) <= budget:
                options.append(("prod", p))
        if not options:
            return None
        tag, p = rng.choice(options)
        if tag == "leaf":
            return rng.choice(atoms)
        lits = sum(1 for i in p.rhs if isinstance(i, Lit))
        slots = [i.kind for i in p.rhs if isinstance(i, Slot)]
        spare = budget - lits - len(slots)
        kids = []
        for sk in slots:
            extra = rng.randint(0, spare)
            spare -= extra
            kid = gen(sk, 1 + extra)
            if kid is None:
                return None
            kids.append(kid)
        return Apply(p, tuple(kids))

    for _ in range(50):
        result = gen(kind_name, max_tokens)
        if result is not None:
            return result
    raise RuntimeError("could not generate an expression within the budget")


def enumerate_trees(grammar, pool, max_tokens):
    """Independent size-bounded enumeration of all expressions over ``pool``:
    generate trees of each exact render length, smallest first."""
    from plf.grammar import Lit, Slot

    structural = [p for p in grammar.productions if not p.is_coercion]
    memo = {}

    def exact(size):
        # every well-formed tree whose render has exactly ``size`` tokens
        if size in memo:
            return memo[size]
        memo[size] = out = []
        if size >= 1:
            for v in pool:
                if size == 1:
                    out.append(v)
        for p in structural:
            lits = sum(1 for i in p.rhs if isinstance(i, Lit))
            slots = [i.kind for i in p.rhs if isinstance(i, Slot)]
            if not slots:
                if lits == size:
                    out.append(Apply(p, ()))
                continue
            budget = size - lits
            if budget < len(slots):
                continue
            combos = [((), budget)]
            for pos, sk in enumerate(slots):
                still = len(slots) - pos - 1
                nxt = []
                for prefix, left in combos:
                    for take in range(1, left - still + 1):
                        accepted = grammar.kind(sk).accepts
                        for t in exact(take):
                            if t.kind.name in accepted:
                                nxt.append((prefix + (t,), left - take))
                combos = nxt
            for kids, left in combos:
                if left == 0:
                    out.append(Apply(p, kids))
        return out

    seen = []
    for size in range(1, max_tokens + 1):
        for t in exact(size):
            if t not in seen:
                seen.append(t)
    return seen
