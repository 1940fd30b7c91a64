"""Brute-force forward saturation over a bounded expression universe.

Ground truth for testing the search engine: materialize every expression the
statement's variables can build within a token budget, then repeatedly
instantiate each assertion with every substitution into that universe,
keeping the conclusions whose premise instances were already derived.  Slow
on purpose; it shares nothing with the search code.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional, Sequence

from .errors import GoalNotDerivedError, UniverseOverflowError
from .grammar import Apply, Expression, Lit, Slot, Var, render_string
from .proof import Inference, ProofNode
from .system import DeductiveSystem, Statement, assertion_variables
from .term import Substitution, apply, variables_of


@dataclass(frozen=True)
class SaturationBounds:
    """Budget for one saturation run.

    ``max_expression_tokens`` bounds the rendered length of universe members
    (the expressions substitutions may draw on); derived conclusions are only
    bounded by the round count.  ``variable_pool`` defaults to the variables
    of the statement under test.
    """

    max_expression_tokens: int
    max_rounds: int
    variable_pool: Optional[tuple] = None
    universe_cap: int = 20000


@dataclass(frozen=True)
class Justification:
    assertion_id: str
    witness: Substitution
    premises: tuple


@dataclass
class Saturation:
    derived: dict  # Expression -> first round it appeared in (premises at 0)
    justifications: dict  # Expression -> list[Justification]
    universe: dict  # kind name -> tuple[Expression, ...]
    rounds_run: int


def expression_universe(grammar, pool: Sequence[Var], max_tokens: int, cap: int) -> dict:
    """All expressions over ``pool`` renderable within ``max_tokens``,
    grouped by intrinsic kind and ordered by (length, construction)."""
    structural = [p for p in grammar.productions if not p.is_coercion]
    by_len = [dict() for _ in range(max_tokens + 1)]  # length -> kind -> [expr]
    total = 0

    def slot_options(kind_name: str, length: int):
        accepted = grammar.kind(kind_name).accepts
        out = []
        for kname, exprs in by_len[length].items():
            if kname in accepted:
                out.extend(exprs)
        return out

    def compositions(total_len, parts):
        if parts == 1:
            yield (total_len,)
            return
        for first in range(1, total_len - parts + 2):
            for rest in compositions(total_len - first, parts - 1):
                yield (first,) + rest

    for length in range(1, max_tokens + 1):
        bucket = {}

        def add(expr):
            nonlocal total
            bucket.setdefault(expr.kind.name, []).append(expr)
            total += 1
            if total > cap:
                raise UniverseOverflowError(
                    f"expression universe exceeds {cap} members"
                )

        if length == 1:
            for v in pool:
                add(v)
        for prod in structural:
            lits = sum(1 for item in prod.rhs if isinstance(item, Lit))
            slots = [item.kind for item in prod.rhs if isinstance(item, Slot)]
            if not slots:
                if lits == length:
                    add(Apply(prod, ()))
                continue
            budget = length - lits
            if budget < len(slots):
                continue
            for comp in compositions(budget, len(slots)):
                pools = [slot_options(k, n) for k, n in zip(slots, comp)]
                for kids in product(*pools):
                    add(Apply(prod, kids))
        by_len[length] = bucket

    merged = {}
    for table in by_len[1:]:
        for kname, exprs in table.items():
            merged.setdefault(kname, []).extend(exprs)
    return {k: tuple(v) for k, v in merged.items()}


def _instance_pool(universe: dict, kind) -> list:
    out = []
    for kname in universe:
        if kname in kind.accepts:
            out.extend(universe[kname])
    return out


_MAX_JUSTIFICATIONS_PER_EXPR = 64


def saturate(d: DeductiveSystem, s: Statement, b: SaturationBounds) -> Saturation:
    pool = b.variable_pool
    if pool is None:
        seen = set()
        for e in (*s.premises, s.goal):
            seen |= variables_of(e)
        pool = tuple(sorted(seen, key=lambda v: v.name))
    universe = expression_universe(
        d.grammar, pool, b.max_expression_tokens, b.universe_cap
    )

    known = {p: 0 for p in s.premises}
    justifications = {}
    recorded = set()

    plans = []
    for a in d.assertions:
        avars = assertion_variables(a)
        pools = [_instance_pool(universe, v.kind) for v in avars]
        plans.append((a, avars, pools))

    rounds_run = 0
    for rnd in range(1, b.max_rounds + 1):
        new = {}
        for a, avars, pools in plans:
            if not a.premises and rnd > 1:
                continue  # instance set is fixed; round 1 already found it all
            for images in product(*pools):
                theta = Substitution(zip(avars, images))
                instances = tuple(apply(theta, p) for p in a.premises)
                if any(inst not in known for inst in instances):
                    continue
                conclusion = apply(theta, a.proposition)
                tag = (conclusion, a.id, theta)
                if tag not in recorded:
                    entry = justifications.setdefault(conclusion, [])
                    if len(entry) < _MAX_JUSTIFICATIONS_PER_EXPR:
                        entry.append(Justification(a.id, theta, instances))
                        recorded.add(tag)
                if conclusion not in known and conclusion not in new:
                    new[conclusion] = rnd
        if not new:
            break
        rounds_run = rnd
        known.update(new)

    return Saturation(known, justifications, universe, rounds_run)


def provable(d: DeductiveSystem, s: Statement, b: SaturationBounds) -> bool:
    return s.goal in saturate(d, s, b).derived


def oracle_proofs(
    d: DeductiveSystem,
    s: Statement,
    b: SaturationBounds,
    goal: Expression,
    max_count: int,
    max_transitions: int = 12,
    saturation: Optional[Saturation] = None,
) -> list:
    """Up to ``max_count`` distinct proof trees of ``goal``, smallest first
    (counted in transitions), unrolled from the saturation record."""
    sat = saturation if saturation is not None else saturate(d, s, b)
    premises = set(s.premises)
    if goal not in sat.derived and goal not in premises:
        raise GoalNotDerivedError("goal was not derived within bounds")

    memo = {}

    def build(expr, budget):
        key = (expr, budget)
        hit = memo.get(key)
        if hit is not None:
            return hit
        out = []
        if budget == 0:
            if expr in premises:
                out.append(ProofNode(expr))
            memo[key] = out
            return out
        for just in sat.justifications.get(expr, []):
            kids_needed = len(just.premises)
            if kids_needed == 0:
                if budget == 1:
                    out.append(ProofNode(expr, Inference(just.assertion_id, just.witness, ())))
                continue
            for split in _splits(just.premises, budget - 1, premises):
                options = [build(p, c) for p, c in zip(just.premises, split)]
                for kids in product(*options):
                    out.append(ProofNode(expr, Inference(just.assertion_id, just.witness, kids)))
        memo[key] = out
        return out

    def _splits(prem_instances, budget, premise_set):
        mins = [0 if p in premise_set else 1 for p in prem_instances]

        def rec(idx, left):
            if idx == len(prem_instances) - 1:
                if left >= mins[idx]:
                    yield (left,)
                return
            upper = left - sum(mins[idx + 1 :])
            for take in range(mins[idx], upper + 1):
                for rest in rec(idx + 1, left - take):
                    yield (take,) + rest

        if budget < sum(mins):
            return
        yield from rec(0, budget)

    results = []
    for cost in range(0, max_transitions + 1):
        for tree in build(goal, cost):
            results.append(tree)
            if len(results) >= max_count:
                return results
    return results


def dump_derived(sat: Saturation) -> str:
    lines = sorted(render_string(e) for e in sat.derived)
    return "\n".join(lines) + ("\n" if lines else "")
