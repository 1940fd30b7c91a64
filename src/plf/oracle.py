"""Forward saturation over a bounded expression universe.

Ground truth for testing the search engine: materialize every expression the
statement's variables can build within a token budget, then repeatedly
instantiate each assertion with substitutions into that universe, keeping
the conclusions whose premise instances were already derived.  Rounds are
semi-naive, as in Datalog: an instance is visited only in the round after
its last premise was derived, and premise variables are bound by matching
the premises against the derived facts (a join) instead of trying every
universe member.  The saturation is the one the exhaustive product over the
universe gives, down to the order of every justification list.  Instances
are grounded by builders each assertion's plan compiles once per pattern:
a subterm over only some of the assertion's variables is built once per
image of those variables and then shared (hash-consing, per plan).  A
justification is kept as its assertion's plan and one pool index per
variable; its witness ``Substitution`` and premise instances are built only
when read, which only ``oracle_proofs`` does.  The oracle has its own ground
matcher and instantiation; it shares only the ``Substitution`` witness type
and ``variables_of`` with the kernel.

``saturate`` pauses Python's cyclic garbage collector (``gc_paused``) and
restores the caller's setting when it returns or raises.  The pause is
process-wide.  The saturation builds no reference cycles (plans, builders
and justifications point only at terms and pools, never back), so reference
counting frees everything it drops and the collector would only walk the
growing fact set again and again.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from math import prod
from operator import itemgetter
from typing import Optional, Sequence

from .errors import GoalNotDerivedError, UniverseOverflowError
from .grammar import Apply, Expression, Lit, Slot, Var, gc_paused, render_string
from .proof import Inference, ProofNode
from .system import DeductiveSystem, Statement, assertion_variables
from .term import Substitution, variables_of


@dataclass(frozen=True)
class SaturationBounds:
    """Budget for one saturation run.

    ``max_expression_tokens`` bounds the rendered length of universe members
    (the expressions substitutions may draw on), which are built over the
    variables of the statement under test; derived conclusions are only
    bounded by the round count.
    """

    max_expression_tokens: int
    max_rounds: int
    universe_cap: int = 20000


class Justification:
    """One assertion instance that concludes an expression, stored as the
    assertion's ``_Plan`` and its pool-index tuple.  ``witness`` and
    ``premises`` are built on first read and kept.  Compares by identity."""

    def __init__(self, plan, at: tuple):
        self._plan, self._at = plan, at

    @property
    def assertion_id(self) -> str:
        return self._plan.assertion.id

    @cached_property
    def witness(self) -> Substitution:
        plan = self._plan
        return Substitution((v, pool[i]) for v, pool, i in zip(plan.variables, plan.pools, self._at))

    @cached_property
    def premises(self) -> tuple:
        return tuple(build(self._at) for build in self._plan.build_premises)


@dataclass
class Saturation:
    derived: dict  # Expression -> first round it appeared in (premises at 0)
    justifications: dict  # Expression -> list[Justification], witnesses built when read
    universe: dict  # kind name -> tuple[Expression, ...]
    rounds_run: int


def _compositions(total: int, parts: int):
    """Every way to write ``total`` as ``parts`` positive summands, in
    lexicographic order."""
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def expression_universe(grammar, pool: Sequence[Var], max_tokens: int, cap: int) -> dict:
    """All expressions over ``pool`` renderable within ``max_tokens``,
    grouped by intrinsic kind and ordered by (length, construction)."""
    structural = [p for p in grammar.productions if not p.is_coercion]
    by_len = [dict() for _ in range(max_tokens + 1)]  # length -> kind -> [expr]
    total = 0

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
            for comp in _compositions(length - lits, len(slots)):
                pools = [_instance_pool(by_len[n], grammar.kind(k)) for k, n in zip(slots, comp)]
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
_MAX_TRANSITIONS = 12


class _Plan:
    """One assertion prepared for saturation: its variables (sorted by name)
    with their universe pools; per variable position, a map from pool
    member to its first index there; and a builder per pattern."""

    def __init__(self, a, universe):
        self.assertion = a
        self.variables = assertion_variables(a)
        self.pools = [_instance_pool(universe, v.kind) for v in self.variables]
        self.slot = {v: k for k, v in enumerate(self.variables)}
        self.where = []
        for pool in self.pools:
            where = {}
            for i, member in enumerate(pool):
                where.setdefault(member, i)
            self.where.append(where)
        self.premise_slots = [sorted({self.slot[v] for v in variables_of(p)}) for p in a.premises]
        in_premises = {k for slots in self.premise_slots for k in slots}
        self.conclusion_only = [k for k in range(len(self.variables)) if k not in in_premises]
        self.build_conclusion = _builder(self, a.proposition)
        self.build_premises = [_builder(self, p) for p in a.premises]


def _index(facts, heads):
    """Add ``facts`` to ``heads``: production id -> facts with that head, and
    None -> every fact, each list in insertion order."""
    for f in facts:
        heads[None].append(f)
        if f.__class__ is Apply:
            heads.setdefault(f.production.id, []).append(f)
    return heads


def _match(plan, pattern, fact, env):
    """``env`` (a pool index per variable position, None while unbound)
    extended so that ``pattern`` instantiates to the ground ``fact``, or None.
    A variable binds only to a member of its pool."""
    env = list(env)
    stack = [(pattern, fact)]
    while stack:
        pat, tgt = stack.pop()
        if pat.__class__ is Var:
            k = plan.slot[pat]
            at = plan.where[k].get(tgt)
            if at is None or env[k] is not None and env[k] != at:
                return None
            env[k] = at
        elif tgt.__class__ is not Apply or (
            tgt.production is not pat.production and tgt.production != pat.production
        ):
            return None
        else:
            stack.extend(zip(pat.children, tgt.children))
    return env


def _builder(plan, pattern):
    """A function from a pool index per variable position to ``pattern``
    with each variable replaced by its pool member there.  An open subterm
    over a proper subset of the plan's variables builds each image once per
    saturation, keyed on just those indices; one over all of them is built
    afresh, as the rounds visit each instance once."""
    if pattern.__class__ is Var:
        k = plan.slot[pattern]
        pool = plan.pools[k]
        return lambda env: pool[env[k]]
    if not pattern.open:
        return lambda env: pattern
    production = pattern.production
    kids = [_builder(plan, c) for c in pattern.children]

    def build(env):
        return Apply(production, tuple([kid(env) for kid in kids]))

    slots = sorted({plan.slot[v] for v in variables_of(pattern)})
    if len(slots) == len(plan.variables):
        return build
    key, memo = itemgetter(*slots), {}

    def shared(env):
        at = key(env)
        image = memo.get(at)
        if image is None:
            image = memo[at] = build(env)
        return image

    return shared


def _extend(plan, env, slots):
    """``env`` with the positions ``slots`` ranging over their pools."""
    for combo in product(*(range(len(plan.pools[k])) for k in slots)):
        out = list(env)
        for k, i in zip(slots, combo):
            out[k] = i
        yield out


def _new_tuples(plan, known, heads, delta, delta_heads) -> list:
    """Pool-index tuples of ``plan`` whose premise instances are all in
    ``known`` and at least one of which is in ``delta``, in product order.

    The premises are joined one at a time, the one drawn from ``delta``
    first.  A premise binds its still-free variables by matching the facts
    with its head, or, when the product of those variables' pools is
    smaller, by ranging over the pools and looking the instance up."""
    premises = plan.assertion.premises
    found = set()
    for first in range(len(premises)):
        envs = [[None] * len(plan.variables)]
        bound = set()
        for j in [first] + [j for j in range(len(premises)) if j != first]:
            facts, index = (delta, delta_heads) if j == first else (known, heads)
            pattern, build = premises[j], plan.build_premises[j]
            free = [k for k in plan.premise_slots[j] if k not in bound]
            bound.update(free)
            candidates = index.get(pattern.production.id if pattern.__class__ is Apply else None, ())
            if prod(len(plan.pools[k]) for k in free) < len(candidates):
                envs = [e for env in envs for e in _extend(plan, env, free)
                        if build(e) in facts]
            else:
                envs = [e for env in envs for f in candidates
                        if (e := _match(plan, pattern, f, env)) is not None]
            if not envs:
                break
        for env in envs:
            found.update(tuple(e) for e in _extend(plan, env, plan.conclusion_only))
    return sorted(found)


@gc_paused()
def saturate(d: DeductiveSystem, s: Statement, b: SaturationBounds) -> Saturation:
    """Forward saturation, semi-naive: round r instantiates an assertion only
    where one of its premise instances was derived in round r - 1 (the
    statement's premises count as new in round 1), so every instance is
    visited once.  Assertions without premises fire in round 1 only.
    """
    seen = set()
    for e in (*s.premises, s.goal):
        seen |= variables_of(e)
    pool = tuple(sorted(seen, key=lambda v: v.name))
    universe = expression_universe(
        d.grammar, pool, b.max_expression_tokens, b.universe_cap
    )

    known = {p: 0 for p in s.premises}
    justifications = {}
    plans = [_Plan(a, universe) for a in d.assertions]
    heads = _index(known, {None: []})
    delta = set(known)

    rounds_run = 0
    for rnd in range(1, b.max_rounds + 1):
        new = {}
        delta_heads = _index(delta, {None: []})
        for plan in plans:
            a = plan.assertion
            if a.premises:
                tuples = _new_tuples(plan, known, heads, delta, delta_heads)
            elif rnd == 1:  # the instance set is fixed; round 1 finds it all
                tuples = product(*(range(len(pool)) for pool in plan.pools))
            else:
                continue
            for at in tuples:
                conclusion = plan.build_conclusion(at)
                entry = justifications.setdefault(conclusion, [])
                if len(entry) < _MAX_JUSTIFICATIONS_PER_EXPR:
                    entry.append(Justification(plan, at))
                if conclusion not in known and conclusion not in new:
                    new[conclusion] = rnd
        if not new:
            break
        rounds_run = rnd
        known.update(new)
        _index(new, heads)
        delta = new

    return Saturation(known, justifications, universe, rounds_run)


def oracle_proofs(
    d: DeductiveSystem,
    s: Statement,
    b: SaturationBounds,
    goal: Expression,
    max_count: int,
    saturation: Optional[Saturation] = None,
) -> list:
    """Up to ``max_count`` distinct proof trees of ``goal`` of at most
    ``_MAX_TRANSITIONS`` transitions, smallest first, unrolled from the
    saturation record."""
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
            # a premise of the statement may take no transition, any other at least one
            free = [p in premises for p in just.premises]
            for split in _compositions(budget - 1 + sum(free), kids_needed):
                options = [build(p, c - f) for p, c, f in zip(just.premises, split, free)]
                for kids in product(*options):
                    out.append(ProofNode(expr, Inference(just.assertion_id, just.witness, kids)))
        memo[key] = out
        return out

    results = []
    for cost in range(0, _MAX_TRANSITIONS + 1):
        for tree in build(goal, cost):
            results.append(tree)
            if len(results) >= max_count:
                return results
    return results


def dump_derived(sat: Saturation) -> str:
    lines = sorted(render_string(e) for e in sat.derived)
    return "\n".join(lines) + ("\n" if lines else "")
