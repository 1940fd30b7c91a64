"""Shared test utilities: expression builders, random generators, and the
independent brute-force enumerators the properties check against."""

from __future__ import annotations

import math
import random
from collections import Counter
from contextlib import contextmanager

import pytest

from plf import AmbiguousParseError, Inference, NoParseError, ProofNode
from plf.grammar import Apply, Lit, Var, _Chart, parse_any_kind, render_expression
from plf.term import Substitution


def expr(d, text):
    """Parse a whitespace-separated expression under any kind."""
    return parse_any_kind(d.grammar, text.split())


def sub(d, **images):
    """Substitution from declared-variable names to expression strings."""
    g = d.grammar
    return Substitution({g.variable(name): expr(d, image) for name, image in images.items()})


NAT_PLS = """\
kind nat
kind wff
rule z : nat ::= "z"
rule s : nat ::= "s" nat
rule isnat : wff ::= "N" nat
var x : nat
axiom zero : => "N z"
axiom succ : "N x" => "N s x"
"""


def successor_chain_proof(depth):
    """The .plp text of the proof of ``N s ... s z`` (``depth`` successors)
    in ``NAT_PLS``, in the layout serialize_proof writes: each step repeats
    its whole expression, and its witness image is the one below it."""
    lines = [
        "  " * (depth - k) + f'(step "N{" s" * k} z" by succ with {{ x := "{"s " * (k - 1)}z" }} from'
        for k in range(depth, 0, -1)
    ]
    lines.append("  " * depth + '(step "N z" by zero with { } from)' + ")" * depth)
    return "\n".join(lines) + "\n"


def implication_chain(depth):
    """( q -> ( q -> ... p ) ) with ``depth`` implications."""
    return "( q -> " * depth + "p" + " )" * depth


def a1_mp_chain_proof(depth):
    """The .plp text of the A1/MP proof of ``"p" => implication_chain(depth)``
    in the Hilbert system: each level is an MP step whose premises are the
    level below and an A1 instance ``( prev -> ( q -> prev ) )``."""
    lines = ['(hyp "p")']
    for k in range(1, depth + 1):
        prev, cur = implication_chain(k - 1), implication_chain(k)
        lines = (
            [f'(step "{cur}" by MP with {{ ph := "{prev}" ; ps := "{cur}" }} from']
            + ["  " + line for line in lines]
            + [f'  (step "( {prev} -> {cur} )" by A1 with {{ ph := "{prev}" ; ps := "q" }} from))']
        )
    return "\n".join(lines) + "\n"


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


def flagged(e):
    """Pre-order structure of ``e`` including the replaceable flags that
    ``==`` and the rendered text ignore."""
    out = []
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            out.append((node.name, node.kind.name, node.replaceable))
        else:
            out.append(node.production.id)
            stack.extend(reversed(node.children))
    return tuple(out)


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


# -- reference unifier -----------------------------------------------------
# The eager Robinson unifier the kernel used before it became triangular: it
# rewrites the whole worklist and unifier after every binding.  Kept only as
# the oracle of the differential tests in test_term.py.


def _ref_apply(s, e):
    if isinstance(e, Var):
        if e.replaceable:
            image = s.get(e)
            if image is not None:
                return image
        return e
    changed = False
    kids = []
    for child in e.children:
        new = _ref_apply(s, child)
        changed = changed or new is not child
        kids.append(new)
    return Apply(e.production, tuple(kids)) if changed else e


def _ref_contains(e, v):
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            if node == v:
                return True
        else:
            stack.extend(node.children)
    return False


def _ref_bindable(v, t):
    return isinstance(v, Var) and v.replaceable and t.kind.name in v.kind.accepts


def reference_unify_pairs(pairs):
    unifier = {}
    work = list(pairs)
    while work:
        left, right = work.pop()
        if left == right:
            continue
        if isinstance(left, Apply) and isinstance(right, Apply):
            if left.production != right.production:
                return None
            work.extend(zip(left.children, right.children))
            continue
        if _ref_bindable(left, right):
            var, image = left, right
        elif _ref_bindable(right, left):
            var, image = right, left
        else:
            return None
        if _ref_contains(image, var):
            return None
        single = {var: image}
        work = [(_ref_apply(single, a), _ref_apply(single, b)) for a, b in work]
        unifier = {v: _ref_apply(single, img) for v, img in unifier.items()}
        unifier[var] = image
    return unifier


def reference_unify_expressions(e1, e2):
    raw = reference_unify_pairs([(e1, e2)])
    return None if raw is None else Substitution(raw)


def reference_unify_substitutions(subs):
    subs = list(subs)
    if not subs:
        return Substitution(), Substitution()
    domain = sorted({v for s in subs for v in s}, key=lambda v: v.name)
    pairs = []
    for a, b in zip(subs, subs[1:]):
        for v in domain:
            pairs.append((a.get(v, v), b.get(v, v)))
    raw = reference_unify_pairs(pairs)
    if raw is None:
        return None
    delta = Substitution(raw)
    first = dict(subs[0].items())
    merged = {v: _ref_apply(delta, img) for v, img in first.items()}
    for v, img in delta.items():
        if v not in first:
            merged[v] = img
    return delta, Substitution(merged)


# -- reference parser ------------------------------------------------------
# The all-parses chart the grammar used before split points were anchored on
# literals: every slot tries every end position, recursively.  Kept only as
# the oracle of the differential tests in test_grammar.py.


class ReferenceChart:
    def __init__(self, g, tokens):
        self.g = g
        self.tokens = tuple(tokens)
        self._memo = {}

    def trees(self, kind_name, i, j):
        key = (kind_name, i, j)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        out = []
        accepts = self.g.kind(kind_name).accepts
        if j - i == 1:
            decl = self.g.resolve_variable(self.tokens[i])
            if decl is not None and decl.kind.name in accepts:
                out.append(Var(decl.name, decl.kind))
        for prod in self.g.productions:
            if not prod.is_coercion and prod.result_kind.name in accepts:
                for children in self._spans(prod, i, j):
                    out.append(Apply(prod, children))
        self._memo[key] = out
        return out

    def _spans(self, prod, i, j):
        results = []
        rhs = prod.rhs

        def walk(idx, pos, acc):
            remaining = len(rhs) - idx
            if remaining == 0:
                if pos == j:
                    results.append(tuple(acc))
                return
            if j - pos < remaining:  # every rhs item consumes at least one token
                return
            item = rhs[idx]
            if isinstance(item, Lit):
                if self.tokens[pos] == item.text:
                    walk(idx + 1, pos + 1, acc)
            else:
                for q in range(pos + 1, j - (remaining - 1) + 1):
                    for tree in self.trees(item.kind, pos, q):
                        acc.append(tree)
                        walk(idx + 1, q, acc)
                        acc.pop()

        walk(0, i, [])
        return results


def parse_all(g, kind, tokens, chart=_Chart):
    """Every parse tree of ``tokens`` within the sublanguage of ``kind``."""
    g.kind(kind)
    toks = tuple(tokens)
    if not toks:
        raise NoParseError("empty token sequence")
    return chart(g, toks).trees(kind, 0, len(toks))


def parse_expression(g, kind, tokens, chart=_Chart):
    """The single parse tree of ``tokens`` as ``kind``."""
    trees = parse_all(g, kind, tokens, chart)
    if not trees:
        raise NoParseError(f"cannot parse {' '.join(tokens)!r} as kind {kind!r}")
    if len(trees) > 1:
        raise AmbiguousParseError(
            f"{' '.join(tokens)!r} is ambiguous as kind {kind!r}: at least 2 parse trees"
        )
    return trees[0]


def reference_parse_all(g, kind, tokens):
    return parse_all(g, kind, tokens, ReferenceChart)


def reference_parse_expression(g, kind, tokens):
    return parse_expression(g, kind, tokens, ReferenceChart)


def reference_parse_any_kind(g, tokens):
    toks = tuple(tokens)
    if not toks:
        raise NoParseError("empty token sequence")
    chart = ReferenceChart(g, toks)
    found = []
    for kname in g.kinds:
        for tree in chart.trees(kname, 0, len(toks)):
            if tree not in found:
                found.append(tree)
    if not found:
        raise NoParseError(f"cannot parse {' '.join(toks)!r} under any kind")
    if len(found) > 1:
        raise AmbiguousParseError(f"{' '.join(toks)!r} is ambiguous: at least 2 parse trees")
    return found[0]


# The saturation loop the oracle used before it became semi-naive: every
# round instantiates every assertion with every tuple of universe members,
# and records each justification eagerly as an (assertion id, witness,
# premise instances) triple.  Kept only as the oracle of the differential
# tests in test_oracle.py.


def reference_saturate(d, s, b):
    from itertools import product

    from plf.oracle import Saturation, _instance_pool, expression_universe
    from plf.system import assertion_variables
    from plf.term import apply, variables_of

    seen = set()
    for e in (*s.premises, s.goal):
        seen |= variables_of(e)
    pool = tuple(sorted(seen, key=lambda v: v.name))
    universe = expression_universe(d.grammar, pool, b.max_expression_tokens, b.universe_cap)

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
                continue
            for images in product(*pools):
                theta = Substitution(zip(avars, images))
                instances = tuple(apply(theta, p) for p in a.premises)
                if any(inst not in known for inst in instances):
                    continue
                conclusion = apply(theta, a.proposition)
                tag = (conclusion, a.id, theta)
                if tag not in recorded:
                    entry = justifications.setdefault(conclusion, [])
                    if len(entry) < 64:
                        entry.append((a.id, theta, instances))
                        recorded.add(tag)
                if conclusion not in known and conclusion not in new:
                    new[conclusion] = rnd
        if not new:
            break
        rounds_run = rnd
        known.update(new)

    return Saturation(known, justifications, universe, rounds_run)


# -- reference crossing ------------------------------------------------------
# The rule-node crossing the search used before it stopped at a full node
# whose certificate cap had tripped: it tests every tuple of the product and
# yields each new rule certificate.  Its label is built the eager way, from
# the composite com of the children's labels, where the search resolves one
# term at a time.  Kept only as the oracle of the differential tests in
# test_search.py, which monkeypatch it over the search's crossing,
# plf.search._cross.


def reference_propagate_anode(state, rule_id, trigger):
    import time
    from itertools import product

    from plf.term import apply, unifier_com, unify_substitutions

    rule = state.rules[rule_id]
    trig_goal = state.certs[trigger].goal
    pools = [
        (trigger,) if child == trig_goal else state.goals[child].certs
        for child in rule.children
    ]
    parent_scope = state.goals[rule.parent].scope
    edge = rule.edge_unifier
    for combo in product(*pools):
        if time.monotonic() > state.deadline:
            return
        state.stats.tuples_tested += 1
        subs = [state.certs[c].label for c in combo]
        bound = unify_substitutions(subs)
        if bound is None:
            continue
        state.stats.tuples_unified += 1
        com = unifier_com(bound, subs[0])
        label = Substitution({v: apply(com, apply(edge, v)) for v in parent_scope})
        cid = state._add_cert(rule.parent, rule_id, label, combo, bound, subs[0])
        if cid is not None:
            yield cid


# -- certificate soundness ---------------------------------------------------
# The search's soundness claim, checked from outside the engine: every
# certificate a run made unfolds to a valid proof.  Certificates are frozen
# once made, and extraction reads only a certificate's own subtree, which
# exists in full when the certificate is made, so checking after the run
# gives each certificate the answer it would have had when it was made.


def certificate_problems(state):
    """(certificate id, checker problems) for each certificate of ``state``
    that does not unfold, by ``extract_proof``, to a proof of its instance
    of its goal from the statement's premises; [] when all are sound."""
    from plf import Statement, check_statement_proof
    from plf.search import extract_proof
    from plf.term import apply

    out = []
    for cert in state.certs.values():
        instance = apply(cert.label, state.goals[cert.goal].expression)
        claim = Statement(state.statement.id, state.statement.premises, instance)
        problems = check_statement_proof(state.system, claim, extract_proof(state, cert.id))
        if problems:
            out.append((cert.id, problems))
    return out


# -- the closure of full goals, on and off -----------------------------------
# Once the certificate cap has tripped, a goal that holds its cap of
# certificates closes its subtree: nothing beneath it is expanded or
# crossed.  The search without the closure is the search with no goal ever
# full, plf.search._full_size patched to infinity.


@contextmanager
def without_closure():
    """Searches run inside see no goal as full, so no subtree closes."""
    import plf.search

    with pytest.MonkeyPatch.context() as m:
        m.setattr(plf.search, "_full_size", lambda state: math.inf)
        yield


# How late a verdict comes: a limit that trips mid-run, then the limits
# reported when the queue runs dry, then Exhausted (no limit).
STOP_ORDER = {"nodes": 0, "timeout": 0, "depth": 1, "spts": 2, None: 3}


def search_with_and_without_closure(d, sid, limits):
    """Run the search as it is and with no goal ever full.  If either
    proves, both must, with the same proof text; otherwise the closing
    search's verdict comes no earlier in STOP_ORDER.  It never makes more
    nodes or crosses more tuples.  Returns both outcomes, the closing
    search's first."""
    from plf import Proved, init_search, run
    from plf.proof import serialize_proof

    out = run(init_search(d, d.statement(sid)), limits)
    with without_closure():
        unclosed = run(init_search(d, d.statement(sid)), limits)
    if isinstance(out, Proved) or isinstance(unclosed, Proved):
        assert isinstance(out, Proved) and isinstance(unclosed, Proved), sid
        assert serialize_proof(out.proof) == serialize_proof(unclosed.proof), sid
    else:
        before, after = getattr(unclosed, "limit", None), getattr(out, "limit", None)
        assert STOP_ORDER[after] >= STOP_ORDER[before], (sid, before, after)
    assert out.stats.nodes <= unclosed.stats.nodes, sid
    assert out.stats.tuples_tested <= unclosed.stats.tuples_tested, sid
    return out, unclosed


# -- reference expansion -----------------------------------------------------
# Goal expansion as the search did it before it looked expansions up by
# variant class: every goal renames every assertion afresh and unifies it.
# Like the search, it queues certificates on the agenda and drains it after
# each rule node.  Kept only as the oracle of the differential tests in
# test_search.py, which monkeypatch it over plf.search.expand_enode.


def reference_expand_enode(state, goal_id):
    from plf.search import propagate_anode, seed_leaf_spts
    from plf.system import rename_assertion
    from plf.term import apply, restrict, substitution_text, unify_expressions, variables_of

    goal = state.goals[goal_id]
    if state.trace is not None:
        state.trace(f"EXPAND e{goal_id}")
    for a in state.system.assertions:
        renamed, rename = rename_assertion(a, state.supply)
        theta = unify_expressions(renamed.proposition, goal.expression)
        if theta is None:
            continue
        if state.stats.nodes + 1 + len(renamed.premises) > state.limits.max_nodes:
            return False
        rid = state._new_rule(renamed, rename, theta, goal_id)
        if state.trace is not None:
            state.trace(f"ANODE a{rid} {a.id} {substitution_text(theta)}")
        if not renamed.premises:
            state.agenda.append((goal_id, rid, restrict(theta, goal.scope)))
        kids = []
        for p in renamed.premises:
            e = apply(theta, p)
            scope = frozenset(v for v in variables_of(e) if v.replaceable)
            kids.append(state._new_goal(e, goal.depth + 1, rid, scope))
        state.rules[rid].children = kids
        for kid in kids:
            seed_leaf_spts(state, kid)
        state.queue.extend(kids)
        propagate_anode(state)
        if state.proved is not None:
            return True
    return True


# The grounding the oracle used before its plans compiled builders: every
# instance rebuilt from the pattern, with no subterm shared.  Kept only as
# the oracle of the builder differential in test_oracle.py.


def reference_ground(plan, pattern, env):
    """``pattern`` with each variable replaced by its pool member in ``env``."""
    if isinstance(pattern, Var):
        k = plan.slot[pattern]
        return plan.pools[k][env[k]]
    if not pattern.open:
        return pattern
    return Apply(pattern.production, tuple(reference_ground(plan, c, env) for c in pattern.children))


def justification_triples(sat):
    """Every justification list of ``sat`` as (conclusion, [(assertion id,
    witness, premise instances), ...]) pairs, in order.  The reference
    records triples already; the oracle's justifications are read here."""
    return [
        (conclusion, [j if isinstance(j, tuple) else (j.assertion_id, j.witness, j.premises)
                      for j in entries])
        for conclusion, entries in sat.justifications.items()
    ]


def saturation_digest(sat):
    """Digest of everything a saturation decides, in order: derived facts
    with their rounds, every justification list (assertion, witness,
    premises), the universe and rounds_run; "overflow" for None."""
    import hashlib

    if sat is None:
        return "overflow"
    memo = {}  # subterm -> its text; both == and the text ignore the replaceable flag

    def text(e):
        """Structural text of an expression, equal exactly when the
        expressions compare equal."""
        out = memo.get(e)
        if out is None:
            if isinstance(e, Var):
                out = f"{e.name}:{e.kind.name}"
            else:
                kids = "".join(" " + text(c) for c in e.children)
                out = f"({e.production.id}:{e.production.result_kind.name}{kids})"
            memo[e] = out
        return out

    lines = [f"rounds_run {sat.rounds_run}"]
    lines += [f"derived {text(e)} {rnd}" for e, rnd in sat.derived.items()]
    for conclusion, entries in justification_triples(sat):
        lines.append(f"justified {text(conclusion)}")
        for assertion_id, witness, premises in entries:
            bindings = " ".join(f"{text(v)}:={text(img)}" for v, img in witness.items())
            instances = " ".join(text(p) for p in premises)
            lines.append(f"  by {assertion_id} {{{bindings}}} from [{instances}]")
    for kind, members in sat.universe.items():
        lines.append(f"universe {kind} " + " ".join(text(e) for e in members))
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()[:24]
