"""The proof-search engine.

Two interleaved passes over an AND-OR tree of goals:

* Bottom-up (expansion): a goal node holding expression ``e`` forks one rule
  node per assertion whose (freshly renamed) proposition unifies with ``e``;
  the instantiated premises become child goals.  Statement variables are
  frozen; fresh variables are fair game for unification.

* Top-down (certification): a certificate attached to a node is a
  substitution under which that node's expression becomes provable from the
  statement's premises.  Leaves come from matching a goal against a premise
  and from premise-less rule instances.  At a rule node, one certificate per
  child premise is reconciled by unifying the certificate substitutions
  themselves: the most general delta making them all agree yields a new
  certificate for the parent, labelled with the common composite restricted
  to the parent's replaceable variables.  The first certificate to reach the
  root (whose variables are all frozen, so its label is empty) proves the
  statement, and the proof it unfolds to is at least as general as any
  congruent proof.

Tuples of sibling certificates are enumerated incrementally: each new
certificate is crossed against the already-present certificates of the other
children, so every tuple is tested exactly once.  Expansion is FIFO over
goal creation, which keeps the search fair within its limits.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Optional, Union

from .grammar import Expression
from .proof import Inference, ProofNode, check_statement_proof
from .system import Assertion, DeductiveSystem, FreshSupply, Statement, rename_assertion
from .term import (
    EMPTY,
    Substitution,
    apply,
    compose,
    match_expression,
    replaceable_variables,
    restrict,
    substitution_text,
    unify_expressions,
    unify_substitutions,
)


@dataclass
class SearchLimits:
    max_depth: int = 8
    max_nodes: int = 100_000
    max_spts_per_node: int = 1000
    timeout: float = 60.0


@dataclass
class SearchStats:
    goal_nodes: int = 0
    rule_nodes: int = 0
    certificates: int = 0
    tuples_tested: int = 0
    tuples_unified: int = 0
    wall_time: float = 0.0

    @property
    def nodes(self) -> int:
        return self.goal_nodes + self.rule_nodes

    def summary_lines(self) -> list:
        return [
            f"nodes={self.nodes}",
            f"spts={self.certificates}",
            f"tuples_tested={self.tuples_tested}",
            f"tuples_unified={self.tuples_unified}",
            f"wall_time={self.wall_time:.3f}s",
        ]


@dataclass
class Proved:
    proof: ProofNode
    root_cert: int
    stats: SearchStats


@dataclass
class Exhausted:
    stats: SearchStats


@dataclass
class LimitReached:
    limit: str
    stats: SearchStats


SearchOutcome = Union[Proved, Exhausted, LimitReached]


@dataclass
class GoalNode:
    id: int
    expression: Expression
    depth: int  # rule-node levels above this goal
    parent: Optional[int]  # rule node id, None at the root
    scope: frozenset  # replaceable variables of the expression
    children: list = field(default_factory=list)
    certs: list = field(default_factory=list)


@dataclass
class RuleNode:
    id: int
    assertion: Assertion  # freshly renamed instance
    rename: dict  # original variable -> fresh variable
    edge_unifier: Substitution
    parent: int
    children: list = field(default_factory=list)
    certs: list = field(default_factory=list)


@dataclass(frozen=True)
class Certificate:
    id: int
    node: int
    at_rule: bool
    label: Substitution
    children: tuple
    # rule certificates remember how the child substitutions were reconciled;
    # the delta is replayed over the subtree at extraction time instead of
    # rewriting stored certificates eagerly.
    com: Substitution = EMPTY
    delta: Substitution = EMPTY


class SearchState:
    def __init__(self, system, statement, self_check=False, trace=None):
        self.system = system
        self.statement = statement
        self.goals = {}
        self.rules = {}
        self.certs = {}
        self.queue = deque()
        self.supply = FreshSupply()
        self.stats = SearchStats()
        self.limits = SearchLimits()
        self.trace: Optional[Callable] = trace
        self.self_check = self_check
        self.self_check_failures = []
        self.proved: Optional[int] = None
        self.limit_hit: Optional[str] = None
        self.certs_capped = False
        self._cert_keys = {}  # (at_rule, node id) -> set of dedup keys

        self.root = self._new_goal(statement.goal, depth=0, parent=None)

    # -- node and certificate construction --------------------------------

    def _new_goal(self, expression, depth, parent) -> int:
        gid = self.stats.goal_nodes
        self.stats.goal_nodes += 1
        self.goals[gid] = GoalNode(
            gid,
            expression,
            depth,
            parent,
            frozenset(replaceable_variables(expression)),
        )
        return gid

    def _new_rule(self, assertion, rename, edge_unifier, parent) -> int:
        rid = self.stats.rule_nodes
        self.stats.rule_nodes += 1
        self.rules[rid] = RuleNode(rid, assertion, rename, edge_unifier, parent)
        self.goals[parent].children.append(rid)
        return rid

    def _add_cert(self, node_id, at_rule, label, children, com=EMPTY, delta=EMPTY):
        holder = self.rules[node_id] if at_rule else self.goals[node_id]
        key = (label, children)
        keyset = self._cert_keys.setdefault((at_rule, node_id), set())
        if key in keyset:
            return None
        if len(holder.certs) >= self.limits.max_spts_per_node:
            self.certs_capped = True
            return None
        keyset.add(key)
        cid = self.stats.certificates
        self.stats.certificates += 1
        cert = Certificate(cid, node_id, at_rule, label, children, com, delta)
        self.certs[cid] = cert
        holder.certs.append(cid)
        if self.trace is not None:
            tag = f"{'a' if at_rule else 'e'}{node_id} {substitution_text(label)}"
            if at_rule or children:
                stats = self.stats
                self.trace(f"SPT {tag} tuples={stats.tuples_tested}/{stats.tuples_unified}")
            else:
                self.trace(f"SPT-LEAF {tag}")
        return cid

    def _emit(self, *parts):
        """One trace line; the text is built only when a callback is set."""
        if self.trace is not None:
            self.trace(" ".join(p if isinstance(p, str) else substitution_text(p) for p in parts))


def init_search(
    d: DeductiveSystem,
    s: Statement,
    self_check: bool = False,
    trace: Optional[Callable] = None,
) -> SearchState:
    """Fresh state: one root goal (the statement's goal, variables frozen),
    no certificates, FIFO queue holding the root."""
    d.statement(s.id)  # raises UnknownStatementError when s is foreign
    state = SearchState(d, s, self_check=self_check, trace=trace)
    state.queue.append(state.root)
    return state


def seed_leaf_spts(state: SearchState, goal_id: int) -> list:
    """Match the goal expression against each statement premise; every match
    yields a leaf certificate (the goal is trivially provable there)."""
    goal = state.goals[goal_id]
    created = []
    for premise in state.statement.premises:
        sigma = match_expression(goal.expression, premise)
        if sigma is None:
            continue
        cid = state._add_cert(goal_id, False, sigma, ())
        if cid is None:
            continue
        created.append(cid)
        _after_goal_cert(state, goal_id, cid)
        if state.proved is not None:
            break
    return created


def expand_enode(state: SearchState, goal_id: int) -> list:
    """Fork the goal with every assertion whose renamed proposition unifies
    with its expression; instantiate premises as child goals, seed them, and
    schedule them FIFO."""
    goal = state.goals[goal_id]
    state._emit(f"EXPAND e{goal_id}")
    created = []
    for a in state.system.assertions:
        if state.proved is not None or state.limit_hit is not None:
            break
        renamed, rename = rename_assertion(a, state.supply)
        theta = unify_expressions(renamed.proposition, goal.expression)
        if theta is None:
            continue
        if state.stats.nodes + 1 + len(renamed.premises) > state.limits.max_nodes:
            state.limit_hit = "nodes"
            break
        rid = state._new_rule(renamed, rename, theta, goal_id)
        created.append(rid)
        state._emit(f"ANODE a{rid}", a.id, theta)
        assert apply(theta, renamed.proposition) == apply(theta, goal.expression)
        if not renamed.premises:
            label = restrict(theta, goal.scope)  # com of the empty tuple set is empty
            cid = state._add_cert(rid, True, label, ())
            if cid is not None:
                propagate_enode(state, goal_id, cid)
            continue
        kids = [state._new_goal(apply(theta, p), goal.depth + 1, rid) for p in renamed.premises]
        state.rules[rid].children = kids
        for kid in kids:
            seed_leaf_spts(state, kid)
            if state.proved is not None:
                break
        state.queue.extend(kids)
    return created


def propagate_anode(state: SearchState, rule_id: int, trigger: int) -> list:
    """Cross a fresh child certificate against the existing certificates of
    the rule's other children; every tuple whose substitutions unify becomes
    a certificate of the rule node."""
    rule = state.rules[rule_id]
    trig_node = state.certs[trigger].node
    pools = [
        (trigger,) if child == trig_node else state.goals[child].certs
        for child in rule.children
    ]
    parent_scope = state.goals[rule.parent].scope
    created = []
    for combo in product(*pools):
        state.stats.tuples_tested += 1
        outcome = unify_substitutions([state.certs[c].label for c in combo])
        if outcome is None:
            continue
        state.stats.tuples_unified += 1
        delta, com = outcome
        label = restrict(compose(com, rule.edge_unifier), parent_scope)
        cid = state._add_cert(rule_id, True, label, combo, com, delta)
        if cid is None:
            continue
        created.append(cid)
        propagate_enode(state, rule.parent, cid)
        if state.proved is not None:
            break
    return created


def propagate_enode(state: SearchState, goal_id: int, trigger: int) -> Optional[int]:
    """Lift a rule certificate to the rule's parent goal, restricting the
    label to the goal's own replaceable variables; reaching the root proves
    the statement."""
    goal = state.goals[goal_id]
    label = restrict(state.certs[trigger].label, goal.scope)
    cid = state._add_cert(goal_id, False, label, (trigger,))
    if cid is None:
        return None
    _after_goal_cert(state, goal_id, cid)
    return cid


def _after_goal_cert(state: SearchState, goal_id: int, cert_id: int):
    if state.self_check:
        _validate_certificate(state, goal_id, cert_id)
    if goal_id == state.root:
        if state.proved is None:
            state.proved = cert_id
            state._emit(f"PROVED e{state.root}")
        return
    parent = state.goals[goal_id].parent
    propagate_anode(state, parent, cert_id)


def _validate_certificate(state, goal_id, cert_id):
    """The certificate must unfold to a proof of the certified instance of
    the goal from the statement's premises."""
    instance = apply(state.certs[cert_id].label, state.goals[goal_id].expression)
    claim = Statement(state.statement.id, state.statement.premises, instance)
    problems = check_statement_proof(state.system, claim, extract_proof(state, cert_id))
    if problems:
        state.self_check_failures.append((cert_id, problems))


def extract_proof(state: SearchState, cert_id: int) -> ProofNode:
    """Unfold a goal certificate into the proof tree it denotes.

    The reconciling delta recorded at each rule certificate applies to the
    whole subtree beneath it, so an accumulator composes them along the path
    from the root.  Witnesses are mapped back onto the assertion's original
    variables, which is what proof files and the checker speak.
    """

    def walk(cid, acc):
        cert = state.certs[cid]
        goal = state.goals[cert.node]
        expr = apply(compose(acc, cert.label), goal.expression)
        if not cert.children:
            return ProofNode(expr)
        rule_cert = state.certs[cert.children[0]]
        rule = state.rules[rule_cert.node]
        full = compose(acc, compose(rule_cert.com, rule.edge_unifier))
        witness = Substitution(
            {orig: apply(full, fresh) for orig, fresh in rule.rename.items()}
        )
        child_acc = compose(acc, rule_cert.delta)
        kids = tuple(walk(k, child_acc) for k in rule_cert.children)
        return ProofNode(expr, Inference(rule.assertion.id, witness, kids))

    return walk(cert_id, EMPTY)


def run(state: SearchState, limits: SearchLimits) -> SearchOutcome:
    """Alternate FIFO goal expansion with eager certificate propagation until
    the root is certified, the tree is exhausted, or a limit trips."""
    state.limits = limits
    started = time.monotonic()
    deadline = started + limits.timeout

    def finish(outcome):
        state.stats.wall_time = time.monotonic() - started
        return outcome

    seed_leaf_spts(state, state.root)  # a no-op after the first call: certificates dedup

    depth_capped = False
    while True:
        if state.proved is not None:
            proof = extract_proof(state, state.proved)
            return finish(Proved(proof, state.proved, state.stats))
        if state.limit_hit is not None:
            return finish(LimitReached(state.limit_hit, state.stats))
        if time.monotonic() > deadline:
            return finish(LimitReached("timeout", state.stats))
        if not state.queue:
            # A capped run that found no proof is not an exhausted one: the
            # dropped work might have contained the proof.
            if depth_capped:
                return finish(LimitReached("depth", state.stats))
            if state.certs_capped:
                return finish(LimitReached("spts", state.stats))
            return finish(Exhausted(state.stats))
        goal_id = state.queue.popleft()
        if state.goals[goal_id].depth >= limits.max_depth:
            depth_capped = True
            continue
        expand_enode(state, goal_id)
