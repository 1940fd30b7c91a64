"""The proof-search engine.

Two interleaved passes over an AND-OR tree of goals:

* Bottom-up (expansion): a goal node holding expression ``e`` forks one rule
  node per assertion whose (freshly renamed) proposition unifies with ``e``;
  the instantiated premises become child goals.  Statement variables are
  frozen; fresh variables are fair game for unification.

* Top-down (certification): a certificate of a goal is a substitution
  under which the goal's expression becomes provable from the statement's
  premises.  Leaves come from matching a goal against a premise.  At a rule
  node, one certificate per child premise is reconciled by unifying the
  certificate substitutions themselves: the most general delta making them
  all agree yields a certificate labelled with the common composite
  restricted to the parent goal's replaceable variables.  That certificate
  certifies the parent goal as it is, so the rule node and the goal hold the
  same one.  The first certificate to reach the root (whose variables are
  all frozen, so its label is empty) proves the statement, and the proof it
  unfolds to is at least as general as any congruent proof.  Crossing
  builds only the label, resolving the parent's variables through the
  triangular unifier; a certificate keeps that unifier and its first
  child's label, and ``extract_proof`` builds the delta and the composite
  from them for the certificates on the proof alone.

Loop check (regularity): a closed goal, one without replaceable variables,
that equals a goal on its ancestor path is not expanded.  This loses no
proof and no generality.  A closed goal's only label is the empty one, so a
proof passes through it with exactly its expression, and so through the
ancestor too (equal expressions are both closed: a fresh name holds ``#``,
which no statement variable can).  Grafting the inner subproof at the
ancestor gives a smaller proof, no deeper, whose steps above the ancestor
see the same empty label.  So whenever a proof exists, one exists that
avoids every pruned node, and a proof found is still at least as general.
A cut goal is not a limit: ``Exhausted`` means no proof exists in the tree
once repeats are cut, which by this argument means no proof at all, even
where the uncut tree would have run into the depth limit.

Failure propagation is the solved/unsolvable labelling of AND-OR search
(AO*: Martelli and Montanari, "Additive AND/OR graphs", 1973).  A goal
*fails* once it has been expanded in full (not cut short by a limit or a
proof), matches no statement premise, and all its rule nodes have failed;
a rule node fails once any of its child goals fails; a closed goal cut by
the loop check fails unless it matches a premise.  A goal at the depth cap
is never expanded, so it never fails.  A failed node has no proof in the
tree once repeats are cut, by induction in the order nodes fail: the cut
tree proves a cut goal only by a premise leaf, an expanded goal that
matches no premise only through one of its rule nodes, all of which exist
and have failed, and a failed rule node has a child with no proof.  By the
loop check's argument a proof of the root, if any, lies in the cut tree,
so it passes through no failed node.  Hence a popped goal under a failed
rule node is dropped unexpanded (and is not a goal the depth limit cut),
and once the root fails the search ends ``Exhausted`` at once, whatever
limits have tripped.  Failure speaks of matching premises, not of held
leaves, so it does not depend on the certificate cap: at cap 0 every leaf
is refused, yet a goal that matches a premise still never fails.  One walk
up the ancestor path per popped goal serves both the loop check and the
failed-ancestor check, and the bookkeeping lives in ``run``, outside
expansion.

A full goal closes its subtree, the twin of failure on the cap's side (a
node whose value can no longer change is closed, as in AO*).  Once the cap
has tripped, a goal that holds at least one certificate and
``max_spts_per_node`` of them is *full*: it refuses every later
certificate, and its list only grows, so it stays full.  Nothing beneath a
full goal is expanded (a popped goal with a full goal on its ancestor path
is dropped, like one under a failed rule node: not expanded, not counted
against the depth limit, not failed), and a certificate is not crossed at
its goal's parent rule node when that node's parent goal, or a goal above
it, is full.  This loses nothing.  A certificate reaches the root only by
being held at every goal on its path, and a full goal holds nothing new.  A
goal that holds a certificate never fails (it matches a premise, or one of
its rule nodes holds a certificate, so each of that node's children holds
one), so no failure could have crossed the full goal, and ``Exhausted`` is
unaffected.  And since the cap had already tripped, the queue running dry
could no longer give ``Exhausted``: the only verdict that moves is the
limit named, ``spts`` instead of ``depth`` when every depth-capped goal lay
beneath a full goal.  A goal with no certificate is never full, so at cap 0,
where every certificate is refused, goals still fail.  The ancestor walk of
the loop check serves the closure too, and the closure costs nothing until
the cap trips.

Certificates pass through one agenda.  Seeding (a premise leaf) and a
premise-less rule node only queue theirs on ``state.agenda``;
``propagate_anode`` alone holds them at goals, carries them up and crosses
them (``_cross``), in agenda order.  Expansion drains the agenda after each
rule node, so a proof ends its expansion before the next assertion is
unified or weighed against the node limit: a drain per goal would grow the
tree further or, stopping at the node limit, drop certificates already due.
Each new certificate is crossed against the certificates already present at
the other children, so every tuple is tested at most once and yields at most
one certificate; a premise-less rule node gets exactly one.  The premises
are kept deduplicated and each goal is seeded once, so no leaf repeats.  A
rule node that is full after the certificate cap has tripped crosses no more
tuples, since none could add a certificate; ``tuples_tested`` counts only
the tuples crossed.  A crossing waits on an explicit stack at each
certificate it yields until that one has finished climbing, the depth-first
order of recursion without its depth limit.  Expansion is FIFO over goal
creation, which keeps the search fair within its limits.  The deadline is
read before each crossed tuple and each popped goal: no tuple is crossed
after it, though the current expansion may finish its other assertions.

Expansion is by lookup: most goals are variants of an earlier goal of the
same search (equal up to renaming replaceable variables).  The first of a
class expanded over every assertion records the rule node each assertion
gave, with its instance, renaming and edge unifier, and checks each edge
(the unifier makes proposition and goal equal).  A later variant maps
those nodes through one bijective renaming ``rho`` (the first goal's
variables onto its own, and the fresh names onto new ones), which
unification, seeing names only through ``==``, cannot tell from unifying.
Expansion does only what the tree needs at once: the child goals and
their scopes through ``rho``, the fresh stamp and the node limit.  A
looked-up node's instance, renaming and edge unifier are built on first
read (``_build_rule``, which also checks the edge); most are never read,
since crossing reads the edge only for a tuple that unifies and
extraction only on a proof.  A premise-less node is built at once for its
certificate's label, and with ``trace`` set every node is, since ``ANODE``
prints the edge.

``run`` pauses Python's cyclic garbage collector (``gc_paused``) and
restores the caller's setting when it returns or raises.  The pause is
process-wide.  The search builds no reference cycles: nodes and
certificates refer to each other by id, a looked-up rule node refers to
its source node, which never refers back, and term nodes only to their
subterms, so reference counting frees everything it drops and the
collector would only walk the live tree again and again.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Optional, Union

from .grammar import Expression, Var, gc_paused
from .proof import Inference, ProofNode
from .system import Assertion, DeductiveSystem, FreshSupply, Statement, rename_assertion
from .term import (
    EMPTY,
    Substitution,
    apply,
    compose,
    match_expression,
    resolve,
    restrict,
    substitution_text,
    unifier_com,
    unifier_delta,
    unify_expressions,
    unify_substitutions,
    variables_of,
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


class RuleNode:
    """A rule node: ``assertion`` is the freshly renamed instance whose
    proposition unifies with the parent goal, ``rename`` maps the original
    variables to the fresh ones, and ``edge_unifier`` is the unifier.

    A node made by lookup holds these three only once something reads one
    of them: until then ``lookup`` is (source rule node, renaming ``rho``,
    parent goal expression), and ``_build_rule`` maps the source's fields
    through ``rho`` on the first read."""

    __slots__ = ("id", "parent", "children", "certs", "assertion", "rename", "edge_unifier", "lookup")

    def __init__(self, id, parent, assertion=None, rename=None, edge_unifier=None, lookup=None):
        self.id = id
        self.parent = parent
        self.children = []
        self.certs = []
        self.lookup = lookup
        if lookup is None:
            self.assertion, self.rename, self.edge_unifier = assertion, rename, edge_unifier

    def __getattr__(self, name):
        # reached only when a slot is unset: a deferred field of a looked-up node
        if self.lookup is None or name not in ("assertion", "rename", "edge_unifier"):
            raise AttributeError(name)
        _build_rule(self)
        return object.__getattribute__(self, name)


@dataclass(frozen=True)
class Certificate:
    id: int
    goal: int  # the goal node it certifies
    rule: Optional[int]  # the rule node that derived it, None for a premise leaf
    label: Substitution
    children: tuple  # one certificate per premise of the rule node
    # a rule certificate keeps the triangular unifier of its children's
    # labels and the first of them; extraction builds the reconciling delta
    # (replayed over the subtree) and the composite com from these, for the
    # certificates on the proof only
    unifier: Union[dict, Substitution] = EMPTY  # EMPTY: nothing to reconcile
    first: Substitution = EMPTY


class SearchState:
    def __init__(self, system, statement, trace=None):
        self.system = system
        self.statement = statement
        self.premises = tuple(dict.fromkeys(statement.premises))  # distinct, so leaves never repeat
        self.goals = {}
        self.rules = {}
        self.certs = {}
        self.queue = deque()
        self.agenda = deque()  # (goal, rule or None, label) of certificates made but not yet held
        self.supply = FreshSupply()
        self.stats = SearchStats()
        self.limits = SearchLimits()
        self.deadline = math.inf  # time.monotonic() value; run() sets it
        self.trace: Optional[Callable] = trace
        self.proved: Optional[int] = None
        self.certs_capped = False
        # variant key -> (first goal's replaceable variables, its rule node or None per assertion)
        self.expansions = {}
        # failure propagation: goal expanded in full -> its rule nodes not
        # failed; the failed rule nodes; the goals that match a premise
        self.live = {}
        self.failed = set()
        self.premised = set()

        self.root = self._new_goal(statement.goal, depth=0, parent=None)

    # -- node and certificate construction --------------------------------

    def _new_goal(self, expression, depth, parent, scope=None) -> int:
        if scope is None:
            scope = frozenset(v for v in variables_of(expression) if v.replaceable)
        gid = self.stats.goal_nodes
        self.stats.goal_nodes += 1
        self.goals[gid] = GoalNode(gid, expression, depth, parent, scope)
        return gid

    def _new_rule(self, assertion, rename, edge_unifier, parent, lookup=None) -> int:
        rid = self.stats.rule_nodes
        self.stats.rule_nodes += 1
        self.rules[rid] = RuleNode(rid, parent, assertion, rename, edge_unifier, lookup)
        self.goals[parent].children.append(rid)
        return rid

    def _add_cert(self, goal_id, rule_id, label, children, unifier=EMPTY, first=EMPTY):
        """A certificate of the goal, held by the rule node that derived it or,
        for a premise leaf (rule None), by the goal; None if the cap refuses."""
        cert = Certificate(len(self.certs), goal_id, rule_id, label, children, unifier, first)
        if not self._hold(cert, rule_id is not None):
            return None
        self.certs[cert.id] = cert
        self.stats.certificates += 1
        return cert.id

    def _hold(self, cert, at_rule) -> bool:
        """Put the certificate on its rule node's list or its goal's, unless
        that node's cap is reached."""
        holder = self.rules[cert.rule] if at_rule else self.goals[cert.goal]
        if len(holder.certs) >= self.limits.max_spts_per_node:
            self.certs_capped = True
            return False
        holder.certs.append(cert.id)
        if self.trace is not None:
            node = f"{'a' if at_rule else 'e'}{holder.id}"
            if cert.rule is None:
                self._emit("SPT-LEAF {} {}", node, cert.label)
            else:
                stats = self.stats
                self._emit("SPT {} {} tuples={}/{}", node, cert.label, stats.tuples_tested, stats.tuples_unified)
        return True

    def _emit(self, template, *parts):
        """One trace line; the text is built only when a callback is set."""
        if self.trace is not None:
            texts = (substitution_text(p) if isinstance(p, Substitution) else p for p in parts)
            self.trace(template.format(*texts))


def init_search(d: DeductiveSystem, s: Statement, trace: Optional[Callable] = None) -> SearchState:
    """Fresh state: one root goal (the statement's goal, variables frozen),
    seeded, so its premise leaves wait on the agenda for ``run``; no
    certificates yet, and a FIFO queue holding the root."""
    d.statement(s.id)  # raises UnknownStatementError when s is foreign
    state = SearchState(d, s, trace=trace)
    seed_leaf_spts(state, state.root)
    state.queue.append(state.root)
    return state


def seed_leaf_spts(state: SearchState, goal_id: int) -> None:
    """Match the goal expression against each distinct statement premise;
    every match queues a leaf certificate (the goal is trivially provable
    there) on the agenda.  Each goal is seeded once, when it is made."""
    expression = state.goals[goal_id].expression
    for premise in state.premises:
        sigma = match_expression(expression, premise)
        if sigma is not None:
            state.premised.add(goal_id)  # such a goal never fails, even if the cap refuses its leaf
            state.agenda.append((goal_id, None, sigma))


def expand_enode(state: SearchState, goal_id: int) -> bool:
    """Fork the goal with every assertion whose renamed proposition unifies
    with its expression; instantiate premises as child goals, seed them, and
    schedule them FIFO, draining the agenda after each rule node.  A goal
    whose variant class has been expanded in full maps that expansion onto
    itself instead of renaming and unifying again.  False when the node
    limit stops the expansion."""
    goal = state.goals[goal_id]
    state._emit("EXPAND e{}", goal_id)
    key, variables = _variant_key(goal.expression)
    first = state.expansions.get(key)
    record = []  # on a miss, per assertion: its rule node, or None
    for i, a in enumerate(state.system.assertions):
        if first is None:
            renamed, rename = rename_assertion(a, state.supply)
            theta = unify_expressions(renamed.proposition, goal.expression)
            if theta is None:
                record.append(None)
                continue
            assert apply(theta, renamed.proposition) == apply(theta, goal.expression)
            lookup = None
            kids = [(apply(theta, p), None) for p in renamed.premises]  # _new_goal works the scopes out
        else:
            k = state.supply.take()
            if first[1][i] is None:
                continue
            source = state.rules[first[1][i]]
            # the first goal's variables onto this goal's and the source's
            # fresh names onto ones stamped k, at once
            rho = Substitution([
                *zip(first[0], variables),
                *((w, Var(f"{v.name}#{k}", v.kind, True)) for v, w in source.rename.items()),
            ])
            renamed = rename = theta = None
            lookup = (source, rho, goal.expression)
            kids = [
                (apply(rho, kid.expression), frozenset(apply(rho, v) for v in kid.scope))
                for kid in map(state.goals.__getitem__, source.children)
            ]
        if state.stats.nodes + 1 + len(kids) > state.limits.max_nodes:
            return False  # cut short: not recorded
        rid = state._new_rule(renamed, rename, theta, goal_id, lookup)
        record.append(rid)
        rule = state.rules[rid]
        if state.trace is not None:
            state._emit("ANODE a{} {} {}", rid, a.id, rule.edge_unifier)
        if kids:
            depth = goal.depth + 1
            rule.children = [state._new_goal(e, depth, rid, scope) for e, scope in kids]
            for kid in rule.children:
                seed_leaf_spts(state, kid)
            state.queue.extend(rule.children)
        else:  # com of the empty tuple set is empty
            state.agenda.append((goal_id, rid, restrict(rule.edge_unifier, goal.scope)))
        propagate_anode(state)
        if state.proved is not None:
            return True  # cut short: not recorded
    if first is None:
        state.expansions[key] = (variables, record)
    return True


def _variant_key(expression) -> tuple:
    """The expression as a flat preorder tuple in which a replaceable
    variable is (number by first occurrence, kind), so that variants share
    it; and those variables in that order."""
    if expression.__class__ is not Var and not expression.open:
        return (expression,), []  # closed: the goal is its own class
    key = []
    order = {}
    stack = [expression]
    while stack:
        node = stack.pop()
        if node.__class__ is Var:
            key.append((order.setdefault(node, len(order)), node.kind) if node.replaceable else node)
        elif node.open:
            key.append(node.production.id)  # ids are unique within a grammar
            stack.extend(reversed(node.children))
        else:
            key.append(node)
    return tuple(key), list(order)


def _build_rule(rule: RuleNode) -> None:
    """Store the instance, renaming and edge unifier of a rule node made by
    lookup: its source's, mapped through ``rho``, which unification, seeing
    names only through ``==``, cannot tell from unifying afresh.  An image
    that was the proposition stays shared.  Checks the edge, as expansion
    does for a node it unifies."""
    source, rho, goal_expression = rule.lookup
    renamed, theta = source.assertion, source.edge_unifier
    prop = apply(rho, renamed.proposition)
    images = {apply(rho, v): prop if t is renamed.proposition else apply(rho, t) for v, t in theta.items()}
    rule.assertion = Assertion(renamed.id, tuple(apply(rho, p) for p in renamed.premises), prop)
    rule.rename = {v: rho[w] for v, w in source.rename.items()}
    rule.edge_unifier = theta = Substitution(images)
    rule.lookup = None
    assert apply(theta, prop) == apply(theta, goal_expression)


def propagate_anode(state: SearchState) -> None:
    """Drain the agenda in order, carrying each certificate up the tree
    before the next is made: it is held by its rule node or, for a premise
    leaf, by its goal, unless that node is full; one derived at a rule node
    is put on its goal's list too, unless the goal is full; and a goal's new
    certificate is crossed at the goal's parent rule node, unless that node
    lies under a full goal once the cap has tripped (``_under_full``).
    Reaching the root proves the statement, and then nothing more is held
    or crossed."""
    crossings = []
    while True:
        if crossings:
            new = next(crossings[-1], None)
            if new is None:
                crossings.pop()
                continue
        elif state.agenda:
            new = state._add_cert(*state.agenda.popleft(), ())
            if new is None:
                continue
        else:
            return
        cert = state.certs[new]
        if cert.rule is not None and not state._hold(cert, False):
            continue
        if cert.goal == state.root:
            state.proved = new
            state._emit("PROVED e{}", state.root)
            return
        rule_id = state.goals[cert.goal].parent
        if state.certs_capped and _under_full(state, rule_id):
            continue
        crossings.append(_cross(state, rule_id, new))


def _full_size(state: SearchState) -> float:
    """How many certificates make a goal full and close its subtree (see
    the module docstring): the cap, but at least one, once the cap has
    tripped; before that, none does."""
    if not state.certs_capped:
        return math.inf
    return max(state.limits.max_spts_per_node, 1)


def _under_full(state: SearchState, rule_id: Optional[int]) -> bool:
    """Whether the rule node lies under a full goal: its parent goal or a
    goal above it is full, so no certificate it derives can reach the root."""
    full = _full_size(state)
    while rule_id is not None:
        goal = state.goals[state.rules[rule_id].parent]
        if len(goal.certs) >= full:
            return True
        rule_id = goal.parent
    return False


def _cross(state: SearchState, rule_id: int, trigger: int):
    """Cross a fresh child certificate against the existing certificates of
    the rule's other children; every tuple whose substitutions unify becomes
    a certificate of the rule node, which is yielded.  The deadline is
    checked before each tuple, since one crossing can outlast many goal
    expansions.

    Once the cap has tripped and this node holds ``max_spts_per_node``
    certificates, every further tuple would be rejected by the cap, which
    changes nothing, so the crossing stops there: each tuple is tested at
    most once, and ``tuples_tested`` counts only those crossed."""
    rule = state.rules[rule_id]
    trig_goal = state.certs[trigger].goal
    pools = [
        (trigger,) if child == trig_goal else state.goals[child].certs
        for child in rule.children
    ]
    parent_scope = state.goals[rule.parent].scope
    cap = state.limits.max_spts_per_node
    for combo in product(*pools):
        if state.certs_capped and len(rule.certs) >= cap:
            return  # the node can fill partway through the product
        if time.monotonic() > state.deadline:
            return
        state.stats.tuples_tested += 1
        subs = [state.certs[c].label for c in combo]
        bound = unify_substitutions(subs)
        if bound is None:
            continue
        state.stats.tuples_unified += 1
        first, memo = subs[0], {}
        edge = rule.edge_unifier  # read only here: most rule nodes never unify a tuple
        # restrict(compose(com, edge), parent_scope), built over the scope
        # only: com maps a variable through first, then resolves it
        label = Substitution({v: resolve(bound, memo, apply(first, apply(edge, v))) for v in parent_scope})
        cid = state._add_cert(rule.parent, rule_id, label, combo, bound, first)
        if cid is not None:
            yield cid


def extract_proof(state: SearchState, cert_id: int) -> ProofNode:
    """Unfold a certificate into the proof tree it denotes.

    The reconciling delta of each derived certificate, built from its stored
    unifier, applies to the whole subtree beneath it, so an accumulator
    composes them along the path from the root.  Witnesses are mapped back onto the assertion's original
    variables, which is what proof files and the checker speak.  The walk
    keeps its own stack, and the tree is built in reverse preorder.
    """
    steps = []  # preorder: (expression, assertion id or None, witness, premise count)
    stack = [(cert_id, EMPTY)]
    while stack:
        cid, acc = stack.pop()
        cert = state.certs[cid]
        expr = apply(compose(acc, cert.label), state.goals[cert.goal].expression)
        if cert.rule is None:
            steps.append((expr, None, None, 0))
            continue
        rule = state.rules[cert.rule]
        full = compose(acc, compose(unifier_com(cert.unifier, cert.first), rule.edge_unifier))
        witness = Substitution({orig: apply(full, fresh) for orig, fresh in rule.rename.items()})
        steps.append((expr, rule.assertion.id, witness, len(cert.children)))
        child_acc = compose(acc, unifier_delta(cert.unifier))
        stack.extend((k, child_acc) for k in reversed(cert.children))
    done = []  # built subtrees; in reverse preorder the first child is on top
    for expr, assertion_id, witness, n in reversed(steps):
        if assertion_id is None:
            done.append(ProofNode(expr))
        else:
            kids = tuple(done.pop() for _ in range(n))
            done.append(ProofNode(expr, Inference(assertion_id, witness, kids)))
    return done[0]


@gc_paused()
def run(state: SearchState, limits: SearchLimits) -> SearchOutcome:
    """Alternate FIFO goal expansion with eager certificate propagation until
    the root is certified, the tree is exhausted, or a limit trips.  A
    closed goal that repeats an ancestor, a goal under a failed rule node
    and a goal beneath a full goal are dropped unexpanded; a failed root
    ends the search ``Exhausted`` (see the module docstring)."""
    if not limits.max_nodes >= 1:
        raise ValueError(
            f"max_nodes must be >= 1, since the root goal is a node, not {limits.max_nodes!r}"
        )
    state.limits = limits
    started = time.monotonic()
    state.deadline = started + limits.timeout

    def finish(outcome):
        state.stats.wall_time = time.monotonic() - started
        return outcome

    propagate_anode(state)  # the root's leaves; a no-op after the first call

    depth_capped = False
    while True:
        if state.proved is not None:
            proof = extract_proof(state, state.proved)
            return finish(Proved(proof, state.stats))
        if time.monotonic() > state.deadline:
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
        goal = state.goals[goal_id]
        cut = _cut(state, goal)
        if cut == "failed" or cut == "full":
            continue
        if cut == "loop":
            state._emit("LOOP e{}", goal_id)
        elif goal.depth >= limits.max_depth:
            depth_capped = True
            continue
        else:
            if not expand_enode(state, goal_id):
                return finish(LimitReached("nodes", state.stats))
            state.live[goal_id] = len(goal.children)  # none has failed yet
            if goal.children:  # as it has when a proof cut the expansion short
                continue
        if _fail(state, goal_id):
            return finish(Exhausted(state.stats))


def _cut(state: SearchState, goal: GoalNode) -> Optional[str]:
    """One walk up the goal's ancestor path (parent rule, that rule's goal,
    up to the root), nearest first: ``"failed"`` at a failed rule node,
    ``"full"`` at a full goal once the cap has tripped, ``"loop"`` at a goal
    that a closed goal equals, None if none occurs.  Open goals are never
    loop-cut."""
    closed = not goal.scope
    failed = state.failed
    if not (closed or failed or state.certs_capped):
        return None
    full = _full_size(state)
    rule_id = goal.parent
    while rule_id is not None:
        if rule_id in failed:
            return "failed"
        ancestor = state.goals[state.rules[rule_id].parent]
        if len(ancestor.certs) >= full:
            return "full"
        if closed and ancestor.expression == goal.expression:
            return "loop"
        rule_id = ancestor.parent
    return None


def _fail(state: SearchState, goal_id: int) -> bool:
    """Fail the goal unless it matches a premise, and carry the failure up:
    its parent rule node fails, and so does that node's goal once it has no
    live rule node left, unless it matches a premise.  True when the root
    fails."""
    while goal_id not in state.premised:
        rule_id = state.goals[goal_id].parent
        if rule_id is None:
            return True
        if rule_id in state.failed:
            return False
        state.failed.add(rule_id)
        goal_id = state.rules[rule_id].parent
        state.live[goal_id] -= 1
        if state.live[goal_id]:
            return False
    return False
