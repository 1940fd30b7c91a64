"""Proof trees, the witness-based checker, congruence and generality, and the
s-expression ``.plp`` proof file format.

A proof tree alternates expression nodes with inference nodes.  Each
inference carries the assertion it instantiates together with an explicit
witness substitution; checking is the pure equality test that the witness
applied to the assertion reproduces the surrounding expressions.  Witnesses
are stored rather than re-derived so that a broken proof cannot be silently
repaired by the checker.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from .errors import ProofSyntaxError
from .grammar import Expression, parse_any_kind, render_string
from .system import DeductiveSystem, Statement
from .term import (
    Substitution,
    apply,
    compose,
    match_many,
    restrict,
    substitution_text,
)


@dataclass(frozen=True)
class Inference:
    assertion_id: str
    witness: Substitution
    children: tuple

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))


@dataclass(frozen=True)
class ProofNode:
    expression: Expression
    inference: Optional[Inference] = None


@dataclass(frozen=True)
class Violation:
    path: str
    message: str

    def __str__(self):
        return f"at {self.path}: {self.message}"


def _preorder(t: ProofNode):
    """Yield ``(path, node)`` for every node of ``t``, each parent before its
    children and children in order.  ``path`` lists the child indices from
    the root (``[0]`` is the root) and is one list updated in place, so read
    it before the walk moves on.  The walk keeps its own stack, so proof
    depth is not limited by Python's recursion limit."""
    path = []
    stack = [(0, 0, t)]  # (depth, child index, node)
    while stack:
        depth, i, node = stack.pop()
        del path[depth:]
        path.append(i)
        yield path, node
        if node.inference is not None:
            kids = node.inference.children
            stack.extend((depth + 1, j, kids[j]) for j in reversed(range(len(kids))))


def check_proof(d: DeductiveSystem, t: ProofNode) -> list:
    """Empty list iff every transition is an exact instance of its assertion
    under the stored witness.  Raises UnknownAssertionError for bad ids."""
    out = []
    for path, node in _preorder(t):
        inf = node.inference
        if inf is None:
            continue
        a = d.assertion(inf.assertion_id)
        checks = [(None, a.proposition, node)]  # (premise index, pattern, node)
        if len(inf.children) != len(a.premises):
            out.append(Violation(
                ".".join(map(str, path)),
                f"{a.id} expects {len(a.premises)} premises, got {len(inf.children)}",
            ))
        else:
            checks[:0] = zip(range(len(a.premises)), a.premises, inf.children)
        for i, pattern, at in checks:
            instance = apply(inf.witness, pattern)
            if instance != at.expression:
                what = f"proposition of {a.id}" if i is None else f"premise {i} of {a.id}"
                out.append(Violation(
                    ".".join(map(str, path if i is None else [*path, i])),
                    f"{what}: witness instance is '{render_string(instance)}' but node "
                    f"reads '{render_string(at.expression)}'",
                ))
    return out


def proof_leaves(t: ProofNode) -> list:
    return [node for _, node in _preorder(t) if node.inference is None]


def check_statement_proof(d: DeductiveSystem, s: Statement, t: ProofNode) -> list:
    """check_proof plus: the root equals the goal and every leaf is a premise."""
    out = check_proof(d, t)
    if t.expression != s.goal:
        out.append(
            Violation(
                "0",
                f"root is '{render_string(t.expression)}' but the goal is "
                f"'{render_string(s.goal)}'",
            )
        )
    premises = set(s.premises)
    for leaf in proof_leaves(t):
        if leaf.expression not in premises:
            out.append(
                Violation(
                    "0",
                    f"leaf '{render_string(leaf.expression)}' is not a statement premise",
                )
            )
    return out


def substitute_proof(s: Substitution, t: ProofNode) -> ProofNode:
    """Apply ``s`` to every expression and compose it into every witness.

    Witness domains are preserved (the composite is cut back to the original
    domain), which keeps proofs over the same assertion comparable.
    """
    done = []  # rebuilt subtrees; in reverse preorder a node's children are on top
    for _, node in reversed(list(_preorder(t))):
        expr = apply(s, node.expression)
        inf = node.inference
        if inf is None:
            done.append(ProofNode(expr))
            continue
        first = len(done) - len(inf.children)
        kids = tuple(reversed(done[first:]))
        del done[first:]
        witness = restrict(compose(s, inf.witness), inf.witness)
        done.append(ProofNode(expr, Inference(inf.assertion_id, witness, kids)))
    return done[0]


def congruent(t1: ProofNode, t2: ProofNode) -> bool:
    """Shape-isomorphic with equal assertion ids; expressions unconstrained.
    Compared as preorder lists of (assertion id, arity), None for a leaf."""
    shape1, shape2 = (
        [n.inference and (n.inference.assertion_id, len(n.inference.children))
         for _, n in _preorder(t)]
        for t in (t1, t2)
    )
    return shape1 == shape2


def generality(t1: ProofNode, t2: ProofNode) -> Optional[Substitution]:
    """The delta with substitute_proof(delta, t1) == t2, if one exists.

    Computed by matching all corresponding expressions simultaneously, then
    verified on the whole tree (witnesses included).
    """
    if not congruent(t1, t2):
        return None
    delta = match_many(
        (a.expression, b.expression) for (_, a), (_, b) in zip(_preorder(t1), _preorder(t2))
    )
    if delta is None or substitute_proof(delta, t1) != t2:
        return None
    return delta


def serialize_proof(t: ProofNode) -> str:
    """The ``.plp`` text of ``t``: one line per node, indented two spaces per
    level.  A line closes the steps that end with it, one ``)`` per level
    that the next line rises."""
    lines, depths = [], []
    for path, node in _preorder(t):
        depths.append(len(path) - 1)
        pad, inf = "  " * depths[-1], node.inference
        if inf is None:
            lines.append(f'{pad}(hyp "{render_string(node.expression)}")')
        else:
            lines.append(
                f'{pad}(step "{render_string(node.expression)}" by {inf.assertion_id} '
                f"with {substitution_text(inf.witness)} from" + ("" if inf.children else ")")
            )
    depths.append(0)
    return "".join(f"{line}{')' * (depths[k] - depths[k + 1])}\n" for k, line in enumerate(lines))


# whitespace, then a punctuation mark, a quoted string, a bare word, or a
# quote left open
_TOKEN = re.compile(r'\s*([(){};]|"[^"]*"|[^\s(){};"]+|")')


def _lex_proof(text: str):
    tokens = []
    for match in _TOKEN.finditer(text):
        tok = match.group(1)
        if tok == '"':
            raise ProofSyntaxError("unterminated string in proof file")
        tokens.append((tok[1:-1], True) if tok[0] == '"' else (tok, False))
    return tokens


class _ProofParser:
    def __init__(self, d: DeductiveSystem, text: str):
        self.d = d
        self.tokens = _lex_proof(text)
        self.pos = 0
        self.parsed = {}  # token tuple -> Expression; texts recur in steps and witnesses
        self.spans = {}  # chart entries shared by all texts of the file (grammar._Chart)

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, False)

    def take(self, expected=None):
        if self.pos >= len(self.tokens):
            raise ProofSyntaxError(f"unexpected end of proof file (wanted {expected!r})")
        tok = self.tokens[self.pos]
        self.pos += 1
        if expected is not None and (tok[0] != expected or tok[1]):
            raise ProofSyntaxError(f"expected {expected!r}, got {tok[0]!r}")
        return tok

    def expression(self):
        text, quoted = self.take()
        if not quoted:
            raise ProofSyntaxError(f"expected a quoted expression, got {text!r}")
        tokens = tuple(text.split())
        if not tokens:
            raise ProofSyntaxError("empty expression string")
        tree = self.parsed.get(tokens)
        if tree is None:
            tree = self.parsed[tokens] = parse_any_kind(self.d.grammar, tokens, self.spans)
        return tree

    def substitution(self):
        self.take("{")
        bindings = []
        while True:
            tok, quoted = self.peek()
            if tok == "}" and not quoted:
                self.take("}")
                break
            name, quoted = self.take()
            if quoted:
                raise ProofSyntaxError(f"expected a variable name, got string {name!r}")
            var = self.d.grammar.variable(name)
            self.take(":=")
            image = self.expression()
            bindings.append((var, image))
            tok, quoted = self.peek()
            if tok == ";" and not quoted:
                self.take(";")
        return Substitution(bindings)

    def node(self):
        """One proof node.  Each step waits on a stack, with the children
        read so far, until its closing ``)``."""
        steps = []  # open steps: (expression, assertion id, witness, children)
        while True:
            tok, quoted = self.peek()
            if steps and tok == ")" and not quoted:
                self.take(")")
                expr, aid, witness, children = steps.pop()
                done = ProofNode(expr, Inference(aid, witness, tuple(children)))
            elif steps and tok is None:
                raise ProofSyntaxError("unterminated step")
            else:
                self.take("(")
                head, quoted = self.take()
                if quoted:
                    raise ProofSyntaxError(f"expected 'hyp' or 'step', got string {head!r}")
                if head == "hyp":
                    done = ProofNode(self.expression())
                    self.take(")")
                elif head != "step":
                    raise ProofSyntaxError(f"expected 'hyp' or 'step', got {head!r}")
                else:
                    expr = self.expression()
                    self.take("by")
                    aid, quoted = self.take()
                    if quoted:
                        raise ProofSyntaxError("assertion id must not be quoted")
                    self.d.assertion(aid)  # raises UnknownAssertionError
                    self.take("with")
                    witness = self.substitution()
                    self.take("from")
                    steps.append((expr, aid, witness, []))
                    continue
            if not steps:
                return done
            steps[-1][3].append(done)


def parse_proof(text: str, d: DeductiveSystem) -> ProofNode:
    parser = _ProofParser(d, text)
    tree = parser.node()
    if parser.pos != len(parser.tokens):
        raise ProofSyntaxError("trailing tokens after proof")
    return tree
