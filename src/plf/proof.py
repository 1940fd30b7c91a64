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


def _walk_transitions(d, node, path, out):
    inf = node.inference
    if inf is None:
        return
    a = d.assertion(inf.assertion_id)
    w = inf.witness
    if len(inf.children) != len(a.premises):
        out.append(
            Violation(
                path,
                f"{a.id} expects {len(a.premises)} premises, got {len(inf.children)}",
            )
        )
    else:
        for i, (prem, child) in enumerate(zip(a.premises, inf.children)):
            if apply(w, prem) != child.expression:
                out.append(
                    Violation(
                        f"{path}.{i}",
                        f"premise {i} of {a.id}: witness instance is "
                        f"'{render_string(apply(w, prem))}' but node reads "
                        f"'{render_string(child.expression)}'",
                    )
                )
    if apply(w, a.proposition) != node.expression:
        out.append(
            Violation(
                path,
                f"proposition of {a.id}: witness instance is "
                f"'{render_string(apply(w, a.proposition))}' but node reads "
                f"'{render_string(node.expression)}'",
            )
        )
    for i, child in enumerate(inf.children):
        _walk_transitions(d, child, f"{path}.{i}", out)


def check_proof(d: DeductiveSystem, t: ProofNode) -> list:
    """Empty list iff every transition is an exact instance of its assertion
    under the stored witness.  Raises UnknownAssertionError for bad ids."""
    out = []
    _walk_transitions(d, t, "0", out)
    return out


def proof_leaves(t: ProofNode) -> list:
    if t.inference is None:
        return [t]
    out = []
    for child in t.inference.children:
        out.extend(proof_leaves(child))
    return out


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
    inf = t.inference
    expr = apply(s, t.expression)
    if inf is None:
        return ProofNode(expr)
    witness = restrict(compose(s, inf.witness), inf.witness)
    kids = tuple(substitute_proof(s, c) for c in inf.children)
    return ProofNode(expr, Inference(inf.assertion_id, witness, kids))


def congruent(t1: ProofNode, t2: ProofNode) -> bool:
    """Shape-isomorphic with equal assertion ids; expressions unconstrained."""
    i1, i2 = t1.inference, t2.inference
    if (i1 is None) != (i2 is None):
        return False
    if i1 is None:
        return True
    if i1.assertion_id != i2.assertion_id or len(i1.children) != len(i2.children):
        return False
    return all(congruent(a, b) for a, b in zip(i1.children, i2.children))


def _expression_pairs(t1, t2, out):
    out.append((t1.expression, t2.expression))
    if t1.inference is not None:
        for a, b in zip(t1.inference.children, t2.inference.children):
            _expression_pairs(a, b, out)


def generality(t1: ProofNode, t2: ProofNode) -> Optional[Substitution]:
    """The delta with substitute_proof(delta, t1) == t2, if one exists.

    Computed by matching all corresponding expressions simultaneously, then
    verified on the whole tree (witnesses included).
    """
    if not congruent(t1, t2):
        return None
    pairs = []
    _expression_pairs(t1, t2, pairs)
    delta = match_many(pairs)
    if delta is None:
        return None
    if substitute_proof(delta, t1) != t2:
        return None
    return delta


def serialize_proof(t: ProofNode) -> str:
    lines = []

    def walk(node, depth):
        pad = "  " * depth
        if node.inference is None:
            lines.append(f'{pad}(hyp "{render_string(node.expression)}")')
            return
        inf = node.inference
        head = (
            f'{pad}(step "{render_string(node.expression)}" by {inf.assertion_id} '
            f"with {substitution_text(inf.witness)} from"
        )
        if not inf.children:
            lines.append(head + ")")
            return
        lines.append(head)
        for child in inf.children:
            walk(child, depth + 1)
        lines[-1] += ")"

    walk(t, 0)
    return "\n".join(lines) + "\n"


_PUNCT = {"(", ")", "{", "}", ";"}


def _lex_proof(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _PUNCT:
            tokens.append((c, False))
            i += 1
            continue
        if c == '"':
            j = text.find('"', i + 1)
            if j < 0:
                raise ProofSyntaxError("unterminated string in proof file")
            tokens.append((text[i + 1 : j], True))
            i = j + 1
            continue
        j = i
        while j < n and not text[j].isspace() and text[j] not in _PUNCT and text[j] != '"':
            j += 1
        tokens.append((text[i:j], False))
        i = j
    return tokens


class _ProofParser:
    def __init__(self, d: DeductiveSystem, text: str):
        self.d = d
        self.tokens = _lex_proof(text)
        self.pos = 0

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
        tokens = text.split()
        if not tokens:
            raise ProofSyntaxError("empty expression string")
        return parse_any_kind(self.d.grammar, tokens)

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
        self.take("(")
        head, quoted = self.take()
        if quoted:
            raise ProofSyntaxError(f"expected 'hyp' or 'step', got string {head!r}")
        if head == "hyp":
            expr = self.expression()
            self.take(")")
            return ProofNode(expr)
        if head != "step":
            raise ProofSyntaxError(f"expected 'hyp' or 'step', got {head!r}")
        expr = self.expression()
        self.take("by")
        aid, quoted = self.take()
        if quoted:
            raise ProofSyntaxError("assertion id must not be quoted")
        self.d.assertion(aid)  # raises UnknownAssertionError
        self.take("with")
        witness = self.substitution()
        self.take("from")
        children = []
        while True:
            tok, quoted = self.peek()
            if tok == ")" and not quoted:
                self.take(")")
                break
            if tok is None:
                raise ProofSyntaxError("unterminated step")
            children.append(self.node())
        return ProofNode(expr, Inference(aid, witness, tuple(children)))


def parse_proof(text: str, d: DeductiveSystem) -> ProofNode:
    parser = _ProofParser(d, text)
    tree = parser.node()
    if parser.pos != len(parser.tokens):
        raise ProofSyntaxError("trailing tokens after proof")
    return tree
