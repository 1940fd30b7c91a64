"""Typed context-free expression grammars and their parse trees.

An expression is a whitespace-separated token sequence.  A grammar assigns
each kind (non-terminal) a sublanguage; parse trees are built from the
structural productions only.  Unit productions between kinds ("coercions",
e.g. ``class ::= set``) never appear as tree nodes: a node's kind is its
intrinsic one, and a node of kind ``m`` may stand wherever kind ``n`` is
expected whenever ``m`` is reachable from ``n`` through coercions.  Two
expressions are therefore equal exactly when they render to the same token
string, which is what the rest of the package relies on.

Ambiguity is undecidable up front, so the parser decides it per input: it
builds the parse trees of an input, at most two per chart entry, and raises
if it finds more than one.
"""

from __future__ import annotations

import gc
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from .errors import (
    AmbiguousParseError,
    DuplicateIdError,
    NoParseError,
    UndeclaredVariableError,
    UnknownKindError,
)


@dataclass(frozen=True)
class Kind:
    """A grammar non-terminal; doubles as the type of expressions and variables.

    ``accepts`` holds the names of kinds whose expressions may stand where
    this kind is expected (reflexive-transitive coercion closure).  It is
    carried on the kind itself so the substitution kernel can check
    conformity without a grammar in hand.
    """

    name: str
    accepts: frozenset = field(default=frozenset(), compare=False, repr=False)

    def __post_init__(self):
        if self.name not in self.accepts:
            object.__setattr__(self, "accepts", frozenset(self.accepts) | {self.name})
        object.__setattr__(self, "_hash", hash((self.name,)))

    def __hash__(self):
        return self._hash


@dataclass(frozen=True)
class Lit:
    """A literal token in a production right-hand side."""

    text: str


@dataclass(frozen=True)
class Slot:
    """A kind position in a production right-hand side (kind by name)."""

    kind: str


@dataclass(frozen=True)
class Production:
    id: str
    result_kind: Kind
    rhs: tuple

    @property
    def is_coercion(self) -> bool:
        return len(self.rhs) == 1 and isinstance(self.rhs[0], Slot)


@dataclass(frozen=True)
class VariableDecl:
    name: str
    kind: Kind


class Var:
    """A variable leaf.  The replaceable flag is search metadata: it decides
    whether unification may bind the variable, but two occurrences that
    differ only in the flag denote the same token and compare equal.

    Term nodes are immutable by convention (their fields are set once, in
    ``__init__``); they are slotted because the search, the checker and the
    oracle do little else than build and compare them."""

    __slots__ = ("name", "kind", "replaceable", "_hash")

    def __init__(self, name: str, kind: Kind, replaceable: bool = True):
        self.name = name
        self.kind = kind
        self.replaceable = replaceable
        self._hash = hash((name, kind))

    def __eq__(self, other):
        if other.__class__ is not Var:
            return NotImplemented
        return self.name == other.name and (self.kind is other.kind or self.kind == other.kind)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Var(name={self.name!r}, kind={self.kind!r}, replaceable={self.replaceable!r})"


class Apply:
    """A production node.  ``open`` records whether a replaceable variable
    occurs below it; substitutions leave closed terms as they are."""

    __slots__ = ("production", "children", "_hash", "open", "__weakref__")

    def __init__(self, production: Production, children: tuple):
        self.production = production
        self.children = children
        self._hash = hash((production.id, production.result_kind.name, children))
        is_open = False
        for child in children:
            if child.replaceable if child.__class__ is Var else child.open:
                is_open = True
                break
        self.open = is_open

    def __eq__(self, other):
        """Structural equality, insensitive to the replaceable flag.  The
        walk keeps its own stacks of the subterms still to compare."""
        if self is other:
            return True
        if other.__class__ is not Apply:
            return NotImplemented
        left, right = [self], [other]
        while left:
            a, b = left.pop(), right.pop()
            if a.__class__ is not Apply or b.__class__ is not Apply:
                if a != b:  # a variable leaf on either side
                    return False
            elif a is not b:
                if a._hash != b._hash or len(a.children) != len(b.children) or (
                    a.production is not b.production and a.production != b.production
                ):
                    return False
                left += a.children
                right += b.children
        return True

    def __hash__(self):
        return self._hash

    @property
    def kind(self) -> Kind:
        return self.production.result_kind

    def __repr__(self):
        return f"Apply(production={self.production!r}, children={self.children!r})"


Expression = Union[Var, Apply]


@contextmanager
def gc_paused():
    """Run the body with Python's cyclic garbage collector disabled, then
    restore the caller's setting: it is re-enabled only if it was enabled on
    entry, so pauses nest.  Use it only around code that builds no reference
    cycles (term nodes hold none): reference counting then frees all that
    code drops, and the pause holds no memory back.  Also a decorator
    (``@gc_paused()``)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class Grammar:
    """Immutable bundle of kinds, productions and variable declarations.

    ``rules`` are (id, result kind name, rhs items) triples; a rhs whose
    single item is a Slot is a coercion.  ``coercions`` is sugar: the pair
    (src, dst) lets a src-kinded expression stand where dst is expected.
    """

    def __init__(
        self,
        kinds: Sequence[str],
        rules: Sequence[tuple] = (),
        variables: Sequence[tuple] = (),
        coercions: Sequence[tuple] = (),
    ):
        kind_names = list(kinds)
        if len(set(kind_names)) != len(kind_names):
            raise DuplicateIdError("duplicate kind declaration")

        specs = [(rid, res, tuple(items)) for rid, res, items in rules]
        for src, dst in coercions:
            specs.append((f"coerce_{src}_into_{dst}", dst, (Slot(src),)))

        seen = set()
        for rid, res, items in specs:
            if rid in seen:
                raise DuplicateIdError(f"duplicate production id {rid!r}")
            seen.add(rid)
            if res not in kind_names:
                raise UnknownKindError(f"production {rid!r}: unknown kind {res!r}")
            if not items:
                raise ValueError(f"production {rid!r} has an empty right-hand side")
            for item in items:
                if isinstance(item, Slot) and item.kind not in kind_names:
                    raise UnknownKindError(f"production {rid!r}: unknown kind {item.kind!r}")

        # Reflexive-transitive closure over coercion (single-slot) productions.
        accepts = {k: {k} for k in kind_names}
        edges = {k: set() for k in kind_names}
        for rid, res, items in specs:
            if len(items) == 1 and isinstance(items[0], Slot):
                edges[res].add(items[0].kind)
        for k in kind_names:
            frontier = [k]
            while frontier:
                cur = frontier.pop()
                for nxt in edges[cur]:
                    if nxt not in accepts[k]:
                        accepts[k].add(nxt)
                        frontier.append(nxt)

        self.kinds = {k: Kind(k, frozenset(accepts[k])) for k in kind_names}
        self.productions = tuple(
            Production(rid, self.kinds[res], items) for rid, res, items in specs
        )

        self.variables = {}
        for name, kname in variables:
            if name in self.variables:
                raise DuplicateIdError(f"duplicate variable {name!r}")
            if kname not in self.kinds:
                raise UnknownKindError(f"variable {name!r}: unknown kind {kname!r}")
            self.variables[name] = VariableDecl(name, self.kinds[kname])

        self.literals = {
            item.text
            for prod in self.productions
            for item in prod.rhs
            if isinstance(item, Lit)
        }
        clash = self.literals & set(self.variables)
        if clash:
            raise ValueError(f"variable names collide with literal tokens: {sorted(clash)}")

        plans = [_parse_plan(p) for p in self.productions if not p.is_coercion]
        self._parse_plans = {
            k: tuple(plan for plan in plans if plan[0].result_kind.name in self.kinds[k].accepts)
            for k in kind_names
        }

    def kind(self, name: str) -> Kind:
        try:
            return self.kinds[name]
        except KeyError:
            raise UnknownKindError(f"unknown kind {name!r}") from None

    def variable(self, name: str, replaceable: bool = True) -> Var:
        decl = self.resolve_variable(name)
        if decl is None:
            raise UndeclaredVariableError(f"undeclared variable {name!r}")
        return Var(name, decl.kind, replaceable)

    def resolve_variable(self, token: str) -> Optional[VariableDecl]:
        """Declared variable, or a fresh-renamed one of the form ``base#k``."""
        decl = self.variables.get(token)
        if decl is not None:
            return decl
        base, sep, suffix = token.partition("#")
        if sep and suffix.isdigit():
            root = self.variables.get(base)
            if root is not None:
                return VariableDecl(token, root.kind)
        return None

    def __eq__(self, other):
        return (
            isinstance(other, Grammar)
            and self.kinds == other.kinds
            and {k.name: k.accepts for k in self.kinds.values()}
            == {k.name: k.accepts for k in other.kinds.values()}
            and self.productions == other.productions
            and self.variables == other.variables
        )

    def __repr__(self):
        return (
            f"Grammar(kinds={list(self.kinds)}, productions={len(self.productions)}, "
            f"variables={len(self.variables)})"
        )


class _Chart:
    """Parse-tree enumerator, capped at two trees per entry.

    ``trees(kind, i, j)`` returns the first two trees (all of them, if
    fewer) whose intrinsic kind is accepted by ``kind`` and whose render
    spans tokens[i:j].  Coercion steps build no nodes, so the trees come out
    already in canonical form and duplicates cannot arise.  Only 0, 1 or
    "2 or more" matters to a caller, and that abstraction commutes with the
    sums (productions and ends) and products (slots) the chart computes: an
    entry with two trees makes every parse through it ambiguous.  So the cap
    keeps the verdict exact, while the full count on an ambiguous grammar
    grows like the Catalan numbers.  Every child span is strictly shorter
    than its parent (no production derives the empty string and single-slot
    productions are coercions), so left-recursive grammars terminate.

    A slot tries only the ends that can lead to a parse: a slot followed by
    literals alone ends where they begin, and a slot followed by a literal
    ends where that literal occurs (looked up in ``_at``).  A production is
    skipped at once when the span is shorter than its right-hand side or
    does not end with its trailing literals.  Entries are filled by an
    explicit stack of ``_fill`` generators, each suspended while the entry
    it needs is filled, so nesting depth is not limited by Python's
    recursion limit.

    ``spans``, when given, carries entries across the charts of several
    texts.  The grammar is context-free and ``_fill`` reads only
    ``tokens[i:j]``, so the trees of an entry depend only on its kind and the
    tokens it spans.  An entry that some production fits (by length and
    trailing literals) is looked up there before it is filled, and goes there
    once filled, so texts that contain earlier texts as subterms reuse their
    trees, which come out shared.  ``spans`` maps (kind, hash of the span's
    tokens) to (tokens of the text that filled it, start, trees): an entry
    holds no copy of its tokens, and a hit counts only when they equal the
    span's.
    """

    def __init__(self, g: Grammar, tokens: Sequence[str], spans: Optional[dict] = None):
        self.g = g
        self.tokens = tuple(tokens)
        self._memo = {}
        self._spans = spans
        self._at = None  # token -> its positions, built when a fill first needs it

    def trees(self, kind_name: str, i: int, j: int) -> list:
        top = (kind_name, i, j)
        memo = self._memo
        if memo.get(top) is None:
            stack = [(top, self._fill(*top))]
            value = None
            while stack:
                key, filling = stack[-1]
                try:
                    need = filling.send(value)
                except StopIteration as done:
                    memo[key] = value = done.value
                    stack.pop()
                else:
                    value = None
                    stack.append((need, self._fill(*need)))
        return memo[top]

    def _fill(self, kind_name: str, i: int, j: int):
        """Generator computing one entry: yields each (kind, i, j) entry it
        needs that is not filled yet, is sent its trees, and returns its own
        (from ``spans`` if another text filled it).

        The partial parses of a production advance one rhs item at a time in
        (end, tree) order, so the trees come out in the order of a
        depth-first walk that tries ends from left to right.
        """
        tokens = self.tokens
        memo, spans, shared = self._memo, self._spans, None
        out = []
        if j - i == 1:
            decl = self.g.resolve_variable(tokens[i])
            if decl is not None and decl.kind.name in self.g.kinds[kind_name].accepts:
                out.append(Var(decl.name, decl.kind))
        for prod, tail, plan in self.g._parse_plans[kind_name]:
            if j - i < len(plan) or tokens[j - len(tail) : j] != tail:
                continue
            if shared is None and spans is not None:  # the first production that fits
                span = tokens[i:j]
                shared = (kind_name, hash(span))
                hit = spans.get(shared)
                if hit is not None and hit[0][hit[1] : hit[1] + j - i] == span:
                    return hit[2]
            partial = [(i, ())]
            for text, kind, after in plan:
                advanced = []
                if kind is None:
                    for pos, kids in partial:
                        if tokens[pos] == text:
                            advanced.append((pos + 1, kids))
                else:
                    last = j - after  # every later item consumes a token
                    for pos, kids in partial:
                        if text is None:
                            ends = range(pos + 1, last + 1)
                        elif text is _FIXED:
                            ends = (last,) if pos < last else ()
                        else:
                            if self._at is None:
                                self._at = {}
                                for at_pos, tok in enumerate(tokens):
                                    self._at.setdefault(tok, []).append(at_pos)
                            at = self._at.get(text, ())
                            ends = at[bisect_left(at, pos + 1) : bisect_right(at, last)]
                        for q in ends:
                            key = (kind, pos, q)
                            found = memo.get(key)
                            if found is None:
                                found = yield key
                            for tree in found:
                                advanced.append((q, kids + (tree,)))
                partial = advanced
                if not partial:
                    break
            for pos, kids in partial:
                if pos == j:
                    out.append(Apply(prod, kids))
        if len(out) > 2:
            del out[2:]  # see the class docstring: two trees decide ambiguity
        if shared is not None:
            spans[shared] = (tokens, i, out)
        return out


_FIXED = object()  # plan marker: the slot's end is fixed by the literals after it


def _parse_plan(prod: Production) -> tuple:
    """``(production, trailing literals, steps)`` for the chart.

    A step is ``(text, None, after)`` for a literal and ``(end, kind, after)``
    for a slot, where ``after`` counts the items behind it and ``end`` is
    ``_FIXED`` when those are all literals, the next literal's text when one
    follows, and None when a slot follows.
    """
    rhs = prod.rhs
    tail = []
    for item in reversed(rhs):
        if not isinstance(item, Lit):
            break
        tail.append(item.text)
    steps = []
    for idx, item in enumerate(rhs):
        after = len(rhs) - idx - 1
        if isinstance(item, Lit):
            steps.append((item.text, None, after))
        elif after <= len(tail):
            steps.append((_FIXED, item.kind, after))
        else:
            nxt = rhs[idx + 1]
            steps.append((nxt.text if isinstance(nxt, Lit) else None, item.kind, after))
    return prod, tuple(reversed(tail)), tuple(steps)


def parse_any_kind(g: Grammar, tokens: Sequence[str], spans: Optional[dict] = None) -> Expression:
    """Parse under every declared kind and require a single distinct tree.
    Calls that pass the same ``spans`` dict share chart entries (``_Chart``)."""
    toks = tuple(tokens)
    if not toks:
        raise NoParseError("empty token sequence")
    chart = _Chart(g, toks, spans)
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


def render_expression(e: Expression) -> list:
    """The token sequence an expression denotes (inverse of parsing).  The
    walk keeps its own stack of subterms and literal texts still to emit."""
    out = []
    stack = [e]
    while stack:
        node = stack.pop()
        if node.__class__ is str:
            out.append(node)
        elif node.__class__ is Var:
            out.append(node.name)
        else:
            k = len(node.children)
            for item in reversed(node.production.rhs):
                if item.__class__ is Lit:
                    stack.append(item.text)
                else:
                    k -= 1
                    stack.append(node.children[k])
    return out


def render_string(e: Expression) -> str:
    return " ".join(render_expression(e))
