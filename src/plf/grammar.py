"""Typed context-free expression grammars and their parse trees.

An expression is a whitespace-separated token sequence.  A grammar assigns
each kind (non-terminal) a sublanguage; parse trees are built from the
structural productions only.  Unit productions between kinds ("coercions",
e.g. ``class ::= set``) never appear as tree nodes: a node's kind is its
intrinsic one, and a node of kind ``m`` may stand wherever kind ``n`` is
expected whenever ``m`` is reachable from ``n`` through coercions.  Two
expressions are therefore equal exactly when they render to the same token
string, which is what the rest of the package relies on.

Ambiguity is undecidable up front, so the parser enumerates *all* parse
trees of an input and raises if it finds more than one.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class Lit:
    """A literal token in a production right-hand side."""

    text: str


@dataclass(frozen=True)
class Slot:
    """A kind position in a production right-hand side (kind by name)."""

    kind: str


RhsItem = Union[Lit, Slot]


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


@dataclass(frozen=True)
class Var:
    """A variable leaf.  The replaceable flag is search metadata: it decides
    whether unification may bind the variable, but two occurrences that
    differ only in the flag denote the same token and compare equal."""

    name: str
    kind: Kind
    replaceable: bool = field(default=True, compare=False)


@dataclass(frozen=True)
class Apply:
    production: Production
    children: tuple

    def __post_init__(self):
        object.__setattr__(
            self,
            "_hash",
            hash((self.production.id, self.production.result_kind.name, self.children)),
        )

    def __hash__(self):
        return self._hash

    @property
    def kind(self) -> Kind:
        return self.production.result_kind


Expression = Union[Var, Apply]


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

        structural = [p for p in self.productions if not p.is_coercion]
        self._goal_productions = {
            k: tuple(p for p in structural if p.result_kind.name in self.kinds[k].accepts)
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
    """All-parses enumerator.

    ``trees(kind, i, j)`` yields every tree whose intrinsic kind is accepted
    by ``kind`` and whose render spans tokens[i:j].  Coercion steps build no
    nodes, so the trees come out already in canonical form and duplicates
    cannot arise.  Recursion is on strictly shrinking spans (no production
    derives the empty string and single-slot productions are coercions), so
    left-recursive grammars terminate.
    """

    def __init__(self, g: Grammar, tokens: Sequence[str]):
        self.g = g
        self.tokens = tuple(tokens)
        self._memo = {}

    def trees(self, kind_name: str, i: int, j: int) -> list:
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
        for prod in self.g._goal_productions[kind_name]:
            for children in self._spans(prod, i, j):
                out.append(Apply(prod, children))
        self._memo[key] = out
        return out

    def _spans(self, prod: Production, i: int, j: int) -> list:
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


def parse_all(g: Grammar, kind: str, tokens: Sequence[str]) -> list:
    """Every parse tree of ``tokens`` within the sublanguage of ``kind``."""
    g.kind(kind)
    toks = tuple(tokens)
    if not toks:
        raise NoParseError("empty token sequence")
    return _Chart(g, toks).trees(kind, 0, len(toks))


def parse_expression(g: Grammar, kind: str, tokens: Sequence[str]) -> Expression:
    trees = parse_all(g, kind, tokens)
    if not trees:
        raise NoParseError(f"cannot parse {' '.join(tokens)!r} as kind {kind!r}")
    if len(trees) > 1:
        raise AmbiguousParseError(
            f"{' '.join(tokens)!r} has {len(trees)} parse trees as kind {kind!r}"
        )
    return trees[0]


def parse_any_kind(g: Grammar, tokens: Sequence[str]) -> Expression:
    """Parse under every declared kind and require a single distinct tree."""
    toks = tuple(tokens)
    if not toks:
        raise NoParseError("empty token sequence")
    chart = _Chart(g, toks)
    found = []
    for kname in g.kinds:
        for tree in chart.trees(kname, 0, len(toks)):
            if tree not in found:
                found.append(tree)
    if not found:
        raise NoParseError(f"cannot parse {' '.join(toks)!r} under any kind")
    if len(found) > 1:
        raise AmbiguousParseError(f"{' '.join(toks)!r} has {len(found)} parse trees")
    return found[0]


def render_expression(e: Expression) -> list:
    """The token sequence an expression denotes (inverse of parsing)."""
    out = []

    def walk(node):
        if isinstance(node, Var):
            out.append(node.name)
            return
        children = iter(node.children)
        for item in node.production.rhs:
            if isinstance(item, Lit):
                out.append(item.text)
            else:
                walk(next(children))

    walk(e)
    return out


def render_string(e: Expression) -> str:
    return " ".join(render_expression(e))
