"""Deductive systems: assertions, statements, fresh renaming, and the
line-oriented ``.pls`` definition format.

Format (UTF-8, ``#`` starts a comment outside quotes)::

    kind <name>
    coerce <kindA> into <kindB>      # an A-expression may stand where B is expected
    rule <id> : <kind> ::= <item>+   # quoted items are literals, bare items kinds
    var <name>+ : <kind>
    axiom <id> : <expr>* => <expr>   # premises before =>, proposition after
    statement <id> : <expr>* => <expr>

Expressions are double-quoted token sequences.  Assertion variables are
replaceable (the search may instantiate them); statement variables are
frozen.  The ``#`` character is reserved for fresh-renamed variables
(``name#k``) and comments, so it may not appear in declared names, literals,
or system-file expressions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import (
    DuplicateIdError,
    FrameworkError,
    SystemSyntaxError,
    UndeclaredVariableError,
    UnknownAssertionError,
    UnknownKindError,
    UnknownStatementError,
)
from .grammar import Expression, Grammar, Lit, Slot, Var, parse_any_kind, render_string
from .term import Substitution, apply, freeze_expression, variables_of


@dataclass(frozen=True)
class Assertion:
    """An inference figure premises |- proposition; all variables replaceable."""

    id: str
    premises: tuple
    proposition: Expression


@dataclass(frozen=True)
class Statement:
    """An assertion-shaped goal whose variables are frozen constants."""

    id: str
    premises: tuple
    goal: Expression


def assertion_variables(a: Assertion) -> list:
    """Variables occurring in ``a``, sorted by name."""
    seen = set()
    for e in (*a.premises, a.proposition):
        seen |= variables_of(e)
    return sorted(seen, key=lambda v: v.name)


class DeductiveSystem:
    def __init__(self, grammar: Grammar, assertions: Sequence[Assertion], statements: Sequence[Statement] = ()):
        self.grammar = grammar
        self.assertions = tuple(assertions)
        self.statements = tuple(statements)
        self._assertions_by_id = {a.id: a for a in self.assertions}
        self._statements_by_id = {s.id: s for s in self.statements}

    def assertion(self, aid: str) -> Assertion:
        try:
            return self._assertions_by_id[aid]
        except KeyError:
            raise UnknownAssertionError(f"unknown assertion {aid!r}") from None

    def statement(self, sid: str) -> Statement:
        try:
            return self._statements_by_id[sid]
        except KeyError:
            raise UnknownStatementError(f"unknown statement {sid!r}") from None

    def __eq__(self, other):
        return (
            isinstance(other, DeductiveSystem)
            and self.grammar == other.grammar
            and self.assertions == other.assertions
            and self.statements == other.statements
        )

    def __repr__(self):
        return (
            f"DeductiveSystem({len(self.assertions)} assertions, "
            f"{len(self.statements)} statements)"
        )


@dataclass
class FreshSupply:
    """Monotone counter feeding fresh variable names ``base#k``."""

    counter: int = 0

    def take(self) -> int:
        k = self.counter
        self.counter += 1
        return k


def rename_assertion(a: Assertion, supply: FreshSupply) -> tuple:
    """Variant of ``a`` over fresh replaceable variables, all stamped with the
    same counter value, and the bijective renaming used (original variable ->
    fresh variable).  Successive calls are disjoint."""
    k = supply.take()
    mapping = {v: Var(f"{v.name}#{k}", v.kind, True) for v in assertion_variables(a)}
    if not mapping:
        return a, mapping
    ren = Substitution(mapping)
    renamed = Assertion(a.id, tuple(apply(ren, p) for p in a.premises), apply(ren, a.proposition))
    return renamed, mapping


def _tokenize_line(line: str, lineno: int):
    """Split one line into (text, was_quoted) pairs; ``#`` outside quotes
    starts a comment."""
    out = []
    i, n = 0, len(line)
    while i < n:
        c = line[i]
        if c.isspace():
            i += 1
            continue
        if c == "#":
            break
        if c == '"':
            j = line.find('"', i + 1)
            if j < 0:
                raise SystemSyntaxError(f"line {lineno}: unterminated string")
            out.append((line[i + 1 : j], True))
            i = j + 1
        else:
            j = i
            while j < n and not line[j].isspace() and line[j] not in '"#':
                j += 1
            out.append((line[i:j], False))
            i = j
    return out


def _expect_bare(toks, idx, lineno, what):
    if idx >= len(toks) or toks[idx][1]:
        raise SystemSyntaxError(f"line {lineno}: expected {what}")
    return toks[idx][0]


def _parse_expr(g: Grammar, text: str, lineno: int, spans: dict) -> Expression:
    tokens = text.split()
    if not tokens:
        raise SystemSyntaxError(f"line {lineno}: empty expression")
    for t in tokens:
        if "#" in t:
            raise SystemSyntaxError(f"line {lineno}: '#' is reserved, found in token {t!r}")
        if t not in g.literals and g.resolve_variable(t) is None:
            raise UndeclaredVariableError(f"line {lineno}: undeclared variable {t!r}")
    try:
        return parse_any_kind(g, tokens, spans)
    except FrameworkError as exc:
        raise type(exc)(f"line {lineno}: {exc}") from None


def load_system(text: str) -> DeductiveSystem:
    kinds = []
    rules = []
    coercions = []
    var_decls = []
    axioms = []
    statements = []

    for lineno, line in enumerate(text.splitlines(), 1):
        toks = _tokenize_line(line, lineno)
        if not toks:
            continue
        head = toks[0][0] if not toks[0][1] else None
        if head == "kind":
            if len(toks) != 2 or toks[1][1]:
                raise SystemSyntaxError(f"line {lineno}: expected 'kind <name>'")
            name = toks[1][0]
            if name in kinds:
                raise DuplicateIdError(f"line {lineno}: duplicate kind {name!r}")
            kinds.append(name)
        elif head == "coerce":
            if len(toks) != 4 or toks[2][0] != "into":
                raise SystemSyntaxError(f"line {lineno}: expected 'coerce <kind> into <kind>'")
            src, dst = toks[1][0], toks[3][0]
            for k in (src, dst):
                if k not in kinds:
                    raise UnknownKindError(f"line {lineno}: unknown kind {k!r}")
            coercions.append((src, dst, lineno))
        elif head == "rule":
            rid = _expect_bare(toks, 1, lineno, "rule id")
            if len(toks) < 6 or toks[2][0] != ":" or toks[4][0] != "::=":
                raise SystemSyntaxError(
                    f"line {lineno}: expected 'rule <id> : <kind> ::= <item>+'"
                )
            result = toks[3][0]
            if result not in kinds:
                raise UnknownKindError(f"line {lineno}: unknown kind {result!r}")
            items = []
            for text_item, quoted in toks[5:]:
                if quoted:
                    if "#" in text_item:
                        raise SystemSyntaxError(
                            f"line {lineno}: '#' is reserved, found in literal {text_item!r}"
                        )
                    if len(text_item.split()) != 1:
                        raise SystemSyntaxError(
                            f"line {lineno}: literal {text_item!r} must be a single token"
                        )
                    items.append(Lit(text_item))
                else:
                    if text_item not in kinds:
                        raise UnknownKindError(f"line {lineno}: unknown kind {text_item!r}")
                    items.append(Slot(text_item))
            if any(rid == r[0] for r in rules):
                raise DuplicateIdError(f"line {lineno}: duplicate rule id {rid!r}")
            rules.append((rid, result, items))
        elif head == "var":
            try:
                colon = [t for t, _ in toks].index(":")
            except ValueError:
                raise SystemSyntaxError(f"line {lineno}: expected 'var <name>+ : <kind>'") from None
            if colon < 2 or colon != len(toks) - 2:
                raise SystemSyntaxError(f"line {lineno}: expected 'var <name>+ : <kind>'")
            kname = toks[-1][0]
            if kname not in kinds:
                raise UnknownKindError(f"line {lineno}: unknown kind {kname!r}")
            for name, quoted in toks[1:colon]:
                if quoted or "#" in name:
                    raise SystemSyntaxError(f"line {lineno}: bad variable name {name!r}")
                if any(name == v[0] for v in var_decls):
                    raise DuplicateIdError(f"line {lineno}: duplicate variable {name!r}")
                var_decls.append((name, kname))
        elif head in ("axiom", "statement"):
            ident = _expect_bare(toks, 1, lineno, f"{head} id")
            if len(toks) < 3 or toks[2][0] != ":":
                raise SystemSyntaxError(f"line {lineno}: expected '{head} <id> : ...'")
            strings = []
            arrow_at = None
            for idx, (t, quoted) in enumerate(toks[3:]):
                if not quoted and t == "=>":
                    arrow_at = idx
                    continue
                if not quoted:
                    raise SystemSyntaxError(f"line {lineno}: unexpected token {t!r}")
                strings.append((t, arrow_at is not None))
            if arrow_at is None:
                raise SystemSyntaxError(f"line {lineno}: missing '=>'")
            after = [s for s, past in strings if past]
            before = [s for s, past in strings if not past]
            if len(after) != 1:
                raise SystemSyntaxError(
                    f"line {lineno}: exactly one expression must follow '=>'"
                )
            target = axioms if head == "axiom" else statements
            if any(ident == entry[0] for entry in axioms + statements):
                raise DuplicateIdError(f"line {lineno}: duplicate id {ident!r}")
            target.append((ident, before, after[0], lineno))
        else:
            raise SystemSyntaxError(f"line {lineno}: unknown directive {toks[0][0]!r}")

    try:
        grammar = Grammar(
            kinds,
            rules=[(rid, res, items) for rid, res, items in rules],
            variables=var_decls,
            coercions=[(src, dst) for src, dst, _ in coercions],
        )
    except ValueError as exc:
        raise SystemSyntaxError(str(exc)) from None

    spans = {}  # chart entries shared by all texts of the file (grammar._Chart)
    assertions = []
    for ident, before, after, lineno in axioms:
        premises = tuple(_parse_expr(grammar, s, lineno, spans) for s in before)
        assertions.append(Assertion(ident, premises, _parse_expr(grammar, after, lineno, spans)))

    stmts = []
    for ident, before, after, lineno in statements:
        premises = tuple(freeze_expression(_parse_expr(grammar, s, lineno, spans)) for s in before)
        stmts.append(Statement(ident, premises, freeze_expression(_parse_expr(grammar, after, lineno, spans))))

    return DeductiveSystem(grammar, assertions, stmts)


def render_system(d: DeductiveSystem) -> str:
    """Serialize back to the ``.pls`` format (load/render round-trips)."""
    g = d.grammar
    lines = [f"kind {name}" for name in g.kinds]
    for p in g.productions:
        if p.is_coercion and p.id == f"coerce_{p.rhs[0].kind}_into_{p.result_kind.name}":
            lines.append(f"coerce {p.rhs[0].kind} into {p.result_kind.name}")
            continue
        items = " ".join(
            f'"{i.text}"' if isinstance(i, Lit) else i.kind for i in p.rhs
        )
        lines.append(f"rule {p.id} : {p.result_kind.name} ::= {items}")
    by_kind = {}
    for decl in g.variables.values():
        by_kind.setdefault(decl.kind.name, []).append(decl.name)
    for kname, names in by_kind.items():
        lines.append(f"var {' '.join(names)} : {kname}")
    for a in d.assertions:
        parts = " ".join(f'"{render_string(p)}"' for p in a.premises)
        sep = " " if parts else ""
        lines.append(f'axiom {a.id} : {parts}{sep}=> "{render_string(a.proposition)}"')
    for s in d.statements:
        parts = " ".join(f'"{render_string(p)}"' for p in s.premises)
        sep = " " if parts else ""
        lines.append(f'statement {s.id} : {parts}{sep}=> "{render_string(s.goal)}"')
    return "\n".join(lines) + "\n"
