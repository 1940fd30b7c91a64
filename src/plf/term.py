"""The symbolic kernel: substitutions and their algebra.

Substitutions are finite, kind-conforming maps from replaceable variables to
expressions.  Matching is one-way (pattern variables bind, everything else is
rigid); unification is two-way over the replaceable variables of both sides
with an occurs check; unification of a *set of substitutions* finds the most
general delta making all of them coincide after composition, which is the
engine's way of reconciling independently proved premises.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence

from .errors import KindMismatchError
from .grammar import Apply, Expression, Var, render_string


class Substitution(Mapping):
    """Immutable variable-to-expression map.

    Identity bindings are dropped, the domain is restricted to replaceable
    variables, and every binding must be kind-conforming.  Entries are kept
    sorted by variable name so iteration, rendering and hashing are stable.
    """

    __slots__ = ("_bindings", "_hash")

    def __init__(self, bindings=()):
        items = bindings.items() if isinstance(bindings, Mapping) else bindings
        cleaned = {}
        for var, image in items:
            if isinstance(image, Var) and image == var:
                continue
            if not var.replaceable:
                raise ValueError(f"cannot bind non-replaceable variable {var.name!r}")
            if image.kind.name not in var.kind.accepts:
                raise KindMismatchError(
                    f"{var.name}:{var.kind.name} cannot take an expression of kind "
                    f"{image.kind.name}"
                )
            cleaned[var] = image
        self._bindings = dict(sorted(cleaned.items(), key=lambda kv: kv[0].name))
        self._hash = None

    def __getitem__(self, var):
        return self._bindings[var]

    def __iter__(self):
        return iter(self._bindings)

    def __len__(self):
        return len(self._bindings)

    def __eq__(self, other):
        if isinstance(other, Substitution):
            return self._bindings == other._bindings
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(tuple(self._bindings.items()))
        return self._hash

    def __str__(self):
        return substitution_text(self)

    def __repr__(self):
        inner = ", ".join(f"{v.name} -> {render_string(e)}" for v, e in self._bindings.items())
        return f"Substitution({{{inner}}})"


EMPTY = Substitution()


def substitution_text(s: Substitution) -> str:
    """Text form used in proof files and traces: ``{ v := "tokens" ; ... }``."""
    if not len(s):
        return "{ }"
    parts = [f'{v.name} := "{render_string(e)}"' for v, e in s.items()]
    return "{ " + " ; ".join(parts) + " }"


def apply(s: Mapping, e: Expression) -> Expression:
    """Replace every bound replaceable-variable occurrence in ``e``."""
    if isinstance(e, Var):
        if e.replaceable:
            image = s.get(e)
            if image is not None:
                return image
        return e
    changed = False
    kids = []
    for child in e.children:
        new = apply(s, child)
        changed = changed or new is not child
        kids.append(new)
    return Apply(e.production, tuple(kids)) if changed else e


def compose(outer: Substitution, inner: Substitution) -> Substitution:
    """The substitution acting as ``outer`` after ``inner``:
    apply(compose(outer, inner), e) == apply(outer, apply(inner, e))."""
    merged = {v: apply(outer, img) for v, img in inner.items()}
    for v, img in outer.items():
        if v not in inner:
            merged[v] = img
    return Substitution(merged)


def restrict(s: Substitution, variables: Iterable[Var]) -> Substitution:
    keep = set(variables)
    return Substitution({v: e for v, e in s.items() if v in keep})


def variables_of(e: Expression) -> set:
    """All variable leaves of ``e`` (flag-insensitive set)."""
    out = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            out.add(node)
        else:
            stack.extend(node.children)
    return out


def replaceable_variables(e: Expression) -> set:
    """Variables with a replaceable occurrence in ``e``."""
    out = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            if node.replaceable:
                out.add(node)
        else:
            stack.extend(node.children)
    return out


def freeze_expression(e: Expression) -> Expression:
    """Copy of ``e`` with every variable marked non-replaceable."""
    if isinstance(e, Var):
        return e if not e.replaceable else Var(e.name, e.kind, False)
    return Apply(e.production, tuple(freeze_expression(c) for c in e.children))


def _contains(e: Expression, v: Var) -> bool:
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            if node == v:
                return True
        else:
            stack.extend(node.children)
    return False


def match_many(pairs) -> Optional[Substitution]:
    """One shared matcher over several (pattern, target) pairs."""
    bound = {}
    stack = list(pairs)
    while stack:
        pat, tgt = stack.pop()
        if isinstance(pat, Var):
            if pat.replaceable:
                seen = bound.get(pat)
                if seen is not None:
                    if seen != tgt:
                        return None
                elif tgt.kind.name in pat.kind.accepts:
                    bound[pat] = tgt
                else:
                    return None
            else:
                if not (isinstance(tgt, Var) and tgt == pat):
                    return None
        else:
            if not isinstance(tgt, Apply) or tgt.production != pat.production:
                return None
            stack.extend(zip(pat.children, tgt.children))
    return Substitution(bound)


def match_expression(pattern: Expression, target: Expression) -> Optional[Substitution]:
    """The unique theta with apply(theta, pattern) == target, if any.

    Only replaceable variables of the pattern may bind; everything in the
    target is rigid.
    """
    return match_many([(pattern, target)])


def _bindable(v: Expression, t: Expression) -> bool:
    return (
        isinstance(v, Var)
        and v.replaceable
        and t.kind.name in v.kind.accepts
    )


def _unify_pairs(pairs) -> Optional[dict]:
    """Robinson unification with occurs check over a worklist of pairs.

    Non-replaceable variables behave as constants.  Bindings are kept fully
    applied, so the result is idempotent.
    """
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
        if _bindable(left, right):
            var, image = left, right
        elif _bindable(right, left):
            var, image = right, left
        else:
            return None
        if _contains(image, var):
            return None
        single = {var: image}
        work = [(apply(single, a), apply(single, b)) for a, b in work]
        unifier = {v: apply(single, img) for v, img in unifier.items()}
        unifier[var] = image
    return unifier


def unify_expressions(e1: Expression, e2: Expression) -> Optional[Substitution]:
    """Most general substitution making both sides equal, or None."""
    raw = _unify_pairs([(e1, e2)])
    return None if raw is None else Substitution(raw)


def unify_substitutions(subs: Sequence[Substitution]):
    """Most general (delta, com) with compose(delta, s_i) all equal.

    ``com`` is that common composite.  The empty sequence unifies trivially.
    Returns None when no unifier exists.
    """
    subs = list(subs)
    if not subs:
        return EMPTY, EMPTY
    domain = sorted({v for s in subs for v in s}, key=lambda v: v.name)
    pairs = []
    for a, b in zip(subs, subs[1:]):
        for v in domain:
            pairs.append((a.get(v, v), b.get(v, v)))
    raw = _unify_pairs(pairs)
    if raw is None:
        return None
    delta = Substitution(raw)
    return delta, compose(delta, subs[0])
