"""The symbolic kernel: substitutions and their algebra.

Substitutions are finite, kind-conforming maps from replaceable variables to
expressions.  Matching is one-way (pattern variables bind, everything else is
rigid); unification is two-way over the replaceable variables of both sides
with an occurs check; unification of a *set of substitutions* finds the most
general delta making all of them coincide after composition, which is the
engine's way of reconciling independently proved premises.  It is returned
triangular, so a caller resolves only the terms it reads.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .errors import KindMismatchError
from .grammar import Apply, Expression, Var, render_string


class Substitution:
    """Immutable variable-to-expression map.

    Identity bindings are dropped, the domain is restricted to replaceable
    variables, and every binding must be kind-conforming.  Entries are kept
    sorted by variable name so iteration, rendering and hashing are stable.
    """

    __slots__ = ("_bindings", "_hash")

    def __init__(self, bindings=()):
        items = bindings.items() if isinstance(bindings, (dict, Substitution)) else bindings
        cleaned = {}
        for var, image in items:
            if image.__class__ is Var and image == var:
                continue
            if not var.replaceable:
                raise ValueError(f"cannot bind non-replaceable variable {var.name!r}")
            if image.kind.name not in var.kind.accepts:
                raise KindMismatchError(
                    f"{var.name}:{var.kind.name} cannot take an expression of kind "
                    f"{image.kind.name}"
                )
            cleaned[var] = image
        if len(cleaned) > 1:
            cleaned = dict(sorted(cleaned.items(), key=lambda kv: kv[0].name))
        self._bindings = cleaned
        self._hash = None

    def __getitem__(self, var):
        return self._bindings[var]

    def get(self, var, default=None):
        return self._bindings.get(var, default)

    def items(self):
        return self._bindings.items()

    def __contains__(self, var):
        return var in self._bindings

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


def apply(s: Substitution, e: Expression) -> Expression:
    """Replace every bound replaceable-variable occurrence in ``e``."""
    if e.__class__ is Var:
        return s._bindings.get(e, e) if e.replaceable else e
    if not e.open:
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
    merged = {v: apply(outer, img) for v, img in inner._bindings.items()}
    for v, img in outer._bindings.items():
        if v not in merged:
            merged[v] = img
    return Substitution(merged)


def restrict(s: Substitution, variables: Iterable[Var]) -> Substitution:
    keep = set(variables)
    return Substitution({v: e for v, e in s._bindings.items() if v in keep})


def variables_of(e: Expression) -> set:
    """All variable leaves of ``e`` (a flag-insensitive set).  A variable
    with a replaceable occurrence is represented by one, so the replaceable
    members are exactly the variables that a substitution may still bind."""
    out = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if node.__class__ is Var:
            if node.replaceable:
                out.discard(node)  # a frozen twin must not stand for it
            out.add(node)
        else:
            stack.extend(node.children)
    return out


def freeze_expression(e: Expression) -> Expression:
    """Copy of ``e`` with every variable marked non-replaceable.  Closed
    subterms are returned as they are.  The walk keeps its own stack, so
    nesting depth is not limited by Python's recursion limit."""
    done = []  # frozen subterms, in the order their parents consume them
    frozen = {}  # variable -> its frozen copy
    stack = [e]
    while stack:
        node = stack.pop()
        if node.__class__ is tuple:  # (apply,): its frozen children are done
            node = node[0]
            n = len(node.children)
            done[-n:] = [Apply(node.production, tuple(done[-n:]))]
        elif node.__class__ is Var:
            if node.replaceable:
                copy = frozen.get(node)
                if copy is None:
                    copy = frozen[node] = Var(node.name, node.kind, False)
                node = copy
            done.append(node)
        elif node.open:
            stack.append((node,))
            stack.extend(reversed(node.children))
        else:
            done.append(node)
    return done[0]


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
            if not isinstance(tgt, Apply) or (
                tgt.production is not pat.production and tgt.production != pat.production
            ):
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
    return v.__class__ is Var and v.replaceable and t.kind.name in v.kind.accepts


def _occurs(v: Var, t: Expression, bound: dict) -> bool:
    """Does ``v`` occur in ``t`` with the bindings applied?  Like ``==``, the
    check ignores the replaceable flag, so a frozen ``v`` counts too."""
    if t.__class__ is Var:
        return False  # the caller has checked that t != v
    stack = [t]
    entered = set()
    while stack:
        node = stack.pop()
        if node.__class__ is Var:
            if node.replaceable:
                image = bound.get(node)
                if image is not None:
                    if node not in entered:
                        entered.add(node)
                        stack.append(image)
                    continue
            if node == v:
                return True
        else:
            stack.extend(node.children)
    return False


def resolve(bound: dict, memo: dict, t: Expression) -> Expression:
    """``t`` with the triangular bindings ``bound`` applied until none is
    left: ``apply(delta, t)`` for the idempotent unifier ``delta``.  ``memo``
    keeps each bound variable's resolved image, so calls sharing it resolve
    each variable once.  The walk keeps its own stack of frames: a frame
    ``[node, resolved children, changed]`` per open Apply being rebuilt, and
    ``[var, None, None]`` per bound variable whose image is being resolved."""
    frames = []
    while True:
        while True:  # down to a finished value, opening frames on the way
            if t.__class__ is Var:
                if t.replaceable:
                    value = memo.get(t)
                    if value is None:
                        image = bound.get(t)
                        if image is not None:
                            frames.append([t, None, None])
                            t = image
                            continue
                        value = t
                else:
                    value = t
                break
            if not t.open:
                value = t
                break
            frames.append([t, [], False])
            t = t.children[0]
        while frames:  # up until a frame still needs a child
            frame = frames[-1]
            node, kids = frame[0], frame[1]
            if kids is None:
                memo[node] = value
                frames.pop()
                continue
            children = node.children
            if value is not children[len(kids)]:
                frame[2] = True
            kids.append(value)
            if len(kids) < len(children):
                t = children[len(kids)]
                break
            frames.pop()
            value = Apply(node.production, tuple(kids)) if frame[2] else node
        else:
            return value


def _unify_pairs(pairs) -> Optional[dict]:
    """Robinson unification with occurs check over a worklist of pairs: the
    triangular unifier (an image may mention variables bound later), or
    None.  ``resolve`` applies it.

    Non-replaceable variables behave as constants.  Each popped pair is
    dereferenced lazily.  Pairs are taken in the same order, and the left
    side is preferred as the bound variable, as in eager Robinson
    unification (which rewrites the worklist after every binding), so
    resolving every bound variable gives the same dict.  Dereferencing and
    the occurs check use explicit stacks, so term depth is not limited by
    Python's recursion limit there.
    """
    bound = {}
    work = list(pairs)
    while work:
        left, right = work.pop()
        while left.__class__ is Var and left.replaceable and left in bound:
            left = bound[left]
        while right.__class__ is Var and right.replaceable and right in bound:
            right = bound[right]
        if left is right:
            continue
        if left.__class__ is Apply and right.__class__ is Apply:
            if left.production is not right.production and left.production != right.production:
                return None
            if left.open or right.open:
                # ``==`` ignores the replaceable flag but bindings do not, so
                # an open pair is compared part by part, as resolved
                work.extend(zip(left.children, right.children))
            elif left != right:
                return None  # distinct terms without a bindable variable
            continue
        if left == right:
            continue  # variables, unbound or frozen: equal as resolved
        if _bindable(left, right):
            var, image = left, right
        elif _bindable(right, left):
            var, image = right, left
        else:
            return None
        if _occurs(var, image, bound):
            return None
        bound[var] = image
    return bound


def unify_expressions(e1: Expression, e2: Expression) -> Optional[Substitution]:
    """Most general substitution making both sides equal, or None."""
    bound = _unify_pairs([(e1, e2)])
    return None if bound is None else unifier_delta(bound)


def unify_substitutions(subs: Sequence[Substitution]) -> Optional[dict]:
    """The triangular unifier of the substitutions, or None when none exists.

    It stands for the most general ``delta`` with ``compose(delta, s_i)``
    all equal, and ``com`` is that common composite; ``unifier_delta`` and
    ``unifier_com`` build them, and ``resolve`` maps a single term through
    ``delta``.  The empty sequence unifies trivially.
    """
    maps = [s._bindings for s in subs]
    domain = sorted({v for m in maps for v in m}, key=lambda v: v.name)
    pairs = []
    for a, b in zip(maps, maps[1:]):
        for v in domain:
            pairs.append((a.get(v, v), b.get(v, v)))
    return _unify_pairs(pairs)


def unifier_delta(bound) -> Substitution:
    """The idempotent unifier of triangular bindings: every bound variable
    resolved."""
    if not bound:
        return EMPTY
    memo = {}
    return Substitution({v: resolve(bound, memo, v) for v in bound})


def unifier_com(bound, first: Substitution) -> Substitution:
    """The composite ``compose(delta, first)`` of the triangular unifier of
    substitutions whose first is ``first``: what each of them becomes."""
    return compose(unifier_delta(bound), first) if bound else first
