"""Spans around calls into plf, recorded from outside the program.

A boundary is a function looked up by name in the namespace of the module
that calls it, for example ``unify_substitutions`` in ``plf.search``.  While
the tracer is installed each such name is bound to a wrapper that records one
span per call: boundary, start, end, parent span and item id.  Spans stay in
memory (flat arrays) until the run ends; self time is a span's duration minus
the durations of its direct children.

A boundary whose name the module no longer has is reported as absent and
skipped, so the run survives refactors that move or fold functions.
"""

from __future__ import annotations

import gzip
import importlib
import time
from array import array
from functools import wraps


def _tokens(args, result):
    return len(args[1])


def _bytes(args, result):
    return len(result.encode("utf-8"))


# (boundary, calling module, attribute, amount recorded per call or None)
BOUNDARIES = [
    ("system.load_system", "plf.system", "load_system", None),
    ("grammar.parse_any_kind", "plf.system", "parse_any_kind", _tokens),
    ("grammar.parse_any_kind", "plf.proof", "parse_any_kind", _tokens),
    ("search.expand_enode", "plf.search", "expand_enode", None),
    ("search.propagate_anode", "plf.search", "propagate_anode", None),
    ("search.propagate_enode", "plf.search", "propagate_enode", None),
    ("search.extract_proof", "plf.search", "extract_proof", None),
    ("term.unify_substitutions", "plf.search", "unify_substitutions", None),
    ("term.compose", "plf.search", "compose", None),
    ("term.restrict", "plf.search", "restrict", None),
    ("term.unify_expressions", "plf.search", "unify_expressions", None),
    ("term.match_expression", "plf.search", "match_expression", None),
    ("proof.check_statement_proof", "plf.proof", "check_statement_proof", None),
    ("proof.serialize_proof", "plf.proof", "serialize_proof", _bytes),
    ("proof.parse_proof", "plf.proof", "parse_proof", None),
    ("oracle.saturate", "plf.oracle", "saturate", None),
    ("oracle.expression_universe", "plf.oracle", "expression_universe", None),
    # apply is recursive through plf.term; only the oracle's calls are timed
    ("term.apply", "plf.oracle", "apply", None),
]


class Tracer:
    def __init__(self, boundaries=BOUNDARIES):
        self.boundaries = boundaries
        self.names = sorted({b[0] for b in boundaries})
        self.absent = []  # "module.attr" of boundaries the program lacks
        self.installed = set()  # boundary names with at least one wrapper
        self.item = None  # item index while recording; -1 for set-up
        self._name = array("H")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._item = array("i")
        self._amount = array("q")
        self._stack = [-1]
        self._saved = []
        self._t0 = time.perf_counter()

    def install(self):
        for name, module, attr, amount in self.boundaries:
            mod = importlib.import_module(module)
            fn = getattr(mod, attr, None)
            if not callable(fn):
                self.absent.append(f"{module}.{attr}")
                continue
            self._saved.append((mod, attr, fn))
            self.installed.add(name)
            setattr(mod, attr, self._wrap(fn, self.names.index(name), amount))

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, index, amount):
        clock = time.perf_counter
        stack = self._stack
        names, starts, ends = self._name, self._start, self._end
        parents, items, amounts = self._parent, self._item, self._amount

        @wraps(fn)
        def traced(*args, **kwargs):
            if self.item is None:  # between items: the benchmark's own checks
                return fn(*args, **kwargs)
            span = len(names)
            names.append(index)
            parents.append(stack[-1])
            items.append(self.item)
            starts.append(0.0)
            ends.append(0.0)
            amounts.append(0)
            stack.append(span)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                starts[span] = started
                stack.pop()
            if amount is not None:
                amounts[span] = amount(args, result)
            return result

        return traced

    def totals(self) -> dict:
        """Per boundary: calls, inclusive seconds, self seconds, amount."""
        n = len(self._name)
        child = [0.0] * n
        for i in range(n):
            p = self._parent[i]
            if p >= 0:
                child[p] += self._end[i] - self._start[i]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0, "amount": 0} for name in self.names}
        for i in range(n):
            entry = out[self.names[self._name[i]]]
            duration = self._end[i] - self._start[i]
            entry["calls"] += 1
            entry["s"] += duration
            entry["self_s"] += duration - child[i]
            entry["amount"] += self._amount[i]
        return out

    def write(self, path):
        """All spans as gzipped CSV; times in seconds from tracer creation."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self._t0
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as out:
            out.write("span,name,start_s,end_s,parent,item,amount\n")
            for i in range(len(self._name)):
                out.write(
                    f"{i},{self.names[self._name[i]]},{self._start[i] - t0:.7f},"
                    f"{self._end[i] - t0:.7f},{self._parent[i]},{self._item[i]},"
                    f"{self._amount[i]}\n"
                )
