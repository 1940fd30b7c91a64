"""The four workloads: inputs made from the seed, the timed operation on one
item, and the untimed check of its result.

Every workload's content is frozen (data/ladder.pls and the corpus of
randsys.py with seed 20260810); the seed shuffles the item order and renames
the statement variables and literal tokens, which changes the input text but
not the work.  Digests are taken after mapping names back, so a verdict or
proof digest means the same thing under every seed.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import randsys

DATA = Path(__file__).resolve().parent / "data"
CORPUS_SEED = 20260810
CORPUS_SYSTEMS = 150
FAST = ["id", "a1d", "com12", "imim2", "syl", "a2i", "mpd", "mpi", "sylcom",
        "pm2.43i", "idd", "a1i", "mp2", "syl6"]
HARD = ["syld", "imim1", "syl5"]
CHAIN_DEPTHS = range(1, 19)
CORRUPT_DEPTH = 18
LADDER_NAMES = ["p", "q", "r", "s"]
CORPUS_NAMES = ["x", "y", "z", "ca", "cb", "cs", "f", "g"]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class Renaming:
    """A seed-drawn bijection on whole tokens, and its inverse."""

    def __init__(self, seed: int, names):
        rng = random.Random(f"{seed}/names")
        shown = []
        while len(shown) < len(names):
            name = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(3))
            name += str(rng.randrange(10))
            if name not in shown:
                shown.append(name)
        self._forward = self._compile(dict(zip(names, shown)))
        self._backward = self._compile(dict(zip(shown, names)))

    @staticmethod
    def _compile(mapping):
        alternatives = "|".join(re.escape(k) for k in sorted(mapping, key=len, reverse=True))
        pattern = re.compile(rf"(?<![\w.#])(?:{alternatives})(?![\w.#])")
        return lambda text: pattern.sub(lambda m: mapping[m.group(0)], text)

    def apply(self, text: str) -> str:
        return self._forward(text)

    def canonical(self, text: str) -> str:
        return self._backward(text)


@dataclass
class Item:
    key: str  # canonical id, the same under every seed
    system: int  # index into the workload's systems
    statement: str
    arg: object = None  # limits, bounds or proof text


@dataclass
class Judgement:
    verdict: str
    digest: str
    ok: bool
    counts: dict = field(default_factory=dict)
    note: str = ""


@dataclass
class Workload:
    name: str
    texts: list  # .pls texts, loaded by set-up
    items: list
    run: Callable  # (plf, systems, item) -> result; the timed part
    judge: Callable  # (plf, systems, item, result) -> Judgement; untimed
    positive: str  # the verdict proved_share counts
    decided: tuple  # the verdicts decided_share counts
    pass_seconds: float  # nominal time of one pass on a 2-core x86 box

    def inputs_digest(self) -> str:
        parts = list(self.texts)
        for item in self.items:
            parts.append(item.key)
            if isinstance(item.arg, str):
                parts.append(item.arg)
        return digest("\0".join(parts))


def _shuffled(items, seed):
    random.Random(f"{seed}/order").shuffle(items)
    return items


# -- search: hilbert and corpus ----------------------------------------------

def _search_run(plf, systems, item):
    """What `plf prove` does: search, re-verify, serialize."""
    d = systems[item.system]
    s = d.statement(item.statement)
    outcome = plf.search.run(plf.search.init_search(d, s), item.arg)
    if not isinstance(outcome, plf.search.Proved):
        return outcome, None, None
    violations = plf.proof.check_statement_proof(d, s, outcome.proof)
    text = None if violations else plf.proof.serialize_proof(outcome.proof)
    return outcome, violations, text


_STATS = ("goal_nodes", "rule_nodes", "certificates", "tuples_tested", "tuples_unified")


def _search_judge(renaming):
    def judge(plf, systems, item, result):
        outcome, violations, text = result
        counts = {f"search.{k}": getattr(outcome.stats, k, None) for k in _STATS}
        verdict = type(outcome).__name__.lower()
        if isinstance(outcome, plf.search.LimitReached):
            verdict += ":" + outcome.limit
        if not isinstance(outcome, plf.search.Proved):
            return Judgement(verdict, "-", True, counts)
        if violations:
            return Judgement(verdict, "-", False, counts, f"checker: {violations[0]}")
        tree = plf.proof.parse_proof(text, systems[item.system])
        same = tree == outcome.proof and plf.proof.serialize_proof(tree) == text
        return Judgement(verdict, digest(renaming.canonical(text)), same, counts,
                         "" if same else "round trip differs")

    return judge


def _ladder_text(renaming):
    return renaming.apply((DATA / "ladder.pls").read_text(encoding="utf-8"))


def hilbert(plf, seed):
    fast = plf.search.SearchLimits(max_depth=8, max_nodes=100_000,
                                   max_spts_per_node=1000, timeout=60.0)
    # the cap makes each hard statement explore the whole depth-8 tree and
    # stop on the depth limit: wall time measures speed, not a timeout
    hard = plf.search.SearchLimits(max_depth=8, max_nodes=100_000,
                                   max_spts_per_node=20, timeout=60.0)
    renaming = Renaming(seed, LADDER_NAMES)
    items = [Item(f"hilbert/{sid}", 0, sid, fast) for sid in FAST]
    items += [Item(f"hilbert/{sid}", 0, sid, hard) for sid in HARD]
    return Workload("hilbert", [_ladder_text(renaming)], _shuffled(items, seed),
                    _search_run, _search_judge(renaming), "proved",
                    ("proved", "exhausted"), 6.0)


def corpus(plf, seed):
    limits = plf.search.SearchLimits(max_depth=6, max_nodes=4000,
                                     max_spts_per_node=120, timeout=10.0)
    renaming = Renaming(seed, CORPUS_NAMES)
    texts = [renaming.apply(t) for t in randsys.corpus_texts(CORPUS_SEED, CORPUS_SYSTEMS)]
    items = [Item(f"corpus/{i}/s{j}", i, f"s{j}", limits)
             for i in range(len(texts)) for j in range(4)]
    return Workload("corpus", texts, _shuffled(items, seed), _search_run,
                    _search_judge(renaming), "proved", ("proved", "exhausted"), 4.5)


# -- oracle ----------------------------------------------------------------------

def _oracle_run(plf, systems, item):
    d = systems[item.system]
    try:
        return plf.oracle.saturate(d, d.statement(item.statement), item.arg)
    except plf.errors.UniverseOverflowError:
        return None


def _oracle_judge(renaming, known):
    def judge(plf, systems, item, sat):
        if sat is None:
            found = digest("overflow")
            verdict, counts = "overflow", {}
        else:
            # everything the saturation decided, in canonical names
            rendered = "\n".join(plf.grammar.render_string(e) for e in sat.derived)
            universe = sum(len(v) for v in sat.universe.values())
            found = digest(f"universe={universe}\nrounds={sat.rounds_run}\n"
                           + "\n".join(sorted(renaming.canonical(rendered).split("\n"))))
            goal = systems[item.system].statement(item.statement).goal
            verdict = "derived" if goal in sat.derived else "not-derived"
            counts = {"oracle.universe_members": universe,
                      "oracle.derived": len(sat.derived),
                      "oracle.rounds_run": sat.rounds_run}
        expected = known.get(item.key)
        note = "" if found == expected else f"derived-set digest {found} != recorded {expected}"
        return Judgement(verdict, found, found == expected, counts, note)

    return judge


def oracle(plf, seed, known=None):
    """``known`` maps item keys to recorded digests; by default those of
    data/oracle_known.json (see record_oracle.py)."""
    if known is None:
        known = json.loads((DATA / "oracle_known.json").read_text(encoding="utf-8"))
    bounds = plf.oracle.SaturationBounds
    readme = bounds(max_expression_tokens=17, max_rounds=5)
    acceptance = bounds(max_expression_tokens=5, max_rounds=4, universe_cap=500)
    renaming = Renaming(seed, LADDER_NAMES + CORPUS_NAMES)
    texts = [_ladder_text(renaming)]
    texts += [renaming.apply(t) for t in randsys.corpus_texts(CORPUS_SEED, CORPUS_SYSTEMS)]
    items = [Item("oracle/hilbert/id", 0, "id", readme)]
    items += [Item(f"oracle/corpus/{i}/s{j}", i + 1, f"s{j}", acceptance)
              for i in range(CORPUS_SYSTEMS) for j in range(4)]
    return Workload("oracle", texts, _shuffled(items, seed), _oracle_run,
                    _oracle_judge(renaming, known), "derived",
                    ("derived", "not-derived"), 7.0)


# -- verify ------------------------------------------------------------------

def _chain(k: int) -> str:
    """The goal ( q -> ( q -> ... p ) ) with k implications."""
    text = "p"
    for _ in range(k):
        text = f"( q -> {text} )"
    return text


def chain_proof(depth: int, corrupt: bool = False) -> str:
    """A1/MP proof of p => chain(depth) in the .plp layout serialize_proof uses.
    The corrupted copy gives the innermost A1 step a wrong witness."""
    lines = ['(hyp "p")']
    for k in range(1, depth + 1):
        prev, cur = _chain(k - 1), _chain(k)
        wrong = corrupt and k == 1
        lines = (
            [f'(step "{cur}" by MP with {{ ph := "{prev}" ; ps := "{cur}" }} from']
            + ["  " + line for line in lines]
            + [f'  (step "( {prev} -> {cur} )" by A1 with '
               f'{{ ph := "{prev}" ; ps := "{"p" if wrong else "q"}" }} from))']
        )
    return "\n".join(lines) + "\n"


def _verify_run(plf, systems, item):
    d = systems[item.system]
    tree = plf.proof.parse_proof(item.arg, d)
    return plf.proof.check_statement_proof(d, d.statement(item.statement), tree)


def _verify_judge(renaming):
    def judge(plf, systems, item, violations):
        verdict = "invalid" if violations else "valid"
        expected = "invalid" if item.key.endswith("-corrupt") else "valid"
        return Judgement(verdict, digest(renaming.canonical(item.arg)), verdict == expected,
                         note=f"expected {expected}")

    return judge


def verify(plf, seed):
    renaming = Renaming(seed, LADDER_NAMES)
    head = (DATA / "ladder.pls").read_text(encoding="utf-8").split("\nstatement ")[0]
    statements = [f'statement c{k} : "p" => "{_chain(k)}"' for k in CHAIN_DEPTHS]
    text = renaming.apply(head + "\n" + "\n".join(statements) + "\n")
    items = [Item(f"verify/chain{k}", 0, f"c{k}", renaming.apply(chain_proof(k)))
             for k in CHAIN_DEPTHS]
    items.append(Item(f"verify/chain{CORRUPT_DEPTH}-corrupt", 0, f"c{CORRUPT_DEPTH}",
                      renaming.apply(chain_proof(CORRUPT_DEPTH, corrupt=True))))
    return Workload("verify", [text], _shuffled(items, seed), _verify_run,
                    _verify_judge(renaming), "valid", ("valid", "invalid"), 4.5)


WORKLOADS = {"hilbert": hilbert, "corpus": corpus, "oracle": oracle, "verify": verify}
