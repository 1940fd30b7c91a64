"""Command-line front end: prove / verify / oracle.

Exit codes: 0 success (proved, verified, derived), 1 honest failure (no
proof within limits, invalid proof, goal not derived), 2 usage or load
errors.  Diagnostics go to stderr; proofs, statistics and violations go to
stdout or the requested output file.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import FrameworkError
from .oracle import SaturationBounds, dump_derived, saturate
from .proof import check_statement_proof, parse_proof, serialize_proof
from .search import Exhausted, LimitReached, Proved, SearchLimits, init_search, run
from .system import load_system


def _load(path: str):
    return load_system(Path(path).read_text(encoding="utf-8"))


def cmd_prove(args) -> int:
    system = _load(args.system)
    statement = system.statement(args.statement)
    trace = (lambda line: print(line, file=sys.stderr)) if args.trace else None
    state = init_search(system, statement, trace=trace)
    limits = SearchLimits(
        max_depth=args.max_depth,
        max_nodes=args.max_nodes,
        max_spts_per_node=args.max_spts_per_node,
        timeout=args.timeout,
    )
    outcome = run(state, limits)
    for line in outcome.stats.summary_lines():
        print(line)
    if isinstance(outcome, Proved):
        violations = check_statement_proof(system, statement, outcome.proof)
        if violations:  # re-verification gate: never claim success on a bad proof
            for v in violations:
                print(f"internal error: emitted proof failed verification {v}", file=sys.stderr)
            return 1
        text = serialize_proof(outcome.proof)
        if args.output:
            Path(args.output).write_text(text, encoding="utf-8")
        else:
            print(text, end="")
        return 0
    if isinstance(outcome, Exhausted):
        print("not provable: the variant tree was exhausted", file=sys.stderr)
    elif isinstance(outcome, LimitReached):
        print(f"no proof found: {outcome.limit} limit reached", file=sys.stderr)
    return 1


def cmd_verify(args) -> int:
    system = _load(args.system)
    statement = system.statement(args.statement)
    tree = parse_proof(Path(args.proof).read_text(encoding="utf-8"), system)
    violations = check_statement_proof(system, statement, tree)
    if not violations:
        print("valid")
        return 0
    for v in violations:
        print(f"violation {v}")
    return 1


def cmd_oracle(args) -> int:
    system = _load(args.system)
    statement = system.statement(args.statement)
    bounds = SaturationBounds(
        max_expression_tokens=args.max_size,
        max_rounds=args.max_rounds,
    )
    sat = saturate(system, statement, bounds)
    if args.dump_derived:
        Path(args.dump_derived).write_text(dump_derived(sat), encoding="utf-8")
    universe_size = sum(len(v) for v in sat.universe.values())
    print(f"universe={universe_size}")
    print(f"derived={len(sat.derived)}")
    print(f"rounds={sat.rounds_run}")
    if statement.goal in sat.derived:
        print("goal derived")
        return 0
    print("goal not derived", file=sys.stderr)
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plf",
        description="Proof search and verification for pure logical frameworks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    prove = sub.add_parser("prove", help="search for a proof of a statement")
    prove.add_argument("system", help="path to a .pls system definition")
    prove.add_argument("--statement", required=True, help="statement id to prove")
    prove.add_argument("--max-depth", type=int, default=8)
    prove.add_argument("--max-nodes", type=int, default=100_000)
    prove.add_argument("--max-spts-per-node", type=int, default=1000)
    prove.add_argument("--timeout", type=float, default=60.0, help="seconds")
    prove.add_argument("-o", "--output", help="write the .plp proof here")
    prove.add_argument("--trace", action="store_true", help="emit search events on stderr")
    prove.set_defaults(func=cmd_prove)

    verify = sub.add_parser("verify", help="check a .plp proof against a statement")
    verify.add_argument("system")
    verify.add_argument("proof", help="path to a .plp proof file")
    verify.add_argument("--statement", required=True)
    verify.set_defaults(func=cmd_verify)

    oracle = sub.add_parser("oracle", help="brute-force saturation over a bounded universe")
    oracle.add_argument("system")
    oracle.add_argument("--statement", required=True)
    oracle.add_argument("--max-size", type=int, default=17, help="universe token budget")
    oracle.add_argument("--max-rounds", type=int, default=5)
    oracle.add_argument("--dump-derived", help="write derived expressions here, sorted")
    oracle.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FrameworkError, OSError, RecursionError) as exc:
        # RecursionError: input nested deeper than the recursive walkers allow
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
