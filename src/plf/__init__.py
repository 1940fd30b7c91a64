"""plf: proof search and verification for pure logical frameworks.

A deductive system is a typed context-free expression grammar plus a set of
axiomatic assertions; nothing about any particular logic is baked in.  The
package provides a goal-directed proof-search engine built on unification of
substitution sets, an independent witness-checking verifier, and a
brute-force saturation oracle for cross-validation at desk scale.

Only the entry points are re-exported here; everything else lives in its
submodule (``plf.grammar``, ``plf.term``, ``plf.system``, ``plf.proof``,
``plf.search``, ``plf.oracle``, ``plf.errors``).
"""

from .errors import (
    AmbiguousParseError,
    DuplicateIdError,
    FrameworkError,
    GoalNotDerivedError,
    KindMismatchError,
    NoParseError,
    ProofSyntaxError,
    SystemSyntaxError,
    UndeclaredVariableError,
    UnknownAssertionError,
    UnknownKindError,
    UnknownStatementError,
    UniverseOverflowError,
)
from .grammar import render_string
from .oracle import SaturationBounds, saturate
from .proof import (
    Inference,
    ProofNode,
    Violation,
    check_proof,
    check_statement_proof,
    parse_proof,
    serialize_proof,
)
from .search import Exhausted, LimitReached, Proved, SearchLimits, init_search, run
from .system import Assertion, DeductiveSystem, Statement, load_system, render_system

__all__ = [
    "AmbiguousParseError", "DuplicateIdError", "FrameworkError", "GoalNotDerivedError",
    "KindMismatchError", "NoParseError", "ProofSyntaxError", "SystemSyntaxError",
    "UndeclaredVariableError", "UnknownAssertionError", "UnknownKindError",
    "UnknownStatementError", "UniverseOverflowError",
    "Assertion", "DeductiveSystem", "Statement", "load_system", "render_system",
    "Exhausted", "LimitReached", "Proved", "SearchLimits", "init_search", "run",
    "Inference", "ProofNode", "Violation", "check_proof", "check_statement_proof",
    "parse_proof", "serialize_proof",
    "SaturationBounds", "saturate", "render_string",
]
__version__ = "0.1.0"
