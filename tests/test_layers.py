"""The search, the checker and the oracle stay independent: the checker
(``plf.proof``) and the oracle are ground truth for the search only while
they share no code with it.  Read from the import statements of src/plf."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "plf"


def imports(module):
    """Module name -> names taken from it, for every import statement in
    ``plf.<module>`` (function bodies too); a whole module counts as "*"."""
    out = {}
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out.setdefault(alias.name, set()).add("*")
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["plf" if node.level else None, node.module]))
            for alias in node.names:
                if node.module is None:  # from . import <submodule>
                    out.setdefault(f"{base}.{alias.name}", set()).add("*")
                else:
                    out.setdefault(base, set()).add(alias.name)
    return out


def test_checker_and_oracle_import_nothing_from_the_search():
    assert "plf.search" not in imports("proof")
    assert "plf.search" not in imports("oracle")


def test_search_imports_only_the_proof_types():
    found = imports("search")
    assert "plf.oracle" not in found
    assert found["plf.proof"] == {"Inference", "ProofNode"}


def test_oracle_shares_only_the_witness_type_and_variables_of_with_the_kernel():
    assert imports("oracle")["plf.term"] == {"Substitution", "variables_of"}
