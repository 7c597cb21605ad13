"""Every reference implementation kept in ``src/repro`` is used by a test.

A slow variant that a faster path replaced stays in the package only as
the oracle a test checks the fast path against. This scan finds each
function whose docstring calls it one -- a summary line that opens with
"Reference", or a docstring naming the function "the oracle" -- and
fails when no file under ``tests/`` mentions it by name: an oracle that
no test consults is dead code. The scan reads the source with
:mod:`ast`; nothing is imported.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"
TESTS = ROOT / "tests"

#: "... (the oracle)", "kept as the oracle ...", "use it as the oracle ..."
_ORACLE = re.compile(r"\(the oracle\)|\bas the oracle\b")


def is_oracle_docstring(doc: str) -> bool:
    """True when ``doc`` calls its function a reference implementation
    or an oracle."""
    return doc.lstrip().startswith("Reference") or bool(
        _ORACLE.search(" ".join(doc.split()))
    )


def oracles() -> dict[str, str]:
    """Oracle function name -> the source file that defines it."""
    found: dict[str, str] = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            doc = ast.get_docstring(node)
            if doc and is_oracle_docstring(doc):
                found[node.name] = str(path.relative_to(ROOT))
    return found


def test_docstring_classifier():
    assert is_oracle_docstring("Reference implementation: subset test.")
    assert is_oracle_docstring("Row-wise parse of whole lines (the oracle).")
    assert is_oracle_docstring("Exact miner.\n\nKept as the\noracle of tests.")
    assert not is_oracle_docstring("The oracle: every pair computed exactly.")
    assert not is_oracle_docstring("Matches the per-replicate loop oracle.")


def test_the_scan_finds_oracles():
    assert oracles(), "no oracle docstring found under src/repro"


def test_every_oracle_is_referenced_from_tests():
    this_file = Path(__file__).resolve()
    corpus = "\n".join(
        path.read_text()
        for path in sorted(TESTS.rglob("*.py"))
        if path.resolve() != this_file
    )
    unused = {
        name: where
        for name, where in oracles().items()
        if not re.search(rf"\b{re.escape(name)}\b", corpus)
    }
    assert not unused, (
        f"oracles no test references (delete them, or test against "
        f"them): {unused}"
    )
