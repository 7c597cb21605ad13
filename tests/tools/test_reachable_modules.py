"""Every module under ``src/repro`` is reachable from another one.

A module no other package module imports, that is no package of an
imported module and that runs as no entry point is dead weight: nothing
in the engine can call it, so only its own tests keep it alive. The
scan reads the source with :mod:`ast` (nothing is imported), counting
every import statement anywhere in a module's body -- lazy imports in a
function included -- and ``from package import submodule`` as an
import of the submodule. The package imports absolutely throughout.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"


def module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def imported_names(tree: ast.AST) -> set[str]:
    """The dotted names ``tree``'s import statements name."""
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.add(node.module)
            found.update(f"{node.module}.{alias.name}" for alias in node.names)
    return found


def is_entry_point(tree: ast.Module) -> bool:
    """True when the module has a top-level ``if __name__ == "__main__":``."""
    return any(
        isinstance(node, ast.If)
        and isinstance(node.test, ast.Compare)
        and isinstance(node.test.left, ast.Name)
        and node.test.left.id == "__name__"
        and any(
            isinstance(c, ast.Constant) and c.value == "__main__"
            for c in node.test.comparators
        )
        for node in tree.body
    )


def unreached_modules() -> list[str]:
    trees = {
        module_name(path): ast.parse(path.read_text())
        for path in sorted((SRC / "repro").rglob("*.py"))
    }
    imported: set[str] = set()
    for name, tree in trees.items():
        imported |= imported_names(tree) - {name}
    parents = {
        ".".join(name.split(".")[:k])
        for name in imported & trees.keys()
        for k in range(1, name.count(".") + 1)
    }
    return [
        name
        for name, tree in trees.items()
        if name not in imported and name not in parents and not is_entry_point(tree)
    ]


def test_the_scan_sees_the_package():
    assert {"repro", "repro.cli", "repro.stream.executor"} <= {
        module_name(path) for path in (SRC / "repro").rglob("*.py")
    }
    tree = ast.parse("def f():\n    from repro.stream import executor\n")
    assert imported_names(tree) == {"repro.stream", "repro.stream.executor"}


def test_every_module_is_imported_or_an_entry_point():
    assert unreached_modules() == []
