"""No module under ``src/``, ``scripts/`` or ``tests/`` imports a name it never
uses, and no function under ``src/`` imports anything.

Stdlib ``ast`` scans.  Every name an import binds must appear as a name
somewhere else in the same file; package ``__init__.py`` files (whose imports
are re-exports) and ``from __future__`` imports are skipped there.  Package
imports belong at module level, where import cycles show at once.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for name, line in imported.items()
        if name not in used
    ]


def test_no_unused_imports():
    files = [
        p
        for d in ("src", "scripts", "tests")
        for p in sorted((ROOT / d).rglob("*.py"))
        if p.name != "__init__.py"
    ]
    assert files
    assert [u for p in files for u in unused_imports(p)] == []


def function_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = {
        inner.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(node)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    }
    return [f"{path.relative_to(ROOT)}:{line}" for line in sorted(lines)]


def test_no_function_local_imports():
    files = sorted((ROOT / "src").rglob("*.py"))
    assert files
    assert [f for p in files for f in function_imports(p)] == []
