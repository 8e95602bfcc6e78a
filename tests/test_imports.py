"""No module under ``src/``, ``scripts/`` or ``tests/`` imports a name it never uses.

A stdlib ``ast`` scan: every name an import binds must appear as a name
somewhere else in the same file.  Package ``__init__.py`` files (whose
imports are re-exports) and ``from __future__`` imports are skipped.
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
