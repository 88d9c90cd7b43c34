"""Every module uses what it imports.

No linter is assumed installed, so this walks the syntax tree of each module
under src/ and tests/ and lists imported names that are never read. Package
`__init__.py` files (re-exports) and `__future__` imports are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in imported.items() if name not in read]


def test_no_unused_imports():
    files = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py")
                   if p.name != "__init__.py")
    assert len(files) > 10
    unused = [entry for p in files for entry in _unused_imports(p)]
    assert not unused, "unused imports:\n" + "\n".join(unused)
