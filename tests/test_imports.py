"""Every module uses what it imports, and the package defines nothing unused.

No linter is assumed installed, so this walks the syntax tree of each module
under src/ and tests/ and lists imported names that are never read. Package
`__init__.py` files (re-exports) and `__future__` imports are exempt. It also
lists the package's module-level functions, classes, methods and constants
that nothing in src/, tests/ or bench/ reads.
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


def _definitions(tree: ast.Module):
    """Module-level functions, classes and assigned names, and the methods of
    the classes; dunder names are the language's, not the package's."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            yield from ((item.name, item.lineno) for item in node.body
                        if isinstance(item, ast.FunctionDef))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((t.id, node.lineno) for t in targets if isinstance(t, ast.Name))


def test_every_definition_is_referenced():
    # a read by name or as an attribute; a definition and an import (the
    # __init__ re-export among them) are not reads
    read = set()
    for p in (p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py")):
        for node in ast.walk(ast.parse(p.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    modules = sorted((ROOT / "src" / "lapmaneuver").glob("*.py"))
    assert len(modules) > 5
    unused = [f"{p.relative_to(ROOT)}:{line} {name}" for p in modules
              for name, line in _definitions(ast.parse(p.read_text()))
              if name not in read and not (name.startswith("__") and name.endswith("__"))]
    assert not unused, "defined but never referenced:\n" + "\n".join(unused)
