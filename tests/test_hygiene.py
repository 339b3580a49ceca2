"""Source hygiene: no module in ``src/`` or ``tests/`` imports a name it
never uses.  Stdlib only; the scan reads each file with ``ast``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _unused_imports(path):
    """(line, name) for each name bound by an import and never read.

    ``from __future__ import ...`` is a compiler switch, not a binding.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_no_unused_imports():
    found = []
    for top in ("src", "tests"):
        for path in sorted((ROOT / top).rglob("*.py")):
            found += [f"{path.relative_to(ROOT)}:{line}: {name}"
                      for line, name in _unused_imports(path)]
    assert not found, "unused imports:\n" + "\n".join(found)
