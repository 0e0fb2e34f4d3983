"""No module of the package or of the tests imports a name it never uses.

A name counts as used when the module reads it anywhere (`name` or
`name.attr`). `__init__.py` re-exports what it imports, and
`from __future__` imports are directives, so neither is checked.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted([p for p in (ROOT / "src" / "outfitrec").glob("*.py")
                  if p.name != "__init__.py"]
                 + list((ROOT / "tests").glob("*.py")))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in used]


def test_checker_flags_an_unused_name():
    assert unused_imports("import math\nfrom os import path, sep\n"
                          "print(path.join(sep))\n") == ["line 1: math"]


@pytest.mark.parametrize("path", MODULES,
                         ids=[f"{p.parent.name}/{p.name}" for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
