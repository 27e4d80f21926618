"""Every name a module of the package imports is used there or listed in
its `__all__`.

An import left behind when a caller goes away is dead weight that no other
test would notice.  The exceptions are the `apply_arrival` imports that
`perfbench/tracer.py` looks up by name in three modules, and `__init__.py`,
whose imports are the package's public names.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "lobphase"
KEPT_FOR_TRACER = {("sim", "apply_arrival"), ("coupling", "apply_arrival"),
                   ("lyapunov", "apply_arrival")}


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    return sorted(name for name in imported - used - exported
                  if (path.stem, name) not in KEPT_FOR_TRACER)


MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_finds_an_unused_import(tmp_path):
    module = tmp_path / "sim.py"
    module.write_text("from __future__ import annotations\n"
                      "import os, numpy as np\n"
                      "from .book import BookState, apply_arrival, match_chunks\n"
                      "__all__ = ['BookState']\n"
                      "print(np.pi, match_chunks)\n")
    assert unused_imports(module) == ["os"]
