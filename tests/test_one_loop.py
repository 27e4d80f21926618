"""One event loop: outside `book.py`, which defines it, exactly one function
of the package calls `match_chunks`, and every simulation and coupling check
folds its recorders through that function.  No module of the package defines
or names `match_arrivals`, the loop run as one chunk, which only the tests
use (`tests/helpers.py`), and neither `lyapunov.py` nor `coupling.py` names a
loop entry, so no simulation or check there runs a loop, or keeps a whole-run
log, of its own.
"""

import ast
from pathlib import Path

import pytest

from test_imports import MODULES, SRC

LOOPS = {"match_chunks", "match_arrivals"}


def callers(path: Path, name: str) -> set[str]:
    """The functions of the module at `path` (module.function, innermost
    function) that call `name`, as a bare name or as an attribute."""
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call):
            func = node.func
            if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == name:
                found.add(f"{path.stem}.{where}")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(path.read_text()), "<module>")
    return found


def names_in(path: Path) -> set[str]:
    """Every name, attribute, imported name, defined function or class and
    string constant (an `__all__` entry, say) in the module at `path`."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names |= {a.name for a in node.names}
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_one_function_calls_match_chunks():
    found = set().union(*(callers(p, "match_chunks") for p in MODULES if p.name != "book.py"))
    assert found == {"sim._fold"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_defines_or_names_match_arrivals(path):
    assert "match_arrivals" not in names_in(path)


def test_lyapunov_names_no_event_loop():
    assert names_in(SRC / "lyapunov.py") & LOOPS == set()


def test_coupling_names_no_event_loop():
    assert names_in(SRC / "coupling.py") & LOOPS == set()


def test_finds_calls_and_names(tmp_path):
    module = tmp_path / "runs.py"
    module.write_text("from .book import match_arrivals\n"
                      "def outer():\n"
                      "    def inner():\n"
                      "        return book.match_chunks()\n"
                      "    return match_arrivals\n"
                      "match_chunks()\n")
    assert callers(module, "match_chunks") == {"runs.inner", "runs.<module>"}
    assert callers(module, "match_arrivals") == set()
    assert names_in(module) & LOOPS == LOOPS


def test_finds_definitions_and_exports(tmp_path):
    module = tmp_path / "book.py"
    module.write_text('__all__ = ["match_chunks"]\n'
                      "def match_arrivals():\n"
                      '    """Runs match_chunks once."""\n')
    assert names_in(module) & LOOPS == LOOPS
