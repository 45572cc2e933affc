"""Module boundaries of the rieffel package, read from its source with ast.

No module imports a private (underscore) name from a sibling module, and
every relative import sits at module level, so each module's dependencies
are listed in its header.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "rieffel"
MODULES = sorted(SRC.glob("*.py"))


def relative_imports(tree):
    """(node, enclosing function name or None) for each `from .x import ...`."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ImportFrom) and child.level > 0:
                found.append((child, func))
            inner = child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func
            visit(child, inner)
    visit(tree, None)
    return found


def test_modules_found():
    assert {"grids.py", "quantization.py", "symbolic_calculus.py"} <= {
        p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_private_or_local_relative_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    problems = []
    for node, func in relative_imports(tree):
        private = [a.name for a in node.names if a.name.startswith("_")]
        if private:
            problems.append(f"line {node.lineno}: private {private} from .{node.module}")
        if func is not None:
            problems.append(f"line {node.lineno}: import from .{node.module} inside {func}()")
    assert not problems, "\n".join(problems)


def test_guard_detects_violations():
    bad = ast.parse("from .a import _x\n\ndef f():\n    from .b import y\n")
    found = relative_imports(bad)
    assert [(n.module, f) for n, f in found] == [("a", None), ("b", "f")]
