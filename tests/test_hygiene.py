"""Source hygiene checks that need no linter: every name a module imports is
used in that module. ``__init__.py`` is skipped, because its imports are the
package's re-exports."""

import ast
from pathlib import Path

import pytest

import wavedetect

MODULES = sorted(p for p in Path(wavedetect.__file__).parent.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    """{bound name: line} of every import outside ``from __future__``."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree):
    """Every name the module loads, including those inside string annotations."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            annotations.append(node.returns)
    for note in annotations:
        if isinstance(note, ast.Constant) and isinstance(note.value, str):
            used |= {n.id for n in ast.walk(ast.parse(note.value, mode="eval")) if isinstance(n, ast.Name)}
    return used


def test_modules_found():
    assert {"nn.py", "model.py", "streaming.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"
