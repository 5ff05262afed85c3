"""Module boundaries of the package, read from its sources."""

import ast
from pathlib import Path

import frameflow

PACKAGE = Path(frameflow.__file__).parent
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def _private_reaches(path: Path) -> list:
    """Each ``from .module import _name`` and ``module._name`` in one source
    file that reaches into another module of the package."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("frameflow")):
            found += [f"{path.name}:{node.lineno} imports {a.name}"
                      for a in node.names if a.name.startswith("_")]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in MODULES - {path.stem} and node.attr.startswith("_")
              and not node.attr.startswith("__")):
            found.append(f"{path.name}:{node.lineno} reads {node.value.id}.{node.attr}")
    return found


def test_no_module_reaches_into_another_modules_private_names():
    assert MODULES >= {"cli", "dynamics", "energies", "spectral"}
    assert [hit for path in sorted(PACKAGE.glob("*.py")) for hit in _private_reaches(path)] == []
