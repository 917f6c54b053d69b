"""The package imports nothing outside the Python standard library."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "jkpencil"


def outside_imports(source: str, filename: str = "<source>") -> list[str]:
    """Absolute imports in `source` whose top-level name is not a standard
    library module, as "filename:line name"; relative imports are the
    package's own."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [
            f"{filename}:{node.lineno} {name}"
            for name in names
            if name.split(".")[0] not in sys.stdlib_module_names
        ]
    return found


def test_the_guard_sees_absolute_imports_only():
    source = (
        "import os, numpy.linalg\nfrom sympy import Matrix\nfrom . import linalg\nfrom .errors import X\n"
        "def f():\n    from .pencil import Y\n    import scipy\n"
    )
    assert outside_imports(source) == ["<source>:1 numpy.linalg", "<source>:2 sympy", "<source>:7 scipy"]


def test_package_imports_only_the_standard_library():
    sources = sorted(SRC.glob("*.py"))
    assert len(sources) >= 10
    outside = [
        hit for path in sources for hit in outside_imports(path.read_text(encoding="utf-8"), path.name)
    ]
    assert outside == []
