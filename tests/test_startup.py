"""Each command imports only what it runs.

Every check runs one fresh interpreter and subtracts the modules that a
bare interpreter of the same Python already holds, so it reads the same
on every supported version and whatever `site` loads.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
CATALOG = ["abelian3", "abelian4", "heisenberg3", "aff1", "aff1_abelian2", "so3", "sl2", "e3", "so4"]

# The modules loaded are written to stderr, so that stdout is the command's.
LIST_MODULES = "sys.stderr.write('\\n'.join(sys.modules))"


def loaded(code: str) -> set[str]:
    """The modules that running `code` in a fresh interpreter loads
    beyond those a bare one holds."""
    def modules(source):
        proc = subprocess.run(
            [sys.executable, "-c", source], cwd=ROOT, env=ENV, capture_output=True, text=True, check=True
        )
        return set(proc.stderr.split())

    return modules(f"import sys\n{code}\n{LIST_MODULES}") - modules(f"import sys\n{LIST_MODULES}")


def after_main(*argv: str) -> set[str]:
    return loaded(f"from jkpencil.cli import main\nassert main({list(argv)!r}) == 0")


def test_import_loads_the_errors_alone():
    assert loaded("import jkpencil") == {"jkpencil", "jkpencil.errors"}


def test_catalog_loads_no_analysis_module():
    new = after_main("catalog")
    assert "jkpencil.structure" in new
    for module in ("linalg", "pencil", "smith", "poisson", "multipoly", "unipoly", "liealg"):
        assert f"jkpencil.{module}" not in new
    assert "dataclasses" not in new


def test_pencil_analyze_loads_no_lie_module():
    new = after_main("pencil", "analyze", str(GOLDEN / "kronecker_jordan.pencil.json"), "--format", "json")
    assert "jkpencil.pencil" in new
    for module in ("liealg", "structure", "poisson", "multipoly"):
        assert f"jkpencil.{module}" not in new


def test_catalog_module_run_prints_the_names_without_warnings():
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "jkpencil.cli", "catalog"],
        cwd=ROOT, env=ENV, capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stdout.split(), proc.stderr) == (0, CATALOG, "")
