"""The package's export list: `jkpencil.__all__` names every public name
that `import jkpencil` binds, each once, and each name resolves.

`import jkpencil` binds the error classes alone and every other name on
first access, so the checks below run after every name has been resolved
once; a package namespace that is nearly empty would pass them trivially.
"""

import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import jkpencil

for _name in jkpencil.__all__:
    getattr(jkpencil, _name)


def test_every_exported_name_resolves():
    assert [name for name in jkpencil.__all__ if not hasattr(jkpencil, name)] == []
    assert sorted(set(jkpencil.__all__) - set(vars(jkpencil))) == []


def test_export_list_has_no_duplicates():
    assert len(jkpencil.__all__) == len(set(jkpencil.__all__))


def test_every_public_name_bound_is_exported():
    public = {
        name
        for name, value in vars(jkpencil).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(public - set(jkpencil.__all__)) == []


def test_dir_lists_every_exported_name_before_it_is_bound():
    """In a fresh interpreter, where no name past the errors is bound yet."""
    code = "import jkpencil; print(sorted(set(jkpencil.__all__) - set(dir(jkpencil))))"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        jkpencil.no_such_name
    assert not hasattr(jkpencil, "no_such_name")
