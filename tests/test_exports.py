"""The package's export list: `jkpencil.__all__` names every public name
that `import jkpencil` binds, each once, and each name resolves."""

import types

import jkpencil


def test_every_exported_name_resolves():
    assert [name for name in jkpencil.__all__ if not hasattr(jkpencil, name)] == []


def test_export_list_has_no_duplicates():
    assert len(jkpencil.__all__) == len(set(jkpencil.__all__))


def test_every_public_name_bound_is_exported():
    public = {
        name
        for name, value in vars(jkpencil).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(public - set(jkpencil.__all__)) == []
