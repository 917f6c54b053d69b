"""The benchmark's trace wraps library functions by name (perfbench/spans.py);
every name it lists must exist, or a traced run breaks."""

import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def trace_targets() -> dict:
    # Executed from its source text, so nothing is written beside it.
    namespace: dict = {"__name__": "spans"}
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), namespace)
    return namespace["TARGETS"]


def test_every_trace_target_resolves():
    targets = trace_targets()
    assert targets
    for module, names in targets.items():
        home = importlib.import_module(f"jkpencil.{module}")
        for dotted in names:
            owner, _, attr = dotted.rpartition(".")
            if owner:
                assert callable(getattr(home, owner).__dict__.get(attr)), f"{module}.{dotted}"
            else:
                assert callable(getattr(home, attr, None)), f"{module}.{dotted}"
