"""Per-module spans, recorded by wrapping jkpencil's public functions at run time.

`Tracer.install()` replaces each function in `TARGETS` with a timing wrapper
in every loaded jkpencil module that binds it (and on its class, for
methods), so calls made inside the library are seen too.  Spans stay in
memory until `write()`.  `uninstall()` puts every original back.  Nothing in
the program's source is changed.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

TARGETS = {
    "pencil": (
        "pencil_rank",
        "characteristic_polynomial",
        "jk_invariants",
        "core_subspace",
        "isotropy_certificate",
        "RegularValueSampler.draw",
    ),
    "linalg": (
        "fraction_free_rank",
        "rank",
        "kernel_basis",
        "subspace_sum",
        "bilinear",
        "PfaffianCache.pfaffian",
    ),
    "smith": ("smith_normal_form",),
    "unipoly": ("poly_gcd", "squarefree_decompose", "rational_roots"),
    "multipoly": ("multi_gcd", "multi_gcd_list"),
    "poisson": (
        "jacobi_check",
        "compatibility_check",
        "generic_char_poly",
        "PolyPoissonPencil.generic_rank",
        "sample_generic_point",
        "completeness_check",
        "extended_core",
        "involution_check",
        "eigenvalue_lemma_check",
    ),
    "liealg": (
        "validate_lie_algebra",
        "lie_pencil",
        "jk_invariants_generic",
        "fundamental_semiinvariant",
        "ftilde_completeness",
    ),
    "cli": ("main", "load_pencil_document", "load_lie_document"),
}

SPAN_NAMES = tuple(f"{module}.{name}" for module, names in TARGETS.items() for name in names)


class Tracer:
    """Spans are (name, start, end, parent index or -1, analysis id).

    A call made while another call of the same function is open is not a
    span of its own: recursive functions count outermost calls only.
    """

    def __init__(self):
        self.spans: list = []
        self.analysis = -1
        self._stack: list[int] = []
        self._open: dict[str, bool] = {}
        self._saved: list = []  # (namespace, attribute, original)

    def _wrap(self, name, fn):
        spans, stack, open_ = self.spans, self._stack, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if open_[name]:
                return fn(*args, **kwargs)
            open_[name] = True
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                open_[name] = False
                spans[index] = (name, start, end, parent, self.analysis)

        wrapper.__perfbench_original__ = fn
        return wrapper

    def install(self):
        homes = {module: importlib.import_module(f"jkpencil.{module}") for module in TARGETS}
        modules = [m for key, m in sorted(sys.modules.items()) if key == "jkpencil" or key.startswith("jkpencil.")]
        for module, names in TARGETS.items():
            home = homes[module]
            for dotted in names:
                span = f"{module}.{dotted}"
                self._open[span] = False
                owner, _, attr = dotted.rpartition(".")
                if owner:
                    cls = getattr(home, owner)
                    original = cls.__dict__[attr]
                    self._replace(cls, attr, original, self._wrap(span, original))
                    continue
                original = getattr(home, attr)
                wrapper = self._wrap(span, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._replace(mod, key, original, wrapper)

    def _replace(self, namespace, attr, original, wrapper):
        self._saved.append((namespace, attr, original))
        setattr(namespace, attr, wrapper)

    def uninstall(self):
        while self._saved:
            namespace, attr, original = self._saved.pop()
            setattr(namespace, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def summary(self) -> dict:
        """{span name: (calls, self seconds, total seconds)} for every target."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        out = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
        for span, covered in zip(self.spans, child):
            if span is None:  # interrupted by the run's time budget before it began
                continue
            name, start, end = span[:3]
            row = out[name]
            row[0] += 1
            row[1] += end - start - covered
            row[2] += end - start
        return {name: tuple(row) for name, row in out.items()}

    def write(self, path):
        """One JSON line per span: name, start, end, parent span, analysis id."""
        with open(path, "w") as fh:
            for index, span in enumerate(self.spans):
                if span is None:
                    continue
                name, start, end, parent, analysis = span
                fh.write(json.dumps({"id": index, "name": name, "start": start, "end": end, "parent": parent, "analysis": analysis}) + "\n")

