"""Per-layer tracing from outside the program.

:class:`Tracer` swaps wrappers in for the public functions listed in
``WRAPS``, in every ``speccomp`` module namespace that binds them, and keeps
one span (name, start, end, parent span, document id) per call in memory.
A name the program no longer has is reported as absent and its metrics as 0.
:func:`import_times` splits a fresh interpreter's ``import speccomp`` with
``python -X importtime``.
"""

from __future__ import annotations

import functools
import importlib
import json
import re
import subprocess
import sys
import time
from collections import defaultdict

# (module, attribute, span name). Two functions may share a span name.
WRAPS = [
    ("speccomp.cli", "main", "cli.main"),
    ("speccomp.documents", "load_document", "documents.load"),
    ("speccomp.documents", "matrix_block", "documents.block"),
    ("speccomp.documents", "csv_render", "documents.csv"),
    ("speccomp.spectrum", "analyze", "spectrum.analyze"),
    ("speccomp.spectrum", "eigenvalues_raw", "spectrum.eigvals"),
    ("speccomp.spectrum", "cluster_spectrum", "spectrum.cluster"),
    ("speccomp.spectrum", "eigen_index", "spectrum.index"),
    ("speccomp.spectrum", "spectrum_from_data", "spectrum.from_data"),
    ("speccomp.components", "all_components", "components.all"),
    ("speccomp.components", "eigenprojection_zero", "components.proj0"),
    ("speccomp.components", "component", "components.one"),
    ("speccomp.components", "ComponentSet.residuals", "components.residuals"),
    ("speccomp.components", "eigenprojection_residuals", "components.residuals"),
    ("speccomp.applications", "drazin_inverse", "applications.drazin"),
    ("speccomp.applications", "cesaro_limit", "applications.cesaro"),
    ("speccomp.applications", "drazin_residuals", "applications.residuals"),
    ("speccomp.applications", "cesaro_residuals", "applications.residuals"),
    ("speccomp.linalg", "as_matrix", "linalg.as_matrix"),
    ("speccomp.linalg", "mat_pow", "linalg.mat_pow"),
    ("speccomp.linalg", "rank_numeric", "linalg.rank"),
    ("speccomp.linalg", "solve", "linalg.solve"),
]

# Per-layer metric -> (how it is read from the spans, span name).
#   dur: span time, self: span time minus its child spans, calls: call count.
SPAN_METRICS = {
    "cli.main_s": ("dur", "cli.main"),
    "cli.self_s": ("self", "cli.main"),
    "documents.load_s": ("dur", "documents.load"),
    "documents.block_s": ("dur", "documents.block"),
    "documents.csv_s": ("dur", "documents.csv"),
    "spectrum.analyze_s": ("dur", "spectrum.analyze"),
    "spectrum.eigvals_s": ("dur", "spectrum.eigvals"),
    "spectrum.cluster_s": ("dur", "spectrum.cluster"),
    "spectrum.index_s": ("dur", "spectrum.index"),
    "spectrum.index_calls": ("calls", "spectrum.index"),
    "spectrum.from_data_s": ("dur", "spectrum.from_data"),
    "components.all_s": ("dur", "components.all"),
    "components.proj0_s": ("dur", "components.proj0"),
    "components.one_s": ("dur", "components.one"),
    "components.residuals_s": ("dur", "components.residuals"),
    "components.parts": ("parts", "components.all"),
    "applications.drazin_self_s": ("self", "applications.drazin"),
    "applications.cesaro_self_s": ("self", "applications.cesaro"),
    "applications.residuals_s": ("dur", "applications.residuals"),
    "linalg.as_matrix_calls": ("calls", "linalg.as_matrix"),
    "linalg.mat_pow_calls": ("calls", "linalg.mat_pow"),
    "linalg.mat_pow_s": ("dur", "linalg.mat_pow"),
    "linalg.rank_calls": ("calls", "linalg.rank"),
    "linalg.rank_s": ("dur", "linalg.rank"),
    "linalg.solve_calls": ("calls", "linalg.solve"),
    "linalg.solve_s": ("dur", "linalg.solve"),
}


def _resolve(module: str, attr: str):
    """(owner, name, function) for ``module.attr``, or None when it is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = getattr(owner, name, None)
    return None if fn is None else (owner, name, fn)


class Tracer:
    """Spans and counts of the wrapped calls, kept in memory until written."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, doc id]
        self.parts = defaultdict(int)  # span name -> Z_kj returned
        self.doc = None
        self.absent = []
        self._stack = []
        self._undo = []

    def _wrap(self, span: str, fn):
        spans, stack, parts = self.spans, self._stack, self.parts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([span, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.doc])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            count = len(getattr(result, "parts", ()))
            if count:
                parts[span] += count
            return result

        return wrapper

    def install(self) -> None:
        """Replace every binding of each WRAPS function in the speccomp modules."""
        self.absent = []
        for module, attr, span in WRAPS:
            found = _resolve(module, attr)
            if found is None:
                self.absent.append(f"{module}.{attr}")
                continue
            owner, name, fn = found
            wrapper = self._wrap(span, fn)
            targets = [(owner, name)]
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "speccomp" or mod_name.startswith("speccomp."):
                    targets += [(mod, k) for k, v in list(vars(mod).items()) if v is fn]
            for target, key in set(targets):
                self._undo.append((target, key, fn))
                setattr(target, key, wrapper)

    def uninstall(self) -> None:
        for target, key, fn in reversed(self._undo):
            setattr(target, key, fn)
        self._undo.clear()

    def metrics(self, docs: int) -> dict:
        """Per-document means of the SPAN_METRICS; a span never recorded reads 0."""
        dur, own, calls = defaultdict(float), defaultdict(float), defaultdict(int)
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _, _) in enumerate(self.spans):
            dur[name] += end - start
            own[name] += end - start - child[i]
            calls[name] += 1
        read = {"dur": dur, "self": own, "calls": calls, "parts": self.parts}
        return {m: read[kind][span] / docs for m, (kind, span) in SPAN_METRICS.items()}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


_IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \| (\s*)(\S+)")


def parse_importtime(stderr: str) -> dict:
    """numpy, scipy and speccomp-own seconds from ``-X importtime`` output.

    numpy and scipy are cumulative (their submodules included) over the
    outermost entries of that package; speccomp is the self time of its own
    modules. A package that is never imported counts 0.
    """
    rows = []
    for line in stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            rows.append((int(m[1]), int(m[2]), len(m[3]) // 2, m[4]))
    totals = {"numpy": 0, "scipy": 0, "speccomp": 0}
    ancestors = []  # rows are printed children first, so walk them backwards
    for own, cum, depth, name in reversed(rows):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        package = name.split(".")[0]
        if package == "speccomp":
            totals["speccomp"] += own
        elif package in totals and not any(a[1] == package for a in ancestors):
            totals[package] += cum
        ancestors.append((depth, package))
    return {
        "import.numpy_s": totals["numpy"] / 1e6,
        "import.scipy_s": totals["scipy"] / 1e6,
        "import.speccomp_self_s": totals["speccomp"] / 1e6,
    }


def import_times(env: dict, cwd, repeats: int) -> dict:
    """Median of ``parse_importtime`` over fresh interpreters."""
    samples = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import speccomp"],
            env=env, cwd=cwd, capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(parse_importtime(proc.stderr))
    return {k: sorted(s[k] for s in samples)[len(samples) // 2] for k in samples[0]}
