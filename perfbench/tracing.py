"""Spans around the calls into each layer, recorded from outside the library.

`Tracer.install` rebinds the library's entry points to wrappers.  A name
imported with ``from x import y`` is a separate binding in each importing
module, so each binding that a workload reaches is wrapped on its own
(for example ``boundary.inverse_step_many`` and ``duality.inverse_step_many``).
Methods are wrapped on their classes.  Spans stay in memory until the run
ends; the worker then writes them out.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter

# (module, owner attribute path, span name, index of the row-array argument)
# Top-level entry points the workloads call, then the kernels they reach.
WRAPS = [
    ("boundary", "solve", "boundary.solve", None),
    ("boundary", "build_domain", "boundary.domain", None),
    ("duality", "build_domain", "boundary.domain", None),
    ("boundary", "verify_bijectivity", "boundary.bijectivity", None),
    ("boundary", "_verify_analytic", "boundary.analytic", None),
    ("boundary", "_verify_monte_carlo", "boundary.mc", None),
    ("boundary", "prepend", "words.prepend", None),
    ("words", "GroupWord.evaluate", "words.evaluate", None),
    ("boundary", "RectDomain.boundary_distance_many", "boundary.boundary_distance", 1),
    ("boundary", "RectDomain.distance_many", "boundary.distance", 1),
    ("boundary", "extension_step_many", "boundary.extension_many", 1),
    ("coding", "extension_step_many", "boundary.extension_many", 1),
    ("attractor", "extension_step_many", "boundary.extension_many", 1),
    ("boundary", "inverse_step_many", "boundary.inverse_many", 2),
    ("duality", "inverse_step_many", "boundary.inverse_many", 2),
    ("coding", "inverse_step", "boundary.inverse_step", None),
    ("surface", "GeodesicClipper.clip", "surface.clip", 1),
    ("coding", "markov_transition_matrix", "coding.markov", None),
    ("coding", "sofic_amalgamate", "coding.sofic", None),
    ("coding", "verify_conjugacy", "coding.conjugacy", None),
    # duality imports code_geodesic inside verify_duality, so it gets this one.
    ("coding", "code_geodesic", "coding.code_geodesic", None),
    ("duality", "build_omega_dual", "duality.dual_domain", None),
    ("duality", "verify_duality", "duality.verify", None),
    ("attractor", "attractor_experiment", "attractor.run", None),
]


class Tracer:
    """In-memory spans, row counts and inverse-search hits.

    A span is (name, start, end, parent span index or -1, request id); the
    request id is the index of the word being run.  Wrappers record nothing
    while `active` is false, so output checks are not traced.
    """

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.rows: dict[str, int] = defaultdict(int)
        self.inverse_hits = 0
        self.inverse_tried = 0
        self.request = -1
        self.active = False
        self._undo: list = []

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1, self.request])
        self.stack.append(sid)
        return sid

    def end(self, sid: int):
        self.spans[sid][2] = perf_counter()
        self.stack.pop()

    def wrap(self, fn, name: str, row_arg: int | None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(sid)
            if row_arg is not None:
                tracer.rows[name] += len(args[row_arg])
            if name == "boundary.inverse_many":
                # Rows x N candidates are tried; `count` holds the hits per row.
                tracer.inverse_hits += int(result[3].sum())
                tracer.inverse_tried += len(args[2]) * args[0].surface.n
            return result

        return traced

    def install(self, lib):
        """Wrap every entry in WRAPS on the modules of `lib`."""
        for module, path, name, row_arg in WRAPS:
            owner = getattr(lib, module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            self._undo.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, row_arg))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def inclusive_s(self, scale: dict[int, float]) -> dict[str, float]:
        """Total time per span name, counting only spans with no same-name
        ancestor; each span's time is multiplied by its request's scale."""
        totals: dict[str, float] = defaultdict(float)
        for name, start, end, parent, request in self.spans:
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                totals[name] += (end - start) * scale[request]
        return totals

    def calls(self) -> dict[str, int]:
        counts: dict[str, int] = defaultdict(int)
        for span in self.spans:
            counts[span[0]] += 1
        return counts

    def self_s(self, scale: dict[int, float]) -> dict[str, float]:
        """Span time minus the time its direct children cover, per span name,
        multiplied by the request's scale."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for k, (name, start, end, _, request) in enumerate(self.spans):
            totals[name] += (end - start - child[k]) * scale[request]
        return totals
