"""Exploratory experiment: convergence of arbitrary pairs to the domain.

The rectangle domain is conjectured (not proven) to be the global
attractor of the extension map on the torus minus the diagonal.  This
experiment reports evidence; it is never a pass/fail gate.  Forward
invariance of the domain itself, by contrast, is a theorem and is checked
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .boundary import RectDomain, SolvedParams, extension_step_many
from .circle import TOL, TWO_PI, angdiff_many

HISTOGRAM_EDGES = (1e-15, 1e-12, 1e-9, 1e-6, 1e-3, 1e-2, 1e-1, 1.0, float("inf"))


@dataclass
class AttractorReport:
    """EXPLORATORY: fraction of random pairs near the domain after iteration."""

    iterations: int
    samples: int
    seed: int
    tol: float
    baseline_fraction: float = 0.0
    final_fraction: float = 0.0
    histogram: list[tuple[str, int]] = field(default_factory=list)
    forward_invariant_ok: bool = False
    forward_invariant_max_dist: float = 0.0
    exploratory: bool = True

    def to_json(self) -> dict:
        return {
            "exploratory": True,
            "note": "attractor convergence is conjectural; this is evidence, not a gate",
            "iterations": self.iterations,
            "samples": self.samples,
            "seed": self.seed,
            "tol": self.tol,
            "baseline_fraction": self.baseline_fraction,
            "final_fraction": self.final_fraction,
            "histogram": [{"bin": b, "count": c} for b, c in self.histogram],
            "forward_invariant_ok": self.forward_invariant_ok,
            "forward_invariant_max_dist": self.forward_invariant_max_dist,
        }


def attractor_experiment(
    solved: SolvedParams,
    domain: RectDomain,
    iterations: int = 50,
    samples: int = 10_000,
    seed: int = 0,
    tol: float = TOL,
) -> AttractorReport:
    """Iterate random pairs and report their distance to the domain.

    Also checks (exactly, within tol) that points sampled inside the
    domain are within tol of it at the start and after every step.
    """
    if iterations < 0 or samples < 1:
        raise ValueError("iterations must be >= 0 and samples >= 1")
    rng = np.random.default_rng(seed)
    report = AttractorReport(iterations=iterations, samples=samples, seed=seed, tol=tol)
    params = solved.params

    u = rng.random(samples) * TWO_PI
    w = rng.random(samples) * TWO_PI
    keep = angdiff_many(u, w) > tol
    u, w = u[keep], w[keep]

    report.baseline_fraction = float(
        (domain.distance_many(u, w) <= tol).mean()
    )
    for _ in range(iterations):
        u, w, _ = extension_step_many(params, u, w)
    dist = domain.distance_many(u, w)
    report.final_fraction = float((dist <= tol).mean())

    counts = []
    lo = 0.0
    for edge in HISTOGRAM_EDGES:
        sel = (dist > lo) & (dist <= edge) if lo > 0.0 else (dist <= edge)
        counts.append((f"<= {edge:g}", int(sel.sum())))
        lo = edge
    report.histogram = counts

    iu, iw = domain.sample(rng, min(samples, 2000))
    worst = 0.0
    ok = True
    for step in range(iterations + 1):  # step 0 checks the sampled start points
        if step:
            iu, iw, _ = extension_step_many(params, iu, iw)
        d = domain.distance_many(iu, iw)
        worst = max(worst, float(d.max()))
        if (d > tol).any():
            ok = False
    report.forward_invariant_ok = ok
    report.forward_invariant_max_dist = worst
    return report
