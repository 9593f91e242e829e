"""The benchmark's workloads: how inputs derive from the seed, what one word
runs, and the output checks applied to it outside the timed section.

Seed rule: word k of workload W under seed S comes from
``d = sha256(f"{W}:{S}:{k}")``.  Letter i (0-based) of the word is ``Q`` if
bit i of ``int.from_bytes(d[:8], "big")`` is set and ``P`` otherwise; the
word's Monte Carlo seed is ``int.from_bytes(d[8:12], "big")``.  Index 0 is
the warm-up word.  The rule uses only the standard library, so the inputs
do not change with the numpy version, and every integer seed is valid.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

SEED_RULE = (
    'd = sha256(f"{workload}:{seed}:{k}"); word[i] = "Q" if bit i of '
    'int.from_bytes(d[:8], "big") else "P"; mc_seed = int.from_bytes(d[8:12], "big"); '
    "k = 0 is the warm-up word"
)

MC_SAMPLES = 1000  # per word on sweep_g2, as in the acceptance sweep
DEEP_SAMPLES = 10_000  # conjugacy, duality and attractor sample counts
CODE_SAMPLES = 50  # verify_duality's default, passed explicitly as the ratio base
ATTRACTOR_ITERATIONS = 50
INVARIANT_TOL = 1e-9


def word_input(workload: str, seed: int, k: int, genus: int) -> tuple[str, int]:
    """The parameter word and Monte Carlo seed of word k, by SEED_RULE."""
    d = hashlib.sha256(f"{workload}:{seed}:{k}".encode()).digest()
    bits = int.from_bytes(d[:8], "big")
    word = "".join("Q" if (bits >> i) & 1 else "P" for i in range(8 * genus - 4))
    return word, int.from_bytes(d[8:12], "big")


def spectral_radius_expected(genus: int) -> float:
    """(4g-3) + sqrt((4g-3)^2 - 1): the same for every word of a genus."""
    m = 4 * genus - 3
    return m + math.sqrt(m * m - 1)


# -- one word of each workload ------------------------------------------------
#
# `lib` holds the fuchsian modules; functions are looked up on them at call
# time so that a traced run sees the wrapped entry points.


def _sweep(lib, surface, word: str, mc_seed: int, mode: str) -> SimpleNamespace:
    solved = lib.boundary.solve(surface, word)
    domain = lib.boundary.build_domain(solved)
    bij = lib.boundary.verify_bijectivity(solved, domain, mode=mode, samples=MC_SAMPLES, seed=mc_seed)
    matrix = lib.coding.markov_transition_matrix(solved)
    sofic = lib.coding.sofic_amalgamate(solved.params, matrix)
    return SimpleNamespace(solved=solved, domain=domain, bij=bij, mode=mode, matrix=matrix, sofic=sofic)


def run_sweep_g2(lib, surface, word, mc_seed):
    return _sweep(lib, surface, word, mc_seed, "both")


def run_analytic_g4(lib, surface, word, mc_seed):
    return _sweep(lib, surface, word, mc_seed, "analytic")


def run_deep_checks(lib, surface, word, mc_seed):
    solved = lib.boundary.solve(surface, word)
    domain = lib.boundary.build_domain(solved)
    conj = lib.coding.verify_conjugacy(solved, domain, samples=DEEP_SAMPLES, seed=mc_seed)
    dual_domain = lib.duality.build_omega_dual(solved)
    dual = lib.duality.verify_duality(
        solved, domain, dual_domain, samples=DEEP_SAMPLES, seed=mc_seed, code_samples=CODE_SAMPLES
    )
    attr = lib.attractor.attractor_experiment(
        solved, domain, iterations=ATTRACTOR_ITERATIONS, samples=DEEP_SAMPLES, seed=mc_seed
    )
    return SimpleNamespace(solved=solved, domain=domain, conj=conj, dual=dual, attr=attr)


# -- output checks (outside the timed section) --------------------------------


def check_word(lib, genus: int, out: SimpleNamespace) -> tuple[list[str], dict]:
    """Errors found in one word's outputs, and the values the run compares.

    Every report must pass and must have checked at least one item.  The
    Markov matrix's spectral radius must equal its closed form; the
    invariant mass is returned for the run-wide comparison.
    """
    errors: list[str] = []
    obs: dict = {}
    if hasattr(out, "bij"):
        bij = out.bij
        if not bij.analytic_checked:
            errors.append("analytic check did not run")
        if out.mode == "both" and not (bij.mc_checked and bij.mc_samples > 0):
            errors.append("Monte Carlo check did not run on any sample")
        if not bij.passed:
            errors.append(f"bijectivity failed: {bij.to_json()}")
        obs["corner_dev"] = bij.max_corner_deviation
        if bij.mc_checked:
            obs["edge_flags"] = bij.boundary_flags
            obs["edge_base"] = 2 * bij.mc_samples
        if not out.sofic.is_strongly_connected():
            errors.append("sofic graph is not strongly connected")
        matrix = out.matrix
    else:
        conj, dual, attr = out.conj, out.dual, out.attr
        if conj.checked <= 0 or not conj.passed:
            errors.append(f"conjugacy failed: {conj.to_json()}")
        if dual.identity_checked <= 0 or not dual.passed:
            errors.append(f"duality failed: {dual.to_json()}")
        if not attr.forward_invariant_ok:
            errors.append("attractor: domain is not forward invariant")
        obs.update(
            conj_checked=conj.checked, conj_samples=conj.samples, conj_dev=conj.max_deviation,
            identity_checked=dual.identity_checked, identity_samples=dual.samples,
            identity_dev=dual.identity_max_deviation,
            code_checked=dual.code_checked, code_samples=CODE_SAMPLES,
        )
        matrix = lib.coding.markov_transition_matrix(out.solved)

    import numpy as np  # not at module top: setup_s times the first numpy import

    radius = float(np.abs(np.linalg.eigvals(matrix.matrix.astype(float))).max())
    expected = spectral_radius_expected(genus)
    if abs(radius - expected) > INVARIANT_TOL:
        errors.append(f"spectral radius {radius!r} != {expected!r}")
    obs["mass"] = math.fsum(lib.boundary.invariant_measure(r) for r in out.domain.rects)
    return errors, obs


@dataclass(frozen=True)
class Workload:
    genus: int
    run: Callable
    # Parts of reference.PARTS mixed in about the shares of the workload's
    # own time, and the mix's time on an uncontended 2-vCPU Xeon VM.
    reference: tuple[str, ...]
    reference_nominal_s: float


# Why each workload exists is stated in BENCHMARK.json.
WORKLOADS = {
    # Monte Carlo kernels on 10^3 rows are about 79% of a word, Python the rest.
    "sweep_g2": Workload(2, run_sweep_g2, ("python", "small"), 0.85e-3),
    # Scalar Python does almost all the work.
    "analytic_g4": Workload(4, run_analytic_g4, ("python",) * 4, 0.87e-3),
    # Array kernels on 10^4 rows, plus the scalar coding loop.
    "deep_checks": Workload(2, run_deep_checks, ("python",) * 4 + ("large",), 7.9e-3),
}
