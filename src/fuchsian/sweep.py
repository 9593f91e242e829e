"""The verification sweep over parameter words.

One loop serves `fuchsian sweep` and the acceptance sweep: each word is
solved, its rectangle domain built, its bijectivity checked and its
Markov transition rows validated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .boundary import BijectivityReport, build_domain, solve, verify_bijectivity
from .circle import TOL
from .coding import markov_transition_matrix
from .errors import FuchsianError
from .surface import SurfaceGroup


@dataclass(frozen=True)
class SweepResult:
    """One swept word: verdict "PASS", "FAIL" or "ERROR <message>"."""

    word: str
    verdict: str
    report: BijectivityReport | None  # None on ERROR

    @property
    def passed(self) -> bool:
        return self.verdict == "PASS"


def sweep(
    surface: SurfaceGroup,
    words: Iterable[str],
    mode: str = "both",
    samples: int = 1000,
    seed: int = 0,
    tol: float = TOL,
) -> Iterator[SweepResult]:
    """Verify each word in turn; word k gets the Monte Carlo seed `seed + k`.

    A FuchsianError raised by the solve, the domain, the bijectivity
    check or the Markov row validation becomes an ERROR verdict.
    """
    for k, word in enumerate(words):
        try:
            solved = solve(surface, word, tol)
            report = verify_bijectivity(
                solved, build_domain(solved), mode=mode, samples=samples, seed=seed + k, tol=tol
            )
            markov_transition_matrix(solved, tol)
        except FuchsianError as exc:
            yield SweepResult(word, f"ERROR {exc}", None)
        else:
            yield SweepResult(word, "PASS" if report.passed else "FAIL", report)
