"""Reference kernels that measure how fast the CPU runs right now.

On a shared 2-vCPU Xeon VM the CPU speed drifted by up to 2x over seconds as
other tenants loaded the host, and raw wall times moved by 20-40% between
runs.  So the worker times a fixed kernel between words and scales each
word's wall time to the speed at which the kernel takes its nominal time.

The kernels use only Python and numpy, never fuchsian, so a change to the
library does not change them.  Contention slows scalar Python, small-array
numpy and large-array numpy by different amounts, so each workload's
kernel mixes the three parts in about the shares its own time has.
"""

from __future__ import annotations

import cmath
import marshal
import math
import statistics
from time import perf_counter

# Between words the kernel runs until it has taken this share of the last
# word's time, and at least once.
REF_SHARE = 0.05


class _Map:
    __slots__ = ("a", "c")

    def __init__(self, a: complex, c: complex):
        self.a, self.c = a, c

    def apply(self, theta: float) -> float:
        z = cmath.exp(1j * theta)
        w = (self.a * z + self.c.conjugate()) / (self.c * z + self.a.conjugate())
        return math.remainder(cmath.phase(w), 2 * math.pi)


def _python_part():
    """Scalar Moebius steps on small objects, like the solve and analytic check."""
    m = _Map(complex(1.25, 0.3), complex(0.5, 0.6))
    x = 0.1
    for _ in range(400):
        x = m.apply(x)


def _array_part(rows: int):
    """Moebius on an angle array and a dense rows x 24 edge distance, like
    the Monte Carlo kernels."""
    import numpy as np  # not at module top: set-up times the first numpy import

    thetas = np.linspace(0.0, 6.2, rows)
    edges = np.linspace(0.1, 6.1, 24)

    def part():
        z = np.exp(1j * thetas)
        ang = np.remainder(np.angle((1.3 * z + 0.4) / (0.4 * z + 1.3)), 2 * math.pi)
        d = np.abs(np.remainder(ang[:, None] - edges[None, :] + math.pi, 2 * math.pi) - math.pi)
        d.min(axis=1).sum()

    return part


PARTS = {
    "python": lambda: _python_part,
    "small": lambda: _array_part(1000),
    "large": lambda: _array_part(10_000),
}


class Reference:
    """A kernel made of PARTS run in order, and its nominal time.

    `nominal_s` defines the unit: a scaled time is the time on a CPU that
    runs this kernel in `nominal_s`.
    """

    def __init__(self, parts: tuple[str, ...], nominal_s: float):
        self.parts = [PARTS[p]() for p in parts]
        self.nominal_s = nominal_s

    def time_s(self) -> float:
        t0 = perf_counter()
        for part in self.parts:
            part()
        return perf_counter() - t0

    def gap(self, word_s: float) -> list[float]:
        """Kernel timings taken between two words: REF_SHARE of word_s, at least one."""
        times = [self.time_s()]
        while sum(times) < REF_SHARE * word_s:
            times.append(self.time_s())
        return times

    def word_factors(self, gaps: list[list[float]]) -> list[float]:
        """Scale factor of each word, from the kernel timings just around it.

        gaps[k] holds the timings taken just before word k and gaps[k + 1]
        those just after it.  A wider window smoothed over the short bursts
        of contention that set the latency tail: with 9 or more timings the
        run-to-run spread of word_ms_p90 was 2-3x larger.
        """
        return [self.nominal_s / statistics.median(gaps[k] + gaps[k + 1]) for k in range(len(gaps) - 1)]


def _module_source() -> str:
    parts = []
    for i in range(60):
        parts.append(
            f"class C{i}:\n    x = {i}\n    def f(self, a, b=1):\n        return a + b + self.x\n"
            f"    @property\n    def p(self):\n        return self.x\n"
            f"def g{i}(a, *args, k=None, **kw):\n    return [a, args, k, kw]\n"
            f"D{i} = {{'k{i}': {i}, 'n': 'name{i}'}}\n"
        )
    return "".join(parts)


class SetupReference:
    """Unmarshal and execute a synthetic module, like an import.

    Standard library only, so it can run before the timed import.  The
    python part above doubled its time between fast and slow periods where
    the import grew by half; this kernel tracks the import more closely.
    """

    nominal_s = 0.6e-3
    reps = 15

    def __init__(self):
        self.code = marshal.dumps(compile(_module_source(), "<reference>", "exec"))

    def times(self) -> list[float]:
        out = []
        for _ in range(self.reps):
            t0 = perf_counter()
            exec(marshal.loads(self.code), {"__name__": "reference"})
            out.append(perf_counter() - t0)
        return out
