"""Points on the unit circle, and the disk Moebius group.

Everything downstream is built on two primitives: a point of the circle
at infinity stored by its angle, and a disk-preserving Moebius
transformation stored in the normalized form
z -> (a*z + conj(c)) / (c*z + conj(a))  with  |a|^2 - |c|^2 = 1.  All
operations are pure; all objects are immutable.  An arc is the pair of
its end angles: a CirclePartition cuts the circle into half-open arcs at
given points, and moebius_angles applies such maps to arrays of angles.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegeneratePointsError, NotDiskAutomorphismError

TWO_PI = 2.0 * math.pi

#: Global tolerance for point equality and matrix identity checks.  Worst
#: deviations measured on the regular surfaces: the group relations, the
#: two products for U_i that solve compares, and the corner checks of the
#: analytic bijectivity check on three random words per genus:
#:
#:     g    relations   U_i        corners
#:     2    1.8e-14     2.0e-14    7.1e-15
#:     4    1.3e-13     5.4e-13    2.0e-14
#:     8    3.7e-12     1.1e-11    8.3e-14
#:     16   2.3e-11     2.7e-10    4.1e-13
#:     19   4.4e-11     4.2e-10    5.5e-13
#:     22   7.0e-11     7.7e-10    6.9e-13
#:     23   9.8e-11     2.0e-9     -          solve raises ContradictionError
#:     50   1.02e-9     -          -          the four-term relation fails
#:
#: U_i sets the genus ceiling: its coefficients grow like |a|^2 (1.6e3 at
#: g = 23) against an absolute TOL.  tests/test_surface.py pins the
#: margins at g <= 4, 19 and 22, and the wall at g = 23.
TOL = 1e-9


def wrap_angle(theta: float) -> float:
    """Reduce an angle to [0, 2*pi)."""
    theta = math.fmod(theta, TWO_PI)
    if theta < 0.0:
        theta += TWO_PI
    # adding 2*pi to a tiny negative value rounds to 2*pi itself
    return 0.0 if theta >= TWO_PI else theta


def ccw_distance(a: float, b: float) -> float:
    """Counterclockwise angular distance from angle a to angle b, in [0, 2*pi)."""
    return wrap_angle(b - a)


def ccw_distance_many(a, b) -> np.ndarray:
    """Array ccw_distance, bit for bit: the same fmod, shift and clamp of 2*pi to 0."""
    d = np.fmod(np.subtract(b, a), TWO_PI)
    d = np.where(d < 0.0, d + TWO_PI, d)
    return np.where(d >= TWO_PI, 0.0, d)


def outside_arc(x, a, b, tol: float) -> np.ndarray:
    """Where x lies outside the closed counterclockwise arc [a, b]: farther
    than tol from both ends, and not in between (element-wise, broadcasts)."""
    s = np.remainder(np.subtract(x, a), TWO_PI)
    length = np.remainder(np.subtract(b, a), TWO_PI)
    return ~((s <= tol) | (s >= TWO_PI - tol) | (np.abs(s - length) <= tol) | (s < length))


def angular_separation(a: float, b: float) -> float:
    """Shortest angular distance between two angles, in [0, pi]."""
    d = wrap_angle(b - a)
    return min(d, TWO_PI - d)


def angdiff(a: float, b: float) -> float:
    """|a - b| reduced to [0, pi] by math.remainder; the corner-check metric."""
    return abs(math.remainder(a - b, TWO_PI))


def angdiff_many(a, b) -> np.ndarray:
    """Array angdiff: |a - b| reduced to [0, pi], element-wise (broadcasts)."""
    return np.abs(np.remainder(a - b + math.pi, TWO_PI) - math.pi)


@dataclass(frozen=True)
class CirclePoint:
    """A point of the circle at infinity, stored by its angle in [0, 2*pi)."""

    angle: float

    def __post_init__(self):
        object.__setattr__(self, "angle", wrap_angle(self.angle))

    @cached_property
    def value(self) -> complex:
        return cmath.exp(1j * self.angle)

    @classmethod
    def from_complex(cls, z: complex) -> "CirclePoint":
        if abs(abs(z) - 1.0) > 1e-6:
            raise DegeneratePointsError(f"point {z!r} is not on the unit circle")
        return cls(cmath.phase(z))

    def close_to(self, other: "CirclePoint", tol: float = TOL) -> bool:
        return angular_separation(self.angle, other.angle) <= tol

    def __repr__(self):
        return f"CirclePoint({self.angle:.12g})"


class CirclePartition:
    """The circle cut at n breakpoints, given in any order.

    Arc k (1-based, numbered like the breakpoints) runs from breakpoint k
    to the next breakpoint counterclockwise, closed on the left and open
    on the right, so the arcs partition the circle.
    """

    def __init__(self, angles):
        angles = np.asarray(angles, dtype=float)
        self.base = float(angles[0])
        rel = np.remainder(angles - self.base, TWO_PI)
        order = np.argsort(rel, kind="stable")
        self.breaks, self.labels = rel[order], order + 1

    def _rel(self, thetas) -> np.ndarray:
        return np.remainder(np.asarray(thetas, dtype=float) - self.base, TWO_PI)

    def index_many(self, thetas) -> np.ndarray:
        """The 1-based arc containing each angle."""
        return self.labels[np.searchsorted(self.breaks, self._rel(thetas), side="right") - 1]

    def index(self, theta: float) -> int:
        """index_many for one angle."""
        return int(self.index_many([theta])[0])

    def distance_many(self, thetas) -> np.ndarray:
        """Angular distance from each angle to the nearest breakpoint."""
        # With d_k = |rel - breaks[k]|, the distance is min(min d, 2*pi - max d).
        # The sorted neighbours of rel attain min d and the first and last
        # breakpoints attain max d, so four terms give it bit for bit.
        rel = self._rel(thetas)
        b = self.breaks
        k = np.searchsorted(b, rel)
        near = np.minimum(np.abs(rel - b[k - 1]), np.abs(rel - b[np.minimum(k, len(b) - 1)]))
        return np.minimum(near, TWO_PI - np.maximum(np.abs(rel - b[0]), np.abs(rel - b[-1])))


@dataclass(frozen=True)
class MoebiusMap:
    """Disk-preserving Moebius transformation z -> (a*z + conj(c)) / (c*z + conj(a)).

    Kept normalized with |a|^2 - |c|^2 = 1 exactly in floating point; the
    pair (a, c) is determined up to a global sign.
    """

    a: complex
    c: complex

    @classmethod
    def identity(cls) -> "MoebiusMap":
        return cls(1.0 + 0.0j, 0.0 + 0.0j)

    def normalized(self) -> "MoebiusMap":
        n2 = abs(self.a) ** 2 - abs(self.c) ** 2
        if n2 <= 0.0:
            raise NotDiskAutomorphismError(f"|a|^2-|c|^2 = {n2:.3g} <= 0")
        n = math.sqrt(n2)
        return MoebiusMap(self.a / n, self.c / n)

    def compose(self, other: "MoebiusMap") -> "MoebiusMap":
        """self after other, renormalized to stop drift across long words."""
        a = self.a * other.a + self.c.conjugate() * other.c
        c = self.c * other.a + self.a.conjugate() * other.c
        return MoebiusMap(a, c).normalized()

    def __matmul__(self, other: "MoebiusMap") -> "MoebiusMap":
        return self.compose(other)

    def distance_to(self, other: "MoebiusMap") -> float:
        """Coefficient distance modulo the global sign ambiguity."""
        d_plus = max(abs(self.a - other.a), abs(self.c - other.c))
        d_minus = max(abs(self.a + other.a), abs(self.c + other.c))
        return min(d_plus, d_minus)

    def __repr__(self):
        return f"MoebiusMap(a={self.a:.12g}, c={self.c:.12g})"


def moebius_angles(a, c, thetas) -> np.ndarray:
    """Images of the angles thetas under z -> (a z + conj c) / (c z + conj a), as angles.

    a and c are one map's coefficients or arrays of them matching thetas;
    the angles are reduced mod 2*pi by np.remainder.
    """
    z = np.exp(1j * np.asarray(thetas, dtype=float))
    return np.remainder(np.angle((a * z + np.conj(c)) / (c * z + np.conj(a))), TWO_PI)


def half_turn(p: complex) -> MoebiusMap:
    """Rotation by pi about an interior point p; swaps the endpoints of
    every geodesic through p."""
    r2 = abs(p) ** 2
    if r2 >= 1.0:
        raise DegeneratePointsError("half turn requires an interior point")
    den = 1.0 - r2
    return MoebiusMap(-1j * (1.0 + r2) / den, -2j * p.conjugate() / den)


def geodesic_circle(u: complex, w: complex) -> tuple[complex, float] | None:
    """Center and radius of the circle orthogonal to the unit circle through u, w.

    Returns None when the geodesic through u and w is a diameter.  The
    inputs may be ideal endpoints or interior points of the disk.
    """
    # Re(u * conj(omega)) = (|u|^2+1)/2, and likewise for w.
    a1, b1, r1 = u.real, u.imag, 0.5 * (abs(u) ** 2 + 1.0)
    a2, b2, r2 = w.real, w.imag, 0.5 * (abs(w) ** 2 + 1.0)
    det = a1 * b2 - a2 * b1
    if abs(det) < 1e-12:
        return None
    x = (r1 * b2 - r2 * b1) / det
    y = (a1 * r2 - a2 * r1) / det
    center = complex(x, y)
    rho2 = abs(center) ** 2 - 1.0
    if rho2 <= 0.0:
        return None
    return center, math.sqrt(rho2)


def geodesic_endpoints(z1: complex, z2: complex) -> tuple[CirclePoint, CirclePoint]:
    """Ideal endpoints (backward, forward) of the geodesic through z1 toward z2."""
    if abs(z1 - z2) < TOL:
        raise DegeneratePointsError("geodesic through coincident points")
    if abs(z1) >= 1.0 - TOL or abs(z2) >= 1.0 - TOL:
        raise DegeneratePointsError("geodesic base points must lie inside the disk")
    circ = geodesic_circle(z1, z2)
    if circ is None:
        # Diameter: endpoints are the two unit vectors along the chord.
        direction = (z2 - z1) / abs(z2 - z1)
        return CirclePoint.from_complex(-direction), CirclePoint.from_complex(direction)
    center, rho = circ
    # Unit-circle intersections: Re(z * conj(center)) = 1.
    psi = cmath.phase(center)
    spread = math.acos(min(1.0, 1.0 / abs(center)))
    e1 = CirclePoint(psi - spread)
    e2 = CirclePoint(psi + spread)
    # Forward endpoint continues the rotation sense from z1 to z2 about center.
    phi1 = cmath.phase(z1 - center)
    phi2 = cmath.phase(z2 - center)
    delta = math.remainder(phi2 - phi1, TWO_PI)
    phi_e2 = math.remainder(cmath.phase(e2.value - center) - phi1, TWO_PI)
    if (delta > 0.0) == (phi_e2 > 0.0):
        return e1, e2
    return e2, e1
