"""Points and arcs on the unit circle, and the disk Moebius group.

Everything downstream is built on three primitives: a point of the circle
at infinity stored by its angle, a counterclockwise arc between two such
points, and a disk-preserving Moebius transformation stored in the
normalized form  z -> (a*z + conj(c)) / (c*z + conj(a))  with
|a|^2 - |c|^2 = 1.  All operations are pure; all objects are immutable.
A CirclePartition cuts the circle into half-open arcs at given points,
and moebius_angles applies such maps to arrays of angles.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DegeneratePointsError,
    NoCircleFixedPointsError,
    NotDiskAutomorphismError,
    SingularMapError,
)

TWO_PI = 2.0 * math.pi

#: Global tolerance for point equality and matrix identity checks.  Worst
#: deviations measured on the regular surfaces, for the group relations
#: and for the corner checks of the analytic bijectivity check on three
#: random words per genus:
#:
#:     g    relations   corners
#:     2    5.8e-14     1.9e-14
#:     4    8.3e-13     5.2e-14
#:     8    2.3e-11     2.5e-13
#:     16   3.7e-10     8.5e-13
#:     19   8.9e-10     1.3e-12    relations only 1.1x below TOL
#:     20   1.17e-9     -          the four-term relation fails
#:
#: The relations set the genus ceiling; tests/test_surface.py pins the
#: margins at g <= 4 and g = 19.
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


def ccw(a: CirclePoint, b: CirclePoint, c: CirclePoint, tol: float = TOL) -> bool:
    """True iff b lies strictly on the counterclockwise arc from a to c.

    Total cyclic-order predicate; raises on coincident inputs because the
    answer would be meaningless there.
    """
    if (
        angular_separation(a.angle, b.angle) <= tol
        or angular_separation(b.angle, c.angle) <= tol
        or angular_separation(a.angle, c.angle) <= tol
    ):
        raise DegeneratePointsError("ccw of (nearly) coincident points")
    return ccw_distance(a.angle, b.angle) < ccw_distance(a.angle, c.angle)


@dataclass(frozen=True)
class Arc:
    """Counterclockwise arc from start to end.

    start == end denotes the single-point arc, never the full circle.
    Closure flags say whether each endpoint belongs to the arc.
    """

    start: CirclePoint
    end: CirclePoint
    closed_left: bool = True
    closed_right: bool = False

    @property
    def length(self) -> float:
        return ccw_distance(self.start.angle, self.end.angle)

    def contains(self, x: CirclePoint, tol: float = TOL) -> bool:
        """Membership respecting closure flags; endpoint hits resolved within tol."""
        s = ccw_distance(self.start.angle, x.angle)
        if s <= tol or s >= TWO_PI - tol:
            return self.closed_left
        length = self.length
        if abs(s - length) <= tol:
            return self.closed_right
        return s < length

    def __repr__(self):
        lb = "[" if self.closed_left else "("
        rb = "]" if self.closed_right else ")"
        return f"Arc{lb}{self.start.angle:.6f}, {self.end.angle:.6f}{rb}"


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

    def inverse(self) -> "MoebiusMap":
        return MoebiusMap(self.a.conjugate(), -self.c)

    def apply_complex(self, z: complex) -> complex:
        den = self.c * z + self.a.conjugate()
        if abs(den) < TOL:
            raise SingularMapError("Moebius denominator vanished; corrupted data")
        return (self.a * z + self.c.conjugate()) / den

    def apply(self, x: CirclePoint) -> CirclePoint:
        w = self.apply_complex(x.value)
        return CirclePoint(cmath.phase(w))

    def apply_angle(self, theta: float) -> float:
        w = self.apply_complex(cmath.exp(1j * theta))
        return wrap_angle(cmath.phase(w))

    def derivative_abs(self, z: complex) -> float:
        """|f'(z)|; equals 1/|c*z + conj(a)|^2."""
        return 1.0 / abs(self.c * z + self.a.conjugate()) ** 2

    @property
    def trace(self) -> float:
        return 2.0 * self.a.real

    def distance_to(self, other: "MoebiusMap") -> float:
        """Coefficient distance modulo the global sign ambiguity."""
        d_plus = max(abs(self.a - other.a), abs(self.c - other.c))
        d_minus = max(abs(self.a + other.a), abs(self.c + other.c))
        return min(d_plus, d_minus)

    def fixed_points_on_circle(self, tol: float = TOL) -> tuple[CirclePoint, CirclePoint]:
        """The two circle fixed points of a hyperbolic map, attracting first."""
        if abs(self.trace) <= 2.0 + tol:
            raise NoCircleFixedPointsError(
                f"|trace| = {abs(self.trace):.12g} is not > 2; no two circle fixed points"
            )
        # c*z^2 + (conj(a)-a)*z - conj(c) = 0; |c| > 0 because |Re a| > 1.
        s = math.sqrt(self.a.real**2 - 1.0)
        z1 = (1j * self.a.imag + s) / self.c
        z2 = (1j * self.a.imag - s) / self.c
        p1, p2 = CirclePoint.from_complex(z1), CirclePoint.from_complex(z2)
        if self.derivative_abs(p1.value) < 1.0:
            return p1, p2
        return p2, p1

    def __repr__(self):
        return f"MoebiusMap(a={self.a:.12g}, c={self.c:.12g})"


def moebius_angles(a, c, thetas) -> np.ndarray:
    """Images of the angles thetas under z -> (a z + conj c) / (c z + conj a), as angles.

    a and c are one map's coefficients or arrays of them matching thetas;
    the angles are reduced mod 2*pi by np.remainder.
    """
    z = np.exp(1j * np.asarray(thetas, dtype=float))
    return np.remainder(np.angle((a * z + np.conj(c)) / (c * z + np.conj(a))), TWO_PI)


def _det3(m) -> complex:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def from_three_points(
    pairs: list[tuple[complex, complex]], tol: float = 1e-7
) -> MoebiusMap:
    """The Moebius map sending z_k -> w_k for three point pairs.

    The data must be realizable by an orientation-preserving disk
    automorphism (up to `tol` in the normalized coefficients); otherwise
    NotDiskAutomorphismError is raised.
    """
    if len(pairs) != 3:
        raise ValueError("exactly three point pairs required")
    (z1, w1), (z2, w2), (z3, w3) = pairs
    if min(abs(z1 - z2), abs(z1 - z3), abs(z2 - z3)) < TOL:
        raise DegeneratePointsError("source points are not pairwise distinct")
    if min(abs(w1 - w2), abs(w1 - w3), abs(w2 - w3)) < TOL:
        raise DegeneratePointsError("target points are not pairwise distinct")

    a = _det3([[z1 * w1, w1, 1], [z2 * w2, w2, 1], [z3 * w3, w3, 1]])
    b = _det3([[z1 * w1, z1, w1], [z2 * w2, z2, w2], [z3 * w3, z3, w3]])
    c = _det3([[z1, w1, 1], [z2, w2, 1], [z3, w3, 1]])
    d = _det3([[z1 * w1, z1, 1], [z2 * w2, z2, 1], [z3 * w3, z3, 1]])

    det = a * d - b * c
    if abs(det) < TOL:
        raise DegeneratePointsError("interpolation data is degenerate")
    s = cmath.sqrt(det)
    a, b, c, d = a / s, b / s, c / s, d / s

    if abs(d - a.conjugate()) > tol or abs(b - c.conjugate()) > tol:
        if abs(d + a.conjugate()) <= tol and abs(b + c.conjugate()) <= tol:
            # det-normalization with -1 inside the sqrt branch: same map.
            a, b, c, d = 1j * a, 1j * b, 1j * c, 1j * d
        else:
            reason = "does not preserve the unit circle"
            if abs(abs(a) ** 2 - abs(c) ** 2 + 1.0) < 1e-6:
                reason = "maps the disk interior to the exterior (|a|^2-|c|^2 = -1)"
            raise NotDiskAutomorphismError(f"interpolation data {reason}")
    # Symmetrize away the last few ulps of noise, then renormalize.
    aa = 0.5 * (a + d.conjugate())
    cc = 0.5 * (c + b.conjugate())
    m = MoebiusMap(aa, cc)
    if abs(aa) <= abs(cc):
        raise NotDiskAutomorphismError("maps the disk interior to the exterior (|a|^2-|c|^2 = -1)")
    return m.normalized()


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
