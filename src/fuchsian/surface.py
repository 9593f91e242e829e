"""Fundamental polygon, side-index maps, generators, and polygon intersection.

A compact genus-g surface is presented by an (8g-4)-sided polygon whose
sides are labeled counterclockwise and glued by the pairing sigma.  Side i
runs from vertex V_i to V_{i+1}; extending it to the circle at infinity
gives the ideal endpoints P_i (behind V_i) and Q_{i+1} (beyond V_{i+1}),
and the cyclic boundary order is P_1, Q_1, P_2, Q_2, ...

Indices are 1-based everywhere, with arithmetic mod 8g-4 mapped back into
{1, ..., 8g-4}.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .circle import (
    TOL,
    TWO_PI,
    CirclePoint,
    MoebiusMap,
    ccw_distance,
    geodesic_circle,
    geodesic_endpoints,
    moebius_angles,
)
from .errors import ConstructionError, ContradictionError


def _wrap(i: int, n: int) -> int:
    return (i - 1) % n + 1


def sigma(i: int, g: int) -> int:
    """Side pairing: 4g-i mod 8g-4 for odd i, 2-i mod 8g-4 for even i."""
    n = 8 * g - 4
    if not 1 <= i <= n:
        raise IndexError(f"side index {i} out of range 1..{n}")
    return _wrap(4 * g - i, n) if i % 2 else _wrap(2 - i, n)


def tau(i: int, g: int) -> int:
    """Index shift by half the side count: i + (4g-2) mod 8g-4."""
    n = 8 * g - 4
    if not 1 <= i <= n:
        raise IndexError(f"side index {i} out of range 1..{n}")
    return _wrap(i + 4 * g - 2, n)


def rho(i: int, g: int) -> int:
    """Vertex cycle sigma(i)+1; has order four."""
    n = 8 * g - 4
    return _wrap(sigma(i, g) + 1, n)


@dataclass(frozen=True)
class SideIndexMaps:
    """The involutions sigma, tau and the shift rho on side indices.

    Each map is a tuple built once from the closed forms above, with entry
    r serving every i with i mod N = r, so each method is one lookup that
    takes any integer and answers in {1, ..., N}.
    """

    genus: int
    n: int = field(init=False)

    def __post_init__(self):
        if self.genus < 2:
            raise ValueError("genus must be at least 2")
        g, n = self.genus, 8 * self.genus - 4
        object.__setattr__(self, "n", n)
        sides = [_wrap(r, n) for r in range(n)]  # N, 1, 2, ..., N-1
        object.__setattr__(self, "_wrap", tuple(sides))
        object.__setattr__(self, "_sigma", tuple(sigma(i, g) for i in sides))
        object.__setattr__(self, "_tau", tuple(tau(i, g) for i in sides))
        object.__setattr__(self, "_tau_sigma", tuple(tau(sigma(i, g), g) for i in sides))
        object.__setattr__(self, "_rho", tuple(rho(i, g) for i in sides))

    def wrap(self, i: int) -> int:
        return self._wrap[i % self.n]

    def sigma(self, i: int) -> int:
        return self._sigma[i % self.n]

    def tau(self, i: int) -> int:
        return self._tau[i % self.n]

    def tau_sigma(self, i: int) -> int:
        return self._tau_sigma[i % self.n]

    def rho(self, i: int) -> int:
        return self._rho[i % self.n]

    @cached_property
    def side_rows(self) -> np.ndarray:
        """sigma(i), tau(i) and tau_sigma(i) for i = 1..N, as the rows of one array."""
        sides = range(1, self.n + 1)
        return np.array([[f(i) for i in sides] for f in (self.sigma, self.tau, self.tau_sigma)])

    @cached_property
    def corner_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The analytic check's corner identities T_i X_j = Y_k: rows[c, i-1]
        holds side i's rows (i, X, j, Y, k) for choice c (0 for P, 1 for Q),
        with 0-based sides and X, Y rows of the named-point table P, Q, G, H,
        D.  valid[c] marks the 6 rows of P and the 7 of Q.
        """
        P, Q, G, H, D = range(5)
        rows = np.zeros((2, self.n, 7, 5), dtype=np.intp)
        for i in range(1, self.n + 1):
            si, k = self.sigma(i), self.tau_sigma(i)
            # T_i maps the upper rectangle [H_{i+1}, G_{i-1}] x [Q_i, P_{i+1}]
            # onto [D_si, D_si+1] x [Q_si+2, P_si-1]; the lower one [H_{i+1},
            # G_{i-2}] x [P_i, Q_i] goes under T_i (P) or T_{i-1} (Q), whose
            # T_{i-1} G_{i-2} = D_{k+2} is side i-1's upper row (k+2 = sigma(i-1)+1).
            upper = [(i, H, i + 1, D, si), (i, G, i - 1, D, si + 1), (i, Q, i, Q, si + 2), (i, P, i + 1, P, si - 1)]
            rows[0, i - 1, :6] = upper + [(i, G, i - 2, G, si), (i, P, i, Q, si + 1)]
            rows[1, i - 1] = upper + [(i - 1, H, i + 1, H, k + 1), (i - 1, P, i, P, k), (i - 1, Q, i, P, k + 1)]
        rows[..., ::2] = (rows[..., ::2] - 1) % self.n
        return rows, np.arange(7) < np.array([[6], [7]])

    @cached_property
    def markov_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The Markov matrix and branch row of a word of all P (index 0) or all Q (1).
        Row 2i-1, (P_i, Q_i), follows side i's choice; row 2i, (Q_i, P_{i+1}), does not."""
        n, m = self.n, 2 * self.n
        matrix = np.zeros((2, m, m), dtype=bool)
        branch = np.zeros((2, m), dtype=np.intp)
        for c, i in itertools.product(range(2), range(1, n + 1)):
            si = self.sigma(i)
            # Per row: generator applied, first column and width of the row's block.
            odd = (self.wrap(i - 1), 2 * self.tau_sigma(i) - 1, 2) if c else (i, 2 * si + 2, 2)
            for row, (gen, start, count) in ((2 * i - 2, odd), (2 * i - 1, (i, 2 * si + 4, 2 * n - 7))):
                branch[c, row] = gen
                matrix[c, row, (start - 1 + np.arange(count)) % m] = True
        return matrix, branch

    @cached_property
    def dual_rows(self) -> np.ndarray:
        """The dual image checks' identities, laid out like corner_rows: rows[i-1]
        holds side i's 4 rows for the wide rectangle, then 2 for the tail, used
        when the choice at sigma(i) is P, and 2 for the head, used when the
        choice at sigma(i)+1 is Q.
        """
        P, Q, G, H, D = range(5)
        rows = np.zeros((self.n, 8, 5), dtype=np.intp)
        for i in range(1, self.n + 1):
            j = self.sigma(i)
            rows[i - 1] = [(i, Q, i + 2, Q, j), (i, P, i - 1, P, j + 1), (i, D, i, H, j + 1), (i, D, i + 1, G, j - 1),
                           (i, G, i, G, j - 2), (i, Q, i + 1, P, j), (i, H, i, H, j + 2), (i, P, i, Q, j + 1)]
        rows[..., ::2] = (rows[..., ::2] - 1) % self.n
        return rows

    @cached_property
    def rect_rows(self) -> np.ndarray:
        """Where the domains' rectangle ends sit in the named-point table:
        rows[0] holds the table row (P, Q, G, H, D) and rows[1] the 0-based
        side of each end (x0, x1, y0, y1).  Rows 2i-2 and 2i-1 are strip i's
        lower and upper rectangles (build_domain); from row 2N come each
        strip's dual wide, head and tail rectangles (DualDomain).
        """
        P, Q, G, H, D = range(5)
        ends = []
        for i in range(1, self.n + 1):
            ends += [[(H, i + 1), (G, i - 2), (P, i), (Q, i)], [(H, i + 1), (G, i - 1), (Q, i), (P, i + 1)]]
        for i in range(1, self.n + 1):
            ends += [[(Q, i + 2), (P, i - 1), (D, i), (D, i + 1)], [(P, i - 1), (P, i), (H, i), (D, i + 1)],
                     [(Q, i + 1), (Q, i + 2), (D, i), (G, i)]]
        rows = np.array(ends).transpose(2, 0, 1)
        rows[1] = (rows[1] - 1) % self.n
        return rows

    @cached_property
    def strip_pieces(self) -> tuple[np.ndarray, np.ndarray]:
        """The analytic check's strip tiling: row 2m-2 (lower, e = m-2) and
        2m-1 (upper, e = m-1) list the pieces of the chain H_{m+1}, D_{m+2},
        ..., D_e, G_e, padded with 3N; piece j-1 is [H_j, D_{j+1}], N+j-1 is
        [D_j, D_{j+1}] and 2N+j-1 is [D_j, G_j].  ends holds each row's
        0-based H and G sides.
        """
        n = self.n
        pieces = np.full((2 * n, n - 1), 3 * n, dtype=np.intp)
        ends = np.zeros((2 * n, 2), dtype=np.intp)
        for m in range(1, n + 1):
            for row, e in ((2 * m - 2, m + n - 2), (2 * m - 1, m + n - 1)):
                chain = [m % n, *(n + (j - 1) % n for j in range(m + 2, e)), 2 * n + (e - 1) % n]
                pieces[row, : len(chain)] = chain
                ends[row] = m % n, (e - 1) % n
        return pieces, ends


@dataclass(frozen=True)
class SurfaceGroup:
    """Polygon data plus the generators identifying its sides.

    vertices[k] is V_{k+1}; P[k], Q[k] are the ideal points P_{k+1}, Q_{k+1};
    generators[k] is T_{k+1}.  Use the 1-based accessors v/p/q/t/u, which read
    entry i mod N (index -1 is entry N).  n, wrap, sigma, tau and tau_sigma
    are those of `maps`, bound on the instance.
    """

    genus: int
    vertices: tuple[complex, ...]
    P: tuple[CirclePoint, ...]
    Q: tuple[CirclePoint, ...]
    generators: tuple[MoebiusMap, ...]
    maps: SideIndexMaps
    offset: float = 0.0

    def __post_init__(self):
        for name in ("n", "wrap", "sigma", "tau", "tau_sigma"):
            object.__setattr__(self, name, getattr(self.maps, name))

    def v(self, i: int) -> complex:
        return self.vertices[i % self.n - 1]

    def p(self, i: int) -> CirclePoint:
        return self.P[i % self.n - 1]

    def q(self, i: int) -> CirclePoint:
        return self.Q[i % self.n - 1]

    def t(self, i: int) -> MoebiusMap:
        return self.generators[i % self.n - 1]

    @cached_property
    def _coefficients(self) -> tuple[np.ndarray, np.ndarray]:
        """The coefficients a and c of T_1..T_N, as arrays."""
        return np.array([m.a for m in self.generators]), np.array([m.c for m in self.generators])

    def t_angles(self, index, *thetas) -> tuple[np.ndarray, ...]:
        """T_i(theta) as angles for each array in thetas, where index holds
        each row's 1-based i and broadcasts against every array."""
        k = np.asarray(index) - 1
        a, c = self._coefficients[0][k], self._coefficients[1][k]
        return tuple(moebius_angles(a, c, x) for x in thetas)

    @cached_property
    def _vertex_products(self) -> tuple[tuple[MoebiusMap, ...], np.ndarray]:
        """U_1..U_N with U_i = T_sigma(i-1) T_tau(i), and each one's distance
        to T_sigma(i) T_{tau(i)-1}, the same map by the vertex relation."""
        pairs = [
            (self.t(self.sigma(i - 1)) @ self.t(self.tau(i)), self.t(self.sigma(i)) @ self.t(self.tau(i) - 1))
            for i in range(1, self.n + 1)
        ]
        return tuple(u for u, _ in pairs), np.array([u.distance_to(alt) for u, alt in pairs])

    def u(self, i: int) -> MoebiusMap:
        """U_i = T_sigma(i-1) T_tau(i), read at i mod N like t."""
        return self._vertex_products[0][i % self.n - 1]

    def check_u(self, tol: float = TOL):
        """Raise ContradictionError if the two products for some U_i differ by more than tol."""
        bad = np.flatnonzero(self._vertex_products[1] > tol)
        if len(bad):
            raise ContradictionError(f"the two expressions for U_{bad[0] + 1} disagree")

    @cached_property
    def p_angles(self) -> np.ndarray:
        """The angles of P_1..P_N, for array lookups."""
        return np.array([pt.angle for pt in self.P])

    @cached_property
    def q_angles(self) -> np.ndarray:
        """The angles of Q_1..Q_N, for array lookups."""
        return np.array([pt.angle for pt in self.Q])

    @cached_property
    def clipper(self) -> "GeodesicClipper":
        """The array polygon clipper of this surface, built once."""
        return GeodesicClipper(self)

    def side_circle(self, i: int) -> tuple[complex, float] | None:
        """Center/radius of the circle extending side i (None for a diameter)."""
        return geodesic_circle(self.v(i), self.v(i + 1))

    def boundary_points_in_order(self) -> list[CirclePoint]:
        return [pt for pair in zip(self.P, self.Q) for pt in pair]

    def to_json(self) -> str:
        doc = {
            "genus": self.genus,
            "offset": self.offset,
            "vertices": [[z.real, z.imag] for z in self.vertices],
            "generators": [
                {"a": [m.a.real, m.a.imag], "c": [m.c.real, m.c.imag]}
                for m in self.generators
            ],
            "sigma": [self.sigma(i) for i in range(1, self.n + 1)],
            "tau": [self.tau(i) for i in range(1, self.n + 1)],
        }
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "SurfaceGroup":
        doc = json.loads(text)
        g = int(doc["genus"])
        vertices = tuple(complex(x, y) for x, y in doc["vertices"])
        gens = tuple(
            MoebiusMap(complex(*d["a"]), complex(*d["c"])).normalized()
            for d in doc["generators"]
        )
        surface = assemble_surface(g, vertices, gens, offset=float(doc.get("offset", 0.0)))
        report = verify_group_relations(surface)
        if not report.passed:
            raise ConstructionError(
                f"deserialized surface fails relations: {report.failures[0][0]}"
            )
        return surface


def assemble_surface(
    genus: int,
    vertices: Sequence[complex],
    generators: Sequence[MoebiusMap],
    offset: float = 0.0,
) -> SurfaceGroup:
    """Build a SurfaceGroup from externally supplied vertices and generators.

    The ideal endpoints are recomputed from the vertices.  No invariants are
    checked here; callers gate on verify_group_relations.
    """
    maps = SideIndexMaps(genus)
    n = maps.n
    if len(vertices) != n or len(generators) != n:
        raise ValueError(f"expected {n} vertices and generators")
    # Side i, extended backward and forward, ends at P_i and Q_{i+1}.
    ends = [geodesic_endpoints(vertices[i - 1], vertices[i % n]) for i in range(1, n + 1)]
    return SurfaceGroup(
        genus=genus,
        vertices=tuple(vertices),
        P=tuple(p for p, _ in ends),
        Q=tuple(q for _, q in ends[-1:] + ends[:-1]),
        generators=tuple(generators),
        maps=maps,
        offset=offset,
    )


def regular_vertex_radius(genus: int) -> float:
    """Euclidean vertex radius of the regular right-angled (8g-4)-gon.

    cosh R = cot(pi/N) * cot(pi/4) for the hyperbolic circumradius R of a
    regular N-gon with interior angle pi/2; the Euclidean radius in the
    disk model is tanh(R/2).
    """
    n = 8 * genus - 4
    cosh_r = 1.0 / math.tan(math.pi / n)
    return math.tanh(0.5 * math.acosh(cosh_r))


def build_regular_surface(genus: int, offset: float = 0.0) -> SurfaceGroup:
    """The regular Ford (8g-4)-gon with its side-pairing generators, in closed form.

    Vertices sit at Euclidean radius regular_vertex_radius(genus) on rays at
    angles 2*pi*(k-1)/N + offset.  So side i has its midpoint in direction
    alpha_i = 2*pi*(i-1)/N + pi/N + offset, at hyperbolic distance d from
    the centre, where cos(pi/4) = cosh d * sin(pi/N) in the right triangle
    (centre, midpoint, vertex) with angles pi/N and pi/4.

    The half turn about the midpoint tanh(d/2) of the side in direction 0
    swaps that side's ends; its coefficients are -i cosh d and -i sinh d
    (circle.half_turn).  Rot(t): z -> e^{it} z has a = e^{it/2}, c = 0.  So

        T_i = Rot(alpha_sigma(i)) o half_turn(tanh(d/2)) o Rot(-alpha_i)

    maps side i onto side sigma(i), with V_i -> V_{sigma(i)+1}, and, up to
    the global sign,

        a_i = i cosh d e^{i(alpha_sigma(i) - alpha_i)/2},
        c_i = i sinh d e^{-i(alpha_i + alpha_sigma(i))/2}.

    The surface is validated against all group relations.
    """
    maps = SideIndexMaps(genus)
    n = maps.n
    r = regular_vertex_radius(genus)
    vertices = [r * cmath.exp(1j * (TWO_PI * k / n + offset)) for k in range(n)]
    cosh_d = math.cos(0.25 * math.pi) / math.sin(math.pi / n)
    sinh_d = math.sqrt(cosh_d * cosh_d - 1.0)
    alpha = [TWO_PI * k / n + math.pi / n + offset for k in range(n)]
    gens = []
    for i in range(1, n + 1):
        a_i, a_si = alpha[i - 1], alpha[maps.sigma(i) - 1]
        gens.append(
            MoebiusMap(
                1j * cosh_d * cmath.exp(0.5j * (a_si - a_i)),
                1j * sinh_d * cmath.exp(-0.5j * (a_i + a_si)),
            )
        )
    surface = assemble_surface(genus, vertices, gens, offset)
    report = verify_group_relations(surface)
    if not report.passed:
        name, dev = report.failures[0]
        raise ConstructionError(f"construction violates {name} (deviation {dev:.3g})")
    return surface


@dataclass
class RelationReport:
    """Per-relation deviations from the identities a surface group must satisfy."""

    entries: list[tuple[str, float]] = field(default_factory=list)
    tol: float = TOL

    def add(self, name: str, deviation: float):
        self.entries.append((name, deviation))

    @property
    def failures(self) -> list[tuple[str, float]]:
        return [(n, d) for n, d in self.entries if not d <= self.tol]  # so NaN fails

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def max_deviation(self) -> float:
        return max((d for _, d in self.entries), default=0.0)

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        lines = [
            f"{status}: {len(self.entries)} relations, max deviation {self.max_deviation:.3g}"
        ]
        lines += [f"  FAIL {n}: {d:.3g}" for n, d in self.failures]
        return "\n".join(lines)


def interior_angle(surface: SurfaceGroup, i: int) -> float:
    """Interior angle of the polygon at vertex V_i, between sides i-1 and i."""
    v = surface.v(i)

    def tangent_toward(side: int, target: complex) -> complex:
        circ = surface.side_circle(side)
        if circ is None:
            return (target - v) / abs(target - v)
        center, _ = circ
        t = 1j * (v - center)
        t /= abs(t)
        if (t.conjugate() * (target - v)).real < 0.0:
            t = -t
        return t

    t_prev = tangent_toward(i - 1, surface.v(i - 1))
    t_next = tangent_toward(i, surface.v(i + 1))
    dot = (t_prev.conjugate() * t_next).real
    return math.acos(max(-1.0, min(1.0, dot)))


def verify_group_relations(surface: SurfaceGroup, tol: float = TOL) -> RelationReport:
    """Check pairing and vertex relations, endpoint images, cyclic order, angles."""
    report = RelationReport(tol=tol)
    n = surface.n
    ident = MoebiusMap.identity()
    for i in range(1, n + 1):
        si = surface.sigma(i)
        report.add(
            f"T_sigma({i})*T_{i} = Id",
            (surface.t(si) @ surface.t(i)).distance_to(ident),
        )
    for i in range(1, n + 1):
        r1 = surface.maps.rho(i)
        r2 = surface.maps.rho(r1)
        r3 = surface.maps.rho(r2)
        word = surface.t(r3) @ surface.t(r2) @ surface.t(r1) @ surface.t(i)
        report.add(f"four-term relation at {i}", word.distance_to(ident))
    for i in range(1, n + 1):
        si = surface.sigma(i)
        img_p = surface.t(i).apply(surface.p(i))
        img_q = surface.t(i).apply(surface.q(i + 1))
        report.add(
            f"T_{i}(P_{i}) = Q_{surface.wrap(si + 1)}",
            abs(math.remainder(img_p.angle - surface.q(si + 1).angle, TWO_PI)),
        )
        report.add(
            f"T_{i}(Q_{surface.wrap(i + 1)}) = P_{si}",
            abs(math.remainder(img_q.angle - surface.p(si).angle, TWO_PI)),
        )
    pts = surface.boundary_points_in_order()
    base = pts[0].angle
    gaps = [ccw_distance(base, pt.angle) for pt in pts]
    order_ok = all(gaps[k] < gaps[k + 1] for k in range(len(gaps) - 1))
    report.add("boundary order P_1,Q_1,P_2,Q_2,...", 0.0 if order_ok else 1.0)
    for i in range(1, n + 1):
        report.add(
            f"interior angle at V_{i} = pi/2",
            abs(interior_angle(surface, i) - 0.5 * math.pi),
        )
    return report


# -- geodesic vs polygon ----------------------------------------------------
#
# The fundamental polygon is the set of disk points lying outside every
# side circle (the circles extending the sides are orthogonal to the unit
# circle and, by the extension condition, never cross the polygon
# interior).  A geodesic crosses each side circle at most once inside the
# disk: both circles are orthogonal to the unit circle, so their radical
# line passes through the origin and their two intersection points are
# inverses through the unit circle, leaving at most one interior crossing.
# Clipping by all sides therefore yields a single feasible parameter
# interval [lo, hi]; its length decides inside/boundary/outside and the
# binding constraints name the entry and exit sides.  A geodesic whose
# circle is a side circle (P_i -> Q_{i+1} or back) runs along side i: that
# side cuts nothing, and the geodesic only touches the polygon.


class GeodesicClipper:
    """Vectorized membership/exit-side computation for many boundary pairs.

    Antipodal pairs (true diameters) are nudged by 1e-11 so a single
    circle-arc code path serves every sample; the induced endpoint error is
    below the package tolerance and the nudged set has measure zero.
    """

    def __init__(self, surface: SurfaceGroup):
        self.surface = surface
        n = surface.n
        self.centers = np.empty(n, dtype=complex)
        self.radii = np.empty(n)
        for i in range(1, n + 1):
            c, r = surface.side_circle(i)  # type: ignore[misc]
            self.centers[i - 1] = c
            self.radii[i - 1] = r

    def clip(self, u_angles, w_angles):
        """Feasible interval [lo, hi] plus entry/exit sides (1-based, 0 = none).

        Returns (lo, hi, entry, exit, lo_ties, hi_ties); ties count how many
        sides achieve the binding parameter within 1e-9 (2+ means a vertex).
        A geodesic that misses the polygon gets hi = lo and no sides; one
        whose circle is a side circle (centre and radius within 1e-7) gets
        hi = lo and keeps the sides that cut it at the side's vertices.
        """
        u_angles = np.asarray(u_angles, dtype=float)
        w_angles = np.asarray(w_angles, dtype=float)
        gap = np.remainder(w_angles - u_angles, TWO_PI)
        w_angles = np.where(np.abs(gap - math.pi) < 1e-11, w_angles + 1e-11, w_angles)
        u = np.exp(1j * u_angles)
        w = np.exp(1j * w_angles)

        det = u.real * w.imag - w.real * u.imag
        det = np.where(np.abs(det) < 1e-300, 1e-300, det)
        center = (w.imag - u.imag) / det + 1j * ((u.real - w.real) / det)
        rad = np.sqrt(np.maximum(np.abs(center) ** 2 - 1.0, 1e-300))

        phi_u = np.angle(u - center)
        phi_w = np.angle(w - center)
        delta = np.remainder(phi_w - phi_u + math.pi, TWO_PI) - math.pi
        delta = np.where(delta == 0.0, 1e-300, delta)

        m = len(u)
        lo = np.zeros(m)
        hi = np.ones(m)
        entry = np.zeros(m, dtype=np.int64)
        exit_ = np.zeros(m, dtype=np.int64)
        dead = np.zeros(m, dtype=bool)
        on_side = np.zeros(m, dtype=bool)

        cross_list = []
        s_list = []
        bad_left_list = []
        for k in range(len(self.centers)):
            c = self.centers[k]
            r = self.radii[k]
            d = c - center
            abs_d = np.maximum(np.abs(d), 1e-300)
            # Rows whose geodesic extends this side: it neither cuts them nor marks them dead.
            same = (abs_d <= 1e-7) & (np.abs(rad - r) <= 1e-7)
            on_side |= same
            e = 1j * d / abs_d
            b = (np.conj(e) * c).real
            disc = b * b - 1.0
            has_root = disc > 0.0
            root = np.sqrt(np.maximum(disc, 0.0))
            t = b - np.copysign(root, b)
            cross = has_root & (np.abs(t) < 1.0) & ~same
            z = t * e
            s = (np.remainder(np.angle(z - center) - phi_u + math.pi, TWO_PI) - math.pi) / delta
            inside_u = (np.conj(u) * c).real > 1.0
            inside_w = (np.conj(w) * c).real > 1.0
            bad_left = np.where(s > 0.5, inside_u, ~inside_w)
            dead |= ~cross & inside_u & inside_w & ~same

            raise_lo = cross & bad_left & (s > lo)
            lo = np.where(raise_lo, s, lo)
            entry = np.where(raise_lo, k + 1, entry)
            lower_hi = cross & ~bad_left & (s < hi)
            hi = np.where(lower_hi, s, hi)
            exit_ = np.where(lower_hi, k + 1, exit_)

            cross_list.append(cross)
            s_list.append(s)
            bad_left_list.append(bad_left)

        lo_ties = np.zeros(m, dtype=np.int64)
        hi_ties = np.zeros(m, dtype=np.int64)
        for cross, s, bad_left in zip(cross_list, s_list, bad_left_list):
            lo_ties += (cross & bad_left & (np.abs(s - lo) <= 1e-9)).astype(np.int64)
            hi_ties += (cross & ~bad_left & (np.abs(s - hi) <= 1e-9)).astype(np.int64)

        entry = np.where(dead, 0, entry)
        exit_ = np.where(dead, 0, exit_)
        hi = np.where(dead | on_side, lo, hi)
        return lo, hi, entry, exit_, lo_ties, hi_ties

    def status_codes(self, u_angles, w_angles, tol: float = TOL) -> np.ndarray:
        """1 = inside, 0 = boundary touch, -1 = outside."""
        lo, hi, entry, exit_, _, _ = self.clip(u_angles, w_angles)
        inside = (hi - lo > tol) & (entry > 0) & (exit_ > 0)
        touched = (entry > 0) | (exit_ > 0)
        return np.where(inside, 1, np.where(np.abs(hi - lo) <= tol, np.where(touched, 0, -1), -1))

