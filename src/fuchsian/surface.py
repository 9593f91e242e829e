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
    CirclePartition,
    CirclePoint,
    MoebiusMap,
    angdiff_many,
    ccw_distance_many,
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


@dataclass(frozen=True, eq=False)
class SurfaceGroup:
    """Polygon data plus the generators identifying its sides, as read-only arrays.

    Entry k belongs to index k+1: vertices[k] is V_{k+1}, p_angles[k] and
    q_angles[k] are the angles of the ideal points P_{k+1} and Q_{k+1}, and
    coefficients[:, k] holds the a and c of T_{k+1}.  The 1-based accessors
    v/p/q/t/u read entry i mod N (index -1 is entry N).  n, wrap, sigma, tau
    and tau_sigma are those of `maps`, bound on the instance.
    """

    genus: int
    vertices: np.ndarray
    p_angles: np.ndarray
    q_angles: np.ndarray
    coefficients: np.ndarray
    maps: SideIndexMaps
    offset: float = 0.0

    def __post_init__(self):
        for name in ("n", "wrap", "sigma", "tau", "tau_sigma"):
            object.__setattr__(self, name, getattr(self.maps, name))
        for x in (self.vertices, self.p_angles, self.q_angles, self.coefficients):
            x.setflags(write=False)

    def v(self, i: int) -> complex:
        return complex(self.vertices[i % self.n - 1])

    def p(self, i: int) -> CirclePoint:
        return CirclePoint(self.p_angles[i % self.n - 1])

    def q(self, i: int) -> CirclePoint:
        return CirclePoint(self.q_angles[i % self.n - 1])

    def t(self, i: int) -> MoebiusMap:
        return MoebiusMap(*self.coefficients[:, i % self.n - 1].tolist())

    def t_angles(self, index, *thetas) -> tuple[np.ndarray, ...]:
        """T_i(theta) as angles for each array in thetas, where index holds
        each row's 1-based i, read mod N like t(i), and broadcasts against
        every array."""
        k = np.asarray(index) - 1
        a, c = (row.take(k, mode="wrap") for row in self.coefficients)
        return tuple(moebius_angles(a, c, x) for x in thetas)

    @cached_property
    def vertex_products(self) -> tuple[np.ndarray, np.ndarray]:
        """U_1..U_N with U_i = T_sigma(i-1) T_tau(i), as a read-only array laid
        out like `coefficients`, and each one's distance to T_sigma(i)
        T_{tau(i)-1}, the same map by the vertex relation.  Each U_i is one
        scalar compose: composing on arrays moves the last bits of most U_i."""
        pairs = [
            (self.t(self.sigma(i - 1)) @ self.t(self.tau(i)), self.t(self.sigma(i)) @ self.t(self.tau(i) - 1))
            for i in range(1, self.n + 1)
        ]
        u = np.array([[m.a for m, _ in pairs], [m.c for m, _ in pairs]])
        u.setflags(write=False)
        return u, np.array([m.distance_to(alt) for m, alt in pairs])

    def u(self, i: int) -> MoebiusMap:
        """U_i = T_sigma(i-1) T_tau(i), read at i mod N like t."""
        return MoebiusMap(*self.vertex_products[0][:, i % self.n - 1].tolist())

    def check_u(self, tol: float = TOL):
        """Raise ContradictionError if the two products for some U_i differ by more than tol."""
        bad = np.flatnonzero(self.vertex_products[1] > tol)
        if len(bad):
            raise ContradictionError(f"the two expressions for U_{bad[0] + 1} disagree")

    @cached_property
    def clipper(self) -> "GeodesicClipper":
        """The array polygon clipper of this surface, built once."""
        return GeodesicClipper(self)

    def side_circle(self, i: int) -> tuple[complex, float] | None:
        """Center/radius of the circle extending side i (None for a diameter)."""
        return geodesic_circle(self.v(i), self.v(i + 1))

    def to_json(self) -> str:
        doc = {
            "genus": self.genus,
            "offset": self.offset,
            "vertices": [[z.real, z.imag] for z in self.vertices.tolist()],
            "generators": [
                {"a": [a.real, a.imag], "c": [c.real, c.imag]}
                for a, c in zip(*self.coefficients.tolist())
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
        genus,
        np.array(vertices, dtype=complex),
        np.array([p.angle for p, _ in ends]),
        np.array([q.angle for _, q in ends[-1:] + ends[:-1]]),
        np.array([[m.a for m in generators], [m.c for m in generators]], dtype=complex),
        maps,
        offset,
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
    p, q = surface.p_angles, surface.q_angles
    sig = surface.maps.side_rows[0] - 1  # 0-based sigma(i)
    with np.errstate(invalid="ignore"):  # corrupt coefficients give NaN deviations, which fail below
        img_p, img_q = surface.t_angles(np.arange(1, n + 1), p, np.roll(q, -1))
    dev_p, dev_q = angdiff_many(img_p, q[(sig + 1) % n]), angdiff_many(img_q, p[sig])
    for i, si, dp, dq in zip(range(1, n + 1), sig.tolist(), dev_p.tolist(), dev_q.tolist()):
        report.add(f"T_{i}(P_{i}) = Q_{surface.wrap(si + 2)}", dp)
        report.add(f"T_{i}(Q_{surface.wrap(i + 1)}) = P_{si + 1}", dq)
    gaps = ccw_distance_many(p[0], np.stack([p, q], axis=1).ravel())  # P_1, Q_1, P_2, Q_2, ...
    report.add("boundary order P_1,Q_1,P_2,Q_2,...", 0.0 if (gaps[:-1] < gaps[1:]).all() else 1.0)
    for i in range(1, n + 1):
        report.add(
            f"interior angle at V_{i} = pi/2",
            abs(interior_angle(surface, i) - 0.5 * math.pi),
        )
    return report


# -- geodesic vs polygon ----------------------------------------------------


class GeodesicClipper:
    """Where many geodesics u -> w cross the polygon, from their end angles alone.

    Side k, extended, is the geodesic (P_k, Q_{k+1}); it cuts off the
    half-plane over the arc [P_k, Q_{k+1}), which holds Q_k and P_{k+1},
    and the polygon is what the N half-planes leave.  The arcs are read on
    the circle alone, so nothing assumes where the origin lies.  Cut at
    P_1, Q_1, P_2, Q_2, ..., the circle falls into 2N pieces, piece 2k-1
    starting at P_k, and the arc of side k is pieces 2k-1, 2k and 2k+1.
    So a point lies in at most two arcs: those of sides i and i-1 for a
    point of [P_i, P_{i+1}).

    A geodesic with both ends in one arc lies in that half-plane and
    misses the polygon.  One with exactly one end in the arc of side k
    crosses side k's geodesic (a, b) once, entering the polygon's side of
    it if u is in the arc and leaving it if w is.  Map u to 0 and w to
    infinity in the upper half-plane, z -> (z - e^{iu}) / (z - e^{iw}) up
    to a rotation: the geodesic becomes the imaginary axis, on which
    log(height) is the hyperbolic position, and (a, b) becomes the
    semicircle over a', b', which meets the axis at height sqrt|a'b'|.  As
    |e^{ia} - e^{iu}| = 2|sin((a-u)/2)|, the crossing sits at

        t = 1/2 log| sin((a-u)/2) sin((b-u)/2) / (sin((a-w)/2) sin((b-w)/2)) |,

    a cross-ratio of u, w, a, b, increasing toward w.  The sides that can
    cut a row are those whose arcs hold u or w: at most 4 of them.  The
    chord is [lo, hi], lo the last entry and hi the first exit, and
    hi - lo is its hyperbolic length, the same in every frame.
    """

    def __init__(self, surface: SurfaceGroup):
        self.surface = surface
        p, q = surface.p_angles, surface.q_angles
        self.pieces = CirclePartition(np.stack([p, q], axis=1).ravel())  # P_1, Q_1, P_2, ...
        self.half_ends = 0.5 * np.stack([p, np.roll(q, -1)])  # halves of side k's (P_k, Q_{k+1})

    def clip(self, u_angles, w_angles):
        """Chord [lo, hi] in hyperbolic position plus entry/exit sides (1-based, 0 = none).

        Returns (lo, hi, entry, exit, lo_ties, hi_ties); ties count how many
        sides achieve the binding position within 1e-9 (2+ means a vertex).
        A geodesic with both ends in one side's arc gets lo = hi = 0 and no
        sides; any other that misses the polygon has hi < lo.  One that
        runs along side k, with ends within 1e-9 of P_k and Q_{k+1} in
        either order, is not cut by side k; it gets hi = lo and keeps the
        sides that cut it at the side's vertices.
        """
        u = np.asarray(u_angles, dtype=float)
        w = np.asarray(w_angles, dtype=float)
        n = self.surface.n
        piece_u, piece_w = self.pieces.index_many(u) - 1, self.pieces.index_many(w) - 1  # 0-based
        # Slots 0, 1 hold the 0-based sides whose arcs may hold u, slots 2, 3 those for w.
        k = np.stack([piece_u // 2, piece_u // 2 - 1, piece_w // 2, piece_w // 2 - 1], axis=1) % n
        in_u = (piece_u[:, None] - 2 * k) % (2 * n) <= 2
        in_w = (piece_w[:, None] - 2 * k) % (2 * n) <= 2
        # |sin((end - x)/2)| for each slot's side ends, one array each.
        sines = []
        for x in (u, w):
            for end in self.half_ends:
                s = end[k]
                s -= 0.5 * x[:, None]
                sines.append(np.abs(np.sin(s, out=s), out=s))
        ua, ub, wa, wb = sines
        near = math.sin(0.5e-9)  # |sin(d/2)| <= sin(tol/2) iff the angles are within tol
        side = ((ua <= near) & (wb <= near)) | ((ub <= near) & (wa <= near))
        with np.errstate(divide="ignore", invalid="ignore"):  # an end on a side's end gives +-inf
            ua *= ub
            wa *= wb
            ua /= wa
            t = np.log(ua, out=ua)
        t *= 0.5
        enter = (in_u & ~in_w & ~side)[:, :2]
        leave = (in_w & ~in_u & ~side)[:, 2:]
        dead = (in_u & in_w & ~side)[:, :2].any(axis=1)

        t_in = np.where(enter, t[:, :2], -np.inf)
        t_out = np.where(leave, t[:, 2:], np.inf)
        first_in, first_out = t_in.argmax(axis=1), t_out.argmin(axis=1)
        rows = np.arange(len(u))
        lo, hi = t_in[rows, first_in], t_out[rows, first_out]
        with np.errstate(invalid="ignore"):  # inf - inf on a row without that kind of cut
            lo_ties = (np.abs(t_in - lo[:, None]) <= 1e-9).sum(axis=1)
            hi_ties = (np.abs(t_out - hi[:, None]) <= 1e-9).sum(axis=1)
        entry = np.where(dead, 0, k[rows, first_in] + 1)
        exit_ = np.where(dead, 0, k[rows, 2 + first_out] + 1)
        lo = np.where(dead, 0.0, lo)
        hi = np.where(dead | side.any(axis=1), lo, hi)
        return lo, hi, entry, exit_, lo_ties, hi_ties

    def status_codes(self, u_angles, w_angles, tol: float = TOL) -> np.ndarray:
        """1 = inside, 0 = boundary touch, -1 = outside."""
        lo, hi, entry, exit_, _, _ = self.clip(u_angles, w_angles)
        inside = (hi - lo > tol) & (entry > 0) & (exit_ > 0)
        touched = (entry > 0) | (exit_ > 0)
        return np.where(inside, 1, np.where(np.abs(hi - lo) <= tol, np.where(touched, 0, -1), -1))
