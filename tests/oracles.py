"""Reference implementations that the fast paths are tested against."""

import cmath
import dataclasses
import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from fuchsian.boundary import (
    NAMED,
    BijectivityReport,
    DomainRect,
    RectDomain,
    boundary_step,
    extension_step,
    extension_step_many,
    identity_failures,
    inverse_step,
    inverse_step_many,
)
from fuchsian.circle import (
    TOL,
    TWO_PI,
    CirclePoint,
    MoebiusMap,
    angdiff,
    angdiff_many,
    angular_separation,
    ccw_distance,
    moebius_angles,
    wrap_angle,
)
from fuchsian.coding import CodingSeq, RegionTable, TransitionMatrix
from fuchsian.duality import build_omega_dual
from fuchsian.errors import (
    BijectivityError,
    ContradictionError,
    DegeneratePointsError,
    FuchsianError,
    MarkovError,
    NotDiskAutomorphismError,
    OutsideDomainError,
)
from fuchsian.surface import SurfaceGroup, assemble_surface
from fuchsian.words import BasePoint, GroupWord, prepend


# -- arcs ----------------------------------------------------------------------
#
# The closed-arc reference that circle.outside_arc is tested against, and the
# half-open arcs of a DomainRect, which the library keeps as end angles.


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


def rect_arcs(r):
    """A DomainRect's x- and y-arcs, closed on the left and open on the right."""
    return Arc(CirclePoint(r.x0), CirclePoint(r.x1)), Arc(CirclePoint(r.y0), CirclePoint(r.y1))


# -- Moebius maps and cyclic order ---------------------------------------------


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


class SingularMapError(FuchsianError):
    """A Moebius denominator vanished; the map data is corrupted."""


def apply_complex(m: MoebiusMap, z: complex) -> complex:
    """The scalar Moebius kernel that circle.moebius_angles is tested against."""
    den = m.c * z + m.a.conjugate()
    if abs(den) < TOL:
        raise SingularMapError("Moebius denominator vanished; corrupted data")
    return (m.a * z + m.c.conjugate()) / den


def apply(m: MoebiusMap, x: CirclePoint) -> CirclePoint:
    w = apply_complex(m, x.value)
    return CirclePoint(cmath.phase(w))


def apply_angle(m: MoebiusMap, theta: float) -> float:
    w = apply_complex(m, cmath.exp(1j * theta))
    return wrap_angle(cmath.phase(w))


def inverse(m: MoebiusMap) -> MoebiusMap:
    return MoebiusMap(m.a.conjugate(), -m.c)


def frame_map(z0: complex) -> MoebiusMap:
    """The disk isometry M(z) = (z + z0) / (1 + conj(z0) z), which takes 0 to z0."""
    return MoebiusMap(1.0 + 0.0j, complex(z0).conjugate()).normalized()


def moved(surface: SurfaceGroup, z0: complex) -> SurfaceGroup:
    """The same surface in another frame: conjugated by frame_map(z0) = M.
    Its vertices are M(V_i) and its generators M T_i M^-1."""
    m = frame_map(z0)
    vertices = [apply_complex(m, v) for v in surface.vertices.tolist()]
    gens = [m @ surface.t(i) @ inverse(m) for i in range(1, surface.n + 1)]
    return assemble_surface(surface.genus, vertices, gens, surface.offset)


def trace(m: MoebiusMap) -> float:
    return 2.0 * m.a.real


def derivative_abs(m: MoebiusMap, z: complex) -> float:
    """|f'(z)|; equals 1/|c*z + conj(a)|^2."""
    return 1.0 / abs(m.c * z + m.a.conjugate()) ** 2


def fixed_points_on_circle(m: MoebiusMap, tol: float = TOL) -> tuple[CirclePoint, CirclePoint]:
    """The two circle fixed points of a hyperbolic map, attracting first.

    Raises ValueError for a map that is not hyperbolic.
    """
    if abs(trace(m)) <= 2.0 + tol:
        raise ValueError(f"|trace| = {abs(trace(m)):.12g} is not > 2; no two circle fixed points")
    # c*z^2 + (conj(a)-a)*z - conj(c) = 0; |c| > 0 because |Re a| > 1.
    s = math.sqrt(m.a.real**2 - 1.0)
    z1 = (1j * m.a.imag + s) / m.c
    z2 = (1j * m.a.imag - s) / m.c
    p1, p2 = CirclePoint.from_complex(z1), CirclePoint.from_complex(z2)
    if derivative_abs(m, p1.value) < 1.0:
        return p1, p2
    return p2, p1


def _det3(m) -> complex:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def from_three_points(pairs: list[tuple[complex, complex]], tol: float = 1e-7) -> MoebiusMap:
    """The Moebius map sending z_k -> w_k for three point pairs; the
    reference that the closed-form generators of build_regular_surface are
    tested against.

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


def inverse_search(solved, domain, u, w, tol=TOL):
    """The scalar N-candidate search: the unique preimage (u', w', branch).

    Raises BijectivityError for no preimage, or for preimages of distinct
    branches that are not within tol of each other (rounding on a shared
    edge).
    """
    if not domain.contains(u, w):
        raise OutsideDomainError("inverse requested for a point outside the domain")
    s = solved.surface
    hits = []
    for i in range(1, s.n + 1):
        t_inv = s.t(s.sigma(i))
        u2, w2 = (CirclePoint(x) for x in moebius_angles(t_inv.a, t_inv.c, [u.angle, w.angle]))
        if solved.params.partition.index(w2.angle) == i and domain.contains(u2, w2):
            hits.append((u2, w2, i))
    if not hits:
        raise BijectivityError("no preimage found inside the domain")
    base = hits[0]
    for other in hits[1:]:
        if angdiff(base[0].angle, other[0].angle) > tol or angdiff(base[1].angle, other[1].angle) > tol:
            raise BijectivityError(f"multiple preimages found: branches {[h[2] for h in hits]}")
    return base


def inverse_search_many(solved, domain, u_thetas, w_thetas):
    """The N-candidate inverse search; returns (u', w', branch, hit_count).

    Candidate i is (T_sigma(i) u, T_sigma(i) w); it is a preimage when it
    lands in the domain with its w-coordinate in [A_i, A_{i+1}).  Each row
    keeps its first hit in branch order and counts them all.
    """
    s = solved.surface
    params = solved.params
    m = len(u_thetas)
    best_u = np.zeros(m)
    best_w = np.zeros(m)
    best_i = np.zeros(m, dtype=np.int64)
    count = np.zeros(m, dtype=np.int64)
    for i in range(1, s.n + 1):
        t_inv = s.t(s.sigma(i))
        u2 = moebius_angles(t_inv.a, t_inv.c, u_thetas)
        w2 = moebius_angles(t_inv.a, t_inv.c, w_thetas)
        ok = (params.partition.index_many(w2) == i) & domain.contains_many(u2, w2)
        newhit = ok & (count == 0)
        best_u = np.where(newhit, u2, best_u)
        best_w = np.where(newhit, w2, best_w)
        best_i = np.where(newhit, i, best_i)
        count += ok.astype(np.int64)
    return best_u, best_w, best_i, count


def dense_distance_many(partition, thetas):
    """Distance to the nearest breakpoint of a CirclePartition, through the
    full m x n matrix of differences: min(min d, 2*pi - max d)."""
    rel = np.remainder(np.asarray(thetas, dtype=float) - partition.base, TWO_PI)
    d = np.abs(rel[:, None] - partition.breaks[None, :])
    return np.minimum(d.min(axis=1), TWO_PI - d.max(axis=1))


def dense_domain_distance(domain, u_thetas, w_thetas):
    """Chebyshev angular distance from each pair to the closed union of the
    domain's rectangles, through the full m x 2N matrix of per-rectangle
    distances."""
    x0 = np.array([r.x0 for r in domain.rects])
    xw = np.array([r.width for r in domain.rects])
    y0 = np.array([r.y0 for r in domain.rects])
    yw = np.array([r.height for r in domain.rects])
    u = np.asarray(u_thetas, dtype=float)[:, None]
    w = np.asarray(w_thetas, dtype=float)[:, None]
    su = np.remainder(u - x0[None, :], TWO_PI)
    du = np.where(su <= xw[None, :], 0.0, np.minimum(su - xw[None, :], TWO_PI - su))
    sw = np.remainder(w - y0[None, :], TWO_PI)
    dw = np.where(sw <= yw[None, :], 0.0, np.minimum(sw - yw[None, :], TWO_PI - sw))
    return np.maximum(du, dw).min(axis=1)


# -- the scalar geodesic tracer ------------------------------------------------
#
# The independent Euclidean reference for `GeodesicClipper`, one geodesic at
# a time: it intersects the geodesic's circle with every side circle and
# takes the polygon to be the points outside all of them, which holds while
# the origin lies in the polygon.  Its lo and hi are fractions of the
# geodesic's Euclidean arc; _GeodesicParam.point turns them into points.


@dataclass(frozen=True)
class GeodesicTrace:
    """Clipping of the geodesic u->w against the polygon.

    status is 'inside', 'boundary' or 'outside'.  For 'inside', entry_side
    and exit_side name the sides crossed first and last in the direction of
    w, and lo/hi are the crossing parameters in [0, 1] along the in-disk
    arc.  vertex_exit flags an exit parameter shared by two sides.
    """

    status: str
    entry_side: int | None = None
    exit_side: int | None = None
    lo: float = 0.0
    hi: float = 1.0
    vertex_exit: bool = False


def ideal_geodesic_circle(u: CirclePoint, w: CirclePoint) -> tuple[complex, float] | None:
    """Centre and radius of the geodesic between ideal points u and w, or
    None for a diameter.

    The closed form e^{i(u+w)/2} / cos((w-u)/2), |tan((w-u)/2)| has no
    cancellation on short chords, where circle.geodesic_circle, which
    solves for the centre and takes sqrt(|centre|^2 - 1), loses the radius
    and can return None.
    """
    half = 0.5 * (w.angle - u.angle)
    cos_half = math.cos(half)
    if abs(cos_half) < 1e-12:
        return None
    return cmath.exp(1j * (u.angle + half)) / cos_half, abs(math.tan(half))


class _GeodesicParam:
    """The in-disk part of the geodesic u -> w, parametrized by s in [0, 1]."""

    def __init__(self, u: CirclePoint, w: CirclePoint):
        circ = ideal_geodesic_circle(u, w)
        if circ is None:
            self.center = None
            self.direction = w.value
        else:
            self.center, self.radius = circ
            self.phi_u = cmath.phase(u.value - self.center)
            phi_w = cmath.phase(w.value - self.center)
            self.delta = math.remainder(phi_w - self.phi_u, TWO_PI)

    def point(self, s: float) -> complex:
        if self.center is None:
            return (2.0 * s - 1.0) * self.direction
        return self.center + self.radius * cmath.exp(1j * (self.phi_u + s * self.delta))

    def param_of(self, z: complex) -> float:
        if self.center is None:
            return 0.5 * ((z * self.direction.conjugate()).real + 1.0)
        return math.remainder(cmath.phase(z - self.center) - self.phi_u, TWO_PI) / self.delta


def _side_cut(par: _GeodesicParam, c: complex, r: float) -> tuple[str, float]:
    """Constraint of one side circle on the geodesic parameter.

    Returns ('none', 0) for no effect, ('dead', 0) when the whole geodesic
    lies inside the side circle, ('lo', s) when the part s' < s is inside
    it, or ('hi', s) when the part s' > s is inside it.
    """
    if par.center is None:
        e = par.direction
    else:
        d = c - par.center
        if abs(d) < 1e-14:
            return ("none", 0.0)  # coincident circles; caller handles this
        e = 1j * d / abs(d)
    # The radical line {t*e} passes through the origin; intersections with
    # the side circle solve t^2 - 2*b*t + 1 = 0, so they are inverses
    # through the unit circle and at most one is interior.
    b = (e.conjugate() * c).real
    disc = b * b - 1.0
    if disc <= 0.0 or abs(t := (b - math.copysign(math.sqrt(disc), b))) >= 1.0:
        inside = abs(par.point(0.5) - c) < r
        return ("dead", 0.0) if inside else ("none", 0.0)
    s = par.param_of(t * e)
    far = 0.0 if s > 0.5 else 1.0
    inside_far = abs(par.point(far) - c) < r
    if far == 0.0:
        return ("lo", s) if inside_far else ("hi", s)
    return ("hi", s) if inside_far else ("lo", s)


def trace_geodesic(
    surface: SurfaceGroup, u: CirclePoint, w: CirclePoint, tol: float = TOL
) -> GeodesicTrace:
    """Clip the geodesic from u to w against all polygon sides."""
    if abs(math.remainder(u.angle - w.angle, TWO_PI)) <= tol:
        raise DegeneratePointsError("geodesic endpoints coincide")
    par = _GeodesicParam(u, w)
    lo, hi = 0.0, 1.0
    lo_side = hi_side = None
    hi_cuts: list[float] = []
    for i in range(1, surface.n + 1):
        c, r = surface.side_circle(i)  # type: ignore[misc]
        kind, s = _side_cut(par, c, r)
        if kind == "dead":
            return GeodesicTrace(status="outside")
        if kind == "lo":
            if s > lo:
                lo, lo_side = s, i
        elif kind == "hi":
            hi_cuts.append(s)
            if s < hi:
                hi, hi_side = s, i
    if lo_side is None and hi_side is None:
        return GeodesicTrace(status="outside")
    if hi - lo < -tol:
        return GeodesicTrace(status="outside", lo=lo, hi=hi)
    if hi - lo <= tol:
        return GeodesicTrace(status="boundary", lo=lo, hi=hi)
    return GeodesicTrace(
        status="inside",
        entry_side=lo_side,
        exit_side=hi_side,
        lo=lo,
        hi=hi,
        vertex_exit=sum(1 for s in hi_cuts if abs(s - hi) <= tol) > 1,
    )


def polygon_status(
    surface: SurfaceGroup, u: CirclePoint, w: CirclePoint, tol: float = TOL
) -> str:
    """'inside' | 'boundary' | 'outside' for the geodesic u -> w vs the polygon."""
    circ = ideal_geodesic_circle(u, w)
    for i in range(1, surface.n + 1):
        side = surface.side_circle(i)
        if circ is None or side is None:
            continue
        if abs(circ[0] - side[0]) <= 1e-7 and abs(circ[1] - side[1]) <= 1e-7:
            return "boundary"  # the geodesic extends side i
    return trace_geodesic(surface, u, w, tol=tol).status


def point_in_polygon(surface: SurfaceGroup, z: complex, tol: float = TOL) -> bool:
    """True iff z lies in the closed fundamental polygon."""
    if abs(z) >= 1.0:
        return False
    for i in range(1, surface.n + 1):
        center, rad = surface.side_circle(i)  # type: ignore[misc]
        if abs(z - center) < rad - tol:
            return False
    return True


# -- the scalar twins of the array geodesic, region and conjugacy steps --------
#
# One geodesic at a time through the array code: GeodesicClipper.status_codes,
# verify_conjugacy's exit-generator step and RegionTable.


def geodesic_intersects_polygon(
    surface: SurfaceGroup, u: CirclePoint, w: CirclePoint, tol: float = TOL
) -> str:
    """'inside' | 'boundary' | 'outside' for the geodesic u -> w vs the polygon."""
    if angdiff(u.angle, w.angle) <= tol:
        raise DegeneratePointsError("geodesic endpoints coincide")
    code = surface.clipper.status_codes([u.angle], [w.angle], tol)[0]
    return ("outside", "boundary", "inside")[code + 1]


def _check_distinct(u: CirclePoint, w: CirclePoint, tol: float):
    if angdiff(u.angle, w.angle) <= tol:
        raise DegeneratePointsError("geodesic endpoints coincide")


def geo_step(
    surface: SurfaceGroup, u: CirclePoint, w: CirclePoint, tol: float = TOL
) -> tuple[CirclePoint, CirclePoint, int]:
    """Apply the exit-side generator to a geodesic crossing the polygon."""
    _check_distinct(u, w, tol)
    lo, hi, entry, exit_, _, hi_ties = surface.clipper.clip([u.angle], [w.angle])
    if not (hi[0] - lo[0] > tol and entry[0] > 0 and exit_[0] > 0):
        raise OutsideDomainError("geodesic does not cross the polygon")
    if hi_ties[0] > 1:
        raise DegeneratePointsError("geodesic exits through a vertex")
    gu, gw = surface.t_angles(exit_, [u.angle], [w.angle])
    return CirclePoint(gu[0]), CirclePoint(gw[0]), int(exit_[0])



# Names of the RegionTable.classify codes; code -1 (undecided) picks the last.
_KINDS = ("core", "bulge_lower", "bulge_upper", "boundary")



def locate_region(
    regions: RegionTable, u: CirclePoint, w: CirclePoint, tol: float = TOL
) -> tuple[str, int | None]:
    """('core'|'bulge_lower'|'bulge_upper'|'outside'|'boundary', index)."""
    _check_distinct(u, w, tol)
    ut, wt = np.array([u.angle]), np.array([w.angle])
    status = regions.surface.clipper.status_codes(ut, wt, tol)
    if status[0] < 0:
        return ("outside", None)
    code, index = regions.classify(ut, wt, status == 1, tol)
    return (_KINDS[code[0]], int(index[0]) if code[0] > 0 else None)


def reduce_geodesic(
    regions: RegionTable, u: CirclePoint, w: CirclePoint, tol: float = TOL
) -> tuple[CirclePoint, CirclePoint, int | None]:
    """Replace a polygon-crossing geodesic by its equivalent domain member.

    Returns (u', w', j) where j is the index of the vertex word applied,
    or None when the geodesic was already in the rectangle domain.
    """
    kind, i = locate_region(regions, u, w, tol)
    if kind == "outside":
        raise OutsideDomainError("geodesic does not cross the polygon")
    if i is None:
        return u, w, None
    s = regions.surface
    j = s.wrap(s.tau(i) + 1) if kind == "bulge_lower" else s.tau(i)
    pu, pw = regions.phi_many([u.angle], [w.angle], np.array([_KINDS.index(kind)]), np.array([i]))
    return CirclePoint(pu[0]), CirclePoint(pw[0]), j


def apply_phi(
    regions: RegionTable, u: CirclePoint, w: CirclePoint, tol: float = TOL
) -> tuple[CirclePoint, CirclePoint]:
    """The conjugacy: identity on the core, a vertex word on each bulge."""
    return reduce_geodesic(regions, u, w, tol)[:2]


def phi_loop(regions: RegionTable, u_thetas, w_thetas, code, index):
    """RegionTable.phi_many as one moebius_angles call per bulge kind and
    index, each with the scalar coefficients of U_{tau(i)+1} (lower) or
    U_tau(i) (upper)."""
    s = regions.surface
    u2 = np.array(u_thetas, dtype=float, copy=True)
    w2 = np.array(w_thetas, dtype=float, copy=True)
    for kind, tau_shift in ((1, 1), (2, 0)):
        mask = code == kind
        if not mask.any():
            continue
        for i in np.unique(index[mask]):
            m = s.u(s.tau(int(i)) + tau_shift)
            sel = mask & (index == i)
            u2[sel] = moebius_angles(m.a, m.c, u2[sel])
            w2[sel] = moebius_angles(m.a, m.c, w2[sel])
    return u2, w2


# -- the scalar coding loop ----------------------------------------------------


def code_geodesic_loop(solved, domain, u, w, n_future, n_past, tol=TOL):
    """code_geodesic one point at a time, with the scalar extension_step and
    inverse_step; the reference for code_geodesic_many."""
    if not domain.contains(u, w):
        raise OutsideDomainError("coding requires a point of the rectangle domain")
    s = solved.surface
    params = solved.params
    future: list[int] = []
    past: list[int] = []
    truncated = False

    cu, cw = u, w
    for _ in range(n_future):
        if dense_distance_many(params.partition, [cw.angle])[0] <= tol:
            truncated = True
            break
        cu, cw, i = extension_step(params, cu, cw)
        future.append(s.sigma(i))

    cu, cw = u, w
    for _ in range(n_past):
        try:
            cu, cw, i = inverse_step(solved, domain, cu, cw)
        except (OutsideDomainError, BijectivityError):
            truncated = True
            break
        if dense_distance_many(params.partition, [cw.angle])[0] <= tol:
            truncated = True
            break
        past.append(s.sigma(i))

    return CodingSeq(
        center=(u.angle, w.angle),
        future=tuple(future),
        past=tuple(past),
        truncated=truncated,
    )


def code_rows_reference(solved, domain, u_thetas, w_thetas, n_future, n_past, tol=TOL):
    """code_geodesic_loop on all rows at once, with its stop rules; returns
    code_geodesic_many's (future, past, truncated).

    The inverse is the N-candidate search (inverse_search_many), which does
    not read the PreimageTable, and the partition distance is
    dense_distance_many.
    """
    u = np.asarray(u_thetas, dtype=float)
    w = np.asarray(w_thetas, dtype=float)
    if not domain.contains_many(u, w).all():
        raise OutsideDomainError("coding requires a point of the rectangle domain")
    s = solved.surface
    params = solved.params
    sigma = np.array([0, *(s.sigma(i) for i in range(1, s.n + 1))])
    future = np.zeros((len(u), n_future), dtype=np.int64)
    past = np.zeros((len(u), n_past), dtype=np.int64)
    truncated = np.zeros(len(u), dtype=bool)

    rows, cu, cw = np.arange(len(u)), u, w
    for step in range(n_future):
        ok = dense_distance_many(params.partition, cw) > tol
        truncated[rows[~ok]] = True
        rows = rows[ok]
        cu, cw, i = extension_step_many(params, cu[ok], cw[ok])
        future[rows, step] = sigma[i]

    rows, cu, cw = np.arange(len(u)), u, w
    for step in range(n_past):
        pu, pw, i, count = inverse_search_many(solved, domain, cu, cw)
        ok = domain.contains_many(cu, cw) & (count == 1)
        ok &= dense_distance_many(params.partition, pw) > tol
        truncated[rows[~ok]] = True
        rows, cu, cw = rows[ok], pu[ok], pw[ok]
        past[rows, step] = sigma[i[ok]]

    return future, past, truncated


def duality_code_counts(solved, domain, cu, cw, depth, tol=TOL):
    """verify_duality step (c) one sample at a time: the primal past of each
    sample, from code_rows_reference, against the dual orbit of its first
    coordinate by boundary_step.  Returns (skipped, checked, failures)."""
    dual = build_omega_dual(solved)
    _, pasts, truncated = code_rows_reference(solved, domain, cu, cw, 0, depth)
    skipped = checked = failures = 0
    for k in range(len(cu)):
        if truncated[k]:
            skipped += 1
            continue
        x = CirclePoint(cu[k])
        branches = []
        bad = False
        for _ in range(depth):
            if dense_distance_many(dual.partition, [x.angle])[0] <= 10 * tol:
                bad = True
                break
            x, j = boundary_step(dual, x)
            branches.append(j)
        if bad:
            skipped += 1
            continue
        checked += 1
        if pasts[k].tolist() != branches:
            failures += 1
    return skipped, checked, failures


# -- the corner-point system, index by index ----------------------------------


class IndexType(IntEnum):
    """How an index resolves in the corner-point system.

    P_CYCLE and Q_CYCLE sit on a loop or two-cycle of the equation graph
    and resolve to a single endpoint; P_CHAIN and Q_CHAIN recurse along a
    chain that provably terminates on a cycle index.
    """

    P_CYCLE = 1
    P_CHAIN = 2
    Q_CYCLE = 3
    Q_CHAIN = 4


def classify_type(params, i):
    """Type of index i, determined by the choices at sigma(i) and i+2 / tau(i)."""
    s, w = params.surface, params.word
    if w[s.sigma(i) - 1] == "P":
        return IndexType.P_CYCLE if w[(i + 2) % s.n - 1] == "P" else IndexType.P_CHAIN
    return IndexType.Q_CYCLE if w[s.tau(i) - 1] == "Q" else IndexType.Q_CHAIN


def solve_g(params):
    """Solve the corner-point system for G_1..G_N as canonical words.

    Cycle indices resolve directly to an endpoint; chain indices follow
    their single defining equation.  A chain that revisits an unresolved
    index would contradict the solvability guarantee, so it raises.
    """
    s = params.surface
    maps = s.maps
    n = s.n
    memo = {}

    def resolve(start):
        stack = [start]
        active = set()
        while stack:
            i = stack[-1]
            if i in memo:
                stack.pop()
                continue
            t = classify_type(params, i)
            if t is IndexType.P_CYCLE:
                memo[i] = GroupWord((), BasePoint("P", s.wrap(i + 1)))
                stack.pop()
                continue
            if t is IndexType.Q_CYCLE:
                memo[i] = GroupWord((), BasePoint("P", i))
                stack.pop()
                continue
            if t is IndexType.P_CHAIN:
                letter, target = s.sigma(i), s.wrap(s.sigma(i) - 2)
            else:
                letter, target = s.wrap(s.tau_sigma(i) + 1), s.tau_sigma(i)
            if target in memo:
                memo[i] = prepend(maps, letter, memo[target])
                stack.pop()
                continue
            if target in active:
                raise ContradictionError(
                    f"corner-point chain through {i} revisits {target}; "
                    "the defining system admits no such cycle"
                )
            active.add(i)
            stack.append(target)

    for i in range(1, n + 1):
        resolve(i)
    return [memo[i] for i in range(1, n + 1)]


def compute_h_d(params, g_words):
    """The words of H_i = U_i G_{tau(i)-1} and D_i = T_{tau_sigma(i)+1} G_{tau_sigma(i)},
    with U_i = T_sigma(i-1) T_tau(i)."""
    s = params.surface
    maps = s.maps
    h_words = []
    d_words = []
    for i in range(1, s.n + 1):
        hw = prepend(maps, s.tau(i), g_words[s.wrap(s.tau(i) - 1) - 1])
        h_words.append(prepend(maps, s.sigma(i - 1), hw))
        d_words.append(prepend(maps, s.wrap(s.tau_sigma(i) + 1), g_words[s.tau_sigma(i) - 1], deep=True))
    return h_words, d_words


def endpoint_identities(params, i):
    """The P/Q identities of side i, as tuples (i, X, j, Y, k): T_i maps the
    upper strip's y-arc [Q_i, P_{i+1}], and T_i or T_{i-1}, as the choice at i
    is P or Q, the lower strip's [P_i, Q_i], onto arcs between endpoints.
    """
    s = params.surface
    si = s.sigma(i)
    rows = [(i, "Q", i, "Q", si + 2), (i, "P", i + 1, "P", si - 1)]
    if params.word[i - 1] == "P":
        return rows + [(i, "P", i, "Q", si + 1)]
    k = s.tau_sigma(i)
    return rows + [(i - 1, "P", i, "P", k), (i - 1, "Q", i, "P", k + 1)]


# -- the rectangle domains and fault injection ----------------------------------


def _rect(x0, x1, y0, y1, strip, kind):
    """The DomainRect with ends at the CirclePoints x0, x1, y0, y1."""
    return DomainRect(x0.angle, x1.angle, y0.angle, y1.angle, strip, kind)


def domain_loop(solved):
    """build_domain's rectangles, built side by side from the scalar accessors."""
    s = solved.surface
    rects = []
    for i in range(1, s.n + 1):
        rects.append(_rect(solved.h(i + 1), solved.g(i - 2), s.p(i), s.q(i), i, "lower"))
        rects.append(_rect(solved.h(i + 1), solved.g(i - 1), s.q(i), s.p(i + 1), i, "upper"))
    return rects


def dual_domain_loop(solved):
    """build_omega_dual's horizontal rectangles, side by side: wide 1..N, then head, then tail."""
    s = solved.surface
    wide, head, tail = [], [], []
    for i in range(1, s.n + 1):
        wide.append(_rect(s.q(i + 2), s.p(i - 1), solved.d(i), solved.d(i + 1), i, "wide"))
        head.append(_rect(s.p(i - 1), s.p(i), solved.h(i), solved.d(i + 1), i, "head"))
        tail.append(_rect(s.q(i + 1), s.q(i + 2), solved.d(i), solved.g(i), i, "tail"))
    return wide + head + tail


def with_points(solved, name, angles, sides=None):
    """solved with its named points name_i (name a letter of NAMED) at the
    1-based sides (all by default) set to angles, wrapped into [0, 2*pi) as
    CirclePoint wraps them: a fault case, made by replacing the table."""
    table = solved.angles.copy()
    cols = slice(None) if sides is None else np.asarray(sides) - 1
    row = np.broadcast_to(np.asarray(angles, dtype=float), table[0, cols].shape)
    table[NAMED.index(name), cols] = [wrap_angle(a) for a in row.tolist()]
    return dataclasses.replace(solved, angles=table)


def rect_domain(rects):
    """The RectDomain of a list of DomainRects, such as a domain's edited rects."""
    return RectDomain(np.array([(r.x0, r.x1, r.y0, r.y1) for r in rects]))


# -- the analytic bijectivity check --------------------------------------------


def identity_failures_tuples(surface, angles, rows, tol=TOL):
    """identity_failures on tuples (i, X, j, Y, k) of 1-based sides read mod N
    and letters of NAMED, parsed row by row."""
    gen, src, j, dst, k = zip(*rows)
    gen, j, k = (np.array([gen, j, k]) - 1) % surface.n
    src = np.array([NAMED.index(x) for x in src])
    dst = np.array([NAMED.index(y) for y in dst])
    (img,) = surface.t_angles(gen + 1, angles[src, j])
    dev = angdiff_many(img, angles[dst, k])
    w = surface.wrap
    fails = [f"T_{w(a)} {x}_{w(b)} = {y}_{w(c)} off by {d:.3g}"
             for (a, x, b, y, c), d in zip(rows, dev.tolist()) if not d <= tol]
    return fails, float(dev.max())


def degeneracy_loop(solved, tol=TOL):
    """degeneracy_failures side by side with the scalar angdiff."""
    s = solved.surface
    word = solved.params.word
    fails = []
    for i in range(1, s.n + 1):
        head = angdiff(solved.h(i).angle, solved.d(i + 1).angle) <= tol
        a = word[s.tau_sigma(i - 1) - 1]
        if head != (a == "P"):
            fails.append(
                f"[H_{i}, D_{s.wrap(i + 1)}] degenerate={head} but choice at tau_sigma({s.wrap(i - 1)}) is {a}"
            )
        tail = angdiff(solved.g(i).angle, solved.d(i).angle) <= tol
        a = word[s.sigma(i) - 1]
        if tail != (a == "Q"):
            fails.append(f"[D_{i}, G_{i}] degenerate={tail} but choice at sigma({i}) is {a}")
    return fails


def analytic_loop(solved, tol=TOL):
    """The analytic bijectivity check by walking each strip's chain of pieces.

    The corner rows come from endpoint_identities side by side; each strip
    (m, end) is the chain H_{m+1}, D_{m+2}, ..., D_end, G_end, summed piece
    by piece, and each of the 3N distinct pieces is measured, and named if
    reversed, under the first strip that uses it.
    """
    s = solved.surface
    n = s.n
    params = solved.params
    report = BijectivityReport(analytic_checked=True)
    rows = []
    for i in range(1, n + 1):
        si = s.sigma(i)
        ends = endpoint_identities(params, i)
        rows += [(i, "H", i + 1, "D", si), (i, "G", i - 1, "D", si + 1), *ends[:2]]
        if params.word[i - 1] == "P":
            rows.append((i, "G", i - 2, "G", si))
        else:
            rows.append((i - 1, "H", i + 1, "H", s.tau_sigma(i) + 1))
        rows += ends[2:]
    report.corner_failures, report.max_corner_deviation = identity_failures_tuples(s, solved.angles, rows, tol)
    report.degeneracy_failures = degeneracy_loop(solved, tol)
    widths = {}
    for m in range(1, n + 1):
        for kind, end in (("lower", m + n - 2), ("upper", m + n - 1)):
            chain = [("H", s.wrap(m + 1)), *(("D", s.wrap(j)) for j in range(m + 2, end + 1)), ("G", s.wrap(end))]
            total = 0.0
            for piece in zip(chain, chain[1:]):
                if piece not in widths:
                    (a, ia), (b, ib) = piece
                    width = ccw_distance(*(solved.angles[NAMED.index(x), ix - 1] for x, ix in piece))
                    if width > math.pi:
                        report.tiling_failures.append(
                            f"strip {m} {kind}: piece [{a}_{ia},{b}_{ib}] reversed (width {width:.3g})"
                        )
                        width = 0.0
                    widths[piece] = width
                total += widths[piece]
            strip_width = ccw_distance(solved.h(m + 1).angle, solved.g(end).angle)
            if not abs(total - strip_width) <= n * tol:
                report.tiling_failures.append(f"strip {m} {kind}: pieces cover {total:.12f} of {strip_width:.12f}")
    return report


def dual_image_loop(solved, dual_domain, tol=TOL):
    """verify_dual_images through identity_failures_tuples."""
    s = solved.surface
    angles = np.vstack([solved.angles[:4], dual_domain.solved.angles[4:]])
    rows = []
    for i in range(1, s.n + 1):
        j = s.sigma(i)
        rows += [(i, "Q", i + 2, "Q", j), (i, "P", i - 1, "P", j + 1)]
        rows += [(i, "D", i, "H", j + 1), (i, "D", i + 1, "G", j - 1)]
        if solved.params.word[j - 1] == "P":
            rows += [(i, "G", i, "G", j - 2), (i, "Q", i + 1, "P", j)]
        if solved.params.word[j % s.n] == "Q":
            rows += [(i, "H", i, "H", j + 2), (i, "P", i, "Q", j + 1)]
    return identity_failures_tuples(s, angles, rows, tol)[0]


# -- the Monte Carlo check and the Markov matrix --------------------------------


def sample_choice(domain, rng, k):
    """RectDomain.sample through rng.choice, then rng.random(k) for u and for w,
    with the rectangle arrays read off domain.rects."""
    rects = domain.rects
    x0, xw = np.array([r.x0 for r in rects]), np.array([r.width for r in rects])
    y0, yw = np.array([r.y0 for r in rects]), np.array([r.height for r in rects])
    areas = xw * yw
    total = areas.sum()
    if not total > 0:
        raise DegeneratePointsError(f"the domain has area {total:.3g}; there is nothing to sample")
    p = areas / total
    ridx = rng.choice(len(rects), size=k, p=p)
    u = np.remainder(x0[ridx] + rng.random(k) * xw[ridx], TWO_PI)
    w = np.remainder(y0[ridx] + rng.random(k) * yw[ridx], TWO_PI)
    return u, w


def monte_carlo_loop(solved, domain, samples=1000, seed=0, tol=TOL):
    """verify_bijectivity(mode="mc") with sample_choice, a lexsort and full
    inverse_step_many preimages, of which only the count is read."""
    params = solved.params
    rng = np.random.default_rng(seed)
    report = BijectivityReport(seed=seed)
    report.mc_checked = True
    report.mc_samples = samples

    u, w = sample_choice(domain, rng, samples)
    u2, w2, _ = extension_step_many(params, u, w)
    near_edge = domain.boundary_distance_many(u2, w2) <= 10 * tol
    report.boundary_flags += int(near_edge.sum())
    inside = domain.contains_many(u2, w2) | near_edge
    report.mc_image_misses = int((~inside).sum())

    order = np.lexsort((w2, u2))
    du = np.abs(np.diff(u2[order]))
    dw = np.abs(np.diff(w2[order]))
    close_img = (du <= tol) & (dw <= tol)
    if close_img.any():
        pu = np.abs(np.diff(u[order]))
        pw = np.abs(np.diff(w[order]))
        separated_pre = (pu > 10 * tol) | (pw > 10 * tol)
        report.mc_injectivity_collisions = int((close_img & separated_pre).sum())

    tu, tw = sample_choice(domain, rng, samples)
    _, _, _, count = inverse_step_many(solved, domain, tu, tw)
    edge = domain.boundary_distance_many(tu, tw) <= 10 * tol
    report.boundary_flags += int(edge.sum())
    report.mc_preimage_misses = int(((count == 0) & ~edge).sum())
    report.mc_preimage_ambiguous = int(((count > 1) & ~edge).sum())
    return report


def strongly_connected_search(graph):
    """SoficGraph.is_strongly_connected by a forward and a reverse search
    from vertex 1, each of which must reach every vertex."""
    forward = {(a, b) for a, b, _ in graph.triples}
    for arrows in (forward, {(b, a) for a, b in forward}):
        seen = frontier = {1}
        while frontier:
            frontier = {b for a, b in arrows if a in frontier} - seen
            seen = seen | frontier
        if len(seen) != graph.n:
            return False
    return True


def markov_loop(params, tol=TOL):
    """markov_transition_matrix building each side's two rows in Python."""
    s = params.surface
    n = s.n
    m = 2 * n
    matrix = np.zeros((m, m), dtype=bool)
    branch: list[int] = [0] * m

    for i in range(1, n + 1):
        si = s.sigma(i)
        # Per row: generator applied, first column and width of the row's
        # block.  Odd row 2i-1 is (P_i, Q_i), even row 2i is (Q_i, P_{i+1}).
        odd = (i, 2 * si + 2, 2) if params.word[i - 1] == "P" else (s.wrap(i - 1), 2 * s.tau_sigma(i) - 1, 2)
        even = (i, 2 * si + 4, 2 * n - 7)
        for row, (gen, start, count) in ((2 * i - 1, odd), (2 * i, even)):
            branch[row - 1] = gen
            matrix[row - 1, (start - 1 + np.arange(count)) % m] = True
    rows = params.corner_rows
    rows = rows[(rows[:, 1] < 2) & (rows[:, 3] < 2)]  # X and Y both P or Q
    fails, _ = identity_failures(s, np.array([s.p_angles, s.q_angles]), rows, tol)
    if fails:
        raise MarkovError(f"endpoint image mismatch: {fails[0]}")

    return TransitionMatrix(genus=s.genus, matrix=matrix, branch=tuple(branch))
