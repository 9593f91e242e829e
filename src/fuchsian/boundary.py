"""Extremal parameters, the corner-point solver, and the natural extension.

An extremal parameter choice picks A_i in {P_i, Q_i} for every side.  The
circle map applies T_i on [A_i, A_{i+1}); its two-coordinate extension
applies the same generator to both coordinates, with the index chosen by
the second coordinate.  The extension is a bijection of a finite union of
rectangles whose corners are the solved points G_i, H_i, D_i:

    G_sigma(i) = T_i G_{i-2}            if A_i = P_i
    G_sigma(i) = T_{tau(i)+1} G_tau(i)  if A_i = Q_i,   G_i in [P_i, P_{i+1}]

    U_i = T_sigma(i-1) T_tau(i) = T_sigma(i) T_{tau(i)-1}
    H_i = U_i G_{tau(i)-1}              D_i = T_{tau_sigma(i)+1} G_tau_sigma(i)

and the domain is the union over i of

    [H_{i+1}, G_{i-2}] x [P_i, Q_i]  u  [H_{i+1}, G_{i-1}] x [Q_i, P_{i+1}].

Membership uses the half-open convention (closed lower/left, open
upper/right) so that the rectangles genuinely partition the domain.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .circle import (
    TOL,
    TWO_PI,
    CirclePartition,
    CirclePoint,
    angdiff,
    angdiff_many,
    ccw_distance,
    ccw_distance_many,
)
from .errors import (
    BijectivityError,
    ContradictionError,
    DegeneratePointsError,
    OutsideDomainError,
    RangeError,
)
from .surface import SurfaceGroup
from .words import BasePoint, GroupWord, prepend

NAMED = "PQGHD"  # the row letters of SolvedParams.angles


@dataclass(frozen=True)
class ExtremalParams:
    """A choice A_i in {P_i, Q_i} for each side, as a word over {P, Q}.

    `a_angles` holds A_1..A_N, and `partition` cuts the circle there: the
    circle map applies T_i on its arc i, [A_i, A_{i+1}).
    """

    surface: SurfaceGroup
    word: str
    a_angles: np.ndarray = field(init=False, repr=False, compare=False)
    partition: CirclePartition = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.surface.n
        w = self.word.upper()
        if len(w) != n or any(ch not in "PQ" for ch in w):
            raise ValueError(f"parameter word must have length {n} over {{P,Q}}: {self.word!r}")
        object.__setattr__(self, "word", w)
        a_angles = np.where(self.is_q, self.surface.q_angles, self.surface.p_angles)
        a_angles.setflags(write=False)
        object.__setattr__(self, "a_angles", a_angles)
        object.__setattr__(self, "partition", CirclePartition(a_angles))

    @cached_property
    def is_q(self) -> np.ndarray:
        """Where the choice is Q, entry i-1 for side i."""
        return np.frombuffer(self.word.encode(), np.uint8) == ord("Q")

    def a(self, i: int) -> CirclePoint:
        return CirclePoint(self.a_angles[i % self.surface.n - 1])

    def chain(self) -> tuple:
        """The corner-point system for G, entry i-1 for side i: (p_sigma, ready, letter, target, base, steps).

        p_sigma marks A_sigma(i) = P.  A cycle index (ready) has G_i = P_base,
        base i+1 (p_sigma) or i; a chain index has G_i = T_letter G_target,
        (letter, target) = (sigma(i), sigma(i)-2) (p_sigma) or (tau_sigma(i)+1,
        tau_sigma(i)).  steps lists the chain indices by depth, each step's
        targets resolved before it.  Sides are 0-based, letters 1-based.
        """
        n = self.surface.n
        sig, tau, ts = self.surface.maps.side_rows - 1
        side = np.arange(n)
        nxt = (side + 1) % n
        p_sigma = ~self.is_q[sig]
        ready = np.where(p_sigma, ~self.is_q[nxt[nxt]], self.is_q[tau])
        letter = np.where(p_sigma, sig + 1, (ts + 1) % n + 1)
        target = np.where(p_sigma, (sig - 2) % n, ts)
        steps, done = [], ready
        while not done.all():
            step = ~done & done[target]
            if not step.any():
                i = int(np.flatnonzero(~done)[0])
                raise ContradictionError(
                    f"corner-point chain through {i + 1} never reaches an endpoint; "
                    "the defining system admits no such cycle"
                )
            steps.append(np.flatnonzero(step))
            done = done | step
        return p_sigma, ready, letter, target, np.where(p_sigma, nxt, side), steps

    @property
    def corner_rows(self) -> np.ndarray:
        """The word's rows of maps.corner_rows, side by side: 6 per P side, 7 per Q side."""
        rows, valid = self.surface.maps.corner_rows
        is_q = self.is_q.astype(np.intp)
        return rows[is_q, np.arange(len(is_q))][valid[is_q]]


@dataclass(frozen=True, eq=False)
class SolvedParams:
    """The solved corner data for one extremal parameter choice.

    `angles`, the named-point table, is the one stored form of the solved
    points: rows P, Q, G, H, D (NAMED), column i-1 for side i, read-only
    from solve.  The words of G, H and D are built on first use, by
    replaying params.chain().  The accessors read column i mod N.
    """

    params: ExtremalParams
    angles: np.ndarray

    @property
    def surface(self) -> SurfaceGroup:
        return self.params.surface

    def g(self, i: int) -> CirclePoint:
        return CirclePoint(self.angles[2, i % self.surface.n - 1])

    def h(self, i: int) -> CirclePoint:
        return CirclePoint(self.angles[3, i % self.surface.n - 1])

    def d(self, i: int) -> CirclePoint:
        return CirclePoint(self.angles[4, i % self.surface.n - 1])

    @cached_property
    def point_words(self) -> tuple[list[GroupWord], list[GroupWord], list[GroupWord]]:
        """The canonical words of G, H and D, built on first use.

        G replays solve's chain in depth order; H_i = T_sigma(i-1) T_tau(i)
        G_{tau(i)-1} and D_i = T_{tau_sigma(i)+1} G_tau_sigma(i) follow.
        """
        maps = self.surface.maps
        _, _, letter, target, base, steps = self.params.chain()
        g = [GroupWord((), BasePoint("P", b + 1)) for b in base.tolist()]
        for step in steps:
            for i in step.tolist():
                g[i] = prepend(maps, int(letter[i]), g[target[i]])
        sig, tau, ts = (maps.side_rows - 1).tolist()
        h = [prepend(maps, sig[i - 1] + 1, prepend(maps, t + 1, g[t - 1])) for i, t in enumerate(tau)]
        d = [prepend(maps, k + 2, g[k], deep=True) for k in ts]
        return g, h, d

    def g_word(self, i: int) -> GroupWord:
        return self.point_words[0][i % self.surface.n - 1]

    def h_word(self, i: int) -> GroupWord:
        return self.point_words[1][i % self.surface.n - 1]

    def d_word(self, i: int) -> GroupWord:
        return self.point_words[2][i % self.surface.n - 1]

    def to_json(self) -> str:
        p_sigma, ready, *_ = self.params.chain()
        types = (np.where(p_sigma, 1, 3) + ~ready).tolist()  # 1, 2: P cycle, chain; 3, 4: Q cycle, chain
        named = self.angles[2:].tolist()
        doc = {
            "genus": self.surface.genus,
            "params": self.params.word,
            "solution": [
                {
                    "index": i + 1,
                    "type": types[i],
                    **{name: dict(words[i].to_json(), angle=row[i])
                       for name, row, words in zip("GHD", named, self.point_words)},
                }
                for i in range(self.surface.n)
            ],
        }
        return json.dumps(doc, indent=2)


def identity_failures(surface: SurfaceGroup, angles: np.ndarray, rows, tol: float = TOL) -> tuple[list[str], float]:
    """Check identities T_i X_j = Y_k among named points with one t_angles call.

    Each row of the int array `rows` is (i, X, j, Y, k): 0-based sides, and
    X, Y rows of `angles`, laid out like SolvedParams.angles (the per-genus
    tables of SideIndexMaps hold such rows).  A row passes only when its
    deviation is within tol, so a NaN fails.  Returns the failing rows'
    messages, in row order, and the worst deviation.
    """
    gen, src, j, dst, k = rows.T
    (img,) = surface.t_angles(gen + 1, angles[src, j])
    dev = angdiff_many(img, angles[dst, k])
    bad = np.flatnonzero(~(dev <= tol))
    fails = [f"T_{a + 1} {NAMED[x]}_{b + 1} = {NAMED[y]}_{c + 1} off by {d:.3g}"
             for (a, x, b, y, c), d in zip(rows[bad].tolist(), dev[bad].tolist())]
    return fails, float(dev.max())


def _canonical_angles(angles: np.ndarray, tol: float = TOL) -> np.ndarray:
    """The angle table with the named points that agree within tol made one float.

    Sorted around the circle, the entries fall into runs whose consecutive
    gaps are within tol (a run may wrap through 0).  Each entry takes the
    value of its run's first member in table order: rows P, Q, G, H, D,
    then side order, so a G, H or D equal to an endpoint takes its float.
    """
    flat = angles.ravel()
    order = np.argsort(flat)
    srt = flat[order]
    start = np.empty(len(flat), dtype=bool)  # a run starts at this sorted position
    start[0] = srt[0] - srt[-1] + TWO_PI > tol
    np.greater(srt[1:] - srt[:-1], tol, out=start[1:])
    run = np.cumsum(start) - 1  # -1, the last run, before the first start: it wraps through 0
    first = np.full(max(run[-1] + 1, 1), len(flat))
    np.minimum.at(first, run, order)
    canon = np.empty_like(flat)
    canon[order] = flat[first[run]]
    return canon.reshape(angles.shape)


def _outside(x: np.ndarray, a: np.ndarray, b: np.ndarray, tol: float) -> np.ndarray:
    """Where x lies outside the closed arc [a, b]: farther than tol from both ends, and not in between."""
    s = np.remainder(x - a, TWO_PI)
    length = np.remainder(b - a, TWO_PI)
    return ~((s <= tol) | (s >= TWO_PI - tol) | (np.abs(s - length) <= tol) | (s < length))


def solve(surface: SurfaceGroup, word: str, tol: float = TOL) -> SolvedParams:
    """Solve a parameter word end to end, with all range invariants checked.

    G starts at the cycle indices' endpoints and resolves params.chain() by
    depth, one t_angles call per step.  H and D follow in three more calls.
    """
    params = ExtremalParams(surface, word)
    sig, tau, ts = surface.maps.side_rows - 1  # 0-based sigma(i), tau(i), tau_sigma(i)
    p, q = surface.p_angles, surface.q_angles
    _, _, letter, target, base, steps = params.chain()
    g = p[base]
    for step in steps:
        (g[step],) = surface.t_angles(letter[step], g[target[step]])
    bad = _outside(g, p, np.roll(p, -1), tol)
    if bad.any():
        i = int(bad.argmax()) + 1
        raise RangeError(f"G_{i} lies outside [P_{i}, P_{surface.wrap(i + 1)}]")
    surface.check_u(tol)
    # H_i = T_sigma(i-1) T_tau(i) G_{tau(i)-1} in two steps: applying the
    # product U_i in one call lands up to 28 times farther from the exact
    # image (1.6e-12 at g = 22).
    (h,) = surface.t_angles(tau + 1, g[tau - 1])
    (h,) = surface.t_angles(np.roll(sig, 1) + 1, h)
    (d,) = surface.t_angles((ts + 1) % surface.n + 1, g[ts])
    bad_h, bad_d = _outside(h, q, np.roll(q, -1), tol), _outside(d, p, q, tol)
    if (bad_h | bad_d).any():
        k = int((bad_h | bad_d).argmax())
        i = k + 1
        raise RangeError(
            f"H_{i} lies outside [Q_{i}, Q_{surface.wrap(i + 1)}]" if bad_h[k] else f"D_{i} lies outside [P_{i}, Q_{i}]"
        )
    angles = np.array([p, q, g, h, d])
    angles[angles >= TWO_PI] = 0.0  # np.remainder can round up to 2*pi
    # T_sigma(i) H_{sigma(i)+1} = D_i: the first corner row of side sigma(i).
    fails, _ = identity_failures(surface, angles, surface.maps.corner_rows[0][0, sig, 0], tol)
    if fails:
        raise RangeError(f"corner identity {fails[0]}")
    angles = _canonical_angles(angles, tol)
    angles.setflags(write=False)
    return SolvedParams(params, angles)


# -- the boundary map and its two-coordinate extension ------------------------


def boundary_step_many(params, thetas) -> tuple[np.ndarray, np.ndarray]:
    """The circle map on angles: T_i(x) for x in arc i of params.partition; returns (images, i).

    Like the extension steps, it runs the dual map when given a DualParams.
    """
    i = params.partition.index_many(thetas)
    return params.surface.t_angles(i, thetas)[0], i


def boundary_step(params, x: CirclePoint) -> tuple[CirclePoint, int]:
    """boundary_step_many for one point."""
    images, i = boundary_step_many(params, [x.angle])
    return CirclePoint(images[0]), int(i[0])


def extension_step_many(params, u_thetas, w_thetas):
    """The two-coordinate extension on angle arrays; the index is chosen by w.

    `params` is anything with a `surface` and a `partition`: an
    ExtremalParams, or a DualParams for the dual extension.  Returns
    (u', w', index).
    """
    i = params.partition.index_many(w_thetas)
    return *params.surface.t_angles(i, u_thetas, w_thetas), i


def extension_step(params, u: CirclePoint, w: CirclePoint) -> tuple[CirclePoint, CirclePoint, int]:
    """extension_step_many for one pair, which must have u != w."""
    if angdiff(u.angle, w.angle) <= TOL:
        raise OutsideDomainError("extension map requires u != w")
    u2, w2, i = extension_step_many(params, [u.angle], [w.angle])
    return CirclePoint(u2[0]), CirclePoint(w2[0]), int(i[0])


# -- the rectangle domain -----------------------------------------------------


def _degenerate(width, height):
    """Extents within TOL of zero."""
    return np.minimum(width, height) <= TOL


@dataclass(frozen=True)
class DomainRect:
    """The rectangle [x0, x1] x [y0, y1] of a domain on the two-torus of angle pairs.

    A rectangle is its four end angles, named points in [0, 2*pi); each
    side runs counterclockwise from its first end to its second.
    """

    x0: float
    x1: float
    y0: float
    y1: float
    strip: int
    kind: str  # "lower" for [P_i, Q_i] strips, "upper" for [Q_i, P_{i+1}]

    @property
    def width(self) -> float:
        return ccw_distance(self.x0, self.x1)

    @property
    def height(self) -> float:
        return ccw_distance(self.y0, self.y1)

    @property
    def degenerate(self) -> bool:
        return bool(_degenerate(self.width, self.height))


class RectDomain:
    """A finite union of rectangles with half-open membership semantics.

    `ends` has a row (x0, x1, y0, y1) per rectangle.  The y-arcs tile the
    circle (indexed lookups go through a CirclePartition of their starts,
    which are also their ends); the x-arcs are arbitrary.
    """

    def __init__(self, ends: np.ndarray):
        self._ends = ends
        self._x0, _, self._y0, _ = ends.T.copy()  # contiguous: strided views slow the m x 2N kernels
        self._xw = ccw_distance_many(self._x0, self._ends[:, 1])  # Arc.length, bit for bit
        self._yw = ccw_distance_many(self._y0, self._ends[:, 3])
        self._y = CirclePartition(self._y0)
        self._areas = self._xw * self._yw
        self._x_edges = CirclePartition(np.concatenate([self._x0, self._x0 + self._xw]))
        self._preimages: PreimageTable | None = None

    @cached_property
    def rects(self) -> list[DomainRect]:
        """The rectangles as objects, built on first use: row k is strip k//2 + 1, lower then upper."""
        return [DomainRect(*end, k // 2 + 1, ("lower", "upper")[k % 2]) for k, end in enumerate(self._ends.tolist())]

    def locate(self, u: CirclePoint, w: CirclePoint) -> int | None:
        """Index of the rectangle containing (u, w), or None; locate_many for one pair."""
        ridx = int(self.locate_many([u.angle], [w.angle])[0])
        return None if ridx < 0 else ridx

    def preimages(self, solved: SolvedParams) -> PreimageTable:
        """The PreimageTable of the extension map for solved, built on first use."""
        if self._preimages is None or self._preimages.solved is not solved:
            self._preimages = PreimageTable(solved, self)
        return self._preimages

    def locate_many(self, u_thetas, w_thetas) -> np.ndarray:
        """Vectorized locate; -1 where outside."""
        ridx = self._y.index_many(w_thetas) - 1
        s = np.remainder(np.asarray(u_thetas, dtype=float) - self._x0[ridx], TWO_PI)
        inside = s < self._xw[ridx]
        return np.where(inside, ridx, -1)

    def contains(self, u: CirclePoint, w: CirclePoint) -> bool:
        return self.locate(u, w) is not None

    def contains_many(self, u_thetas, w_thetas) -> np.ndarray:
        return self.locate_many(u_thetas, w_thetas) >= 0

    def distance_many(self, u_thetas, w_thetas) -> np.ndarray:
        """Chebyshev angular distance to the closed union, 0 for members.

        w lies in the y-arc of rectangle k, the one rectangle that can hold
        (u, w), so a pair whose u is in that rectangle's closed x-arc is at
        distance 0.0; this includes every pair that contains_many accepts.
        The other pairs go through the m x 2N form in _miss_distance.  Only
        for a w within ulps of a y-arc end, where the partition and the
        closed test on arc k can disagree, does the 0.0 differ from that
        form's result, by those ulps.
        """
        u = np.asarray(u_thetas, dtype=float)
        w = np.asarray(w_thetas, dtype=float)
        k = self._y.index_many(w) - 1
        hit = np.remainder(u - self._x0[k], TWO_PI) <= self._xw[k]
        dist = np.zeros(len(u))
        miss = ~hit
        dist[miss] = self._miss_distance(u[miss], w[miss])
        return dist

    def _miss_distance(self, u: np.ndarray, w: np.ndarray) -> np.ndarray:
        """distance_many through the m x 2N matrix of per-rectangle distances."""
        u, w = u[:, None], w[:, None]
        su = np.remainder(u - self._x0[None, :], TWO_PI)
        du = np.where(su <= self._xw[None, :], 0.0, np.minimum(su - self._xw[None, :], TWO_PI - su))
        sw = np.remainder(w - self._y0[None, :], TWO_PI)
        dw = np.where(sw <= self._yw[None, :], 0.0, np.minimum(sw - self._yw[None, :], TWO_PI - sw))
        return np.maximum(du, dw).min(axis=1)

    def boundary_distance_many(self, u_thetas, w_thetas) -> np.ndarray:
        """Angular distance to the nearest rectangle edge line (for skip flags)."""
        return np.minimum(self._x_edges.distance_many(u_thetas), self._y.distance_many(w_thetas))

    def sample(self, rng: np.random.Generator, k: int) -> tuple[np.ndarray, np.ndarray]:
        """k points uniform on the union (area-weighted over rectangles), from one draw of 3k
        uniforms: rng.choice(p=areas/total)'s arithmetic picks rectangles, then u, then w."""
        total = self._areas.sum()
        if not total > 0:
            raise DegeneratePointsError(f"the domain has area {total:.3g}; there is nothing to sample")
        cdf = np.cumsum(self._areas / total)
        cdf /= cdf[-1]
        r = rng.random(3 * k)
        ridx = cdf.searchsorted(r[:k], side="right")
        u = np.remainder(self._x0[ridx] + r[k : 2 * k] * self._xw[ridx], TWO_PI)
        w = np.remainder(self._y0[ridx] + r[2 * k :] * self._yw[ridx], TWO_PI)
        return u, w


def build_domain(solved: SolvedParams) -> RectDomain:
    """The 2N-rectangle domain of the natural extension.

    Lower strip i: [H_{i+1}, G_{i-2}] x [P_i, Q_i]; upper strip i:
    [H_{i+1}, G_{i-1}] x [Q_i, P_{i+1}], gathered from the named-point
    table through maps.rect_rows.  Degenerate rectangles (empty x-extent)
    are retained so counts and labels stay stable.
    """
    rows, sides = solved.surface.maps.rect_rows[:, : 2 * solved.surface.n]
    return RectDomain(solved.angles[rows, sides])


def invariant_measure(rect: DomainRect) -> float:
    """Mass of du dw / |e^{iu} - e^{iw}|^2 on a rectangle, in closed form.

    The antiderivative of 1/(4 sin^2((u-w)/2)) gives
    log( sin((b-d)/2) sin((a-c)/2) / ( sin((a-d)/2) sin((b-c)/2) ) )
    for the rectangle [a,b] x [c,d]; the arguments never vanish on
    rectangles that avoid the diagonal.
    """
    a = rect.x0
    b = a + rect.width
    # Lift the y-arc so differences are taken consistently on the cover.
    c = a + math.remainder(rect.y0 - a, TWO_PI)
    d = c + rect.height

    def s(x):
        return abs(math.sin(0.5 * x))

    return math.log(s(b - d) * s(a - c) / (s(a - d) * s(b - c)))


# -- the inverse step ---------------------------------------------------------


class PreimageTable:
    """How many preimages each point has under the extension map on a domain.

    The domain's y-breakpoints refine solved.params.partition, so every rectangle
    r lies in one branch arc i(r), and (u, w) has exactly as many
    preimages in the domain as there are image rectangles T_{i(r)}(r)
    holding it.  Rectangles flagged `degenerate` are left out: none of
    their points lies farther than TOL from their edges.

    The circle of w is cut at the images' y-endpoints.  In each w-cell the
    coverage in u is a step function, stored as running counts and running
    sums of rectangle numbers under the keys `cell + 1j*u` (numpy orders
    complex numbers lexicographically); where the count is 1, the sum
    names the covering rectangle.
    """

    def __init__(self, solved: SolvedParams, domain: RectDomain):
        s = solved.surface
        params = solved.params
        if not np.isin(params.a_angles, domain._y0).all():
            raise ValueError("the domain's y-breakpoints do not refine the branch partition")
        ends = domain._ends[~_degenerate(domain._xw, domain._yw)]
        self.solved = solved
        self.branch = params.partition.index_many(ends[:, 2])
        (img,) = s.t_angles(self.branch[:, None], ends)
        img[img >= TWO_PI] = 0.0  # np.remainder can round up to 2*pi
        # Each end is a named point, and the generator of its branch maps it
        # onto another one, which t_angles misses by a few ulps: snap it onto
        # the table entry within TOL, the only one there.  An end farther
        # from every entry stays as computed, so a wrong domain still fails
        # the Monte Carlo check.
        named = np.unique(solved.angles)
        k = np.searchsorted(named, img)
        for near in (named[k - 1], named[k % len(named)]):
            img = np.where(angdiff_many(img, near) <= TOL, near, img)
        self.x0, self.x1, self.y0, self.y1 = img.T
        self.inverse = s.maps.side_rows[0][self.branch - 1]  # T_sigma(i) = T_i^-1

        self.cuts = np.unique(np.concatenate([[0.0], self.y0, self.y1]))
        height = np.remainder(self.y1 - self.y0, TWO_PI)
        cover = np.remainder(self.cuts[:, None] - self.y0, TWO_PI) < height
        cell, k = np.nonzero(cover)
        # A u-arc through 0 also opens at u = 0 and closes at u = inf.  So
        # each cell's events sum to zero, and a query that falls before its
        # cell's first key reads a zero total (at index -1, the table's).
        wrap = self.x1[k] < self.x0[k]
        cw, kw = cell[wrap], k[wrap]
        keys = np.concatenate(
            [cell + 1j * self.x0[k], cell + 1j * self.x1[k], cw + 0j, cw + complex(0.0, math.inf)]
        )
        dn = np.repeat([1, -1, 1, -1], [len(k), len(k), len(kw), len(kw)])
        dk = np.concatenate([k, -k, kw, -kw])
        order = np.argsort(keys, kind="stable")
        self.keys, self.counts, self.sums = keys[order], np.cumsum(dn[order]), np.cumsum(dk[order])

    def lookup_many(self, u_thetas, w_thetas) -> tuple[np.ndarray, np.ndarray]:
        """(preimage count, covering rectangle where the count is 1) per pair."""
        cell = np.searchsorted(self.cuts, np.remainder(w_thetas, TWO_PI), side="right") - 1
        pos = np.searchsorted(self.keys, cell + 1j * np.remainder(u_thetas, TWO_PI), side="right") - 1
        return self.counts[pos], self.sums[pos]


def inverse_step(
    solved: SolvedParams, domain: RectDomain, u: CirclePoint, w: CirclePoint
) -> tuple[CirclePoint, CirclePoint, int]:
    """The unique preimage in the domain of a domain point: inverse_step_many for one pair.

    Returns the preimage and its branch i.  No preimage, or several, raise
    BijectivityError.
    """
    if not domain.contains(u, w):
        raise OutsideDomainError("inverse requested for a point outside the domain")
    pu, pw, branch, count = inverse_step_many(solved, domain, [u.angle], [w.angle])
    if count[0] == 0:
        raise BijectivityError("no preimage found inside the domain")
    if count[0] > 1:
        raise BijectivityError("multiple preimages found")
    return CirclePoint(pu[0]), CirclePoint(pw[0]), int(branch[0])


def inverse_step_many(solved: SolvedParams, domain: RectDomain, u_thetas, w_thetas):
    """Vectorized inverse; returns (u', w', branch, hit_count).

    hit_count is the exact number of preimages of each (u, w) in the
    domain, read from the domain's PreimageTable.  Where it is 1, (u', w')
    is the preimage (T_sigma(i) u, T_sigma(i) w) and branch is i; the
    other rows hold zeros.
    """
    table = domain.preimages(solved)
    count, k = table.lookup_many(u_thetas, w_thetas)
    one = count == 1
    k = np.where(one, k, 0)
    images = solved.surface.t_angles(table.inverse[k], u_thetas, w_thetas)
    pu, pw = (np.where(one, x, 0.0) for x in images)
    return pu, pw, np.where(one, table.branch[k], 0), count


# -- bijectivity verification -------------------------------------------------


@dataclass
class BijectivityReport:
    """Outcome of the analytic and Monte Carlo bijectivity checks."""

    analytic_checked: bool = False
    corner_failures: list[str] = field(default_factory=list)
    tiling_failures: list[str] = field(default_factory=list)
    degeneracy_failures: list[str] = field(default_factory=list)
    max_corner_deviation: float = 0.0
    mc_checked: bool = False
    mc_samples: int = 0
    mc_image_misses: int = 0
    mc_injectivity_collisions: int = 0
    mc_preimage_misses: int = 0
    mc_preimage_ambiguous: int = 0
    boundary_flags: int = 0
    seed: int | None = None

    @property
    def analytic_passed(self) -> bool:
        return self.analytic_checked and not (
            self.corner_failures or self.tiling_failures or self.degeneracy_failures
        )

    @property
    def mc_passed(self) -> bool:
        return self.mc_checked and self.mc_samples > 0 and not (
            self.mc_image_misses
            or self.mc_injectivity_collisions
            or self.mc_preimage_misses
            or self.mc_preimage_ambiguous
        )

    @property
    def passed(self) -> bool:
        """At least one check ran, and every check that ran passed."""
        if not (self.analytic_checked or self.mc_checked):
            return False
        analytic_ok = self.analytic_passed or not self.analytic_checked
        mc_ok = self.mc_passed or not self.mc_checked
        return analytic_ok and mc_ok

    def to_json(self) -> dict:
        return {
            "analytic_checked": self.analytic_checked,
            "analytic_passed": self.analytic_passed if self.analytic_checked else None,
            "corner_failures": self.corner_failures,
            "tiling_failures": self.tiling_failures,
            "degeneracy_failures": self.degeneracy_failures,
            "max_corner_deviation": self.max_corner_deviation,
            "mc_checked": self.mc_checked,
            "mc_passed": self.mc_passed if self.mc_checked else None,
            "mc_samples": self.mc_samples,
            "mc_image_misses": self.mc_image_misses,
            "mc_injectivity_collisions": self.mc_injectivity_collisions,
            "mc_preimage_misses": self.mc_preimage_misses,
            "mc_preimage_ambiguous": self.mc_preimage_ambiguous,
            "boundary_flags": self.boundary_flags,
            "seed": self.seed,
            "passed": self.passed,
        }


def verify_bijectivity(
    solved: SolvedParams,
    domain: RectDomain,
    mode: str = "both",
    samples: int = 1000,
    seed: int = 0,
    tol: float = TOL,
) -> BijectivityReport:
    """Verify that the extension map is a bijection of its rectangle domain.

    Analytic mode recomputes every image rectangle from its corners,
    matches them against the solved points by name, and re-tiles each
    horizontal strip from the image pieces.  Monte Carlo mode checks
    forward membership, injectivity and preimage existence on samples.
    """
    if mode not in ("analytic", "mc", "both"):
        raise ValueError(f"mode must be 'analytic', 'mc' or 'both', not {mode!r}")
    report = BijectivityReport(seed=seed)
    if mode in ("analytic", "both"):
        _verify_analytic(solved, report, tol)
    if mode in ("mc", "both"):
        _verify_monte_carlo(solved, domain, report, samples, seed, tol)
    return report


def degeneracy_failures(solved: SolvedParams, tol: float = TOL) -> list[str]:
    """One message per piece [H_i, D_{i+1}] or [D_i, G_i] whose emptiness the word contradicts.

    [H_i, D_{i+1}] is empty iff the choice at tau_sigma(i-1) is P, and
    [D_i, G_i] iff the choice at sigma(i) is Q.  These are the pieces the
    image decomposition drops, and also the dual head and tail rectangles
    (tau_sigma(i-1) = sigma(i)+1).  Messages go side by side, head first.
    """
    n = solved.surface.n
    sig, _, ts = solved.surface.maps.side_rows - 1
    ts = np.roll(ts, 1)  # tau_sigma(i-1)
    _, _, g, h, d = solved.angles
    # angdiff bit for bit: |math.remainder(x, 2*pi)| is min(m, 2*pi - m), m = fmod(|x|, 2*pi)
    gap = np.fmod(np.abs([h - np.roll(d, -1), g - d]), TWO_PI)
    empty = np.minimum(gap, TWO_PI - gap) <= tol
    is_q = solved.params.is_q
    word = solved.params.word
    fails = []
    for i, tail in np.argwhere((empty != [~is_q[ts], is_q[sig]]).T).tolist():
        if tail:
            fails.append(
                f"[D_{i + 1}, G_{i + 1}] degenerate={empty[1, i]} but choice at sigma({i + 1}) is {word[sig[i]]}"
            )
        else:
            fails.append(
                f"[H_{i + 1}, D_{(i + 1) % n + 1}] degenerate={empty[0, i]} "
                f"but choice at tau_sigma({(i - 1) % n + 1}) is {word[ts[i]]}"
            )
    return fails


def _verify_analytic(solved: SolvedParams, report: BijectivityReport, tol: float):
    """Corner identities, degeneracy and strip tiling, from the surface's index tables.

    The word's corner rows (params.corner_rows) take one t_angles call.  Each
    strip is re-tiled from the 3N distinct image pieces (maps.strip_pieces):
    a piece wider than pi is reversed, named under the first strip that uses
    it and counted as 0, and each strip sums its widths left to right, as a
    loop would, against its own width.
    """
    s = solved.surface
    n = s.n
    report.analytic_checked = True
    report.corner_failures, report.max_corner_deviation = identity_failures(
        s, solved.angles, solved.params.corner_rows, tol
    )
    report.degeneracy_failures = degeneracy_failures(solved, tol)

    pieces, ends = s.maps.strip_pieces
    _, _, g, h, d = solved.angles
    d_next = np.roll(d, -1)
    width = ccw_distance_many(np.concatenate([h, d, d]), np.concatenate([d_next, d_next, g]))
    backward = np.flatnonzero(width > math.pi)  # a genuinely reversed piece would wrap most of the circle
    events = []
    for p in backward.tolist():
        strip, col = divmod(int(np.argmax(pieces.ravel() == p)), n - 1)
        kind, j = divmod(p, n)
        a, b = ("HD", "DD", "DG")[kind]
        jb = j + 1 if kind == 2 else (j + 1) % n + 1
        events.append(((strip, col), f"piece [{a}_{j + 1},{b}_{jb}] reversed (width {width[p]:.3g})"))
    width[backward] = 0.0
    total = np.cumsum(np.append(width, 0.0)[pieces], axis=1)[:, -1]
    strip_width = ccw_distance_many(h[ends[:, 0]], g[ends[:, 1]])
    for strip in np.flatnonzero(~(np.abs(total - strip_width) <= n * tol)).tolist():  # a NaN total fails
        events.append(((strip, n), f"pieces cover {total[strip]:.12f} of {strip_width[strip]:.12f}"))
    report.tiling_failures = [
        f"strip {strip // 2 + 1} {('lower', 'upper')[strip % 2]}: {msg}" for (strip, _), msg in sorted(events)
    ]


def _verify_monte_carlo(
    solved: SolvedParams,
    domain: RectDomain,
    report: BijectivityReport,
    samples: int,
    seed: int,
    tol: float,
):
    params = solved.params
    rng = np.random.default_rng(seed)
    report.mc_checked = True
    report.mc_samples = samples

    u, w = domain.sample(rng, samples)
    u2, w2, _ = extension_step_many(params, u, w)
    near_edge = domain.boundary_distance_many(u2, w2) <= 10 * tol
    report.boundary_flags += int(near_edge.sum())
    inside = domain.contains_many(u2, w2) | near_edge
    report.mc_image_misses = int((~inside).sum())

    order = np.argsort(u2 + 1j * w2, kind="stable")  # np.lexsort((w2, u2)) for finite values
    du = np.abs(np.diff(u2[order]))
    dw = np.abs(np.diff(w2[order]))
    close_img = (du <= tol) & (dw <= tol)
    if close_img.any():
        pu = np.abs(np.diff(u[order]))
        pw = np.abs(np.diff(w[order]))
        separated_pre = (pu > 10 * tol) | (pw > 10 * tol)
        report.mc_injectivity_collisions = int((close_img & separated_pre).sum())

    tu, tw = domain.sample(rng, samples)
    count, _ = domain.preimages(solved).lookup_many(tu, tw)
    edge = domain.boundary_distance_many(tu, tw) <= 10 * tol
    report.boundary_flags += int(edge.sum())
    report.mc_preimage_misses = int(((count == 0) & ~edge).sum())
    report.mc_preimage_ambiguous = int(((count > 1) & ~edge).sum())
