"""Geometric map, conjugacy to the rectangle model, coding, and transitions.

The geometric map acts on pairs (u, w) whose geodesic crosses the polygon,
applying the generator of the exit side to both coordinates.  It is
conjugate to the rectangle-domain extension map by a piecewise-Moebius
bijection that is the identity on the common part and moves the "bulges"
of the curvilinear domain onto the "corners" of the rectangle domain.

Iterating the extension map and recording sigma(branch) at each step codes
a geodesic by a bi-infinite word; the partition into the half-intervals
(P_i, Q_i), (Q_i, P_{i+1}) is Markov for the circle map, and merging each
pair gives a sofic presentation on the side alphabet.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .circle import (
    TOL,
    TWO_PI,
    CirclePartition,
    CirclePoint,
    angdiff_many,
    moebius_angles,
)
from .errors import MarkovError, OutsideDomainError
from .boundary import (
    ExtremalParams,
    RectDomain,
    SolvedParams,
    extension_step_many,
    identity_failures,
    inverse_step,  # unused here; the benchmark's trace mode wraps coding.inverse_step
    inverse_step_many,
)
from .surface import SurfaceGroup


# -- bulges and corners -------------------------------------------------------

#: Samples closer than this to a boundary curve, a rectangle edge or a
#: partition point are not drawn or checked by the conjugacy verifier.
MARGIN = 1e-7


def _in_box(thetas, start_angles, end_angles, tol=TOL):
    """Membership in the closed counterclockwise arcs [start, end], within tol."""
    width = np.remainder(end_angles - start_angles, TWO_PI)
    rel = np.remainder(thetas - start_angles, TWO_PI)
    return (rel <= width + tol) | (rel >= TWO_PI - tol)


class RegionTable:
    """Array locator of the bulges and corners for one parameter choice.

    Lower bulge/corner i live in [Q_{i+1}, Q_{i+2}] x [P_i, P_{i+1}];
    upper bulge/corner i live in [P_{i-1}, P_i] x [Q_i, Q_{i+1}].  Bulges
    are the parts of the curvilinear domain outside the rectangle domain;
    corners are the parts of the rectangle domain outside the curvilinear
    one.
    """

    def __init__(self, solved: SolvedParams, domain: RectDomain):
        s = solved.surface
        self.solved = solved
        self.domain = domain
        self.p_partition = CirclePartition(s.p_angles)
        self.q_partition = CirclePartition(s.q_angles)

    @property
    def surface(self) -> SurfaceGroup:
        return self.solved.surface

    def classify(self, u_thetas, w_thetas, inside_geo, tol: float = TOL):
        """Codes: 0 core, 1 lower bulge, 2 upper bulge, -1 undecided; plus index."""
        s = self.surface
        n = s.n
        code = np.full(len(u_thetas), -1, dtype=np.int64)
        index = np.zeros(len(u_thetas), dtype=np.int64)
        in_domain = self.domain.contains_many(u_thetas, w_thetas)
        code[inside_geo & in_domain] = 0
        rest = inside_geo & ~in_domain
        if rest.any():
            i_low = self.p_partition.index_many(w_thetas)  # w in [P_i, P_{i+1})
            x0 = s.q_angles[i_low % n]  # Q_{i+1}
            x1 = s.q_angles[(i_low + 1) % n]  # Q_{i+2}
            low_ok = rest & _in_box(u_thetas, x0, x1, tol)
            code[low_ok] = 1
            index[low_ok] = i_low[low_ok]
            i_up = self.q_partition.index_many(w_thetas)  # w in [Q_j, Q_{j+1})
            x0u = s.p_angles[(i_up - 2) % n]  # P_{j-1}
            x1u = s.p_angles[(i_up - 1) % n]  # P_j
            up_ok = rest & ~low_ok & _in_box(u_thetas, x0u, x1u, tol)
            code[up_ok] = 2
            index[up_ok] = i_up[up_ok]
        return code, index

    def phi_many(self, u_thetas, w_thetas, code, index):
        """Apply the conjugacy given classification codes."""
        s = self.surface
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


# -- conjugacy verification ---------------------------------------------------


@dataclass
class ConjugacyReport:
    samples: int = 0
    checked: int = 0
    skipped_boundary: int = 0
    max_deviation: float = 0.0
    failures: int = 0
    seed: int | None = None

    @property
    def passed(self) -> bool:
        return self.checked > 0 and self.failures == 0

    def to_json(self) -> dict:
        return {**asdict(self), "passed": self.passed}


def sample_curvilinear(
    regions: RegionTable, rng: np.random.Generator, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rejection-sample k pairs inside the curvilinear domain, off boundaries.

    Points within MARGIN of the domain's boundary curves, of the
    rectangle edges, or of the partition points are rejected, so samples
    classify robustly on both sides of the conjugacy.  Returns the angles
    u, w and the side each geodesic exits the polygon through, which is
    never shared with another side (no vertex exits).
    """
    clipper = regions.surface.clipper
    parts = [(np.empty(0), np.empty(0), np.empty(0, dtype=np.int64))]
    need = k
    while need > 0:
        batch = max(4 * need, 256)
        u = rng.random(batch) * TWO_PI
        w = rng.random(batch) * TWO_PI
        lo, hi, entry, exit_, lo_ties, hi_ties = clipper.clip(u, w)
        good = (hi - lo > MARGIN) & (entry > 0) & (exit_ > 0)
        good &= (lo_ties < 2) & (hi_ties < 2)
        good &= regions.domain.boundary_distance_many(u, w) > MARGIN
        good &= regions.solved.params.partition.distance_many(w) > MARGIN
        keep = np.flatnonzero(good)[:need]
        parts.append((u[keep], w[keep], exit_[keep]))
        need -= len(keep)
    return tuple(np.concatenate(column) for column in zip(*parts))


def verify_conjugacy(
    solved: SolvedParams,
    domain: RectDomain,
    samples: int = 10_000,
    seed: int = 0,
    tol: float = TOL,
) -> ConjugacyReport:
    """Check conjugacy(geo step) == extension step(conjugacy) on samples."""
    regions = RegionTable(solved, domain)
    clipper = solved.surface.clipper
    rng = np.random.default_rng(seed)
    report = ConjugacyReport(samples=samples, seed=seed)

    u, w, exit_ = sample_curvilinear(regions, rng, samples)

    # geometric step
    gu, gw = solved.surface.t_angles(exit_, u, w)

    # classify both p and geo(p); skip any sample whose classification is
    # ambiguous or whose image sits within the margin of a boundary
    code_p, idx_p = regions.classify(u, w, np.ones(len(u), dtype=bool))
    code_g, idx_g = regions.classify(gu, gw, clipper.status_codes(gu, gw, MARGIN) == 1)
    ok = (code_p >= 0) & (code_g >= 0)
    ok &= domain.boundary_distance_many(gu, gw) > MARGIN
    ok &= solved.params.partition.distance_many(gw) > MARGIN

    report.skipped_boundary = int((~ok).sum())
    if not ok.any():
        return report

    pu, pw = regions.phi_many(u[ok], w[ok], code_p[ok], idx_p[ok])
    left_u, left_w = regions.phi_many(gu[ok], gw[ok], code_g[ok], idx_g[ok])
    right_u, right_w, _ = extension_step_many(solved.params, pu, pw)

    dev = np.maximum(angdiff_many(left_u, right_u), angdiff_many(left_w, right_w))
    report.checked = int(ok.sum())
    report.max_deviation = float(dev.max())
    report.failures = int((dev > tol).sum())
    return report


# -- coding -------------------------------------------------------------------


@dataclass(frozen=True)
class CodingSeq:
    """Finite window of the bi-infinite code of a geodesic."""

    center: tuple[float, float]  # (u, w) angles
    future: tuple[int, ...]  # symbols n_0, n_1, ...
    past: tuple[int, ...]  # symbols n_-1, n_-2, ...
    truncated: bool = False

    def to_json(self) -> dict:
        return {
            "center": [self.center[0], self.center[1]],
            "future": list(self.future),
            "past": list(self.past),
            "truncated": self.truncated,
        }


def code_geodesic_many(
    solved: SolvedParams,
    domain: RectDomain,
    u_thetas,
    w_thetas,
    n_future: int,
    n_past: int,
    tol: float = TOL,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Symbols sigma(branch) along the forward and backward orbits of each pair.

    Returns (future, past, truncated): symbol arrays of shape (m, n_future)
    and (m, n_past), padded with 0 after the step where a row stopped, and
    the mask of rows that stopped.  A forward orbit stops when its w comes
    within tol of a partition point; a backward orbit stops when it leaves
    the domain, has no unique preimage, or its new w comes within tol of a
    partition point.
    """
    u = np.asarray(u_thetas, dtype=float)
    w = np.asarray(w_thetas, dtype=float)
    if not domain.contains_many(u, w).all():
        raise OutsideDomainError("coding requires a point of the rectangle domain")
    s = solved.surface
    partition = solved.params.partition
    sigma = np.array([0, *(s.sigma(i) for i in range(1, s.n + 1))])
    future = np.zeros((len(u), n_future), dtype=np.int64)
    past = np.zeros((len(u), n_past), dtype=np.int64)
    truncated = np.zeros(len(u), dtype=bool)

    rows, cu, cw = np.arange(len(u)), u, w
    for step in range(n_future):
        ok = partition.distance_many(cw) > tol
        truncated[rows[~ok]] = True
        rows = rows[ok]
        cu, cw, i = extension_step_many(solved.params, cu[ok], cw[ok])
        future[rows, step] = sigma[i]

    rows, cu, cw = np.arange(len(u)), u, w
    for step in range(n_past):
        inside = domain.contains_many(cu, cw)
        pu, pw, i, count = inverse_step_many(solved, domain, cu, cw)
        ok = inside & (count == 1) & (partition.distance_many(pw) > tol)
        truncated[rows[~ok]] = True
        rows, cu, cw = rows[ok], pu[ok], pw[ok]
        past[rows, step] = sigma[i[ok]]

    return future, past, truncated


def code_geodesic(
    solved: SolvedParams,
    domain: RectDomain,
    u: CirclePoint,
    w: CirclePoint,
    n_future: int,
    n_past: int,
    tol: float = TOL,
) -> CodingSeq:
    """code_geodesic_many for one pair."""
    future, past, truncated = code_geodesic_many(
        solved, domain, [u.angle], [w.angle], n_future, n_past, tol
    )
    return CodingSeq(
        center=(u.angle, w.angle),
        future=tuple(k for k in future[0].tolist() if k),
        past=tuple(k for k in past[0].tolist() if k),
        truncated=bool(truncated[0]),
    )


# -- Markov partition and sofic presentation ----------------------------------


@dataclass(frozen=True)
class TransitionMatrix:
    """0/1 transitions of the circle map on the 16g-8 half-intervals.

    Interval 2i-1 is (P_i, Q_i); interval 2i is (Q_i, P_{i+1}).  Row k has
    an entry at j iff the image of interval k covers interval j; rows are
    contiguous blocks.  branch[k] is the generator index the map applies
    on interval k, and label[k] = sigma(branch[k]) is the emitted symbol.
    """

    genus: int
    matrix: np.ndarray
    branch: tuple[int, ...]

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def row_entries(self, k: int) -> list[int]:
        return [int(j) + 1 for j in np.nonzero(self.matrix[k - 1])[0]]

    def to_text(self) -> str:
        return "\n".join(
            "".join("1" if self.matrix[r, c] else "0" for c in range(self.size))
            for r in range(self.size)
        )

    def to_json(self) -> str:
        return json.dumps(
            {
                "genus": self.genus,
                "intervals": self.size,
                "adjacency": {str(k): self.row_entries(k) for k in range(1, self.size + 1)},
                "branch": list(self.branch),
            },
            indent=2,
        )


def markov_transition_matrix(
    solved_or_params: SolvedParams | ExtremalParams, tol: float = TOL
) -> TransitionMatrix:
    """Build and numerically validate the half-interval transition matrix.

    Row contents follow the verified closed forms in maps.markov_rows.  The
    generators' images of the row endpoints, the word's corner rows between P
    and Q points, are checked; the first mismatch raises MarkovError naming it.
    """
    params = solved_or_params.params if isinstance(solved_or_params, SolvedParams) else solved_or_params
    s = params.surface
    table, branches = s.maps.markov_rows
    is_q = np.repeat(params.is_q, 2)  # row 2i-1 follows side i's choice; both tables agree on row 2i
    matrix = np.where(is_q[:, None], table[1], table[0])  # a new array: the caller may write to it
    branch = np.where(is_q, branches[1], branches[0])
    rows = params.corner_rows
    rows = rows[(rows[:, 1] < 2) & (rows[:, 3] < 2)]  # X and Y both P or Q
    fails, _ = identity_failures(s, np.array([s.p_angles, s.q_angles]), rows, tol)
    if fails:
        raise MarkovError(f"endpoint image mismatch: {fails[0]}")

    return TransitionMatrix(genus=s.genus, matrix=matrix, branch=tuple(branch.tolist()))


@dataclass(frozen=True)
class SoficGraph:
    """Edge-labeled presentation on the side alphabet {1..8g-4}.

    `triples` holds one (from, to, label) entry per labeled edge.
    """

    genus: int
    triples: frozenset[tuple[int, int, int]]

    @property
    def n(self) -> int:
        return 8 * self.genus - 4

    def edges(self) -> list[tuple[int, int, int]]:
        return sorted(self.triples)

    def is_strongly_connected(self) -> bool:
        """Every vertex reaches every other: (I | A)^n has no False entry, A the n x n adjacency."""
        reach = np.eye(self.n, dtype=bool)
        for a, b, _ in self.triples:
            reach[a - 1, b - 1] = True
        return bool(np.linalg.matrix_power(reach, self.n).all())

    def to_json(self) -> str:
        return json.dumps(
            {
                "genus": self.genus,
                "vertices": list(range(1, self.n + 1)),
                "edges": [
                    {"from": u, "to": v, "label": lab} for u, v, lab in self.edges()
                ],
            },
            indent=2,
        )


def sofic_amalgamate(params: ExtremalParams, matrix: TransitionMatrix) -> SoficGraph:
    """Merge interval pairs 2k-1, 2k into the letter k and keep edge labels."""
    s = params.surface
    triples = frozenset(
        ((row + 1) // 2, (col + 1) // 2, s.sigma(matrix.branch[row - 1]))
        for row in range(1, matrix.size + 1)
        for col in matrix.row_entries(row)
    )
    return SoficGraph(genus=s.genus, triples=triples)
