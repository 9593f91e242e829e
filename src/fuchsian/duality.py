"""The dual parameter choice and the domain of its natural extension.

For every extremal choice, the points D_i solved from the corner system
form a second parameter choice (generally not extremal) whose boundary map
runs the original extension backwards: flipping coordinates carries the
domain onto the dual domain, and applying the flip before and after the
inverse extension step gives exactly the dual forward step.  The dual
domain has both a three-rectangle-per-strip description driven by the
second coordinate and a vertical-strip description that is literally the
flipped rectangle domain.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

from .boundary import (
    DomainRect,
    RectDomain,
    SolvedParams,
    boundary_step_many,
    build_domain,
    degeneracy_failures,
    extension_step_many,
    identity_failures,
    inverse_step_many,
    solve,
)
from .circle import TOL, TWO_PI, CirclePartition, CirclePoint, angdiff_many
from .errors import ConstructionError
from .surface import SurfaceGroup
from .words import GroupWord


@dataclass(frozen=True)
class DualParams:
    """The dual choice: one point in [P_i, Q_i] per side, with its words.

    `partition` cuts the circle at D_1..D_N; the dual map applies T_i on
    its arc i, [D_i, D_{i+1}), so the extension steps of `boundary` run the
    dual extension when given a DualParams.
    """

    solved: SolvedParams  # provenance: the extremal choice this is dual to

    @property
    def surface(self) -> SurfaceGroup:
        return self.solved.surface

    @property
    def source_word(self) -> str:
        return self.solved.params.word

    def d(self, i: int) -> CirclePoint:
        return self.solved.d(i)

    def d_word(self, i: int) -> GroupWord:
        return self.solved.d_word(i)

    @cached_property
    def partition(self) -> CirclePartition:
        return CirclePartition(self.solved.angles[4])

    def extremal_word(self, tol: float = TOL) -> str | None:
        """The {P,Q} word matching the dual points, or None if non-extremal."""
        d = self.solved.angles[4]
        is_p = angdiff_many(d, self.surface.p_angles) <= tol
        is_q = angdiff_many(d, self.surface.q_angles) <= tol
        return "".join(np.where(is_p, "P", "Q")) if (is_p | is_q).all() else None

    def to_json(self) -> str:
        doc = json.loads(self.solved.to_json())
        doc["source_params"] = self.source_word
        d_words, d = self.solved.point_words[2], self.solved.angles[4].tolist()
        doc["dual"] = [dict(w.to_json(), angle=a) for w, a in zip(d_words, d)]
        return json.dumps(doc, indent=2)


def dual_params(solved: SolvedParams) -> DualParams:
    return DualParams(solved=solved)


@dataclass(frozen=True, eq=False)
class DualDomain:
    """Domain of the dual extension, in both decompositions.

    horizontal strips (driven by the second coordinate, one per index i):
        wide  [Q_{i+2}, P_{i-1}] x [D_i, D_{i+1})
        head  [P_{i-1}, P_i]     x [H_i, D_{i+1})   empty iff A_{sigma(i)+1} = P
        tail  [Q_{i+1}, Q_{i+2}] x [D_i, G_i)       empty iff A_{sigma(i)} = Q
    ends[i-1] holds strip i's wide, head and tail ends (x0, x1, y0, y1).
    The vertical-strip view is the coordinate flip of the primal domain.
    """

    dual: DualParams
    vertical: RectDomain  # stored flipped: its (x, y) is our (w, u)
    ends: np.ndarray

    def rectangles(self) -> list[DomainRect]:
        """The rectangles as objects: wide 1..N, then head, then tail."""
        return [
            DomainRect(*end, i + 1, kind)
            for kind, family in zip(("wide", "head", "tail"), self.ends.transpose(1, 0, 2).tolist())
            for i, end in enumerate(family)
        ]

    def contains_vertical_many(self, u_thetas, w_thetas) -> np.ndarray:
        return self.vertical.contains_many(w_thetas, u_thetas)

    def contains_horizontal_many(self, u_thetas, w_thetas) -> np.ndarray:
        u = np.asarray(u_thetas, dtype=float)
        w = np.asarray(w_thetas, dtype=float)
        k = self.dual.partition.index_many(w) - 1  # w in [D_i, D_{i+1}), strip i = k + 1

        def in_arc(theta, a0, a1):
            return np.remainder(theta - a0, TWO_PI) < np.remainder(a1 - a0, TWO_PI)

        (wx0, wx1, _, _), (hx0, hx1, hy0, hy1), (tx0, tx1, ty0, ty1) = self.ends[k].transpose(1, 2, 0)
        in_head = in_arc(u, hx0, hx1) & in_arc(w, hy0, hy1)
        in_tail = in_arc(u, tx0, tx1) & in_arc(w, ty0, ty1)
        return in_arc(u, wx0, wx1) | in_head | in_tail

    def sample(self, rng: np.random.Generator, k: int):
        w, u = self.vertical.sample(rng, k)
        return u, w


def build_omega_dual(solved: SolvedParams, tol: float = TOL) -> DualDomain:
    """Assemble the dual domain and check its structure.

    Verifies that the head/tail rectangles degenerate exactly under the
    conditions read off the parameter word (degeneracy_failures); a
    mismatch raises ConstructionError.  The rectangle ends are gathered
    from the named-point table through maps.rect_rows.
    """
    fails = degeneracy_failures(solved, tol)
    if fails:
        raise ConstructionError(f"dual head/tail rectangles contradict the word: {'; '.join(fails)}")
    n = solved.surface.n
    vertical = build_domain(solved)  # the flip: V_i = phi(lower strip i), etc.
    rows, sides = solved.surface.maps.rect_rows[:, 2 * n :]
    return DualDomain(dual_params(solved), vertical, solved.angles[rows, sides].reshape(n, 3, 4))


# -- verification -------------------------------------------------------------


@dataclass
class DualityReport:
    samples: int = 0
    flip_failures: int = 0
    image_corner_failures: list[str] = field(default_factory=list)
    identity_checked: int = 0
    identity_failures: int = 0
    identity_max_deviation: float = 0.0
    skipped: int = 0
    code_checked: int = 0
    code_failures: int = 0
    seed: int | None = None

    @property
    def passed(self) -> bool:
        return (
            self.flip_failures == 0
            and not self.image_corner_failures
            and self.identity_checked > 0
            and self.identity_failures == 0
            and self.code_failures == 0
        )

    def to_json(self) -> dict:
        return {**asdict(self), "passed": self.passed}


def verify_dual_images(
    solved: SolvedParams, dual_domain: DualDomain, tol: float = TOL
) -> list[str]:
    """Corner checks for the images of the dual rectangles.

    The wide rectangle maps onto an upper vertical strip; the tail maps
    onto a lower vertical strip when the choice at sigma(i) is P; the head
    maps onto the next lower strip when the choice at sigma(i)+1 is Q.
    """
    s = solved.surface
    is_q = solved.params.is_q
    sig = s.maps.side_rows[0] - 1
    angles = np.vstack([solved.angles[:4], dual_domain.dual.solved.angles[4:]])  # D of the dual domain
    use = np.ones((s.n, 8), dtype=bool)  # the rows of maps.dual_rows this word checks
    use[:, 4:6] = ~is_q[sig, None]
    use[:, 6:] = is_q[(sig + 1) % s.n, None]
    return identity_failures(s, angles, s.maps.dual_rows[use], tol)[0]


def verify_duality(
    solved: SolvedParams,
    domain: RectDomain,
    dual_domain: DualDomain,
    samples: int = 10_000,
    seed: int = 0,
    tol: float = TOL,
    code_samples: int = 50,
    code_depth: int = 6,
) -> DualityReport:
    """Check the flip of domains and the defining inverse identity.

    (a) flipped membership both ways on samples, agreement of the
    horizontal and vertical decompositions of the dual domain on the dual
    samples, and the structural image corners; (b) flip(inverse step(p)) == dual step(flip(p)) away from the
    dual partition points; (c) the backward digits of the primal code equal
    the forward branch indices of the dual orbit of the first coordinate.
    """
    rng = np.random.default_rng(seed)
    report = DualityReport(samples=samples, seed=seed)
    dual = dual_domain.dual
    params = solved.params

    report.image_corner_failures = verify_dual_images(solved, dual_domain, tol)

    # (a) membership flip, both directions, plus agreement of the two
    # decompositions of the dual domain.
    u, w = domain.sample(rng, samples)
    margin = domain.boundary_distance_many(u, w) > 10 * tol
    flip_in = dual_domain.contains_vertical_many(w, u)
    report.flip_failures += int((~flip_in & margin).sum())
    du, dw = dual_domain.sample(rng, samples)
    dmargin = dual_domain.vertical.boundary_distance_many(dw, du) > 10 * tol
    back_in = domain.contains_many(dw, du)
    report.flip_failures += int((~back_in & dmargin).sum())
    h_in = dual_domain.contains_horizontal_many(du, dw)
    v_in = dual_domain.contains_vertical_many(du, dw)
    report.flip_failures += int(((h_in != v_in) & dmargin).sum())

    # (b) the defining identity, on points away from the dual partition.
    u, w = domain.sample(rng, samples)
    keep = dual.partition.distance_many(u) > 10 * tol
    keep &= domain.boundary_distance_many(u, w) > 10 * tol
    report.skipped = int((~keep).sum())
    u, w = u[keep], w[keep]
    pu, pw, bidx, count = inverse_step_many(solved, domain, u, w)
    good = count == 1
    fu, fw, _ = extension_step_many(dual, w[good], u[good])
    dev = np.maximum(angdiff_many(fu, pw[good]), angdiff_many(fw, pu[good]))
    report.identity_checked = int(good.sum())
    report.skipped += int((~good).sum())
    if report.identity_checked:
        report.identity_max_deviation = float(dev.max())
        report.identity_failures = int((dev > tol).sum())

    # (c) backward digits of the primal code match the dual orbit branches.
    # A sample is skipped when its past truncates or its dual orbit comes
    # within 10 tol of a dual partition point.
    from .coding import code_geodesic_many  # local import; coding stays dual-free

    cu, cw = domain.sample(rng, max(code_samples, 1))
    _, past, truncated = code_geodesic_many(solved, domain, cu, cw, 0, code_depth)
    branches = np.zeros_like(past)
    x, bad = cu, truncated
    for step in range(code_depth):
        bad = bad | (dual.partition.distance_many(x) <= 10 * tol)
        x, branches[:, step] = boundary_step_many(dual, x)
    report.skipped += int(bad.sum())
    report.code_checked = int((~bad).sum())
    report.code_failures = int((~bad & (past != branches).any(axis=1)).sum())
    return report


# -- the named example families ----------------------------------------------


def family_words(genus: int) -> dict[str, str]:
    """The four parameter families with easily described duals."""
    n = 8 * genus - 4
    return {
        "all_P": "P" * n,
        "all_Q": "Q" * n,
        "alternating_PQ": ("PQ" * n)[:n],
        "alternating_QP": ("QP" * n)[:n],
        "self_dual_PPQQ": ("PPQQ" * n)[:n],
        "self_dual_QQPP": ("QQPP" * n)[:n],
    }


@dataclass
class FamilyCheck:
    name: str
    word: str
    dual_word: str | None
    expected_dual: str
    pointwise_ok: bool
    double_dual_ok: bool

    @property
    def passed(self) -> bool:
        return self.pointwise_ok and self.double_dual_ok and self.dual_word == self.expected_dual


def dual_family_check(surface: SurfaceGroup, tol: float = TOL) -> list[FamilyCheck]:
    """Construct the named families and verify their dual relationships."""
    words = family_words(surface.genus)
    expected = {
        "all_P": words["all_Q"],
        "all_Q": words["all_P"],
        "alternating_PQ": words["alternating_QP"],
        "alternating_QP": words["alternating_PQ"],
        "self_dual_PPQQ": words["self_dual_PPQQ"],
        "self_dual_QQPP": words["self_dual_QQPP"],
    }
    out = []
    for name, word in words.items():
        solved = solve(surface, word, tol)
        dual = dual_params(solved)
        dword = dual.extremal_word(tol)
        pointwise_ok = dword == expected[name]
        double_ok = False
        if dword is not None:
            back = dual_params(solve(surface, dword, tol)).extremal_word(tol)
            double_ok = back == word
        out.append(
            FamilyCheck(
                name=name,
                word=word,
                dual_word=dword,
                expected_dual=expected[name],
                pointwise_ok=pointwise_ok,
                double_dual_ok=double_ok,
            )
        )
    return out
