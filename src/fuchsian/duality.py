"""The dual parameter choice and the domain of its natural extension.

For every extremal choice, the points D_i solved from the corner system
(the D row of the named-point table) form a second parameter choice
(generally not extremal) whose boundary map runs the original extension
backwards: flipping coordinates carries the domain onto the dual domain,
and applying the flip before and after the inverse extension step gives
exactly the dual forward step.  The dual domain has both a
three-rectangle-per-strip description driven by the second coordinate and
a vertical-strip description that is literally the flipped rectangle
domain.
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
    build_domain,  # unused here; the benchmark's trace mode wraps duality.build_domain
    degeneracy_failures,
    extension_step_many,
    identity_failures,
    inverse_step_many,
    solve,
)
from .circle import TOL, TWO_PI, CirclePartition, angdiff_many
from .errors import ConstructionError
from .surface import SurfaceGroup


@dataclass(frozen=True, eq=False)
class DualDomain:
    """The dual choice and the domain of its extension.

    The dual choice is the D row of `solved`'s named-point table, one point
    in [P_i, Q_i] per side.  `partition` cuts the circle at D_1..D_N; the
    dual map applies T_i on its arc i, [D_i, D_{i+1}), so the steps of
    `boundary` run the dual extension when given a DualDomain.

    horizontal strips (driven by the second coordinate, one per index i):
        wide  [Q_{i+2}, P_{i-1}] x [D_i, D_{i+1})
        head  [P_{i-1}, P_i]     x [H_i, D_{i+1})   empty iff A_{sigma(i)+1} = P
        tail  [Q_{i+1}, Q_{i+2}] x [D_i, G_i)       empty iff A_{sigma(i)} = Q
    ends[i-1] holds strip i's wide, head and tail ends (x0, x1, y0, y1).
    The vertical-strip view is the coordinate flip of the primal domain:
    (u, w) is in the dual domain when (w, u) is in build_domain(solved).
    """

    solved: SolvedParams  # the extremal choice this is dual to
    ends: np.ndarray

    @property
    def surface(self) -> SurfaceGroup:
        return self.solved.surface

    @cached_property
    def partition(self) -> CirclePartition:
        return CirclePartition(self.solved.angles[4])

    @cached_property
    def rects(self) -> list[DomainRect]:
        """The rectangles as objects, built on first use: wide 1..N, then head, then tail."""
        return [
            DomainRect(*end, i + 1, kind)
            for kind, family in zip(("wide", "head", "tail"), self.ends.transpose(1, 0, 2).tolist())
            for i, end in enumerate(family)
        ]

    def contains_horizontal_many(self, u_thetas, w_thetas) -> np.ndarray:
        u = np.asarray(u_thetas, dtype=float)
        w = np.asarray(w_thetas, dtype=float)
        k = self.partition.index_many(w) - 1  # w in [D_i, D_{i+1}), strip i = k + 1

        def in_arc(theta, a0, a1):
            return np.remainder(theta - a0, TWO_PI) < np.remainder(a1 - a0, TWO_PI)

        (wx0, wx1, _, _), (hx0, hx1, hy0, hy1), (tx0, tx1, ty0, ty1) = self.ends[k].transpose(1, 2, 0)
        in_head = in_arc(u, hx0, hx1) & in_arc(w, hy0, hy1)
        in_tail = in_arc(u, tx0, tx1) & in_arc(w, ty0, ty1)
        return in_arc(u, wx0, wx1) | in_head | in_tail

    def to_json(self) -> str:
        """The solution JSON with the source word and the dual points D_i with their words."""
        doc = json.loads(self.solved.to_json())
        doc["source_params"] = self.solved.params.word
        d_words, d = self.solved.point_words[2], self.solved.angles[4].tolist()
        doc["dual"] = [dict(w.to_json(), angle=a) for w, a in zip(d_words, d)]
        return json.dumps(doc, indent=2)


def dual_word(solved: SolvedParams, tol: float = TOL) -> str | None:
    """The {P,Q} word whose choice is the dual points D_i, or None if they are not extremal."""
    d, s = solved.angles[4], solved.surface
    is_p = angdiff_many(d, s.p_angles) <= tol
    is_q = angdiff_many(d, s.q_angles) <= tol
    return "".join(np.where(is_p, "P", "Q")) if (is_p | is_q).all() else None


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
    rows, sides = solved.surface.maps.rect_rows[:, 2 * n :]
    return DualDomain(solved, solved.angles[rows, sides].reshape(n, 3, 4))


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
    angles = np.vstack([solved.angles[:4], dual_domain.solved.angles[4:]])  # D of the dual domain
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

    (a) the structural image corners, and agreement of the horizontal
    decomposition of the dual domain with its vertical view, the flip of
    `domain`, on flipped samples of `domain`; (b) flip(inverse step(p)) ==
    dual step(flip(p)) away from the dual partition points; (c) the
    backward digits of the primal code equal the forward branch indices of
    the dual orbit of the first coordinate.

    The random stream skips one draw of `samples` points (3 * samples
    uniforms) before part (a), so the counts stay those of earlier versions,
    which spent that draw on a check of `domain` against its own samples.
    """
    rng = np.random.default_rng(seed)
    report = DualityReport(samples=samples, seed=seed)

    report.image_corner_failures = verify_dual_images(solved, dual_domain, tol)

    # (a) agreement of the two decompositions of the dual domain; the
    # vertical view of a dual pair (du, dw) is domain membership of (dw, du).
    rng.bit_generator.advance(3 * samples)
    dw, du = domain.sample(rng, samples)
    dmargin = domain.boundary_distance_many(dw, du) > 10 * tol
    v_in = domain.contains_many(dw, du)
    h_in = dual_domain.contains_horizontal_many(du, dw)
    report.flip_failures += int(((h_in != v_in) & dmargin).sum())

    # (b) the defining identity, on points away from the dual partition.
    u, w = domain.sample(rng, samples)
    keep = dual_domain.partition.distance_many(u) > 10 * tol
    keep &= domain.boundary_distance_many(u, w) > 10 * tol
    report.skipped = int((~keep).sum())
    u, w = u[keep], w[keep]
    pu, pw, bidx, count = inverse_step_many(solved, domain, u, w)
    good = count == 1
    fu, fw, _ = extension_step_many(dual_domain, w[good], u[good])
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
        bad = bad | (dual_domain.partition.distance_many(x) <= 10 * tol)
        x, branches[:, step] = boundary_step_many(dual_domain, x)
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
    double_dual_ok: bool

    @property
    def passed(self) -> bool:
        return self.double_dual_ok and self.dual_word == self.expected_dual


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
        dword = dual_word(solve(surface, word, tol), tol)
        double_ok = dword is not None and dual_word(solve(surface, dword, tol), tol) == word
        out.append(FamilyCheck(name, word, dword, expected[name], double_ok))
    return out
