"""Parameter solver, the extension map, and its rectangle domain."""

import dataclasses
import functools
import itertools
import json
import math
import random

import numpy as np
import pytest

from fuchsian.boundary import (
    NAMED,
    BijectivityReport,
    DomainRect,
    ExtremalParams,
    RectDomain,
    boundary_step,
    build_domain,
    degeneracy_failures,
    extension_step,
    extension_step_many,
    identity_failures,
    invariant_measure,
    inverse_step,
    inverse_step_many,
    solve,
    verify_bijectivity,
)
from fuchsian.circle import TOL, TWO_PI, CirclePartition, CirclePoint, angdiff, ccw_distance, wrap_angle
from fuchsian.duality import build_omega_dual, verify_dual_images
from fuchsian.attractor import attractor_experiment
from fuchsian.errors import ConstructionError, DegeneratePointsError, FuchsianError, OutsideDomainError, RangeError
from fuchsian.surface import SurfaceGroup, build_regular_surface
from fuchsian.sweep import sweep
from fuchsian import boundary
from fuchsian.words import GroupWord
from oracles import (
    Arc,
    analytic_loop,
    classify_type,
    compute_h_d,
    degeneracy_loop,
    dense_domain_distance,
    domain_loop,
    dual_domain_loop,
    dual_image_loop,
    inverse_search,
    inverse_search_many,
    monte_carlo_loop,
    rect_arcs,
    rect_domain,
    sample_choice,
    solve_g,
    with_points,
)


def midpoint(arc):
    return CirclePoint(arc.start.angle + 0.5 * arc.length)


EXAMPLE_WORD = "PPPPQPQQPPQQ"

# The worked genus-2 example: canonical words for the solved points.
EXPECTED_G = [
    "P1", "P2", "Q3", "P5", "T3 P1", "P6",
    "P8", "P9", "T6 T3 P1", "T4 P2", "P12", "P1",
]
EXPECTED_D = [
    "P1", "P2", "Q3", "Q4", "T10 T11 P1", "P6",
    "Q7", "Q8", "T11 P1", "T4 P6", "T4 Q3", "Q12",
]


class TestParams:
    def test_word_validation(self, genus2):
        with pytest.raises(ValueError):
            ExtremalParams(genus2, "PPP")
        with pytest.raises(ValueError):
            ExtremalParams(genus2, "PPPPQPQQPPQX")

    def test_points_follow_choices(self, genus2):
        params = ExtremalParams(genus2, EXAMPLE_WORD)
        assert params.a(1).close_to(genus2.p(1))
        assert params.a(5).close_to(genus2.q(5))

    def test_branch_left_closed(self, genus2):
        params = ExtremalParams(genus2, "P" * 12)
        for i in range(1, 13):
            assert params.partition.index(params.a(i).angle) == i

    def test_branch_oracle_by_arc(self, genus2):
        params = ExtremalParams(genus2, EXAMPLE_WORD)
        rng = np.random.default_rng(2)
        for theta in rng.uniform(0, TWO_PI, 200):
            i = params.partition.index(theta)
            arc = Arc(params.a(i), params.a(i + 1))
            assert arc.contains(CirclePoint(theta))


def index_types(solved):
    """The "type" column of solved.to_json()."""
    return [row["type"] for row in json.loads(solved.to_json())["solution"]]


class TestClassify:
    def test_worked_example_types(self, solved_example):
        assert index_types(solved_example) == [3, 3, 4, 1, 2, 3, 1, 1, 4, 2, 1, 1]

    def test_all_p_all_cycle(self, solved_all_p):
        assert index_types(solved_all_p) == [1] * 12

    def test_all_q_all_cycle(self, solved_all_q):
        assert index_types(solved_all_q) == [3] * 12


class TestSolver:
    def test_worked_example_words(self, solved_example):
        got = [str(solved_example.g_word(i)) for i in range(1, 13)]
        assert got == EXPECTED_G

    def test_worked_example_numeric(self, genus2, solved_example):
        for i in range(1, 13):
            expect = GroupWord.from_json(
                {"word": [int(t[1:]) for t in EXPECTED_G[i - 1].split()[:-1]],
                 "base": EXPECTED_G[i - 1].split()[-1]}
            )
            assert solved_example.g(i).close_to(expect.evaluate(genus2), TOL)

    def test_all_p(self, genus2, solved_all_p):
        for i in range(1, 13):
            assert str(solved_all_p.g_word(i)) == f"P{genus2.wrap(i + 1)}"

    def test_all_q(self, solved_all_q):
        for i in range(1, 13):
            assert str(solved_all_q.g_word(i)) == f"P{i}"

    def test_alternating(self, genus2):
        solved = solve(genus2, "PQ" * 6)
        for i in range(1, 13):
            expected = f"P{genus2.wrap(i + 1)}" if i % 2 else f"P{i}"
            assert str(solved.g_word(i)) == expected

    @pytest.mark.parametrize("g", [2, 3])
    def test_ranges_hold_for_random_words(self, g):
        from fuchsian.surface import build_regular_surface

        surface = build_regular_surface(g)
        rng = np.random.default_rng(g)
        for _ in range(25):
            word = "".join(rng.choice(["P", "Q"], size=surface.n))
            solved = solve(surface, word)  # raises RangeError on violation
            for i in range(1, surface.n + 1):
                assert Arc(surface.p(i), surface.p(i + 1), True, True).contains(
                    solved.g(i), TOL
                )
                assert Arc(surface.q(i), surface.q(i + 1), True, True).contains(
                    solved.h(i), TOL
                )
                assert Arc(surface.p(i), surface.q(i), True, True).contains(
                    solved.d(i), TOL
                )

    def test_range_check_is_the_closed_arc_test(self):
        rng = np.random.default_rng(5)
        a, b = rng.uniform(0, TWO_PI, (2, 200))
        x = np.concatenate([rng.uniform(0, TWO_PI, 200), a, b, a - 0.5 * TOL, b + 0.5 * TOL, b + 2 * TOL, [math.nan] * 200])
        a, b = np.tile(a, 7), np.tile(b, 7)
        expected = [
            not Arc(CirclePoint(ai), CirclePoint(bi), True, True).contains(CirclePoint(xi), TOL)
            for xi, ai, bi in zip(x, a, b)
        ]
        assert boundary._outside(x, a, b, TOL).tolist() == expected

    def test_corrupt_generators_fail_the_range_check(self, genus2):
        # Each generator moved one side on: the chains map their targets
        # with the wrong maps, and the first G out of range is named.
        g = genus2.generators
        broken = dataclasses.replace(genus2, generators=g[1:] + g[:1])
        with pytest.raises(RangeError, match=r"^G_3 lies outside \[P_3, P_4\]$"):
            solve(broken, EXAMPLE_WORD)

    def test_chain_length_bounded(self, genus2):
        longest = 0
        for bits in itertools.islice(itertools.product("PQ", repeat=12), 0, 4096, 7):
            for w in solve(genus2, "".join(bits)).point_words[0]:
                longest = max(longest, len(w.letters))
        assert longest <= genus2.n

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_named_points_are_canonical(self, g):
        # All 4096 words at g = 2, 100 random ones at g = 3 and 4.  An empty
        # piece [H_i, D_{i+1}] or [D_i, G_i] has ends that are one float, so
        # width 0.0 exactly; and no point moves off its word's value.
        surface = build_regular_surface(g)
        if g == 2:
            words = ["".join(bits) for bits in itertools.product("PQ", repeat=surface.n)]
        else:
            rng = random.Random(g)
            words = ["".join(rng.choice("PQ") for _ in range(surface.n)) for _ in range(100)]
        wide, moved = [], []
        for word in words:
            solved = solve(surface, word)
            assert degeneracy_failures(solved) == []
            for i in range(1, surface.n + 1):
                if word[surface.tau_sigma(i - 1) - 1] == "P" and ccw_distance(solved.h(i).angle, solved.d(i + 1).angle):
                    wide.append((word, "head", i))
                if word[surface.sigma(i) - 1] == "Q" and ccw_distance(solved.d(i).angle, solved.g(i).angle):
                    wide.append((word, "tail", i))
            for name, row, words in zip("GHD", solved.angles[2:], solved.point_words):
                for i, (angle, w) in enumerate(zip(row, words), 1):
                    if angdiff(angle, w.evaluate(surface).angle) > 1e-12:
                        moved.append((word, name, i))
        assert wide == []
        assert moved == []


class TestWordsOnDemand:
    def test_solve_builds_and_evaluates_no_word(self, genus4, monkeypatch):
        calls = []
        for owner, name in ((boundary, "prepend"), (GroupWord, "evaluate")):
            fn = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *a, _fn=fn, _name=name, **k: calls.append(_name) or _fn(*a, **k))
        solved = solve(genus4, "PQ" * 14)
        assert calls == []
        solved.d_word(3)
        assert "prepend" in calls

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_words_are_the_builders_words_and_evaluate_to_the_points(self, g):
        # All 4096 words at g = 2, 100 random ones at g = 3 and 4: the chain
        # replay gives the words and the "type" column of the depth-first
        # solver in oracles, and each word evaluates to its point.
        surface = build_regular_surface(g)
        n = surface.n
        if g == 2:
            words = ["".join(bits) for bits in itertools.product("PQ", repeat=n)]
        else:
            rng = random.Random(40 + g)
            words = ["".join(rng.choice("PQ") for _ in range(n)) for _ in range(100)]
        for word in words:
            solved = solve(surface, word)
            g_words = solve_g(solved.params)
            expected = (g_words, *compute_h_d(solved.params, g_words))
            got = [[get(i) for i in range(1, n + 1)] for get in (solved.g_word, solved.h_word, solved.d_word)]
            assert got == [list(w) for w in expected]
            assert solved.d_word(0) == solved.d_word(n)
            assert index_types(solved) == [int(classify_type(solved.params, i)) for i in range(1, n + 1)]
            for row, ws in zip(solved.angles[2:], expected):
                assert max(angdiff(angle, w.evaluate(surface).angle) for angle, w in zip(row, ws)) <= 1e-13


class TestHD:
    def test_worked_example_d_words(self, solved_example):
        got = [str(solved_example.d_word(i)) for i in range(1, 13)]
        assert got == EXPECTED_D

    def test_all_p_dual_points(self, genus2, solved_all_p):
        for i in range(1, 13):
            assert solved_all_p.d(i).close_to(genus2.q(i))

    def test_all_q_dual_points(self, genus2, solved_all_q):
        for i in range(1, 13):
            assert solved_all_q.d(i).close_to(genus2.p(i))

    def test_u_maps_agree_both_ways(self, genus2, solved_example):
        s = genus2
        for i in range(1, 13):
            alt = s.t(s.sigma(i)) @ s.t(s.wrap(s.tau(i) - 1))
            assert s.u(i).distance_to(alt) < TOL

    def test_d_from_h_identity(self, genus2, solved_example):
        s = genus2
        for i in range(1, 13):
            img = s.t(s.sigma(i)).apply(solved_example.h(s.sigma(i) + 1))
            assert img.close_to(solved_example.d(i), TOL)

    def test_h_words_evaluate_consistently(self, genus2, solved_example):
        for i in range(1, 13):
            w = solved_example.h_word(i)
            assert w.evaluate(genus2).close_to(solved_example.h(i), TOL)


class TestBoundaryStep:
    def test_fixed_point_of_generator(self, genus2, solved_all_p):
        # Q_2 lies in [P_2, P_3) and is fixed by the generator applied there.
        params = solved_all_p.params
        image, i = boundary_step(params, genus2.q(2))
        assert i == 2
        assert image.close_to(genus2.q(2))

    def test_exact_partition_point_goes_left_closed(self, genus2):
        params = ExtremalParams(genus2, EXAMPLE_WORD)
        for i in range(1, 13):
            _, idx = boundary_step(params, params.a(i))
            assert idx == i

    def test_just_past_partition_point(self, genus2, solved_example):
        params = solved_example.params
        x = CirclePoint(params.a(5).angle + 1e-6)
        _, idx = boundary_step(params, x)
        assert idx == 5
        assert Arc(params.a(5), params.a(6)).contains(x)

    def test_extension_index_driven_by_w(self, genus2, solved_example):
        params = solved_example.params
        u = CirclePoint(params.a(3).angle + 1e-3)  # u sits in branch 3
        w = CirclePoint(params.a(8).angle + 1e-3)  # w sits in branch 8
        _, _, i = extension_step(params, u, w)
        assert i == 8

    def test_extension_rejects_diagonal(self, genus2, solved_example):
        with pytest.raises(OutsideDomainError):
            extension_step(solved_example.params, CirclePoint(1.0), CirclePoint(1.0))

    def test_vectorized_matches_scalar(self, genus2, solved_example):
        params = solved_example.params
        rng = np.random.default_rng(31)
        u = rng.uniform(0, TWO_PI, 200)
        w = rng.uniform(0, TWO_PI, 200)
        u2, w2, idx = extension_step_many(params, u, w)
        for k in range(200):
            su, sw, si = extension_step(params, CirclePoint(u[k]), CirclePoint(w[k]))
            assert si == idx[k]
            assert su.close_to(CirclePoint(u2[k]), TOL)
            assert sw.close_to(CirclePoint(w2[k]), TOL)


class TestDomain:
    def test_rectangle_count(self, domain_example):
        assert len(domain_example.rects) == 24

    def test_rectangle_extents(self, genus2, solved_example, domain_example):
        s = genus2
        for i in range(1, 13):
            lower = domain_example.rects[2 * (i - 1)]
            upper = domain_example.rects[2 * (i - 1) + 1]
            assert lower.kind == "lower" and upper.kind == "upper"
            (lower_x, lower_y), (upper_x, upper_y) = rect_arcs(lower), rect_arcs(upper)
            assert lower_x.start.close_to(solved_example.h(i + 1))
            assert lower_x.end.close_to(solved_example.g(i - 2))
            assert lower_y.start.close_to(s.p(i)) and lower_y.end.close_to(s.q(i))
            assert upper_x.end.close_to(solved_example.g(i - 1))
            assert upper_y.start.close_to(s.q(i)) and upper_y.end.close_to(s.p(i + 1))

    def test_all_p_lower_strip_ends_at_p(self, genus2, solved_all_p):
        # With every choice P the solved corner G_{i-2} is the endpoint P_{i-1}.
        domain = build_domain(solved_all_p)
        for i in range(1, 13):
            lower = domain.rects[2 * (i - 1)]
            assert CirclePoint(lower.x1).close_to(genus2.p(i - 1))

    def test_no_degenerate_strips(self, domain_example):
        for r in domain_example.rects:
            assert not r.degenerate

    def test_membership_partition(self, domain_example):
        # Each contained point lies in exactly one rectangle under the
        # half-open convention.
        rng = np.random.default_rng(8)
        u, w = domain_example.sample(rng, 2000)
        for k in range(0, 2000, 50):
            pu, pw = CirclePoint(u[k]), CirclePoint(w[k])
            hits = [
                (x_arc, y_arc)
                for x_arc, y_arc in map(rect_arcs, domain_example.rects)
                if x_arc.contains(pu) and y_arc.contains(pw)
            ]
            assert len(hits) == 1

    def test_locate_matches_bruteforce(self, domain_example):
        rng = np.random.default_rng(9)
        u = rng.uniform(0, TWO_PI, 500)
        w = rng.uniform(0, TWO_PI, 500)
        located = domain_example.locate_many(u, w)
        for k in range(500):
            pu, pw = CirclePoint(u[k]), CirclePoint(w[k])
            brute = [
                j
                for j, (x_arc, y_arc) in enumerate(map(rect_arcs, domain_example.rects))
                if x_arc.contains(pu, 0.0) and y_arc.contains(pw, 0.0)
            ]
            if located[k] >= 0:
                assert brute == [located[k]]
            else:
                assert brute == []

    def test_scalar_locate_matches_locate_many(self, domain_example):
        # Random pairs, then every rectangle edge and one ulp on either side
        # of it, paired with the edges and midpoints of the other coordinate.
        rng = np.random.default_rng(19)
        x_arcs, y_arcs = zip(*map(rect_arcs, domain_example.rects))

        def near(arcs):
            edges = np.array([[a.start.angle, a.start.angle + a.length] for a in arcs]).ravel()
            return np.concatenate([edges, np.nextafter(edges, -7.0), np.nextafter(edges, 7.0)])

        xs = np.concatenate([near(x_arcs), [midpoint(a).angle for a in x_arcs]])
        ys = np.concatenate([near(y_arcs), [midpoint(a).angle for a in y_arcs]])
        ux, wy = np.meshgrid(xs, ys)
        u = np.concatenate([rng.uniform(0, TWO_PI, 100_000), ux.ravel()])
        w = np.concatenate([rng.uniform(0, TWO_PI, 100_000), wy.ravel()])
        u = np.array([CirclePoint(a).angle for a in u])
        w = np.array([CirclePoint(a).angle for a in w])
        many = domain_example.locate_many(u, w)
        scalar = [domain_example.locate(CirclePoint(a), CirclePoint(b)) for a, b in zip(u, w)]
        assert [-1 if k is None else k for k in scalar] == many.tolist()

    def test_distance_zero_inside(self, domain_example):
        rng = np.random.default_rng(10)
        u, w = domain_example.sample(rng, 100)
        assert (domain_example.distance_many(u, w) == 0.0).all()

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_distance_is_the_dense_formula_bit_for_bit(self, g):
        surface = build_regular_surface(g)
        rng = np.random.default_rng(40 + g)
        for word in ("".join(rng.choice(["P", "Q"], surface.n)) for _ in range(2)):
            solved = solve(surface, word)
            domain = build_domain(solved)
            cases = [
                (rng.uniform(0, TWO_PI, 20_000), rng.uniform(0, TWO_PI, 20_000)),
                domain.sample(rng, 20_000),
                (np.zeros(0), np.zeros(0)),
            ]
            iu, iw = rng.uniform(0, TWO_PI, 20_000), rng.uniform(0, TWO_PI, 20_000)
            su, sw = domain.sample(rng, 20_000)
            for _ in range(5):
                iu, iw, _ = extension_step_many(solved.params, iu, iw)
                su, sw, _ = extension_step_many(solved.params, su, sw)
            cases += [(iu, iw), (su, sw)]
            # Every rectangle corner and one ulp on either side of it, with
            # the x-midpoint; w also walks 8 ulps each way, where the y-arc
            # that holds w and the closed test on that arc can disagree.
            # There distance_many reads 0.0 for a u in that arc's closed
            # x-arc, and the dense form may read those few ulps instead.
            for r in domain.rects:
                xs = np.array([r.x0, r.x0 + r.width])
                ys = np.array([r.y0, r.y0 + r.height])
                xs = np.concatenate([xs, np.nextafter(xs, -7.0), np.nextafter(xs, 7.0)])
                xs = np.append(xs, midpoint(rect_arcs(r)[0]).angle)
                ys = np.concatenate([ys + j * np.spacing(ys) for j in range(-8, 9)])
                cu, cw = np.meshgrid(xs, ys)
                cases.append((cu.ravel(), cw.ravel()))
            for u, w in cases:
                got = domain.distance_many(u, w)
                want = dense_domain_distance(domain, u, w)
                assert got.shape == want.shape
                differ = got != want
                assert (got[differ] == 0.0).all() and (want[differ] <= 16 * np.spacing(TWO_PI)).all()
                assert not np.signbit(got).any()

    def test_distance_sends_only_misses_to_the_matrix(self, domain_example, monkeypatch):
        # The m x 2N form sees exactly the rows whose u is outside the closed
        # x-arc of the one rectangle whose y-arc holds w.
        seen = []
        full = domain_example._miss_distance

        def spy(u, w):
            seen.append(u.copy())
            return full(u, w)

        monkeypatch.setattr(domain_example, "_miss_distance", spy)
        rng = np.random.default_rng(11)
        su, sw = domain_example.sample(rng, 5000)
        domain_example.distance_many(su, sw)
        assert sum(len(u) for u in seen) == 0

        u = np.concatenate([su, rng.uniform(0, TWO_PI, 5000)])
        w = np.concatenate([sw, rng.uniform(0, TWO_PI, 5000)])
        rects = domain_example.rects
        k = CirclePartition([r.y0 for r in rects]).index_many(w) - 1
        x0, xw = np.array([r.x0 for r in rects]), np.array([r.width for r in rects])
        closed = np.remainder(u - x0[k], TWO_PI) <= xw[k]
        seen.clear()
        domain_example.distance_many(u, w)
        assert len(seen) == 1
        assert 0 < len(seen[0]) < 5000
        assert np.array_equal(seen[0], u[~closed])

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_members_are_at_distance_zero_near_y_arc_ends(self, g):
        # w within 8 ulps of every y-arc end, u at the start, middle and end
        # of every x-arc: the partition puts w in arc k, and the closed
        # re-test of w on arc k could reject it by an ulp.
        surface = build_regular_surface(g)
        rng = random.Random(60 + g)
        for _ in range(5):
            domain = build_domain(solve(surface, "".join(rng.choice("PQ") for _ in range(surface.n))))
            x0 = np.array([r.x0 for r in domain.rects])
            xw = np.array([r.width for r in domain.rects])
            ys = np.unique([a for r in domain.rects for a in (r.y0, r.y1)])
            ws = np.concatenate([ys + j * np.spacing(ys) for j in range(-8, 9)])
            u, w = (a.ravel() for a in np.meshgrid(np.concatenate([x0, x0 + 0.5 * xw, x0 + xw]), ws))
            inside = domain.contains_many(u, w)
            assert inside.sum() > len(ws)
            assert (domain.distance_many(u, w)[inside] == 0.0).all()


class TestBijectivity:
    def test_example_passes_both_modes(self, solved_example, domain_example):
        report = verify_bijectivity(solved_example, domain_example, mode="both", samples=2000, seed=1)
        assert report.analytic_passed
        assert report.mc_passed
        assert report.max_corner_deviation < TOL

    @pytest.mark.parametrize("mode", ["bogus", "MC", "analytic_only", ""])
    def test_unknown_mode_raises(self, solved_example, domain_example, mode):
        with pytest.raises(ValueError, match="mode"):
            verify_bijectivity(solved_example, domain_example, mode=mode)

    def test_report_passes_only_after_a_check(self):
        assert BijectivityReport().passed is False
        assert BijectivityReport(analytic_checked=True).passed is True
        assert BijectivityReport(mc_checked=True, mc_samples=10).passed is True
        assert BijectivityReport(mc_checked=True, mc_samples=0).passed is False
        assert BijectivityReport(analytic_checked=True, corner_failures=["x"]).passed is False

    def test_image_rectangle_of_upper_strip(self, genus2, solved_example):
        # T_i carries the upper strip onto [D_sigma(i), D_sigma(i)+1] x
        # [Q_sigma(i)+2, P_sigma(i)-1].
        s = genus2
        for i in range(1, 13):
            si = s.sigma(i)
            t = s.t(i)
            assert t.apply(solved_example.h(i + 1)).close_to(solved_example.d(si), TOL)
            assert t.apply(solved_example.g(i - 1)).close_to(solved_example.d(si + 1), TOL)
            assert t.apply(s.q(i)).close_to(s.q(si + 2), TOL)
            assert t.apply(s.p(i + 1)).close_to(s.p(si - 1), TOL)

    def test_perturbed_corner_is_named(self, genus2, solved_example, domain_example):
        broken = with_points(solved_example, "H", solved_example.h(5).angle + 0.01, [5])
        report = verify_bijectivity(broken, domain_example, mode="analytic")
        assert not report.analytic_passed
        assert any("H_5" in f for f in report.corner_failures)

    @pytest.mark.parametrize(
        "name, shift, expected",
        [
            ("D", 1.0, ["T_3 H_4 = D_5 off by 1", "T_10 G_9 = D_5 off by 1"]),
            ("H", 0.01, ["T_4 H_5 = D_10 off by 0.00322"]),
        ],
    )
    def test_corner_failure_messages(self, solved_example, name, shift, expected):
        # The complete list for one moved point.  T_10 G_9 = D_5 is a corner
        # of side 10's upper image and of side 11's lower one (a Q choice);
        # the check lists each identity once.
        broken = with_points(solved_example, name, solved_example.angles[NAMED.index(name), 4] + shift, [5])
        report = verify_bijectivity(broken, build_domain(broken), mode="analytic")
        assert report.corner_failures == expected

    @pytest.mark.parametrize("side", range(1, 13))
    @pytest.mark.parametrize("name", "GHD")
    def test_nan_named_point_fails(self, solved_example, domain_example, name, side):
        broken = with_points(solved_example, name, math.nan, [side])
        with np.errstate(invalid="ignore"):
            report = verify_bijectivity(broken, domain_example, mode="analytic")
        assert not report.analytic_passed
        assert any(f"{name}_{side} " in f and f.endswith("off by nan") for f in report.corner_failures)

    def test_identity_failures_reads_indices_mod_n(self, genus2, solved_example):
        # The word's corner rows hold 0-based sides mod N: side 12's upper
        # rows T_12 Q_12 = Q_sigma(12)+2 and T_12 P_13 = P_sigma(12)-1 read
        # P_13 as P_1.  A wrong row is named with 1-based sides.
        rows = solved_example.params.corner_rows
        assert identity_failures(genus2, solved_example.angles, rows)[0] == []
        si = genus2.sigma(12)
        P, Q = 0, 1
        assert [11, P, 0, P, (si - 2) % 12] in rows.tolist()
        rows = np.array([(11, Q, 11, Q, (si + 1) % 12), (11, P, 0, P, si - 1)])
        fails, worst = identity_failures(genus2, solved_example.angles, rows)
        assert [f.split(" off by ")[0] for f in fails] == [f"T_12 P_1 = P_{si}"]
        assert worst > 0.1

    def test_reversed_tiling_piece_is_named(self, solved_example, domain_example):
        # D_5 moved past D_6 reverses the piece [D_5, D_6] in every strip using it.
        broken = with_points(solved_example, "D", solved_example.d(5).angle + 1.0, [5])
        report = verify_bijectivity(broken, domain_example, mode="analytic")
        assert not report.analytic_passed
        assert "strip 1 lower: piece [D_5,D_6] reversed (width 5.77)" in report.tiling_failures
        assert any(f.startswith("strip 1 lower: pieces cover") for f in report.tiling_failures)
        assert not report.degeneracy_failures

    @pytest.mark.parametrize("g, word", [(2, EXAMPLE_WORD), (4, "PQ" * 14)], ids=["g2", "g4"])
    def test_each_reversed_piece_is_named_once(self, g, word):
        # Strips share pieces; [D_5, D_6] alone sits in most of them.
        solved = solve(build_regular_surface(g), word)
        broken = with_points(solved, "D", solved.d(5).angle + 1.0, [5])
        fails = verify_bijectivity(broken, build_domain(broken), mode="analytic").tiling_failures
        pieces = [f.split(": piece ")[1].split(" reversed")[0] for f in fails if " reversed " in f]
        assert "[D_5,D_6]" in pieces
        assert len(pieces) == len(set(pieces))

    def test_lost_degeneracy_is_named(self, solved_example, domain_example):
        # Moving every H_i off its D partner undoes the degenerate head pieces.
        broken = with_points(solved_example, "H", solved_example.angles[3] + 1e-6)
        report = verify_bijectivity(broken, domain_example, mode="analytic")
        assert not report.analytic_passed
        assert (
            "[H_2, D_3] degenerate=False but choice at tau_sigma(1) is P"
            in report.degeneracy_failures
        )

    def test_each_degeneracy_failure_is_listed_once(self, solved_example, domain_example):
        # Moving every G_i off its D partner undoes the 5 degenerate tail pieces.
        broken = with_points(solved_example, "G", solved_example.angles[2] + 1e-6)
        fails = verify_bijectivity(broken, domain_example, mode="analytic").degeneracy_failures
        assert len(fails) == 5
        assert len(set(fails)) == len(fails)

    def test_inverse_round_trip_bulk(self, solved_example, domain_example):
        rng = np.random.default_rng(12)
        u, w = domain_example.sample(rng, 10_000)
        u2, w2, _ = extension_step_many(solved_example.params, u, w)
        pu, pw, _, count = inverse_step_many(solved_example, domain_example, u2, w2)
        assert (count == 1).all()
        du = np.abs(np.remainder(pu - u + math.pi, TWO_PI) - math.pi)
        dw = np.abs(np.remainder(pw - w + math.pi, TWO_PI) - math.pi)
        assert float(np.maximum(du, dw).max()) < TOL

    def test_inverse_scalar_round_trip(self, solved_example, domain_example):
        rng = np.random.default_rng(14)
        u, w = domain_example.sample(rng, 20)
        for k in range(20):
            pu, pw = CirclePoint(u[k]), CirclePoint(w[k])
            iu, iw, i = inverse_step(solved_example, domain_example, pu, pw)
            fu, fw, j = extension_step(solved_example.params, iu, iw)
            assert i == j
            assert fu.close_to(pu, TOL) and fw.close_to(pw, TOL)

    def test_inverse_outside_domain_raises(self, genus2, solved_example, domain_example):
        # The midpoint of the excluded region left of a strip is outside.
        s = genus2
        u = CirclePoint(s.q(1).angle + 1e-4)
        w = CirclePoint(s.p(1).angle + 1e-4)
        if not domain_example.contains(u, w):
            with pytest.raises(OutsideDomainError):
                inverse_step(solved_example, domain_example, u, w)

    def test_between_endpoint_interval_containment(self, genus2):
        # Points of [P_j, P_{j+1}] land in [P_{tau(j)-2}, P_{tau(j)-1}] under
        # T_{tau sigma(j)+2} T_{j+1}.
        s = genus2
        rng = np.random.default_rng(15)
        for j in range(1, 13):
            m = s.t(s.tau_sigma(j) + 2) @ s.t(j + 1)
            a = s.p(j).angle
            width = (s.p(j + 1).angle - a) % TWO_PI
            target = Arc(s.p(s.tau(j) - 2), s.p(s.tau(j) - 1), True, True)
            for x in rng.uniform(0, 1, 100):
                image = m.apply(CirclePoint(a + x * width))
                assert target.contains(image, TOL)

    def test_measure_preserved_on_image_rectangles(self, genus2, solved_example, domain_example):
        # The invariant measure du dw / |u-w|^2 of each upper rectangle
        # equals that of its image rectangle, in closed form.
        s = genus2
        for i in range(1, 13):
            si = s.sigma(i)
            upper = domain_example.rects[2 * (i - 1) + 1]
            image = DomainRect(
                x0=solved_example.d(si).angle,
                x1=solved_example.d(si + 1).angle,
                y0=s.q(si + 2).angle,
                y1=s.p(si - 1).angle,
                strip=si,
                kind="upper",
            )
            m1 = invariant_measure(upper)
            m2 = invariant_measure(image)
            assert abs(m1 - m2) <= 0.01 * abs(m1)


def resized(domain, k, delta):
    """The domain with rectangle k's x-extent moved at its end by delta."""
    rects = list(domain.rects)
    r = rects[k]
    rects[k] = dataclasses.replace(r, x1=r.x0 if delta is None else wrap_angle(r.x1 + delta))
    return rect_domain(rects)


def scalar_outcome(fn, *args):
    """A scalar inverse's result as angles and branch, or its error class
    and message up to any ": " detail (such as the candidate search's
    branch list)."""
    try:
        u, w, i = fn(*args)
    except FuchsianError as exc:
        return type(exc).__name__, str(exc).split(": ")[0]
    return u.angle, w.angle, i


PREIMAGE_WORDS = {
    2: [EXAMPLE_WORD, "Q" * 12],
    3: ["PQQPPQPQPQQPQPPQQPPQ", "PPQQ" * 5],
    4: ["PQ" * 14, "PPQQ" * 7],
}


@pytest.fixture(scope="module", params=sorted(PREIMAGE_WORDS), ids=lambda g: f"g{g}")
def preimage_cases(request):
    """Per word of one genus: (solved, domain, u, w), 5 * 10^4 pairs each.

    The first 4 * 10^4 pairs are domain samples, the rest uniform on the
    torus, so the words of a genus cover 10^5 pairs together.
    """
    surface = build_regular_surface(request.param)
    rng = np.random.default_rng(request.param)
    cases = []
    for word in PREIMAGE_WORDS[request.param]:
        solved = solve(surface, word)
        domain = build_domain(solved)
        u, w = domain.sample(rng, 40_000)
        u = np.concatenate([u, rng.uniform(0.0, TWO_PI, 10_000)])
        w = np.concatenate([w, rng.uniform(0.0, TWO_PI, 10_000)])
        cases.append((solved, domain, u, w))
    return cases


@functools.cache
def fault_words(g):
    """Four solved words at genus g, each with its dual domain."""
    surface = build_regular_surface(g)
    n = surface.n
    rng = random.Random(70 + g)
    words = ["P" * n, ("PQ" * n)[:n], ("PPQQ" * n)[:n]]
    words.append(EXAMPLE_WORD if g == 2 else "".join(rng.choice("PQ") for _ in range(n)))
    return [(solved, build_omega_dual(solved)) for solved in (solve(surface, w) for w in words)]


class TestAnalyticTables:
    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_analytic_check_makes_one_t_angles_call_per_word(self, g, monkeypatch):
        words = fault_words(g)
        calls = []
        t_angles = SurfaceGroup.t_angles
        monkeypatch.setattr(SurfaceGroup, "t_angles", lambda *a, **k: calls.append(1) or t_angles(*a, **k))
        for solved, _ in words:
            assert verify_bijectivity(solved, None, mode="analytic").analytic_passed
        assert len(calls) == len(words)

    @pytest.mark.parametrize("shift", [1.0, -0.5, 1e-6, 3.0, math.nan])
    @pytest.mark.parametrize("name", "GHD")
    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_faults_match_the_chain_walk(self, g, name, shift):
        # One named point moved at sides 1, 5 and N: the report, the dual
        # domain's degeneracy error and the dual image checks are those of
        # the scalar chain walk in oracles, text for text.
        for solved, dual_domain in fault_words(g):
            for side in (1, 5, solved.surface.n):
                broken = with_points(solved, name, solved.angles[NAMED.index(name), side - 1] + shift, [side])
                with np.errstate(invalid="ignore"):
                    report = verify_bijectivity(broken, None, mode="analytic", seed=None)
                    assert json.dumps(report.to_json()) == json.dumps(analytic_loop(broken).to_json())
                    if math.isnan(shift):  # a NaN strip total is named, not passed over
                        assert any(" pieces cover nan of " in f for f in report.tiling_failures)
                    assert verify_dual_images(broken, dual_domain) == dual_image_loop(broken, dual_domain)
                    fails = degeneracy_loop(broken)
                    if fails:
                        with pytest.raises(ConstructionError) as err:
                            build_omega_dual(broken)
                        assert str(err.value) == f"dual head/tail rectangles contradict the word: {'; '.join(fails)}"
                    else:
                        build_omega_dual(broken)


class TestPreimageTable:
    def test_matches_candidate_search(self, preimage_cases):
        for solved, domain, u, w in preimage_cases:
            got = inverse_step_many(solved, domain, u, w)
            want = inverse_search_many(solved, domain, u, w)
            off = domain.boundary_distance_many(u, w) > 10 * TOL
            assert off.sum() > 0.99 * len(u)
            assert (got[3][off] == want[3][off]).all()
            one = off & (got[3] == 1)
            assert one[:40_000].all() and not one[40_000:].all()
            for a, b in zip(got[:3], want[:3]):
                assert (a[one] == b[one]).all()

    def test_scalar_inverse_matches_array(self, preimage_cases):
        for solved, domain, u, w in preimage_cases:
            u, w = u[:3000], w[:3000]
            pu, pw, branch, _ = inverse_step_many(solved, domain, u, w)
            got = [
                inverse_step(solved, domain, CirclePoint(a), CirclePoint(b))
                for a, b in zip(u, w)
            ]
            assert [i for _, _, i in got] == branch.tolist()
            assert ([x.angle for x, _, _ in got] == np.remainder(pu, TWO_PI)).all()
            assert ([y.angle for _, y, _ in got] == np.remainder(pw, TWO_PI)).all()

    @pytest.mark.parametrize("g", [2, 3, 4])
    @pytest.mark.parametrize("kind", ["y-edge", "x-edge", "corner", "D-point"])
    def test_edge_rows_have_one_preimage(self, kind, g):
        # A rectangle's ends are named points, and their images under the
        # branch generator are too; the table snaps those images onto the
        # named points, so a point on an edge has exactly one preimage.
        surface = build_regular_surface(g)
        rng = np.random.default_rng(3)
        for _ in range(5):
            solved = solve(surface, "".join(rng.choice(["P", "Q"], size=surface.n)))
            domain = build_domain(solved)
            u, w = domain.sample(rng, 4000)
            x_edges = [a for r in domain.rects for a in (r.x0, r.x1)]
            y_edges = [r.y0 for r in domain.rects]
            if kind == "y-edge":
                w = rng.choice(y_edges, len(w))
            elif kind == "x-edge":
                u = rng.choice(x_edges, len(u))
            elif kind == "corner":
                u, w = (a.ravel() for a in np.meshgrid(x_edges, y_edges))
            else:
                u = rng.choice(solved.angles[4], len(u))
            inside = domain.contains_many(u, w)
            assert inside.sum() > 500
            assert (inverse_step_many(solved, domain, u[inside], w[inside])[3] == 1).all()

    def test_table_is_built_once_per_domain(self, solved_example):
        domain = build_domain(solved_example)
        u, w = domain.sample(np.random.default_rng(3), 10)
        inverse_step_many(solved_example, domain, u, w)
        table = domain.preimages(solved_example)
        inverse_step(solved_example, domain, CirclePoint(u[0]), CirclePoint(w[0]))
        assert domain.preimages(solved_example) is table

    def test_y_arcs_must_refine_branches(self, solved_example, domain_example):
        shifted = rect_domain(
            [dataclasses.replace(r, y0=wrap_angle(r.y0 + 0.01)) for r in domain_example.rects]
        )
        with pytest.raises(ValueError, match="refine"):
            shifted.preimages(solved_example)

    @pytest.mark.parametrize("delta", [-0.05, 0.05, None], ids=["shrunk", "grown", "collapsed"])
    def test_faulty_domains_match_candidate_search(self, solved_example, domain_example, delta):
        # Every rectangle in turn: counts other than 1 occur, and a
        # collapsed rectangle is left out of the table.
        rng = np.random.default_rng(4)
        for k in range(len(domain_example.rects)):
            domain = resized(domain_example, k, delta)
            u, w = domain.sample(rng, 2000)
            got = inverse_step_many(solved_example, domain, u, w)[3]
            want = inverse_search_many(solved_example, domain, u, w)[3]
            off = domain.boundary_distance_many(u, w) > 10 * TOL
            assert (got[off] == want[off]).all()
            # The scalar path on every row without exactly one preimage, and 20 more.
            rows = np.union1d(np.flatnonzero(off & (got != 1)), np.flatnonzero(off)[:20])
            for a, b in zip(u[rows], w[rows]):
                args = (solved_example, domain, CirclePoint(a), CirclePoint(b))
                assert scalar_outcome(inverse_step, *args) == scalar_outcome(inverse_search, *args)

    def test_faulty_domains_fail_monte_carlo(self, solved_example, domain_example):
        # Rectangle 3 shrunk or grown by 0.05; the counts equal those of the
        # N-candidate search this check used before.
        shrunk, grown = (
            verify_bijectivity(solved_example, resized(domain_example, 3, delta), mode="mc", samples=4000, seed=1)
            for delta in (-0.05, 0.05)
        )
        assert (shrunk.mc_preimage_misses, shrunk.mc_preimage_ambiguous) == (3, 0)
        assert (grown.mc_preimage_misses, grown.mc_preimage_ambiguous) == (4, 4)
        assert not shrunk.mc_passed and not grown.mc_passed


class TestMonteCarloCheck:
    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_sample_is_the_choice_stream(self, g):
        # One draw of 3k uniforms gives rng.choice's rows and leaves the
        # generator where choice and two rng.random(k) calls leave it.
        for solved, _ in fault_words(g):
            domain = build_domain(solved)
            for seed, k in itertools.product(range(40), (1, 7, 1000)):
                got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                got, want = domain.sample(got_rng, k), sample_choice(domain, want_rng, k)
                assert all((a == b).all() for a, b in zip(got, want))
                assert got_rng.random() == want_rng.random()

    @pytest.mark.parametrize("end", [None, math.nan], ids=["zero", "nan"])
    def test_sample_of_no_area_raises(self, domain_example, end):
        rects = [dataclasses.replace(r, x1=r.x0 if end is None else wrap_angle(end)) for r in domain_example.rects]
        domain = rect_domain(rects)
        messages = []
        for sampler in (RectDomain.sample, sample_choice):
            with pytest.raises(DegeneratePointsError, match="^the domain has area (0|nan); there is nothing") as err:
                sampler(domain, np.random.default_rng(1), 10)
            messages.append(str(err.value))
        assert messages[0] == messages[1]

    @pytest.mark.parametrize("entry, tol", [("bijectivity", 0.5), ("attractor", 1.0), ("sweep", 1.0)])
    def test_zero_area_domain_is_named(self, genus2, entry, tol):
        # A tol this wide merges every named point, so the domain has no
        # area to sample; the CLI refuses such a tol before this point.
        solved = solve(genus2, EXAMPLE_WORD, tol)
        if entry == "sweep":
            verdicts = [r.verdict for r in sweep(genus2, [EXAMPLE_WORD, "P" * 12, "Q" * 12], tol=tol)]
            assert len(verdicts) == 3
            assert all(v.startswith("ERROR the domain has area 0;") for v in verdicts)
        else:
            run = {"bijectivity": verify_bijectivity, "attractor": attractor_experiment}[entry]
            with pytest.raises(DegeneratePointsError, match="^the domain has area 0;"):
                run(solved, build_domain(solved), tol=tol)

    def test_report_matches_the_full_inverse_check(self):
        # Named points moved by 1e-6 or 1.0, and a tol wide enough for near
        # images, give nonzero counts of every kind; each report is that of
        # the oracle, which maps every preimage sample and sorts by lexsort.
        kinds = ("image_misses", "injectivity_collisions", "preimage_misses", "preimage_ambiguous")
        counts = np.zeros(len(kinds), dtype=int)
        for g in (2, 3, 4):
            for solved, _ in fault_words(g):
                cases = [solved]
                for name, shift, side in itertools.product("GHD", (1e-6, 1.0), (1, 5, solved.surface.n)):
                    cases.append(with_points(solved, name, solved.angles[NAMED.index(name), side - 1] + shift, [side]))
                for seed, case in enumerate(cases):
                    domain = build_domain(case)
                    for tol in (TOL, 1e-2):
                        got = verify_bijectivity(case, domain, mode="mc", samples=500, seed=seed, tol=tol).to_json()
                        assert json.dumps(got) == json.dumps(monte_carlo_loop(case, domain, 500, seed, tol).to_json())
                        counts += [got[f"mc_{kind}"] for kind in kinds]
        assert counts.all()

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_preimage_samples_are_counted_not_mapped(self, g, monkeypatch):
        # One t_angles call maps the forward samples and one builds the
        # PreimageTable; the preimage samples are only looked up, so a
        # domain whose table is built makes the first call alone.
        calls = []
        t_angles = SurfaceGroup.t_angles
        monkeypatch.setattr(SurfaceGroup, "t_angles", lambda *a, **k: calls.append(1) or t_angles(*a, **k))
        for solved, _ in fault_words(g):
            domain = build_domain(solved)
            for expected in (2, 1):
                calls.clear()
                assert verify_bijectivity(solved, domain, mode="mc", samples=300).mc_passed
                assert len(calls) == expected



class TestNamedPointTable:
    def test_table_is_read_only(self, solved_example):
        for table in (solved_example.angles, solved_example.params.a_angles):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0.0
        table = solved_example.angles.copy()
        table[2, 0] = 1.0
        moved = dataclasses.replace(solved_example, angles=table)
        assert moved.g(1).angle == 1.0 and moved.g(2) == solved_example.g(2)
        assert solved_example.g(1).angle != 1.0

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_domains_are_the_side_loops(self, g):
        # All 4096 words at g = 2, 100 random ones at g = 3 and 4: the
        # rectangles gathered through rect_rows are those the side loops in
        # oracles build, angles bit for bit, and the dual partition cut at
        # the table's D row has the breaks of one cut at the points D_i.
        surface = build_regular_surface(g)
        n = surface.n
        if g == 2:
            words = ["".join(bits) for bits in itertools.product("PQ", repeat=n)]
        else:
            rng = random.Random(80 + g)
            words = ["".join(rng.choice("PQ") for _ in range(n)) for _ in range(100)]

        def fields(rects):
            ends = np.array([(r.x0, r.x1, r.y0, r.y1) for r in rects])
            return ends.tobytes(), [(r.strip, r.kind, r.degenerate) for r in rects]

        for word in words:
            solved = solve(surface, word)
            dual_domain = build_omega_dual(solved)
            assert fields(build_domain(solved).rects) == fields(domain_loop(solved))
            assert fields(dual_domain.rectangles()) == fields(dual_domain_loop(solved))
            got = dual_domain.dual.partition
            want = CirclePartition([solved.d(i).angle for i in range(1, n + 1)])
            assert got.base == want.base and got.labels.tolist() == want.labels.tolist()
            assert got.breaks.tobytes() == want.breaks.tobytes()

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_rectangles_are_their_end_rows(self, g, monkeypatch):
        # Each rectangle of both domains is one constructor call on its row
        # of ends: its four floats are that row bit for bit, and no
        # CirclePoint is built on the way.
        surface = build_regular_surface(g)
        word = ("PQQ" * surface.n)[: surface.n]
        solved = solve(surface, word)
        domain, dual_domain = build_domain(solved), build_omega_dual(solved)
        built = []
        init = CirclePoint.__init__
        monkeypatch.setattr(CirclePoint, "__init__", lambda self, *a, **k: built.append(a) or init(self, *a, **k))
        rects, dual_rects = domain.rects, dual_domain.rectangles()
        assert built == []
        for got, ends in ((rects, domain._ends), (dual_rects, dual_domain.ends.transpose(1, 0, 2).reshape(-1, 4))):
            assert len(got) == len(ends)
            assert np.array([(r.x0, r.x1, r.y0, r.y1) for r in got]).tobytes() == ends.tobytes()

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_sweep_builds_no_point_arc_or_rectangle(self, g, monkeypatch):
        # A swept word stays in the named-point table and its gathered
        # arrays; objects are built only at the JSON and render edge.
        surface = build_regular_surface(g)
        built = []
        for cls in (CirclePoint, Arc, DomainRect):
            init = cls.__init__
            monkeypatch.setattr(
                cls, "__init__", lambda self, *a, _init=init, **k: built.append(type(self)) or _init(self, *a, **k)
            )
        (result,) = sweep(surface, [("PQ" * surface.n)[: surface.n]])
        assert result.passed
        assert built == []
