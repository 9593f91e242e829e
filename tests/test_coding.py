"""Geometric map, conjugacy, symbol sequences, Markov and sofic structure."""

import cmath
import dataclasses
import itertools
import math
import random

import numpy as np
import pytest

from fuchsian.boundary import (
    ExtremalParams,
    boundary_step,
    boundary_step_many,
    build_domain,
    extension_step,
    extension_step_many,
    inverse_step,
    inverse_step_many,
    solve,
    verify_bijectivity,
)
from fuchsian.circle import TOL, TWO_PI, CirclePoint
from fuchsian.coding import (
    RegionTable,
    SoficGraph,
    code_geodesic,
    code_geodesic_many,
    markov_transition_matrix,
    sample_curvilinear,
    sofic_amalgamate,
    verify_conjugacy,
)
from fuchsian.errors import BijectivityError, MarkovError, OutsideDomainError
from fuchsian.surface import GeodesicClipper, build_regular_surface
from oracles import (
    Arc,
    apply,
    apply_phi,
    code_geodesic_loop,
    code_rows_reference,
    geo_step,
    locate_region,
    markov_loop,
    moved,
    phi_loop,
    polygon_status,
    reduce_geodesic,
    rect_domain,
    strongly_connected_search,
    trace_geodesic,
)

EXAMPLE_WORD = "PPPPQPQQPPQQ"


@pytest.fixture(scope="module")
def regions_example(solved_example, domain_example):
    return RegionTable(solved_example, domain_example)


def bulge_box(s, kind, i):
    """Closed bounding box (x-arc, y-arc) of the lower or upper bulge/corner i."""
    if kind == "lower":
        return Arc(s.q(i + 1), s.q(i + 2), True, True), Arc(s.p(i), s.p(i + 1), True, True)
    return Arc(s.p(i - 1), s.p(i), True, True), Arc(s.q(i), s.q(i + 1), True, True)


def accepts(graph, states, labels):
    """True iff consecutive states are joined by edges of the graph with the labels."""
    return all(edge in graph.triples for edge in zip(states, states[1:], labels))


def random_interior_pair(surface, rng):
    while True:
        u = CirclePoint(rng.uniform(0, TWO_PI))
        w = CirclePoint(rng.uniform(0, TWO_PI))
        if abs(math.remainder(u.angle - w.angle, TWO_PI)) < 1e-3:
            continue
        if polygon_status(surface, u, w) == "inside":
            return u, w


class TestGeoStep:
    def test_image_enters_through_paired_side(self, genus2):
        # Exiting through side i, the next copy is entered through sigma(i).
        rng = np.random.default_rng(0)
        for _ in range(50):
            u, w = random_interior_pair(genus2, rng)
            trace = trace_geodesic(genus2, u, w)
            u2, w2, i = geo_step(genus2, u, w)
            trace2 = trace_geodesic(genus2, u2, w2)
            assert trace2.status == "inside"
            assert trace2.entry_side == genus2.sigma(i)

    def test_diameter_has_single_generic_exit(self, genus2):
        trace = trace_geodesic(genus2, CirclePoint(0.33), CirclePoint(0.33 + math.pi))
        assert trace.status == "inside"
        assert not trace.vertex_exit

    def test_orbit_stays_inside(self, genus2):
        rng = np.random.default_rng(1)
        u, w = random_interior_pair(genus2, rng)
        for _ in range(1000):
            u, w, _ = geo_step(genus2, u, w)
            assert trace_geodesic(genus2, u, w).status == "inside"

    def test_outside_raises(self, genus2):
        s = genus2
        a0 = s.p(1).angle
        width = (s.q(1).angle - a0) % TWO_PI
        with pytest.raises(OutsideDomainError):
            geo_step(s, CirclePoint(a0 + 0.3 * width), CirclePoint(a0 + 0.6 * width))

    def test_vertex_exit_is_degenerate(self, genus2):
        # A geodesic through two polygon vertices leaves through a vertex.
        from fuchsian.circle import geodesic_endpoints
        from fuchsian.errors import DegeneratePointsError

        u, w = geodesic_endpoints(genus2.v(1), genus2.v(5))
        with pytest.raises(DegeneratePointsError):
            geo_step(genus2, u, w)


STEP_WORDS = {2: EXAMPLE_WORD, 3: "PQQPPQPQPQQPQPPQQPPQ", 4: "PQ" * 14}


class TestOneRowSteps:
    """Each scalar step is its array form run on one row, bit for bit."""

    @pytest.fixture(scope="class", params=sorted(STEP_WORDS), ids=lambda g: f"g{g}")
    def case(self, request):
        """(solved, domain, u, w): 1000 domain samples and 1000 torus pairs,
        as the angles of CirclePoints."""
        solved = solve(build_regular_surface(request.param), STEP_WORDS[request.param])
        domain = build_domain(solved)
        rng = np.random.default_rng(request.param)
        u, w = domain.sample(rng, 1000)
        u = np.concatenate([u, rng.uniform(0.0, TWO_PI, 1000)])
        w = np.concatenate([w, rng.uniform(0.0, TWO_PI, 1000)])
        keep = np.abs(np.remainder(u - w + math.pi, TWO_PI) - math.pi) > TOL
        wrap = np.vectorize(lambda x: CirclePoint(x).angle)
        return solved, domain, wrap(u[keep]), wrap(w[keep])

    @staticmethod
    def same(points, *row):
        """The scalar result equals the array row: angles as CirclePoints, indices as ints."""
        want = tuple(CirclePoint(x) if isinstance(p, CirclePoint) else int(x) for p, x in zip(points, row))
        return tuple(points) == want

    def test_boundary_step(self, case):
        solved, _, u, _ = case
        images, idx = boundary_step_many(solved.params, u)
        bad = [
            k
            for k in range(len(u))
            if not self.same(boundary_step(solved.params, CirclePoint(u[k])), images[k], idx[k])
        ]
        assert bad == []

    def test_extension_step(self, case):
        solved, _, u, w = case
        u2, w2, idx = extension_step_many(solved.params, u, w)
        bad = [
            k
            for k in range(len(u))
            if not self.same(extension_step(solved.params, CirclePoint(u[k]), CirclePoint(w[k])), u2[k], w2[k], idx[k])
        ]
        assert bad == []

    def test_inverse_step(self, case):
        solved, domain, u, w = case
        pu, pw, branch, count = inverse_step_many(solved, domain, u, w)
        rows = np.flatnonzero(count == 1)
        assert len(rows) > 1000
        bad = [
            k
            for k in rows
            if not self.same(inverse_step(solved, domain, CirclePoint(u[k]), CirclePoint(w[k])), pu[k], pw[k], branch[k])
        ]
        assert bad == []

    def test_geo_step(self, case):
        # The array form is verify_conjugacy's: the exit side's generator on both angles.
        solved, domain, _, _ = case
        surface = solved.surface
        u, w, exit_ = sample_curvilinear(RegionTable(solved, domain), np.random.default_rng(5), 1000)
        gu, gw = surface.t_angles(exit_, u, w)
        bad = [
            k
            for k in range(len(u))
            if not self.same(geo_step(surface, CirclePoint(u[k]), CirclePoint(w[k])), gu[k], gw[k], exit_[k])
        ]
        assert bad == []


class TestRegions:
    def test_core_point(self, genus2, regions_example, domain_example):
        rng = np.random.default_rng(2)
        u, w = domain_example.sample(rng, 200)
        found_core = 0
        for k in range(200):
            pu, pw = CirclePoint(u[k]), CirclePoint(w[k])
            if polygon_status(genus2, pu, pw) == "inside":
                kind, _ = locate_region(regions_example, pu, pw)
                assert kind == "core"
                found_core += 1
        assert found_core > 50

    def test_outside_point(self, genus2, regions_example):
        s = genus2
        a0 = s.p(1).angle
        width = (s.q(1).angle - a0) % TWO_PI
        kind, _ = locate_region(
            regions_example, CirclePoint(a0 + 0.3 * width), CirclePoint(a0 + 0.6 * width)
        )
        assert kind == "outside"

    def test_bulges_satisfy_both_memberships(self, genus2, regions_example, domain_example):
        # Oracle: every sampled bulge point crosses the polygon but is not
        # in the rectangle domain, and sits in the right bounding box.
        rng = np.random.default_rng(3)
        u, w, _ = sample_curvilinear(regions_example, rng, 2000)
        seen = {"bulge_lower": 0, "bulge_upper": 0}
        for k in range(2000):
            pu, pw = CirclePoint(u[k]), CirclePoint(w[k])
            kind, i = locate_region(regions_example, pu, pw)
            if kind not in seen:
                continue
            seen[kind] += 1
            assert not domain_example.contains(pu, pw)
            assert polygon_status(genus2, pu, pw) == "inside"
            box_x, box_y = bulge_box(genus2, kind.removeprefix("bulge_"), i)
            assert box_x.contains(pu, TOL) and box_y.contains(pw, TOL)
        assert seen["bulge_lower"] > 10 and seen["bulge_upper"] > 10

    def test_bulge_point_near_h_edge(self, genus2, solved_example, regions_example, domain_example):
        # Nudge a point of the lower strip just past its left edge.
        s = genus2
        for i in range(1, 13):
            h = solved_example.h(i + 1)
            w_mid = CirclePoint(s.p(i).angle + 0.5 * ((s.p(i + 1).angle - s.p(i).angle) % TWO_PI))
            u_out = CirclePoint(h.angle - 1e-4)
            if polygon_status(s, u_out, w_mid) != "inside":
                continue
            kind, idx = locate_region(regions_example, u_out, w_mid)
            assert kind == "bulge_lower"
            assert idx == i
            return
        pytest.fail("no nudged bulge point found")


class TestPhi:
    def test_vertex_word_endpoint_images(self, genus2, solved_example):
        # The bulge box corners go to the corner box corners: the curve
        # endpoints (Q_{i+1}, P_i) -> (P_tau(i), Q_tau(i)+1) and
        # (Q_{i+2}, P_{i+1}) -> (P_tau(i)+1, Q_tau(i)+2).
        s = genus2
        for i in range(1, 13):
            u_map = s.u(s.tau(i) + 1)
            assert apply(u_map, s.p(i)).close_to(s.q(s.tau(i) + 1), TOL)
            assert apply(u_map, s.q(i + 1)).close_to(s.p(s.tau(i)), TOL)
            assert apply(u_map, s.p(i + 1)).close_to(s.q(s.tau(i) + 2), TOL)
            assert apply(u_map, s.q(i + 2)).close_to(s.p(s.tau(i) + 1), TOL)

    def test_vertex_word_carries_h_to_g(self, genus2, solved_example):
        s = genus2
        for i in range(1, 13):
            u_map = s.u(s.tau(i) + 1)
            assert apply(u_map, solved_example.h(i + 1)).close_to(
                solved_example.g(s.tau(i)), TOL
            )

    def test_core_fixed(self, genus2, regions_example, domain_example):
        rng = np.random.default_rng(4)
        u, w = domain_example.sample(rng, 50)
        for k in range(50):
            pu, pw = CirclePoint(u[k]), CirclePoint(w[k])
            if polygon_status(genus2, pu, pw) != "inside":
                continue
            iu, iw = apply_phi(regions_example, pu, pw)
            assert iu.close_to(pu) and iw.close_to(pw)

    def test_bulges_map_to_corners(self, genus2, solved_example, regions_example, domain_example):
        # The image of a bulge lies in the rectangle domain, outside the
        # curvilinear one, inside the corner box of the partner index.
        s = genus2
        rng = np.random.default_rng(5)
        u, w, _ = sample_curvilinear(regions_example, rng, 3000)
        checked = 0
        for k in range(3000):
            pu, pw = CirclePoint(u[k]), CirclePoint(w[k])
            kind, i = locate_region(regions_example, pu, pw)
            if kind == "bulge_lower":
                box_x, box_y = bulge_box(s, "upper", s.wrap(s.tau(i) + 1))
            elif kind == "bulge_upper":
                box_x, box_y = bulge_box(s, "lower", s.wrap(s.tau(i) - 1))
            else:
                continue
            iu, iw = apply_phi(regions_example, pu, pw)
            assert domain_example.contains(iu, iw)
            assert polygon_status(genus2, iu, iw) != "inside"
            assert box_x.contains(iu, 1e-7) and box_y.contains(iw, 1e-7)
            checked += 1
        assert checked > 50

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_gather_is_the_per_index_loop(self, g):
        # One gather of U per row gives the per-index loop's images bit for
        # bit, on sampled pairs and on their geometric images.
        surface = build_regular_surface(g)
        solved = solve(surface, "PQ" * (surface.n // 2))
        regions = RegionTable(solved, build_domain(solved))
        u, w, exit_ = sample_curvilinear(regions, np.random.default_rng(g), 4000)
        gu, gw = surface.t_angles(exit_, u, w)
        for pu, pw in ((u, w), (gu, gw)):
            code, index = regions.classify(pu, pw, surface.clipper.status_codes(pu, pw) == 1)
            assert {1, 2} <= set(code.tolist())
            got = regions.phi_many(pu, pw, code, index)
            want = phi_loop(regions, pu, pw, code, index)
            for x, y in zip(got, want):
                assert np.array_equal(x.view(np.int64), y.view(np.int64))

    def test_reduce_identity_on_reduced(self, regions_example, domain_example):
        rng = np.random.default_rng(6)
        u, w = domain_example.sample(rng, 100)
        for k in range(100):
            pu, pw = CirclePoint(u[k]), CirclePoint(w[k])
            try:
                ru, rw, j = reduce_geodesic(regions_example, pu, pw)
            except OutsideDomainError:
                continue  # reduced but not polygon-crossing: nothing to do
            if domain_example.contains(pu, pw):
                assert j is None and ru.close_to(pu) and rw.close_to(pw)

    def test_reduce_lands_in_domain(self, regions_example, domain_example):
        rng = np.random.default_rng(7)
        u, w, _ = sample_curvilinear(regions_example, rng, 500)
        for k in range(500):
            ru, rw, j = reduce_geodesic(regions_example, CirclePoint(u[k]), CirclePoint(w[k]))
            assert domain_example.contains(ru, rw) or domain_example.boundary_distance_many(
                np.array([ru.angle]), np.array([rw.angle])
            )[0] <= 1e-7


class TestConjugacy:
    @pytest.mark.parametrize("word", [EXAMPLE_WORD, "P" * 12, "Q" * 12])
    def test_identity_holds(self, genus2, word):
        solved = solve(genus2, word)
        domain = build_domain(solved)
        report = verify_conjugacy(solved, domain, samples=10_000, seed=11)
        assert report.passed, report.to_json()
        assert report.checked >= 9_000
        assert report.max_deviation < TOL

    def test_identity_holds_in_a_moved_frame(self, genus2):
        # The origin lies outside the polygon moved to 0.7 e^{0.7i}; a clipper
        # that takes each side circle's inside for the outside of the polygon
        # reads most geometric images as outside there and checks 36 samples.
        moved_surface = moved(genus2, 0.7 * cmath.exp(0.7j))
        solved = solve(moved_surface, EXAMPLE_WORD)
        report = verify_conjugacy(solved, build_domain(solved), samples=3000, seed=0)
        assert report.passed, report.to_json()
        assert report.checked == 3000

    def test_fault_injection_fails(self, genus2, solved_example, domain_example, monkeypatch):
        # Every U_i read as U_{i+1}: the surface's vertex maps rolled by one.
        u2 = genus2.u(2)
        rolled = tuple(np.roll(x, -1, axis=-1) for x in genus2.vertex_products)
        monkeypatch.setitem(vars(genus2), "vertex_products", rolled)
        assert solved_example.surface.u(1) == u2
        report = verify_conjugacy(solved_example, domain_example, samples=2000, seed=11)
        assert report.failures > 0

    def test_one_clipper_per_surface(self, monkeypatch):
        # The sampler, the step and the classification share the surface's clipper.
        built = []
        init = GeodesicClipper.__init__
        monkeypatch.setattr(
            GeodesicClipper, "__init__", lambda self, s: built.append(s) or init(self, s)
        )
        solved = solve(build_regular_surface(2), EXAMPLE_WORD)
        verify_conjugacy(solved, build_domain(solved), samples=200, seed=1)
        assert len(built) == 1

    def test_samples_are_clipped_once(self, solved_example, domain_example, monkeypatch):
        # One clip per sampler batch plus one for the status of the images;
        # the samples' exit sides come from the sampler, not a second clip.
        calls = []
        clip = GeodesicClipper.clip
        monkeypatch.setattr(
            GeodesicClipper, "clip", lambda self, u, w: calls.append(len(u)) or clip(self, u, w)
        )
        regions = RegionTable(solved_example, domain_example)
        sample_curvilinear(regions, np.random.default_rng(5), 300)
        sampler_calls = len(calls)
        calls.clear()
        verify_conjugacy(solved_example, domain_example, samples=300, seed=5)
        assert len(calls) == sampler_calls + 1

    def test_sampler_exit_sides_match_clip(self, genus2, regions_example):
        u, w, exit_ = sample_curvilinear(regions_example, np.random.default_rng(3), 2000)
        assert exit_.dtype == np.int64 and exit_.shape == u.shape
        assert np.array_equal(exit_, genus2.clipper.clip(u, w)[3])

    def test_zero_samples_checks_nothing_and_fails(self, solved_example, domain_example):
        regions = RegionTable(solved_example, domain_example)
        u, w, _ = sample_curvilinear(regions, np.random.default_rng(0), 0)
        assert u.shape == w.shape == (0,)
        report = verify_conjugacy(solved_example, domain_example, samples=0)
        assert report.checked == 0
        assert report.passed is False


class TestCoding:
    def test_fixed_axis_code(self, genus2, solved_all_p):
        # (P_1, Q_2) is the axis of the side-2 generator: every future
        # symbol is sigma(2).
        domain = build_domain(solved_all_p)
        seq = code_geodesic(domain=domain, solved=solved_all_p,
                            u=genus2.p(1), w=genus2.q(2), n_future=8, n_past=4)
        assert seq.future == (genus2.sigma(2),) * 8
        assert seq.past == (genus2.sigma(2),) * 4
        assert not seq.truncated

    def test_shift_property_bulk(self, genus2, solved_example, domain_example):
        rng = np.random.default_rng(13)
        u, w = domain_example.sample(rng, 1000)
        checked = 0
        for k in range(1000):
            p0u, p0w = CirclePoint(u[k]), CirclePoint(w[k])
            c0 = code_geodesic(solved_example, domain_example, p0u, p0w, 6, 3)
            u1, w1, _ = extension_step(solved_example.params, p0u, p0w)
            c1 = code_geodesic(solved_example, domain_example, CirclePoint(u1.angle), CirclePoint(w1.angle), 5, 4)
            if c0.truncated or c1.truncated:
                continue
            assert c1.future == c0.future[1:6]
            assert c1.past[0] == c0.future[0]
            assert c1.past[1:4] == c0.past[:3]
            checked += 1
        assert checked >= 990

    def test_left_shift_matches_geo_step_through_conjugacy(
        self, genus2, solved_example, domain_example, regions_example
    ):
        rng = np.random.default_rng(14)
        u, w, _ = sample_curvilinear(regions_example, rng, 60)
        checked = 0
        for k in range(60):
            qu, qw = CirclePoint(u[k]), CirclePoint(w[k])
            try:
                gu, gw, _ = geo_step(genus2, qu, qw)
            except OutsideDomainError:
                continue
            pu, pw = apply_phi(regions_example, qu, qw)
            p2u, p2w = apply_phi(regions_example, gu, gw)
            if not (domain_example.contains(pu, pw) and domain_example.contains(p2u, p2w)):
                continue
            c0 = code_geodesic(solved_example, domain_example, pu, pw, 5, 0)
            c1 = code_geodesic(solved_example, domain_example, p2u, p2w, 4, 0)
            if c0.truncated or c1.truncated:
                continue
            assert c1.future == c0.future[1:5]
            checked += 1
        assert checked >= 30

    def test_outside_domain_rejected(self, genus2, solved_example, domain_example):
        s = genus2
        u = CirclePoint(s.q(1).angle + 1e-5)
        w = CirclePoint(s.p(1).angle + 1e-5)
        if not domain_example.contains(u, w):
            with pytest.raises(OutsideDomainError):
                code_geodesic(solved_example, domain_example, u, w, 3, 3)

    def test_json_shape(self, genus2, solved_all_p):
        domain = build_domain(solved_all_p)
        seq = code_geodesic(solved_all_p, domain, genus2.p(1), genus2.q(2), 2, 2)
        doc = seq.to_json()
        assert set(doc) == {"center", "future", "past", "truncated"}
        assert len(doc["center"]) == 2

    def test_orbit_on_partition_point_truncates(self, genus2, solved_example, domain_example):
        # w exactly on a partition point: the forward code stops with a flag.
        params = solved_example.params
        w = params.a(5)
        u = CirclePoint(w.angle + math.pi * 0.9)
        if domain_example.contains(u, w):
            seq = code_geodesic(solved_example, domain_example, u, w, 5, 0)
            assert seq.truncated
            assert seq.future == ()


def _row(future, past, truncated, k):
    """Row k of code_geodesic_many as CodingSeq's (future, past, truncated)."""
    return (
        tuple(x for x in future[k].tolist() if x),
        tuple(x for x in past[k].tolist() if x),
        bool(truncated[k]),
    )


def _x_edges(domain):
    """Both ends of every rectangle's x-arc."""
    return np.array([[r.x0, r.x1] for r in domain.rects]).ravel()


def _mismatched_rows(got, want):
    """The rows where two (future, past, truncated) triples differ."""
    differ = (got[0] != want[0]).any(axis=1) | (got[1] != want[1]).any(axis=1) | (got[2] != want[2])
    return np.flatnonzero(differ).tolist()


class TestCodingMany:
    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_matches_the_scalar_loop(self, g):
        # 3 words x 10^4 domain samples per genus, at depth 6 both ways,
        # against the scalar loop's stop rules run on all rows at once.
        surface = build_regular_surface(g)
        rng = np.random.default_rng(40 + g)
        words = [EXAMPLE_WORD if g == 2 else "PQ" * (surface.n // 2)]
        words += ["".join(rng.choice(["P", "Q"], size=surface.n)) for _ in range(2)]
        mismatches = []
        for word in words:
            solved = solve(surface, word)
            domain = build_domain(solved)
            u, w = domain.sample(rng, 10_000)
            got = code_geodesic_many(solved, domain, u, w, 6, 6)
            want = code_rows_reference(solved, domain, u, w, 6, 6)
            mismatches += [(word, k) for k in _mismatched_rows(got, want)]
        assert mismatches == []

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_matches_the_scalar_loop_at_depth_30(self, g):
        # Both run the same Moebius arithmetic, so they agree on every
        # symbol even where double precision no longer fixes it.
        surface = build_regular_surface(g)
        rng = np.random.default_rng(70 + g)
        mismatches = []
        for word in (STEP_WORDS[g], "".join(rng.choice(["P", "Q"], size=surface.n))):
            solved = solve(surface, word)
            domain = build_domain(solved)
            u, w = domain.sample(rng, 600)
            got = code_geodesic_many(solved, domain, u, w, 30, 30)
            want = code_rows_reference(solved, domain, u, w, 30, 30)
            mismatches += [(word, k) for k in _mismatched_rows(got, want)]
        assert mismatches == []

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_the_scalar_loop_is_the_array_reference(self, g):
        # 300 rows per genus, at depth 6 both ways: code_rows_reference
        # stands in for code_geodesic_loop in the tests above.
        surface = build_regular_surface(g)
        rng = np.random.default_rng(90 + g)
        solved = solve(surface, "".join(rng.choice(["P", "Q"], size=surface.n)))
        domain = build_domain(solved)
        u, w = domain.sample(rng, 300)
        future, past, truncated = code_rows_reference(solved, domain, u, w, 6, 6)
        mismatches = []
        for k in range(len(u)):
            want = code_geodesic_loop(solved, domain, CirclePoint(u[k]), CirclePoint(w[k]), 6, 6)
            if _row(future, past, truncated, k) != (want.future, want.past, want.truncated):
                mismatches.append(k)
        assert mismatches == []

    def test_edge_rows_match_the_scalar_loop_for_one_step(self):
        # Rows on rectangle edges and corners, where w can sit on a
        # partition point, have exactly one preimage each.  One step each
        # way, before the two loops' Moebius arithmetic can round apart on
        # such rows.
        mismatches = []
        for g in (2, 3, 4):
            surface = build_regular_surface(g)
            rng = np.random.default_rng(7)
            for _ in range(3):
                solved = solve(surface, "".join(rng.choice(["P", "Q"], size=surface.n)))
                domain = build_domain(solved)
                x_edges = _x_edges(domain)
                y_edges = np.array([r.y0 for r in domain.rects])
                corner_u, corner_w = (a.ravel() for a in np.meshgrid(x_edges, y_edges))
                u, w = domain.sample(rng, 2000)
                u = np.concatenate([corner_u, rng.choice(x_edges, 1000), u[1000:]])
                w = np.concatenate([corner_w, w[:1000], rng.choice(y_edges, 1000)])
                inside = domain.contains_many(u, w)
                u, w = u[inside], w[inside]
                future, past, truncated = code_geodesic_many(solved, domain, u, w, 1, 1)
                assert (inverse_step_many(solved, domain, u, w)[3] == 1).all()
                for k in range(len(u)):
                    want = code_geodesic_loop(solved, domain, CirclePoint(u[k]), CirclePoint(w[k]), 1, 1)
                    if _row(future, past, truncated, k) != (want.future, want.past, want.truncated):
                        mismatches.append((g, k))
        assert mismatches == []

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_a_repeated_rectangle_is_rejected(self, g):
        # A domain that lists one rectangle twice gives every point of that
        # rectangle's image two preimages: inverse_step rejects them, the
        # coder stops there like the scalar loop, and the Monte Carlo check
        # counts ambiguous preimages.
        surface = build_regular_surface(g)
        solved = solve(surface, STEP_WORDS[g])
        rects = build_domain(solved).rects
        j = next(j for j, r in enumerate(rects) if not r.degenerate)
        domain = rect_domain(rects[: j + 1] + rects[j:])
        rng = np.random.default_rng(g)
        r = rects[j]
        u = r.x0 + r.width * rng.uniform(0.01, 0.99, 200)
        w = r.y0 + r.height * rng.uniform(0.01, 0.99, 200)
        u, w, _ = extension_step_many(solved.params, u, w)
        count = inverse_step_many(solved, domain, u, w)[3]
        assert (count == 2).all()
        for a, b in zip(u, w):
            with pytest.raises(BijectivityError, match="multiple preimages found"):
                inverse_step(solved, domain, CirclePoint(a), CirclePoint(b))
        future, past, truncated = code_geodesic_many(solved, domain, u, w, 1, 1)
        assert (past[:, 0] == 0).all() and truncated.all()
        for k in range(len(u)):
            want = code_geodesic_loop(solved, domain, CirclePoint(u[k]), CirclePoint(w[k]), 1, 1)
            assert _row(future, past, truncated, k) == (want.future, want.past, want.truncated)
        report = verify_bijectivity(solved, domain, mode="mc", samples=4000, seed=1)
        assert report.mc_preimage_ambiguous > 0 and not report.mc_passed

    def test_past_orbit_stops_where_it_leaves_the_domain(self, genus4):
        # On edge rows the one preimage lands on a named point, which
        # inverse_step_many snaps onto the table, so it stays in the domain;
        # a past that did leave it would stop there.
        rng = np.random.default_rng(8)
        left = kept = 0
        for _ in range(3):
            solved = solve(genus4, "".join(rng.choice(["P", "Q"], size=genus4.n)))
            domain = build_domain(solved)
            x_edges = _x_edges(domain)
            u, w = domain.sample(rng, 20_000)
            u = rng.choice(x_edges, len(u))
            inside = domain.contains_many(u, w)
            u, w = u[inside], w[inside]
            _, past, _ = code_geodesic_many(solved, domain, u, w, 0, 2)
            pu, pw, _, count = inverse_step_many(solved, domain, u, w)
            first = (count == 1) & (past[:, 0] > 0)
            stays = domain.contains_many(pu, pw)
            assert (past[first & ~stays, 1] == 0).all()
            left += int((first & ~stays).sum())
            kept += int((first & stays & (past[:, 1] > 0)).sum())
        assert left == 0 and kept > 0

    def test_padding_follows_truncation(self, solved_example, domain_example):
        # A row that truncates keeps a prefix of symbols and zeros after it.
        params = solved_example.params
        u = np.array([params.a(5).angle + math.pi * 0.9, 0.3])
        w = np.array([params.a(5).angle, 2.9])
        assert domain_example.contains_many(u, w).all()
        future, past, truncated = code_geodesic_many(solved_example, domain_example, u, w, 4, 3)
        assert future.shape == (2, 4) and past.shape == (2, 3)
        assert truncated.tolist() == [True, False]
        assert future[0].tolist() == [0, 0, 0, 0]
        assert (future[1] > 0).all() and (past[1] > 0).all()

    def test_one_row_outside_raises(self, solved_example, domain_example):
        u, w = domain_example.sample(np.random.default_rng(3), 5)
        u[2] = w[2] + 1e-3  # next to the diagonal, which no rectangle meets
        with pytest.raises(OutsideDomainError):
            code_geodesic_many(solved_example, domain_example, u, w, 2, 2)

    def test_no_rows(self, solved_example, domain_example):
        future, past, truncated = code_geodesic_many(solved_example, domain_example, [], [], 3, 2)
        assert future.shape == (0, 3) and past.shape == (0, 2) and truncated.shape == (0,)


class TestMarkov:
    def test_row_shapes(self, genus2, solved_example):
        tm = markov_transition_matrix(solved_example)
        assert tm.size == 24
        for i in range(1, 13):
            assert len(tm.row_entries(2 * i - 1)) == 2
            assert len(tm.row_entries(2 * i)) == 2 * genus2.n - 7

    def test_odd_row_positions(self, genus2, solved_example):
        tm = markov_transition_matrix(solved_example)
        n2 = 2 * genus2.n
        for i in range(1, 13):
            si = genus2.sigma(i)
            row = set(tm.row_entries(2 * i - 1))
            if solved_example.params.word[i - 1] == "P":
                expected = {(2 * si + 2 - 1) % n2 + 1, (2 * si + 3 - 1) % n2 + 1}
            else:
                k = genus2.tau_sigma(i)
                expected = {(2 * k - 1 - 1) % n2 + 1, (2 * k - 1) % n2 + 1}
            assert row == expected

    def test_rows_match_dense_sampling_oracle(self, genus2, solved_example):
        # Oracle: push a fine grid of each interval through the map and
        # collect the intervals hit.
        tm = markov_transition_matrix(solved_example)
        s = genus2
        params = solved_example.params
        pts = []
        for i in range(1, 13):
            pts.append(s.p(i).angle)
            pts.append(s.q(i).angle)
        base = pts[0]
        rel = sorted(((p - base) % TWO_PI, k + 1) for k, p in enumerate(pts))
        breaks = np.array([r for r, _ in rel])
        labels = np.array([k for _, k in rel])

        def interval_of(thetas):
            idx = np.searchsorted(breaks, np.remainder(thetas - base, TWO_PI), side="right") - 1
            return labels[idx % 24]

        for row in range(1, 25):
            i = (row + 1) // 2
            a = s.p(i).angle if row % 2 else s.q(i).angle
            b = s.q(i).angle if row % 2 else s.p(i + 1).angle
            width = (b - a) % TWO_PI
            grid = a + np.linspace(1e-6, width - 1e-6, 3000)
            idx = params.partition.index_many(grid)
            assert (idx == tm.branch[row - 1]).all()
            t = s.t(tm.branch[row - 1])
            images = np.angle(
                (t.a * np.exp(1j * grid) + np.conj(t.c))
                / (t.c * np.exp(1j * grid) + np.conj(t.a))
            )
            got = set(interval_of(images).tolist())
            assert got == set(tm.row_entries(row))

    def test_wrong_generators_raise(self, genus2):
        # Generators rotated by one index no longer carry the interval ends
        # onto endpoints; the error names the first identity that fails.
        rotated = dataclasses.replace(genus2, coefficients=np.roll(genus2.coefficients, -1, axis=1))
        with pytest.raises(MarkovError, match=r"^endpoint image mismatch: T_1 Q_1 = Q_9 off by 1\.92$"):
            markov_transition_matrix(ExtremalParams(rotated, "PPPPQPQQPPQQ"))

    def test_markov_rows_for_every_word_are_blocks(self, genus2):
        import itertools

        for bits in itertools.islice(itertools.product("PQ", repeat=12), 0, 4096, 31):
            solved_w = solve(genus2, "".join(bits))
            tm = markov_transition_matrix(solved_w)
            for row in range(1, 25):
                entries = set(tm.row_entries(row))
                starts = [e for e in entries if (e - 2) % 24 + 1 not in entries]
                assert len(starts) == 1
                block = {(starts[0] + j - 1) % 24 + 1 for j in range(len(entries))}
                assert entries == block

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_rows_match_the_side_loop(self, g):
        # Every genus-2 word and 300 random words at g = 3 and 4 give the
        # side loop's matrix and branch.  With T_N replaced by T_1 the
        # endpoint check fails at side 1 (choice Q) or side N (P), so the
        # error text follows the word.
        surface = build_regular_surface(g)
        n = surface.n
        if g == 2:
            words = ["".join(bits) for bits in itertools.product("PQ", repeat=n)]
        else:
            rng = random.Random(g)
            words = ["".join(rng.choice("PQ") for _ in range(n)) for _ in range(300)]
        c = surface.coefficients
        broken = dataclasses.replace(surface, coefficients=np.concatenate([c[:, :-1], c[:, :1]], axis=1))
        errors = set()
        for word in words:
            got, want = (build(ExtremalParams(surface, word)) for build in (markov_transition_matrix, markov_loop))
            assert (got.genus, got.branch) == (want.genus, want.branch)
            assert (got.matrix == want.matrix).all() and got.matrix.shape == want.matrix.shape
            with pytest.raises(MarkovError) as got:
                markov_transition_matrix(ExtremalParams(broken, word))
            with pytest.raises(MarkovError) as want:
                markov_loop(ExtremalParams(broken, word))
            assert str(got.value) == str(want.value)
            errors.add(str(got.value))
        assert len(errors) == 2

    def test_matrix_is_not_the_table(self, genus2, solved_example):
        tm = markov_transition_matrix(solved_example)
        tm.matrix[:] = False
        assert markov_transition_matrix(solved_example).matrix.sum() == 12 * 2 + 12 * (2 * genus2.n - 7)


class TestSofic:
    def test_vertices_and_connectivity(self, genus2, solved_example):
        tm = markov_transition_matrix(solved_example)
        graph = sofic_amalgamate(solved_example.params, tm)
        assert graph.n == 12
        assert {v for edge in graph.edges() for v in edge[:2]} == set(range(1, 13))
        assert graph.is_strongly_connected()

    def test_connectivity_needs_both_directions(self):
        path = frozenset((k, k + 1, 1) for k in range(1, 12))
        assert not SoficGraph(genus=2, triples=path).is_strongly_connected()
        cycle = path | {(12, 1, 1)}
        assert SoficGraph(genus=2, triples=cycle).is_strongly_connected()
        assert not SoficGraph(genus=2, triples=cycle - {(5, 6, 1)}).is_strongly_connected()

    def test_no_edges_is_not_connected(self):
        assert SoficGraph(genus=2, triples=frozenset()).is_strongly_connected() is False

    @pytest.mark.parametrize("g", [2, 4])
    def test_connectivity_is_the_set_search(self, g):
        # Random words' graphs, and each with one edge cut.
        surface = build_regular_surface(g)
        rng = np.random.default_rng(g)
        for _ in range(100):
            params = ExtremalParams(surface, "".join(rng.choice(["P", "Q"], size=surface.n)))
            graph = sofic_amalgamate(params, markov_transition_matrix(params))
            edges = graph.edges()
            cut = SoficGraph(g, graph.triples - {edges[rng.integers(len(edges))]})
            for h in (graph, cut):
                assert h.is_strongly_connected() is strongly_connected_search(h)

    def test_refinement_reproduces_matrix(self, genus2, solved_example):
        tm = markov_transition_matrix(solved_example)
        graph = sofic_amalgamate(solved_example.params, tm)
        triples = set()
        for row in range(1, 25):
            src = (row + 1) // 2
            lab = genus2.sigma(tm.branch[row - 1])
            for col in tm.row_entries(row):
                triples.add((src, (col + 1) // 2, lab))
        assert triples == set(graph.edges())

    def test_orbit_words_are_accepted(self, genus2, solved_example, domain_example):
        tm = markov_transition_matrix(solved_example)
        graph = sofic_amalgamate(solved_example.params, tm)
        s = genus2
        p_angles = np.array([s.p(i).angle for i in range(1, 13)])

        def letter_of(theta):
            rel = (theta - p_angles[0]) % TWO_PI
            br = np.remainder(p_angles - p_angles[0], TWO_PI)
            order = np.argsort(br)
            k = int(np.searchsorted(br[order], rel, side="right")) - 1
            return int(order[k % 12]) + 1

        rng = np.random.default_rng(19)
        u, w = domain_example.sample(rng, 100)
        for k in range(100):
            pu, pw = CirclePoint(u[k]), CirclePoint(w[k])
            states = [letter_of(pw.angle)]
            labels = []
            for _ in range(12):
                pu, pw, i = extension_step(solved_example.params, pu, pw)
                labels.append(s.sigma(i))
                states.append(letter_of(pw.angle))
            assert accepts(graph, states, labels)
