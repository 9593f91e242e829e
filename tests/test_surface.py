"""Index maps, regular polygon construction, and polygon intersection."""

import cmath
import dataclasses
import json
import math

import numpy as np
import pytest

from fuchsian.boundary import build_domain, solve, verify_bijectivity
from fuchsian.circle import TOL, TWO_PI, CirclePoint, MoebiusMap, angdiff
from fuchsian.errors import ConstructionError, ContradictionError, DegeneratePointsError
from fuchsian.surface import (
    GeodesicClipper,
    SideIndexMaps,
    SurfaceGroup,
    assemble_surface,
    build_regular_surface,
    interior_angle,
    regular_vertex_radius,
    rho,
    sigma,
    tau,
    verify_group_relations,
)
from oracles import apply, geodesic_intersects_polygon, point_in_polygon, polygon_status, trace_geodesic

STATUS_CODE = {"inside": 1, "boundary": 0, "outside": -1}


class TestIndexMaps:
    @pytest.mark.parametrize("i,expected", [(1, 7), (2, 12), (3, 5), (5, 3), (12, 2)])
    def test_sigma_genus2(self, i, expected):
        assert sigma(i, 2) == expected

    def test_sigma_special_indices_shift_by_two(self):
        # sigma(j) = j + 2 exactly at the multiples of 2g-1
        for g in (2, 3, 4):
            n = 8 * g - 4
            special = {j for j in range(1, n + 1) if sigma(j, g) == (j + 2 - 1) % n + 1}
            assert special == {(2 * g - 1) * k for k in range(1, 5)}

    @pytest.mark.parametrize("i,expected", [(1, 7), (7, 1), (2, 8)])
    def test_tau_genus2(self, i, expected):
        assert tau(i, 2) == expected

    def test_tau_genus3(self):
        assert tau(10, 3) == 20  # 10 + 10 mod 20

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_involutions(self, g):
        n = 8 * g - 4
        for i in range(1, n + 1):
            assert sigma(sigma(i, g), g) == i
            assert tau(tau(i, g), g) == i

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_tau_sigma_commute(self, g):
        n = 8 * g - 4
        for i in range(1, n + 1):
            assert tau(sigma(i, g), g) == sigma(tau(i, g), g)

    def test_dual_head_rule_is_the_head_piece_rule(self):
        # wrap(sigma(i) + 1) = tau_sigma(i - 1), so the dual head rectangle
        # [H_i, D_{i+1}], empty iff the choice at sigma(i)+1 is P, obeys the
        # head-piece rule that degeneracy_failures checks for both.
        for g in range(2, 20):
            maps = SideIndexMaps(g)
            for i in range(1, maps.n + 1):
                assert maps.wrap(maps.sigma(i) + 1) == maps.tau_sigma(i - 1), (g, i)

    @pytest.mark.parametrize("g", [2, 3])
    def test_rho_has_order_four(self, g):
        n = 8 * g - 4
        for i in range(1, n + 1):
            j = i
            for _ in range(4):
                j = rho(j, g)
            assert j == i

    def test_out_of_range_raises(self):
        with pytest.raises(IndexError):
            sigma(0, 2)
        with pytest.raises(IndexError):
            tau(13, 2)


class TestIndexTables:
    @pytest.mark.parametrize("g", [2, 3, 4, 5, 6])
    def test_lookups_match_closed_forms(self, g):
        maps = SideIndexMaps(g)
        n = maps.n
        for i in range(-2 * n, 3 * n):
            k = (i - 1) % n + 1
            assert maps.wrap(i) == k
            assert maps.sigma(i) == sigma(k, g)
            assert maps.tau(i) == tau(k, g)
            assert maps.tau_sigma(i) == tau(sigma(k, g), g)
            assert maps.rho(i) == rho(k, g)

    def test_accessors_index_mod_n(self, genus3):
        s = genus3
        for i in range(-2 * s.n, 3 * s.n):
            k = (i - 1) % s.n
            assert s.p(i).angle == s.p_angles[k]
            assert s.q(i).angle == s.q_angles[k]
            assert (s.t(i).a, s.t(i).c) == (s.coefficients[0, k], s.coefficients[1, k])
            assert s.u(i).a == s.vertex_products[0][0, k] and s.u(i).c == s.vertex_products[0][1, k]
            assert s.v(i) == s.vertices[k]
            assert {type(x) for x in (s.p(i).angle, s.t(i).a, s.t(i).c, s.u(i).a, s.v(i))} <= {float, complex}

    def test_surface_arrays_are_read_only(self, genus2):
        copy = dataclasses.replace(genus2, p_angles=genus2.p_angles.copy())
        for s in (genus2, copy):
            arrays = [s.vertices, s.p_angles, s.q_angles, s.coefficients, s.vertex_products[0]]
            for x in arrays:
                with pytest.raises(ValueError, match="read-only"):
                    x[0] = x[1]
            with pytest.raises(ValueError, match="read-only"):
                s.coefficients[1, 3] = 0.0
            assert [x.shape for x in arrays] == [(12,)] * 3 + [(2, 12)] * 2

    def test_surface_is_its_arrays(self, genus2):
        fields = [f.name for f in dataclasses.fields(SurfaceGroup)]
        assert fields == ["genus", "vertices", "p_angles", "q_angles", "coefficients", "maps", "offset"]
        assert genus2 != build_regular_surface(2)  # eq=False: arrays are not compared

    def test_surface_binds_the_maps_lookups(self, genus2):
        for name in ("wrap", "sigma", "tau", "tau_sigma"):
            assert getattr(genus2, name).__self__ is genus2.maps
            assert name not in vars(SurfaceGroup)
        assert genus2.n == genus2.maps.n == 12

    def test_json_index_maps_are_python_ints(self, genus2):
        doc = json.loads(genus2.to_json())
        assert doc["sigma"] == [sigma(i, 2) for i in range(1, 13)]
        assert doc["tau"] == [tau(i, 2) for i in range(1, 13)]
        assert all(type(genus2.sigma(i)) is type(genus2.tau(i)) is int for i in range(1, 13))


class TestRegularSurface:
    def test_vertex_radius_genus2(self):
        # Circumradius R of the right-angled 12-gon: cosh R = cot(pi/12).
        r_hyp = math.acosh(1.0 / math.tan(math.pi / 12))
        assert abs(regular_vertex_radius(2) - math.tanh(r_hyp / 2)) < 1e-15
        assert abs(regular_vertex_radius(2) - 0.7599) < 1e-4

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_relations_pass(self, g):
        report = verify_group_relations(build_regular_surface(g))
        assert report.passed, report.summary()

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_interior_angles_are_right(self, g):
        s = build_regular_surface(g)
        for i in range(1, s.n + 1):
            assert abs(interior_angle(s, i) - math.pi / 2) < TOL

    def test_boundary_order(self, genus2):
        pts = [pt for i in range(1, 13) for pt in (genus2.p(i), genus2.q(i))]
        base = pts[0].angle
        rel = [(p.angle - base) % TWO_PI for p in pts]
        assert all(rel[k] < rel[k + 1] for k in range(len(rel) - 1))

    def test_boundary_order_failure_is_reported(self, genus2):
        p = genus2.p_angles.copy()
        p[[2, 3]] = p[[3, 2]]
        swapped = dataclasses.replace(genus2, p_angles=p)
        assert ("boundary order P_1,Q_1,P_2,Q_2,...", 1.0) in verify_group_relations(swapped).failures

    def test_endpoint_images(self, genus2):
        s = genus2
        for i in range(1, 13):
            si = s.sigma(i)
            assert apply(s.t(i), s.p(i)).close_to(s.q(si + 1))
            assert apply(s.t(i), s.q(i + 1)).close_to(s.p(si))

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_relation_entries_match_the_scalar_kernel(self, g):
        # The endpoint images, checked in one t_angles call, keep their names
        # and order, and deviate from the scalar kernel's by at most 1e-14.
        s = build_regular_surface(g)
        entries = dict(verify_group_relations(s).entries)
        names = [name for name in entries if "(P_" in name or "(Q_" in name]
        expected = []
        for i in range(1, s.n + 1):
            si = s.sigma(i)
            expected.append((f"T_{i}(P_{i}) = Q_{s.wrap(si + 1)}", angdiff(apply(s.t(i), s.p(i)).angle, s.q(si + 1).angle)))
            expected.append((f"T_{i}(Q_{s.wrap(i + 1)}) = P_{si}", angdiff(apply(s.t(i), s.q(i + 1)).angle, s.p(si).angle)))
        assert names == [name for name, _ in expected]
        assert max(abs(entries[name] - dev) for name, dev in expected) <= 1e-14

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_interval_image_endpoint_identities(self, g):
        # T_{j+1} P_j = P_{tau sigma(j)} and T_{j+1} P_{j+1} = Q_{tau sigma(j)}
        s = build_regular_surface(g)
        for j in range(1, s.n + 1):
            k = s.tau_sigma(j)
            assert apply(s.t(j + 1), s.p(j)).close_to(s.p(k))
            assert apply(s.t(j + 1), s.p(j + 1)).close_to(s.q(k))

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_vertex_word_endpoint_images(self, g):
        # T_{tau sigma(i)+1} P_{tau sigma(i)+1} = Q_i and
        # T_{tau sigma(i)+1} P_{tau sigma(i)} = P_i
        s = build_regular_surface(g)
        for i in range(1, s.n + 1):
            k = s.tau_sigma(i)
            assert apply(s.t(k + 1), s.p(k + 1)).close_to(s.q(i))
            assert apply(s.t(k + 1), s.p(k)).close_to(s.p(i))

    def test_injected_fault_detected(self, genus2):
        s = genus2
        gens = [s.t(i) for i in range(1, s.n + 1)]
        gens[2] = MoebiusMap.identity()  # break T_3
        broken = assemble_surface(s.genus, s.vertices, gens, s.offset)
        report = verify_group_relations(broken)
        assert not report.passed
        assert any("T_3" in name or "(3)" in name for name, _ in report.failures)

    def test_construction_error_for_bad_genus(self):
        with pytest.raises(ValueError):
            build_regular_surface(1)

    def test_offset_is_applied(self):
        s = build_regular_surface(2, offset=0.3)
        assert abs(math.atan2(s.v(1).imag, s.v(1).real) - 0.3) < 1e-12
        assert verify_group_relations(s).passed


def worst_deviations(g, words=3):
    """Worst relation deviation of the genus-g surface, and worst corner
    deviation of the analytic check on `words` random parameter words."""
    surface = build_regular_surface(g)
    rng = np.random.default_rng(g)
    corners = 0.0
    for _ in range(words):
        solved = solve(surface, "".join(rng.choice(["P", "Q"], size=surface.n)))
        report = verify_bijectivity(solved, build_domain(solved), mode="analytic")
        assert report.analytic_passed
        corners = max(corners, report.max_corner_deviation)
    return verify_group_relations(surface).max_deviation, corners


class TestToleranceMargins:
    """The measured margins behind the TOL comment in circle.py."""

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_small_genus_is_far_below_tol(self, g):
        relations, corners = worst_deviations(g)
        assert relations <= 1e-11
        assert corners <= 1e-12

    def test_genus_19_is_still_below_tol(self):
        relations, corners = worst_deviations(19)
        assert relations <= 1e-10
        assert corners < TOL

    def test_genus_22_builds_and_passes_the_analytic_check(self):
        relations, corners = worst_deviations(22)
        assert relations < TOL
        assert corners < TOL

    def test_genus_23_stops_in_solve(self):
        # solve compares the two products for U_i (SurfaceGroup.check_u), whose
        # coefficients grow like |a|^2, against the absolute TOL: the next genus wall.
        surface = build_regular_surface(23)
        word = "".join(np.random.default_rng(23).choice(["P", "Q"], size=surface.n))
        with pytest.raises(ContradictionError, match="two expressions for U_"):
            solve(surface, word)


class TestSerialization:
    def test_round_trip(self, genus2):
        text = genus2.to_json()
        back = SurfaceGroup.from_json(text)
        assert back.genus == 2
        for i in range(1, 13):
            assert back.p(i).close_to(genus2.p(i))
            assert back.q(i).close_to(genus2.q(i))
            assert back.t(i).distance_to(genus2.t(i)) < TOL

    def test_round_trip_records_offset(self):
        s = build_regular_surface(2, offset=0.125)
        back = SurfaceGroup.from_json(s.to_json())
        assert back.offset == 0.125

    def test_corrupt_generators_rejected(self, genus2):
        import json

        doc = json.loads(genus2.to_json())
        doc["generators"][0] = {"a": [1.0, 0.0], "c": [0.0, 0.0]}
        with pytest.raises(ConstructionError):
            SurfaceGroup.from_json(json.dumps(doc))

    @pytest.mark.parametrize("key, value", [("a", [math.nan, 0.0]), ("a", [math.inf, 0.0]), ("c", [math.nan, 0.0])])
    def test_non_finite_generator_rejected(self, genus2, key, value):
        # Its relations deviate by NaN, which is not within tol.
        doc = json.loads(genus2.to_json())
        doc["generators"][0][key] = value
        with pytest.raises(ConstructionError):
            SurfaceGroup.from_json(json.dumps(doc))


class TestPolygonIntersection:
    def test_side_extension_is_boundary(self, genus2):
        s = genus2
        assert geodesic_intersects_polygon(s, s.p(1), s.q(2)) == "boundary"

    def test_diameter_is_inside(self, genus2):
        for theta in (0.37, 1.1, 2.9):
            u = CirclePoint(theta)
            w = CirclePoint(theta + math.pi)
            assert geodesic_intersects_polygon(genus2, u, w) == "inside"

    def test_short_chord_is_outside(self, genus2):
        s = genus2
        # Both endpoints strictly inside the arc (P_1, Q_1), tiny separation.
        a0 = s.p(1).angle
        width = (s.q(1).angle - a0) % TWO_PI
        u = CirclePoint(a0 + 0.3 * width)
        w = CirclePoint(a0 + 0.6 * width)
        assert geodesic_intersects_polygon(s, u, w) == "outside"
        # Oracle: dense sampling of the geodesic stays outside the polygon.
        from fuchsian.circle import geodesic_circle

        center, rad = geodesic_circle(u.value, w.value)
        phis = np.linspace(0, TWO_PI, 4000)
        pts = center + rad * np.exp(1j * phis)
        inside_disk = np.abs(pts) < 1.0
        assert not any(point_in_polygon(s, complex(z)) for z in pts[inside_disk])

    def test_trace_reports_entry_and_exit(self, genus2):
        trace = trace_geodesic(genus2, CirclePoint(0.1), CirclePoint(0.1 + math.pi))
        assert trace.status == "inside"
        assert trace.entry_side is not None and trace.exit_side is not None
        assert trace.entry_side != trace.exit_side

    def test_rotation_symmetry(self, genus2):
        # Rotating a pair by one side step leaves the classification fixed.
        s = genus2
        step = TWO_PI / s.n
        rng = np.random.default_rng(23)
        for _ in range(200):
            u = CirclePoint(rng.uniform(0, TWO_PI))
            w = CirclePoint(rng.uniform(0, TWO_PI))
            if abs(math.remainder(u.angle - w.angle, TWO_PI)) < 1e-6:
                continue
            s1 = geodesic_intersects_polygon(s, u, w)
            s2 = geodesic_intersects_polygon(
                s, CirclePoint(u.angle + step), CirclePoint(w.angle + step)
            )
            assert s1 == s2

    def test_coincident_endpoints_raise(self, genus2):
        with pytest.raises(DegeneratePointsError):
            trace_geodesic(genus2, CirclePoint(1.0), CirclePoint(1.0))

    def test_clipper_matches_scalar(self, genus2):
        clipper = GeodesicClipper(genus2)
        rng = np.random.default_rng(5)
        u = rng.uniform(0, TWO_PI, 500)
        w = rng.uniform(0, TWO_PI, 500)
        codes = clipper.status_codes(u, w)
        for k in range(500):
            status = polygon_status(genus2, CirclePoint(u[k]), CirclePoint(w[k]))
            expected = STATUS_CODE[status]
            assert codes[k] == expected, (u[k], w[k], status, codes[k])

    def test_clipper_exit_sides_match_scalar(self, genus2):
        clipper = GeodesicClipper(genus2)
        rng = np.random.default_rng(6)
        u = rng.uniform(0, TWO_PI, 300)
        w = rng.uniform(0, TWO_PI, 300)
        lo, hi, entry, exit_, _, _ = clipper.clip(u, w)
        for k in range(300):
            trace = trace_geodesic(genus2, CirclePoint(u[k]), CirclePoint(w[k]))
            if trace.status == "inside" and hi[k] - lo[k] > 1e-9:
                assert entry[k] == trace.entry_side
                assert exit_[k] == trace.exit_side

    def test_coincident_endpoints_raise_in_wrapper(self, genus2):
        with pytest.raises(DegeneratePointsError):
            geodesic_intersects_polygon(genus2, CirclePoint(1.0), CirclePoint(1.0))

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_status_codes_match_oracle(self, g):
        s = build_regular_surface(g)
        rng = np.random.default_rng(10 + g)
        u = rng.uniform(0, TWO_PI, 20000)
        w = rng.uniform(0, TWO_PI, 20000)
        codes = s.clipper.status_codes(u, w)
        expected = np.array(
            [STATUS_CODE[polygon_status(s, CirclePoint(a), CirclePoint(b))] for a, b in zip(u, w)]
        )
        assert list(np.flatnonzero(codes != expected)) == []
        # Row 8969 at g=4 is a chord of 2.3e-6, which circle.geodesic_circle
        # takes for a diameter.  Dense sampling of the closed-form geodesic
        # confirms that it misses the polygon, as in test_short_chord_is_outside.
        if g == 4:
            k = 8969
            assert codes[k] == -1
            half = math.remainder(w[k] - u[k], TWO_PI) / 2
            center = cmath.exp(1j * (u[k] + half)) / math.cos(half)
            pts = center + abs(math.tan(half)) * np.exp(1j * np.linspace(0, TWO_PI, 4000))
            inside_disk = np.abs(pts) < 1.0
            assert inside_disk.sum() > 1000
            assert not any(point_in_polygon(s, complex(z)) for z in pts[inside_disk])
        # Every side extension, in both directions, only touches the polygon.
        ends = [(s.p(i).angle, s.q(i + 1).angle) for i in range(1, s.n + 1)]
        eu, ew = np.array(ends + [(b, a) for a, b in ends]).T
        assert list(s.clipper.status_codes(eu, ew)) == [0] * (2 * s.n)
