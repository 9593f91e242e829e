"""Circle arithmetic and the disk Moebius group."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuchsian.boundary import ExtremalParams, solve
from fuchsian.circle import (
    TOL,
    TWO_PI,
    CirclePartition,
    CirclePoint,
    MoebiusMap,
    angdiff,
    angdiff_many,
    ccw_distance,
    ccw_distance_many,
    geodesic_endpoints,
    half_turn,
    moebius_angles,
)
from fuchsian.duality import build_omega_dual
from fuchsian.errors import DegeneratePointsError, NotDiskAutomorphismError
from oracles import (
    Arc,
    SingularMapError,
    apply,
    apply_angle,
    apply_complex,
    ccw,
    dense_distance_many,
    derivative_abs,
    fixed_points_on_circle,
    from_three_points,
    inverse,
    trace,
)


def is_identity(m, tol=TOL):
    return m.distance_to(MoebiusMap.identity()) <= tol


def word_map(surface, word):
    """The Moebius map of a GroupWord: its letters composed right to left."""
    m = MoebiusMap.identity()
    for k in reversed(word.letters):
        m = surface.t(k) @ m
    return m


def lifted_ccw(a, b, c):
    """Oracle: lift angles by 2*pi until monotone, then compare."""
    aa, bb, cc = a, b, c
    while bb <= aa:
        bb += TWO_PI
    while cc <= aa:
        cc += TWO_PI
    return aa < bb < cc


def random_hyperbolic(rng) -> MoebiusMap:
    c = complex(rng.normal(), rng.normal())
    phase = cmath.exp(1j * rng.uniform(0, TWO_PI))
    a = math.sqrt(1.0 + abs(c) ** 2) * phase
    m = MoebiusMap(a, c).normalized()
    if abs(trace(m)) <= 2.0 + 1e-6:
        return random_hyperbolic(rng)
    return m


class TestCcw:
    def test_monotone_angles(self):
        assert ccw(CirclePoint(0.0), CirclePoint(math.pi / 2), CirclePoint(math.pi))

    def test_point_outside_arc(self):
        assert not ccw(CirclePoint(0.0), CirclePoint(3 * math.pi / 2), CirclePoint(math.pi))

    def test_wrap_around(self):
        a, b, c = math.pi, 0.0, math.pi / 2
        assert ccw(CirclePoint(a), CirclePoint(b), CirclePoint(c)) == lifted_ccw(a, b, c)

    def test_degenerate_inputs_raise(self):
        with pytest.raises(DegeneratePointsError):
            ccw(CirclePoint(0.1), CirclePoint(0.1), CirclePoint(1.0))

    @given(
        a=st.floats(0, TWO_PI - 1e-9),
        b=st.floats(0, TWO_PI - 1e-9),
        c=st.floats(0, TWO_PI - 1e-9),
    )
    def test_matches_lifting_oracle(self, a, b, c):
        pts = [CirclePoint(a), CirclePoint(b), CirclePoint(c)]
        try:
            got = ccw(*pts)
        except DegeneratePointsError:
            return
        assert got == lifted_ccw(a, b, c)

    def test_moebius_invariance_bulk(self):
        rng = np.random.default_rng(42)
        count = 10_000
        for _ in range(20):
            m = random_hyperbolic(rng)
            a = rng.uniform(0, TWO_PI, count // 20)
            b = a + rng.uniform(0.01, math.pi, count // 20)
            c = b + rng.uniform(0.01, math.pi, count // 20)
            za, zb, zc = (np.exp(1j * x) for x in (a, b, c))

            def push(z):
                return np.angle((m.a * z + np.conj(m.c)) / (m.c * z + np.conj(m.a)))

            fa, fb, fc = push(za), push(zb), push(zc)
            before = np.remainder(b - a, TWO_PI) < np.remainder(c - a, TWO_PI)
            after = np.remainder(fb - fa, TWO_PI) < np.remainder(fc - fa, TWO_PI)
            assert (before == after).all()


class TestArc:
    def test_closed_left_endpoint(self):
        arc = Arc(CirclePoint(0.0), CirclePoint(math.pi))
        assert arc.contains(CirclePoint(0.0))

    def test_open_right_endpoint(self):
        arc = Arc(CirclePoint(0.0), CirclePoint(math.pi))
        assert not arc.contains(CirclePoint(math.pi))

    def test_wrap_around_contains(self):
        arc = Arc(CirclePoint(3 * math.pi / 2), CirclePoint(math.pi / 4))
        # Oracle by angle lifting: 0 lifted to 2*pi lies in [3*pi/2, 2*pi + pi/4).
        assert arc.contains(CirclePoint(0.0))
        assert not arc.contains(CirclePoint(math.pi))

    def test_single_point_arc(self):
        arc = Arc(CirclePoint(1.0), CirclePoint(1.0), True, True)
        assert arc.length == 0.0
        assert arc.contains(CirclePoint(1.0))
        assert not arc.contains(CirclePoint(1.1))


PARTITION_WORDS = [
    (2, "P" * 12),
    (2, "Q" * 12),
    (2, "PQ" * 6),
    (2, "PPPPQPQQPPQQ"),
    (3, "PQQPPQPQPQQPQPPQQPPQ"),
    (3, "PPQQ" * 5),
    (4, "PQ" * 14),
]


@pytest.fixture(
    scope="module",
    params=[(g, w, side) for g, w in PARTITION_WORDS for side in ("primal", "dual")],
    ids=lambda p: f"g{p[0]}-{p[1]}-{p[2]}",
)
def partition_case(request):
    """(breakpoint angles, CirclePartition) of a parameter choice or its dual."""
    genus, word, side = request.param
    surface = request.getfixturevalue(f"genus{genus}")
    if side == "primal":
        params = ExtremalParams(surface, word)
        angles = params.a_angles
    else:
        params = build_omega_dual(solve(surface, word))
        angles = [params.solved.d(i).angle for i in range(1, surface.n + 1)]
    return np.array(angles), params.partition


class TestCirclePartition:
    def test_scalar_matches_array_at_breakpoints(self, partition_case):
        angles, part = partition_case
        probes = np.concatenate(
            [np.nextafter(angles, -np.inf), angles, np.nextafter(angles, np.inf)]
        )
        assert [part.index(float(t)) for t in probes] == part.index_many(probes).tolist()
        # The breakpoints themselves open their own arcs (closed on the left).
        assert part.index_many(angles).tolist() == list(range(1, len(angles) + 1))

    def test_scalar_matches_array_random(self, partition_case):
        _, part = partition_case
        thetas = np.random.default_rng(5).uniform(0.0, TWO_PI, 10_000)
        assert [part.index(float(t)) for t in thetas] == part.index_many(thetas).tolist()

    def test_arcs_follow_breakpoint_order(self, partition_case):
        angles, part = partition_case
        thetas = np.random.default_rng(6).uniform(0.0, TWO_PI, 2_000)
        for theta, k in zip(thetas, part.index_many(thetas)):
            arc = Arc(CirclePoint(angles[k - 1]), CirclePoint(angles[k % len(angles)]))
            assert arc.contains(CirclePoint(theta), 0.0)

    def test_shuffled_breakpoints_give_same_arcs(self, partition_case):
        angles, part = partition_case
        perm = np.random.default_rng(7).permutation(len(angles))
        shuffled = CirclePartition(angles[perm])
        thetas = np.concatenate([angles, np.random.default_rng(8).uniform(0.0, TWO_PI, 10_000)])
        assert (perm[shuffled.index_many(thetas) - 1] + 1 == part.index_many(thetas)).all()

    def test_distance_matches_dense_oracle(self, partition_case):
        angles, part = partition_case
        thetas = np.concatenate([angles, np.random.default_rng(9).uniform(0.0, TWO_PI, 2_000)])
        dense = [min(angdiff(t, a) for a in angles) for t in thetas]
        assert np.allclose(part.distance_many(thetas), dense, rtol=0.0, atol=1e-14)

    def test_distance_is_the_dense_formula_bit_for_bit(self, partition_case):
        angles, part = partition_case
        rng = np.random.default_rng(10)
        thetas = np.concatenate(
            [
                np.nextafter(angles, -np.inf),
                angles,
                np.nextafter(angles, np.inf),
                [0.0, 5e-324, math.pi, np.nextafter(TWO_PI, 0.0), TWO_PI, -1e-17],
                rng.uniform(-TWO_PI, 2 * TWO_PI, 2_000),
                rng.uniform(0.0, TWO_PI, 28_000),
            ]
        )
        got = part.distance_many(thetas)
        assert (got == dense_distance_many(part, thetas)).all()


class TestMoebiusAngles:
    @pytest.mark.parametrize("genus", [2, 3])
    def test_matches_scalar_apply_angle(self, request, genus):
        surface = request.getfixturevalue(f"genus{genus}")
        rng = np.random.default_rng(genus)
        thetas = rng.uniform(0.0, TWO_PI, 10_000)
        images = []
        for t in map(surface.t, range(1, surface.n + 1)):
            got = moebius_angles(t.a, t.c, thetas)
            want = np.array([apply_angle(t, x) for x in thetas])
            assert np.abs(np.remainder(got - want + math.pi, TWO_PI) - math.pi).max() <= 1e-12
            images.append(got)
        # Per-row generator indices select each row's generator.
        pick = rng.integers(0, surface.n, size=thetas.size)
        (got,) = surface.t_angles(pick + 1, thetas)
        assert (got == np.array(images)[pick, np.arange(thetas.size)]).all()


class TestAngdiffMany:
    def test_matches_scalar_angdiff(self):
        rng = np.random.default_rng(5)
        edges = np.array([0.0, 1e-12, math.pi - 1e-12, math.pi, math.pi + 1e-12, TWO_PI - 1e-12])
        a = np.concatenate([rng.uniform(0.0, TWO_PI, 10_000), edges, edges])
        b = np.concatenate([rng.uniform(0.0, TWO_PI, 10_000), np.zeros(edges.size), edges[::-1]])
        want = np.array([angdiff(x, y) for x, y in zip(a, b)])
        got = angdiff_many(a, b)
        assert ((got >= 0.0) & (got <= math.pi)).all()
        assert np.abs(got - want).max() <= 1e-15

    def test_broadcasts(self):
        a = np.array([0.1, 3.0])
        b = np.array([0.2, 6.2, 1.0])
        got = angdiff_many(a[:, None], b[None, :])
        assert got.shape == (2, 3)
        assert got[1, 1] == angdiff_many(3.0, 6.2)


class TestCcwDistanceMany:
    def test_is_the_scalar_bit_for_bit(self):
        rng = np.random.default_rng(6)
        # Angles within 8 ulps of 0 and of 2*pi, against each other and 0.
        ulps = np.arange(-8, 9)
        near = np.concatenate([ulps * np.spacing(0.0), ulps * 2**-50, TWO_PI + ulps * np.spacing(TWO_PI)])
        zero = np.zeros_like(near)
        a = np.concatenate([rng.uniform(0.0, TWO_PI, 10_000), rng.uniform(-20.0, 20.0, 1000), near, zero])
        b = np.concatenate([rng.uniform(0.0, TWO_PI, 10_000), rng.uniform(-20.0, 20.0, 1000), zero, near])
        a, b = np.concatenate([a, np.repeat(near, near.size)]), np.concatenate([b, np.tile(near, near.size)])
        want = np.array([ccw_distance(x, y) for x, y in zip(a.tolist(), b.tolist())])
        got = ccw_distance_many(a, b)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert ((got >= 0.0) & (got < TWO_PI)).all()

    def test_nan_stays_nan(self):
        assert math.isnan(ccw_distance(math.nan, 1.0))
        assert np.isnan(ccw_distance_many([math.nan, 1.0], [1.0, math.nan])).all()


class TestMoebius:
    def test_identity_fixes_points(self):
        m = MoebiusMap.identity()
        x = CirclePoint(1.234)
        assert apply(m, x).close_to(x)

    def test_inverse_law(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            m = random_hyperbolic(rng)
            x = CirclePoint(rng.uniform(0, TWO_PI))
            assert apply(inverse(m), apply(m, x)).close_to(x)
            assert is_identity(inverse(m) @ m)

    def test_group_laws_bulk(self):
        # Associativity and inverse on 10^4 random triples, vectorized.
        rng = np.random.default_rng(3)
        count = 10_000
        maps = [
            (random_hyperbolic(rng), random_hyperbolic(rng), random_hyperbolic(rng))
            for _ in range(50)
        ]
        z = np.exp(1j * rng.uniform(0, TWO_PI, count // 50))

        def ap(m, zz):
            return (m.a * zz + np.conj(m.c)) / (m.c * zz + np.conj(m.a))

        for m1, m2, m3 in maps:
            left = ap(m1 @ (m2 @ m3), z)
            right = ap((m1 @ m2) @ m3, z)
            assert np.abs(left - right).max() < TOL
            assert np.abs(ap(inverse(m1) @ m1, z) - z).max() < TOL

    def test_apply_preserves_circle(self):
        rng = np.random.default_rng(11)
        m = random_hyperbolic(rng)
        for theta in rng.uniform(0, TWO_PI, 100):
            w = apply_complex(m, cmath.exp(1j * theta))
            assert abs(abs(w) - 1.0) < TOL

    def test_composition_matches_successive_application(self):
        rng = np.random.default_rng(13)
        m1, m2 = random_hyperbolic(rng), random_hyperbolic(rng)
        x = CirclePoint(0.77)
        assert apply(m1 @ m2, x).close_to(apply(m1, apply(m2, x)))

    def test_normalized_exactly(self):
        rng = np.random.default_rng(17)
        m = random_hyperbolic(rng) @ random_hyperbolic(rng)
        assert abs(abs(m.a) ** 2 - abs(m.c) ** 2 - 1.0) < 1e-15

    def test_corrupted_data_raises_singularity(self):
        broken = MoebiusMap(1.0 + 0j, 1.0 + 0j)  # not disk-preserving
        with pytest.raises(SingularMapError):
            apply(broken, CirclePoint(math.pi))


class TestFromThreePoints:
    def test_three_fixed_points_gives_identity(self):
        m = from_three_points([(1, 1), (1j, 1j), (-1, -1)])
        assert is_identity(m)

    @pytest.mark.parametrize(
        "genus,i", [(g, i) for g in (2, 3, 4) for i in range(1, 8 * g - 3)]
    )
    def test_generator_oracle(self, request, genus, i):
        # Interpolating the defining data of T_i must give the closed-form
        # generator, and invert the closed-form T_sigma(i).
        s = request.getfixturevalue(f"genus{genus}")
        si = s.sigma(i)
        m = from_three_points(
            [
                (s.p(i).value, s.q(si + 1).value),
                (s.q(i + 1).value, s.p(si).value),
                (s.v(i), s.v(si + 1)),
            ]
        )
        assert s.t(i).distance_to(m) <= 1e-12
        assert is_identity(s.t(si) @ m, 1e-9)

    def test_disk_to_exterior_rejected(self):
        with pytest.raises(NotDiskAutomorphismError):
            # z -> 1/z swaps the disk and its exterior.
            from_three_points([(0.5, 2.0), (0.25j, -4j), (2.0, 0.5)])

    def test_degenerate_sources_rejected(self):
        with pytest.raises(DegeneratePointsError):
            from_three_points([(1, 1), (1, 1j), (-1, -1)])


class TestFixedPoints:
    def test_generator_fixed_points(self, genus2):
        s = genus2
        att, rep = fixed_points_on_circle(s.t(2))
        got = {round(att.angle, 6), round(rep.angle, 6)}
        expected = {round(s.p(1).angle, 6), round(s.q(2).angle, 6)}
        assert got == expected
        for pt in (att, rep):
            assert apply(s.t(2), pt).close_to(pt)
        assert derivative_abs(s.t(2), att.value) < 1.0
        assert derivative_abs(s.t(2), rep.value) > 1.0

    def test_product_fixed_points(self, genus2):
        s = genus2
        m = s.t(1) @ s.t(9)
        att, rep = fixed_points_on_circle(m)
        got = {round(att.angle, 6), round(rep.angle, 6)}
        assert got == {round(s.p(8).angle, 6), round(s.q(9).angle, 6)}

    def test_identity_rejected(self):
        with pytest.raises(ValueError):
            fixed_points_on_circle(MoebiusMap.identity())

    def test_elliptic_rejected(self):
        with pytest.raises(ValueError):
            fixed_points_on_circle(half_turn(0.3 + 0.2j))


class TestGeodesicEndpoints:
    def test_real_diameter(self):
        b, f = geodesic_endpoints(-0.5, 0.5)
        assert b.close_to(CirclePoint(math.pi))
        assert f.close_to(CirclePoint(0.0))

    def test_imaginary_diameter(self):
        b, f = geodesic_endpoints(0.0, 0.5j)
        assert b.close_to(CirclePoint(-math.pi / 2))
        assert f.close_to(CirclePoint(math.pi / 2))

    def test_side_extension(self, genus2):
        # The geodesic through V_1 toward V_2 extends side 1.
        s = genus2
        b, f = geodesic_endpoints(s.v(1), s.v(2))
        assert b.close_to(s.p(1), 1e-9)
        assert f.close_to(s.q(2), 1e-9)

    def test_diameter_oracle(self, genus2):
        # Oracle: send the geodesic to a diameter by a disk map; the
        # endpoints must go to the antipodal points of that diameter.
        s = genus2
        z1, z2 = s.v(1), s.v(2)
        b, f = geodesic_endpoints(z1, z2)
        # Map z1 -> 0; the image geodesic is a diameter through g(z2).
        den = 1.0 - (z1.conjugate() * z1).real
        g = MoebiusMap(1.0 / math.sqrt(den), -z1.conjugate() / math.sqrt(den))
        direction = apply_complex(g, z2)
        direction /= abs(direction)
        assert abs(apply(g, f).value - direction) < 1e-9
        assert abs(apply(g, b).value + direction) < 1e-9

    def test_coincident_points_raise(self):
        with pytest.raises(DegeneratePointsError):
            geodesic_endpoints(0.1 + 0.1j, 0.1 + 0.1j)


class TestWordStability:
    def test_bit_identical_reevaluation(self, genus2, solved_example):
        w = solved_example.g_word(9)
        first = w.evaluate(genus2).angle
        second = w.evaluate(genus2).angle
        assert first == second

    def test_association_orders_agree(self, genus2, solved_example):
        for i in range(1, 13):
            w = solved_example.d_word(i)
            via_points = w.evaluate(genus2)
            via_map = apply(word_map(genus2, w), w.base_point(genus2))
            assert via_points.close_to(via_map, TOL)


@settings(max_examples=100)
@given(theta=st.floats(-50.0, 50.0))
def test_circle_point_normalizes_angle(theta):
    p = CirclePoint(theta)
    assert 0.0 <= p.angle < TWO_PI
    assert abs(p.value - cmath.exp(1j * theta)) < 1e-9
