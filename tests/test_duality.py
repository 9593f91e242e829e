"""Dual parameters, dual domain, and the inverse-conjugation identity."""

import dataclasses
import math

import numpy as np
import pytest

from fuchsian.boundary import NAMED, build_domain, extension_step, solve
from fuchsian.circle import TOL, TWO_PI, CirclePoint
from fuchsian.duality import (
    build_omega_dual,
    dual_family_check,
    dual_params,
    family_words,
    verify_dual_images,
    verify_duality,
)
from fuchsian.errors import ConstructionError
from fuchsian.surface import build_regular_surface
from oracles import duality_code_counts, with_points

EXAMPLE_WORD = "PPPPQPQQPPQQ"
EXPECTED_D = [
    "P1", "P2", "Q3", "Q4", "T10 T11 P1", "P6",
    "Q7", "Q8", "T11 P1", "T4 P6", "T4 Q3", "Q12",
]

FAMILY_SETS = [EXAMPLE_WORD, "P" * 12, "Q" * 12, "PQ" * 6, "PPQQ" * 3, "QQPP" * 3]


@pytest.fixture(scope="module")
def dual_example(solved_example):
    return build_omega_dual(solved_example)


class TestDualParams:
    def test_worked_example_words(self, solved_example):
        dual = dual_params(solved_example)
        assert [str(dual.d_word(i)) for i in range(1, 13)] == EXPECTED_D

    def test_all_p_dual_is_all_q(self, genus2, solved_all_p):
        assert dual_params(solved_all_p).extremal_word() == "Q" * 12

    def test_alternating_dual_flips(self, genus2):
        solved = solve(genus2, "PQ" * 6)
        assert dual_params(solved).extremal_word() == "QP" * 6

    def test_example_dual_is_not_extremal(self, solved_example):
        assert dual_params(solved_example).extremal_word() is None

    def test_points_stay_in_their_gaps(self, genus2, solved_example):
        dual = dual_params(solved_example)
        from fuchsian.circle import Arc

        for i in range(1, 13):
            assert Arc(genus2.p(i), genus2.q(i), True, True).contains(dual.d(i), TOL)

    def test_json_carries_provenance(self, solved_example):
        import json

        doc = json.loads(dual_params(solved_example).to_json())
        assert doc["source_params"] == EXAMPLE_WORD
        assert len(doc["dual"]) == 12


class TestDualDomain:
    def test_rectangle_count_and_flags(self, genus2, solved_example, dual_example):
        assert len(dual_example.rectangles()) == 36
        word = solved_example.params.word
        rects = dual_example.rectangles()
        for i in range(1, 13):
            head = rects[12 + i - 1]
            tail = rects[24 + i - 1]
            assert head.degenerate == (word[genus2.sigma(i) % 12] == "P")
            assert tail.degenerate == (word[genus2.sigma(i) - 1] == "Q")

    def test_flip_membership_samples(self, solved_example, domain_example, dual_example):
        rng = np.random.default_rng(21)
        u, w = domain_example.sample(rng, 10_000)
        ok = domain_example.boundary_distance_many(u, w) > 1e-8
        flipped = dual_example.contains_vertical_many(w, u)
        assert flipped[ok].all()
        du, dw = dual_example.sample(rng, 10_000)
        ok2 = dual_example.vertical.boundary_distance_many(dw, du) > 1e-8
        back = domain_example.contains_many(dw, du)
        assert back[ok2].all()

    def test_vertical_horizontal_agreement_bulk(self, dual_example):
        rng = np.random.default_rng(22)
        u = rng.random(100_000) * TWO_PI
        w = rng.random(100_000) * TWO_PI
        v_in = dual_example.contains_vertical_many(u, w)
        h_in = dual_example.contains_horizontal_many(u, w)
        assert (v_in == h_in).all()

    def test_membership_is_a_partition(self, dual_example):
        # Each member pair sits in exactly one rectangle under the
        # half-open convention.
        rng = np.random.default_rng(23)
        u, w = dual_example.sample(rng, 500)
        for k in range(500):
            pu, pw = CirclePoint(u[k]), CirclePoint(w[k])
            hits = [
                r
                for r in dual_example.rectangles()
                if not r.degenerate and r.x.contains(pu, 0.0) and r.y.contains(pw, 0.0)
            ]
            assert len(hits) == 1, [f"{r.kind}_{r.strip}" for r in hits]

    def test_tampered_dual_detected(self, genus2, solved_example):
        broken = with_points(solved_example, "D", np.roll(solved_example.angles[4], -1))
        with pytest.raises(ConstructionError):
            build_omega_dual(broken)


class TestDualStep:
    def test_wide_rect_maps_to_upper_strip(self, genus2, solved_example, dual_example):
        # Corners of the wide rectangle go to the corners of V'_sigma(i).
        assert verify_dual_images(solved_example, dual_example) == []

    @pytest.mark.parametrize(
        "name, shift, expected",
        [
            ("D", 1.0, ["T_4 D_5 = G_9 off by 0.622", "T_5 D_5 = H_4 off by 0.626"]),
            ("H", 0.01, ["T_10 D_10 = H_5 off by 0.01"]),
        ],
    )
    def test_image_failure_messages(self, solved_example, dual_example, name, shift, expected):
        # D is read from the dual domain's DualParams, so it carries the move.
        broken = with_points(solved_example, name, solved_example.angles[NAMED.index(name), 4] + shift, [5])
        moved = dataclasses.replace(dual_example, dual=dual_params(broken))
        assert verify_dual_images(broken, moved) == expected

    @pytest.mark.parametrize("side", range(1, 13))
    @pytest.mark.parametrize("name", "GH")
    def test_nan_named_point_is_reported(self, solved_example, dual_example, name, side):
        broken = with_points(solved_example, name, math.nan, [side])
        with np.errstate(invalid="ignore"):
            fails = verify_dual_images(broken, dual_example)
        assert any(f"{name}_{side} " in f and f.endswith("off by nan") for f in fails)

    def test_step_branch_is_left_closed(self, solved_example, dual_example):
        dual = dual_example.dual
        for i in range(1, 13):
            _, _, idx = extension_step(dual, CirclePoint(dual.d(i).angle + 2.0), dual.d(i))
            assert idx == i


class TestVerifyDuality:
    @pytest.mark.parametrize("word", FAMILY_SETS)
    def test_families_pass(self, genus2, word):
        solved = solve(genus2, word)
        domain = build_domain(solved)
        dual_domain = build_omega_dual(solved)
        report = verify_duality(solved, domain, dual_domain, samples=10_000, seed=33)
        assert report.passed, report.to_json()
        assert report.identity_checked >= 9_000
        assert report.identity_max_deviation <= TOL

    @pytest.mark.parametrize("tol, code_samples", [(TOL, 50), (1e-4, 500)], ids=["tol", "wide"])
    @pytest.mark.parametrize("g, word", [(2, EXAMPLE_WORD), (3, "PQQPPQPQPQQPQPPQQPPQ")], ids=["g2", "g3"])
    def test_code_counts_match_the_scalar_loop(self, g, word, tol, code_samples):
        # The wide tolerance makes orbits truncate and skip, so both sides
        # of step (c)'s skip rules are exercised.
        solved = solve(build_regular_surface(g), word)
        domain = build_domain(solved)
        dual_domain = build_omega_dual(solved)
        got, want = [], []
        for seed in range(10):
            args = (solved, domain, dual_domain, 2000, seed, tol)
            report = verify_duality(*args, code_samples=code_samples)
            without_c = verify_duality(*args, code_samples=code_samples, code_depth=0)
            got.append((report.skipped - without_c.skipped, report.code_checked, report.code_failures))
            # Replay the draws of steps (a) and (b), then step (c)'s samples.
            rng = np.random.default_rng(seed)
            domain.sample(rng, 2000), dual_domain.sample(rng, 2000), domain.sample(rng, 2000)
            cu, cw = domain.sample(rng, code_samples)
            want.append(duality_code_counts(solved, domain, cu, cw, 6, tol))
        assert got == want
        if tol > TOL:
            assert sum(skipped for skipped, _, _ in want) > 0

    def test_fault_injection_fails(self, genus2, solved_example, domain_example):
        # Shift every dual point one index forward: the flip identity breaks.
        broken = with_points(solved_example, "D", np.roll(solved_example.angles[4], -1))
        domain = domain_example
        try:
            dual_domain = build_omega_dual(broken)
        except ConstructionError:
            return  # already detected at build time
        report = verify_duality(broken, domain, dual_domain, samples=2000, seed=33)
        assert not report.passed

    def test_decompositions_disagreeing_fails(self, solved_example, domain_example, dual_example):
        # With H_i moved onto D_{i+1}, every head rectangle [H_i, D_{i+1}) of
        # the horizontal view is empty; the vertical view still holds them.
        ends = dual_example.ends.copy()
        ends[:, 1, 2] = ends[:, 1, 3]  # each head's y-arc [D_{i+1}, D_{i+1}]
        broken = dataclasses.replace(dual_example, ends=ends)
        report = verify_duality(solved_example, domain_example, broken, samples=2000, seed=33)
        assert report.flip_failures > 0
        assert not report.passed


class TestFamilies:
    @pytest.mark.parametrize("g", [2, 3])
    def test_named_families(self, g):
        from fuchsian.surface import build_regular_surface

        surface = build_regular_surface(g)
        checks = dual_family_check(surface)
        assert len(checks) == 6
        for chk in checks:
            assert chk.passed, (chk.name, chk.word, chk.dual_word, chk.expected_dual)

    def test_family_words_have_right_shape(self):
        words = family_words(2)
        assert words["self_dual_PPQQ"] == "PPQQPPQQPPQQ"
        assert words["alternating_QP"] == "QPQPQPQPQPQP"

    @pytest.mark.parametrize("g", [2, 3])
    def test_double_dual_on_extremal_families(self, g):
        from fuchsian.surface import build_regular_surface

        surface = build_regular_surface(g)
        for word in family_words(g).values():
            dual = dual_params(solve(surface, word))
            dword = dual.extremal_word()
            assert dword is not None
            back = dual_params(solve(surface, dword)).extremal_word()
            assert back == word
