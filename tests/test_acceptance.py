"""Acceptance suite: one test per exit criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
Every tolerance is pinned here; nothing is deferred to calibration.  The
Monte Carlo sample counts and seeds are fixed so reruns are bit-stable.
"""

import itertools
import json
import math
import time

import numpy as np

from fuchsian.attractor import attractor_experiment
from fuchsian.boundary import (
    build_domain,
    extension_step,
    extension_step_many,
    inverse_step_many,
    solve,
)
from fuchsian.circle import TWO_PI, CirclePoint
from fuchsian.cli import main as cli_main
from fuchsian.coding import code_geodesic, markov_transition_matrix, verify_conjugacy
from fuchsian.duality import build_omega_dual, dual_family_check, verify_duality
from fuchsian.surface import build_regular_surface, verify_group_relations
from fuchsian.sweep import sweep

EXAMPLE_WORD = "PPPPQPQQPPQQ"
EPS = 1e-9

EXPECTED_G = [
    ([], "P1"), ([], "P2"), ([], "Q3"), ([], "P5"), ([3], "P1"), ([], "P6"),
    ([], "P8"), ([], "P9"), ([6, 3], "P1"), ([4], "P2"), ([], "P12"), ([], "P1"),
]
EXPECTED_D = [
    ([], "P1"), ([], "P2"), ([], "Q3"), ([], "Q4"), ([10, 11], "P1"), ([], "P6"),
    ([], "Q7"), ([], "Q8"), ([11], "P1"), ([4], "P6"), ([4], "Q3"), ([], "Q12"),
]


def report(criterion: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    suffix = f" - {detail}" if detail else ""
    print(f"\nACCEPTANCE {criterion}: {status}{suffix}")
    assert passed, f"criterion {criterion} failed: {detail}"


def test_criterion_1_worked_example(capsys, genus2):
    """Exact symbolic and numeric reproduction of the worked genus-2 solve."""
    start = time.monotonic()
    code = cli_main(["solve", "--genus", "2", "--params", EXAMPLE_WORD])
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)

    words_ok = True
    numeric_ok = True
    solved = solve(genus2, EXAMPLE_WORD)
    for i, entry in enumerate(doc["solution"]):
        g_l, g_b = EXPECTED_G[i]
        d_l, d_b = EXPECTED_D[i]
        if entry["G"]["word"] != g_l or entry["G"]["base"] != g_b:
            words_ok = False
        if entry["D"]["word"] != d_l or entry["D"]["base"] != d_b:
            words_ok = False
        if abs(math.remainder(entry["G"]["angle"] - solved.g(i + 1).angle, TWO_PI)) > EPS:
            numeric_ok = False
        if abs(math.remainder(entry["D"]["angle"] - solved.d(i + 1).angle, TWO_PI)) > EPS:
            numeric_ok = False

    with capsys.disabled():
        report(
            "1 (worked example)",
            words_ok and numeric_ok and elapsed < 1.0,
            f"12 G and 12 D words exact, numerics within {EPS:g}, solve took {elapsed:.3f}s",
        )


def test_criterion_2_bijectivity_sweep(genus2, genus3):
    """Analytic reassembly for all 4096 genus-2 words and 100 genus-3 words,
    with a 1000-sample Monte Carlo cross-check per word (word k of each
    sweep gets seed k) and the Markov rows validated."""
    start = time.monotonic()
    g2_words = ("".join(bits) for bits in itertools.product("PQ", repeat=12))
    rng = np.random.default_rng(3)
    g3_words = ("".join(rng.choice(["P", "Q"], size=genus3.n)) for _ in range(100))
    g2 = sweep(genus2, g2_words, samples=1000, seed=0, tol=EPS)
    g3 = sweep(genus3, g3_words, samples=1000, seed=0, tol=EPS)
    failures = [r.word for r in g2 if not r.passed] + [f"g3:{r.word}" for r in g3 if not r.passed]

    elapsed = time.monotonic() - start
    report(
        "2 (bijectivity sweep)",
        not failures and elapsed < 300.0,
        f"4096 genus-2 + 100 genus-3 words, {len(failures)} failures, {elapsed:.1f}s",
    )


def test_criterion_3_duality(genus2, genus3):
    """Domain flip and inverse identity for the example and the named
    families; family dual relationships pointwise at genus 2 and 3."""
    words = [EXAMPLE_WORD, "P" * 12, "Q" * 12, "PQ" * 6, "PPQQ" * 3, "QQPP" * 3]
    identity_ok = True
    detail = []
    for word in words:
        solved = solve(genus2, word)
        domain = build_domain(solved)
        dual_domain = build_omega_dual(solved)
        rep = verify_duality(solved, domain, dual_domain, samples=10_000, seed=33, tol=EPS)
        if not (rep.passed and rep.identity_checked >= 9_000):
            identity_ok = False
            detail.append(f"{word}: {rep.to_json()}")

    families_ok = True
    for surface in (genus2, genus3):
        for chk in dual_family_check(surface, tol=EPS):
            if not chk.passed:
                families_ok = False
                detail.append(f"g{surface.genus} {chk.name}: got {chk.dual_word}")

    report(
        "3 (duality identity)",
        identity_ok and families_ok,
        "flip + inverse identity on 10^4 samples x 6 parameter sets; "
        "families dual/self-dual pointwise at genus 2 and 3"
        + ("" if not detail else "; " + "; ".join(detail[:3])),
    )


def test_criterion_4_markov(genus2):
    """Transition rows for every genus-2 word: verified closed forms with
    numeric endpoint validation; odd rows have 2 entries.

    The even rows cover the image arc (Q_{sigma(i)+2}, P_{sigma(i)-1}),
    which contains 16g-15 of the 16g-8 half-intervals; the count asserted
    here is derived from the numeric endpoint oracle.
    """
    n2 = 2 * genus2.n
    even_expected = 2 * genus2.n - 7
    bad: list[str] = []
    for bits in itertools.product("PQ", repeat=12):
        word = "".join(bits)
        solved = solve(genus2, word)
        try:
            tm = markov_transition_matrix(solved, tol=EPS)  # validates endpoints
        except Exception as exc:  # noqa: BLE001 - report any validation failure
            bad.append(f"{word}: {exc}")
            continue
        for i in range(1, genus2.n + 1):
            if len(tm.row_entries(2 * i - 1)) != 2:
                bad.append(f"{word}: odd row {2 * i - 1}")
            if len(tm.row_entries(2 * i)) != even_expected:
                bad.append(f"{word}: even row {2 * i}")
    report(
        "4 (Markov structure)",
        not bad,
        f"4096 words, rows validated within {EPS:g}; odd rows 2 entries, "
        f"even rows {even_expected} (= 16g-15, from the endpoint-image oracle)"
        + ("" if not bad else f"; first failure {bad[0]}"),
    )


def test_criterion_5_conjugacy(genus2):
    """Conjugacy identity at 10^4 curvilinear samples for three choices."""
    bad = []
    for word in (EXAMPLE_WORD, "P" * 12, "Q" * 12):
        solved = solve(genus2, word)
        domain = build_domain(solved)
        rep = verify_conjugacy(solved, domain, samples=11_000, seed=11, tol=EPS)
        if not (rep.passed and rep.checked >= 10_000 and rep.max_deviation <= EPS):
            bad.append(f"{word}: {rep.to_json()}")
    report(
        "5 (conjugacy)",
        not bad,
        "identity within 1e-9 at >= 10^4 samples for the example, all-P, all-Q"
        + ("" if not bad else f"; {bad[0]}"),
    )


def test_criterion_6_group_geometry():
    """Pairing and vertex relations, right angles, boundary order, g in 2..4."""
    bad = []
    for g in (2, 3, 4):
        rep = verify_group_relations(build_regular_surface(g), tol=EPS)
        if not rep.passed:
            bad.append(f"g={g}: {rep.failures[:2]}")
    report(
        "6 (group/geometry sanity)",
        not bad,
        "all relations, right angles and boundary order within 1e-9 for g=2,3,4"
        + ("" if not bad else f"; {bad[0]}"),
    )


def test_criterion_7_property_suites(genus2, solved_example, domain_example):
    """Inverse law on 10^4 samples, shift property on 10^3 geodesics,
    agreement of the two dual-domain decompositions on 10^5 samples."""
    rng = np.random.default_rng(12)
    u, w = domain_example.sample(rng, 10_000)
    u2, w2, _ = extension_step_many(solved_example.params, u, w)
    pu, pw, _, count = inverse_step_many(solved_example, domain_example, u2, w2)
    du = np.abs(np.remainder(pu - u + math.pi, TWO_PI) - math.pi)
    dw = np.abs(np.remainder(pw - w + math.pi, TWO_PI) - math.pi)
    inverse_ok = bool((count == 1).all() and np.maximum(du, dw).max() <= EPS)

    shifts_checked = 0
    shift_ok = True
    su, sw = domain_example.sample(rng, 1000)
    for k in range(1000):
        p0u, p0w = CirclePoint(su[k]), CirclePoint(sw[k])
        c0 = code_geodesic(solved_example, domain_example, p0u, p0w, 6, 3)
        u1, w1, _ = extension_step(solved_example.params, p0u, p0w)
        c1 = code_geodesic(solved_example, domain_example, u1, w1, 5, 4)
        if c0.truncated or c1.truncated:
            continue
        shifts_checked += 1
        if not (
            c1.future == c0.future[1:6]
            and c1.past[0] == c0.future[0]
            and c1.past[1:4] == c0.past[:3]
        ):
            shift_ok = False

    dual_domain = build_omega_dual(solved_example)
    uu = rng.random(100_000) * TWO_PI
    ww = rng.random(100_000) * TWO_PI
    decomp_ok = bool(
        (
            domain_example.contains_many(ww, uu)
            == dual_domain.contains_horizontal_many(uu, ww)
        ).all()
    )

    report(
        "7 (property suites)",
        inverse_ok and shift_ok and shifts_checked >= 950 and decomp_ok,
        f"inverse law 10^4, shift property on {shifts_checked} geodesics, "
        "decomposition agreement 10^5",
    )


def test_criterion_8_attractor(solved_example, domain_example):
    """Exploratory convergence report plus the exact forward-invariance gate."""
    rep = attractor_experiment(
        solved_example, domain_example, iterations=50, samples=10_000, seed=0, tol=EPS
    )
    report(
        "8 (attractor experiment)",
        rep.forward_invariant_ok,
        f"EXPLORATORY fraction within {EPS:g} after 50 iterations: "
        f"{rep.final_fraction:.4f} (baseline {rep.baseline_fraction:.4f}); "
        f"forward invariance exact (max drift {rep.forward_invariant_max_dist:.2e})",
    )
