"""Symbolic words: absorption table, reduction, and canonical forms."""

import pytest

from fuchsian.circle import TOL
from fuchsian.surface import build_regular_surface
from fuchsian.words import BasePoint, GroupWord, absorb_letter, prepend, simplify
from oracles import apply


@pytest.mark.parametrize("g", [2, 3, 4])
def test_absorption_table_is_numerically_exact(g):
    """Every rule T_i(endpoint) = endpoint' must hold on the surface."""
    s = build_regular_surface(g)
    for i in range(1, s.n + 1):
        for kind, k in [("P", s.wrap(i - 1)), ("P", i), ("P", s.wrap(i + 1)),
                        ("Q", i), ("Q", s.wrap(i + 1)), ("Q", s.wrap(i + 2))]:
            base = BasePoint(kind, k)
            out = absorb_letter(s.maps, i, base)
            assert out is not None
            src = s.p(k) if kind == "P" else s.q(k)
            dst = s.p(out.index) if out.kind == "P" else s.q(out.index)
            assert apply(s.t(i), src).close_to(dst, TOL), (i, str(base), str(out))


def test_absorption_has_no_other_rule(genus2):
    # Off the six endpoints next to the axis of T_i, no (kind, k) absorbs.
    n = genus2.n
    for i in range(1, n + 1):
        rules = {("P", (i - 2) % n + 1), ("P", i), ("P", i % n + 1),
                 ("Q", i), ("Q", i % n + 1), ("Q", (i + 1) % n + 1)}
        for kind in "PQ":
            for k in range(1, n + 1):
                got = absorb_letter(genus2.maps, i, BasePoint(kind, k))
                assert (got is not None) == ((kind, k) in rules), (i, kind, k)


def test_absorption_misses_far_points(genus2):
    # T_4 has no rule for P_2, matching the solver's canonical T4 P2.
    assert absorb_letter(genus2.maps, 4, BasePoint("P", 2)) is None


def test_free_reduction_cancels_inverses(genus2):
    maps = genus2.maps
    w = GroupWord((5, maps.sigma(3), 3), BasePoint("P", 1))
    assert simplify(maps, w).letters == (5,)


def test_prepend_absorbs_into_base(genus2):
    maps = genus2.maps
    # T_12 P_12 = Q_3 via the axis-endpoint rule.
    w = prepend(maps, 12, GroupWord((), BasePoint("P", 12)))
    assert w.letters == () and str(w.base) == "Q3"


def test_vertex_relation_rewrite_only_when_shorter(genus2):
    maps = genus2.maps
    # T_6 T_3 P_1 rewrites through the vertex relation to T_11 P_1 ...
    deep = simplify(maps, GroupWord((6, 3), BasePoint("P", 1)), deep=True)
    assert str(deep) == "T11 P1"
    # ... but the shallow form keeps the chain-emitted letters.
    shallow = simplify(maps, GroupWord((6, 3), BasePoint("P", 1)))
    assert str(shallow) == "T6 T3 P1"
    # A pair that unlocks nothing is left alone even in deep mode.
    stuck = simplify(maps, GroupWord((10, 11), BasePoint("P", 1)), deep=True)
    assert str(stuck) == "T10 T11 P1"


def test_deep_simplification_preserves_value(genus2):
    maps = genus2.maps
    for letters, base in [((6, 3), BasePoint("P", 1)), ((10, 6, 3), BasePoint("P", 1)),
                          ((11, 4), BasePoint("P", 2))]:
        w = GroupWord(letters, base)
        ws = simplify(maps, w, deep=True)
        assert ws.evaluate(genus2).close_to(w.evaluate(genus2), TOL)


def test_word_json_round_trip():
    w = GroupWord((6, 3), BasePoint("P", 1))
    assert GroupWord.from_json(w.to_json()) == w
