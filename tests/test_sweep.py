"""The verification sweep shared by `fuchsian sweep` and the acceptance suite."""

import importlib

import pytest

from fuchsian.boundary import build_domain, solve, verify_bijectivity
from fuchsian.errors import MarkovError
from fuchsian.sweep import sweep

WORDS = ["PPPPQPQQPPQQ", "P" * 12, "PQ" * 6]


def test_word_k_gets_seed_plus_k(genus2):
    results = list(sweep(genus2, WORDS, samples=100, seed=5))
    assert [r.word for r in results] == WORDS
    assert [r.verdict for r in results] == ["PASS"] * 3
    assert [r.report.seed for r in results] == [5, 6, 7]


def test_reports_equal_direct_verification(genus2):
    for k, r in enumerate(sweep(genus2, WORDS, samples=100, seed=2)):
        solved = solve(genus2, r.word)
        direct = verify_bijectivity(solved, build_domain(solved), samples=100, seed=2 + k)
        assert r.report.to_json() == direct.to_json()


def test_unchecked_monte_carlo_fails(genus2):
    (result,) = sweep(genus2, WORDS[:1], mode="mc", samples=0)
    assert result.verdict == "FAIL"
    assert not result.passed
    assert result.report.mc_samples == 0


def test_unknown_mode_raises(genus2):
    with pytest.raises(ValueError, match="analytic_only"):
        list(sweep(genus2, WORDS[:1], mode="analytic_only"))


def test_markov_error_becomes_error_verdict(genus2, monkeypatch):
    def reject(solved, tol):
        raise MarkovError("row 3 endpoint off")

    module = importlib.import_module("fuchsian.sweep")  # the package name `sweep` is the function
    monkeypatch.setattr(module, "markov_transition_matrix", reject)
    results = list(sweep(genus2, WORDS[:2], mode="analytic"))
    assert [r.verdict for r in results] == ["ERROR row 3 endpoint off"] * 2
    assert all(r.report is None and not r.passed for r in results)
