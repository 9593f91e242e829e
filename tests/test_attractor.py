"""Exploratory attractor experiment: reporting shape and the invariance gate."""

import numpy as np
import pytest

from fuchsian.attractor import attractor_experiment
from fuchsian.boundary import RectDomain
from fuchsian.circle import TWO_PI


def test_zero_iterations_reports_baseline(solved_example, domain_example):
    rep = attractor_experiment(solved_example, domain_example, iterations=0, samples=5000, seed=1)
    assert rep.final_fraction == rep.baseline_fraction
    assert 0.0 < rep.baseline_fraction < 1.0  # the domain covers part of the torus


def test_iteration_increases_fraction(solved_example, domain_example):
    rep = attractor_experiment(solved_example, domain_example, iterations=30, samples=5000, seed=1)
    assert rep.final_fraction > rep.baseline_fraction
    assert rep.exploratory is True
    assert sum(c for _, c in rep.histogram) == 5000


def test_forward_invariance_is_exact(solved_example, domain_example):
    rep = attractor_experiment(solved_example, domain_example, iterations=50, samples=4000, seed=2)
    assert rep.forward_invariant_ok
    assert rep.forward_invariant_max_dist <= 1e-9


def test_bad_arguments_rejected(solved_example, domain_example):
    with pytest.raises(ValueError):
        attractor_experiment(solved_example, domain_example, iterations=-1, samples=10)


def test_zero_iterations_check_the_start_points(solved_example, domain_example):
    rep = attractor_experiment(solved_example, domain_example, iterations=0, samples=3000, seed=4)
    assert rep.forward_invariant_ok
    assert rep.forward_invariant_max_dist == 0.0


class LeakyDomain(RectDomain):
    """A domain whose `sample` puts its first point at a pair off the domain."""

    def __init__(self, ends, off):
        super().__init__(ends)
        self.off = off

    def sample(self, rng, k):
        u, w = super().sample(rng, k)
        u[0], w[0] = self.off
        return u, w


def test_zero_iterations_catch_a_start_point_off_the_domain(solved_example, domain_example):
    rng = np.random.default_rng(3)
    u, w = rng.uniform(0, TWO_PI, 1000), rng.uniform(0, TWO_PI, 1000)
    k = int(np.argmax(domain_example.distance_many(u, w)))
    leaky = LeakyDomain(domain_example._ends, (u[k], w[k]))
    rep = attractor_experiment(solved_example, leaky, iterations=0, samples=3000, seed=4)
    assert not rep.forward_invariant_ok
    assert rep.forward_invariant_max_dist > 0.1
