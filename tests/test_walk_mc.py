import math

import numpy as np
import pytest

from pacgreen import (ArcMeasure, DomainError, StepBudgetError, WalkRunConfig,
                      bm_arc_measure, build_geometry, build_lattice_domain,
                      discrete_arc_measure, green_mc, green_solve,
                      lattice_domain_from_sites, mean_exit_steps,
                      simulate_exit, trial_rng, walk_arc_measure)
from pacgreen.walk_mc import sample_exits

PI = math.pi


@pytest.fixture(scope="module")
def single_domain():
    return lattice_domain_from_sites(build_geometry(PI, 8), [(0, 0)])


@pytest.fixture(scope="module")
def plus_domain():
    g = build_geometry(PI, 8)
    return lattice_domain_from_sites(g, [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)])


@pytest.fixture(scope="module")
def pacman16():
    return build_lattice_domain(build_geometry(PI, 16))


class TestSimulateExit:
    def test_single_site_exits_in_one_step(self, single_domain):
        for trial in range(20):
            exit_site, visits, steps = simulate_exit(single_domain, (0, 0),
                                                     trial_rng(9, trial))
            assert steps == 1
            assert visits == 1
            assert abs(exit_site[0]) + abs(exit_site[1]) == 1

    def test_exit_site_is_boundary(self, pacman16):
        for trial in range(30):
            exit_site, _, _ = simulate_exit(pacman16, (0, 0), trial_rng(4, trial))
            assert pacman16.boundary_index(exit_site) >= 0
            assert pacman16.interior_index(exit_site) < 0

    def test_deterministic_per_stream(self, pacman16):
        a = simulate_exit(pacman16, (0, 0), trial_rng(7, 3))
        b = simulate_exit(pacman16, (0, 0), trial_rng(7, 3))
        assert a == b

    def test_budget_exhaustion(self, pacman16):
        with pytest.raises(StepBudgetError):
            simulate_exit(pacman16, (0, 0), trial_rng(1, 0), max_steps=3)

    def test_start_must_be_interior(self, pacman16):
        with pytest.raises(DomainError):
            simulate_exit(pacman16, (999, 999), trial_rng(0, 0))


class TestWalkArcMeasure:
    def test_probabilities_sum_exactly_one(self, pacman16):
        m = walk_arc_measure(pacman16, (0, 0), WalkRunConfig(trials=500, seed=2))
        assert m.probabilities.sum() == 1.0
        assert m.counts.sum() == 500
        assert np.all(m.stderr >= 0)

    def test_bit_identical_on_repeat(self, pacman16):
        cfg = WalkRunConfig(trials=400, seed=123)
        a = walk_arc_measure(pacman16, (0, 0), cfg)
        b = walk_arc_measure(pacman16, (0, 0), cfg)
        assert np.array_equal(a.counts, b.counts)
        assert np.array_equal(a.probabilities, b.probabilities)

    def test_trial_streams_replay_as_a_prefix(self, pacman16):
        # trial i draws only from stream (seed, i): a longer run repeats
        # every exit of a shorter one
        long = sample_exits(pacman16, (0, 0), WalkRunConfig(trials=600, seed=55))
        short = sample_exits(pacman16, (0, 0), WalkRunConfig(trials=300, seed=55))
        assert np.array_equal(long[:300], short)

    def test_matches_exact_harmonic_measure(self, pacman16):
        # exact-oracle check at module scale; the acceptance suite runs the
        # full three-alpha version at 1e5 trials
        exact = discrete_arc_measure(pacman16, (0, 0)).probabilities
        m = walk_arc_measure(pacman16, (0, 0), WalkRunConfig(trials=20000, seed=20260808))
        for k in range(pacman16.geometry.N):
            se = max(m.stderr[k], 1e-12)
            assert abs(m.probabilities[k] - exact[k]) <= 3 * se

    def test_close_to_brownian_exit_law(self):
        # invariance-principle closeness at n = 64: total-variation gap to
        # the exact Brownian arc measure (measured ~0.012, band 0.05)
        g = build_geometry(PI, 64)
        d = build_lattice_domain(g)
        bm = bm_arc_measure(g, 0j).probabilities
        m = walk_arc_measure(d, (0, 0),
                             WalkRunConfig(trials=100_000, seed=20260808))
        tv = 0.5 * float(np.abs(m.probabilities - bm).sum())
        assert tv <= 0.05


class TestGreenMc:
    def test_single_site(self, single_domain):
        est, se = green_mc(single_domain, (0, 0), WalkRunConfig(trials=200, seed=5))
        assert est == 1.0
        assert se == 0.0

    def test_plus_shape(self, plus_domain):
        est, se = green_mc(plus_domain, (0, 0), WalkRunConfig(trials=20000, seed=31))
        assert abs(est - 4.0 / 3.0) <= 3 * se

    def test_pacman_vs_solver(self):
        d = build_lattice_domain(build_geometry(PI, 8))
        exact = green_solve(d, (0, 0)).value_at((0, 0))
        est, se = green_mc(d, (0, 0), WalkRunConfig(trials=20000, seed=31))
        assert abs(est - exact) <= 3 * se

    def test_off_source_start(self, plus_domain):
        # G(start, w) with start != w: visits to w from a neighbor
        est, se = green_mc(plus_domain, (0, 0), WalkRunConfig(trials=20000, seed=77),
                           start=(1, 0))
        exact = green_solve(plus_domain, (0, 0)).value_at((1, 0))
        assert abs(est - exact) <= 3 * se


class TestScaling:
    def test_mean_steps_quadratic_in_n(self):
        means = []
        for n in (8, 16, 32):
            d = build_lattice_domain(build_geometry(PI, n))
            m, _ = mean_exit_steps(d, (0, 0), WalkRunConfig(trials=3000, seed=5))
            means.append(m)
        for a, b in zip(means, means[1:]):
            assert 2.5 <= b / a <= 6.0


class TestConfig:
    def test_trials_positive(self):
        with pytest.raises(DomainError):
            WalkRunConfig(trials=0, seed=1)

    def test_budget_floor(self, pacman16):
        cfg = WalkRunConfig(trials=10, seed=1, max_steps_per_trial=50)
        with pytest.raises(DomainError):
            walk_arc_measure(pacman16, (0, 0), cfg)

    def test_explicit_budget_accepted(self, pacman16):
        floor = 100 * (2 * 16) ** 2
        cfg = WalkRunConfig(trials=5, seed=1, max_steps_per_trial=floor)
        m = walk_arc_measure(pacman16, (0, 0), cfg)
        assert m.counts.sum() == 5


class TestArcMeasureType:
    def test_validation(self):
        with pytest.raises(DomainError):
            ArcMeasure(probabilities=np.array([0.5, 0.7]))
        with pytest.raises(DomainError):
            ArcMeasure(probabilities=np.array([-0.1, 0.5]))
        m = ArcMeasure(probabilities=np.array([0.25, 0.75]))
        assert m.total == 1.0

    def test_stream_separation(self):
        a = trial_rng(0, 1).integers(0, 4, size=32)
        b = trial_rng(0, 2).integers(0, 4, size=32)
        c = trial_rng(0, 1).integers(0, 4, size=32)
        assert np.array_equal(a, c)
        assert not np.array_equal(a, b)
