import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pacgreen import (ConvergenceError, DomainError, WalkRunConfig,
                      build_geometry, build_lattice_domain, dirichlet_solve,
                      discrete_arc_measure, green_mc, green_solve,
                      green_via_potential, lattice_domain_from_sites)
from pacgreen.domain import _BYTES_PER_CELL
from pacgreen.green_discrete import (MAX_ITERATIONS, RESIDUAL_TOLERANCE,
                                     _box_preconditioner, _cg, _gauss_seidel,
                                     _system)

PI = math.pi


@pytest.fixture(scope="module")
def plus_domain():
    g = build_geometry(PI, 8)
    return lattice_domain_from_sites(g, [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)])


@pytest.fixture(scope="module")
def single_domain():
    return lattice_domain_from_sites(build_geometry(PI, 8), [(0, 0)])


@pytest.fixture(scope="module")
def pacman16():
    return build_lattice_domain(build_geometry(PI, 16))


def absorbing_chain_green(d, w):
    """Dense linear-algebra oracle: solve (I - P) F = e_w directly."""
    sites = [tuple(p) for p in d.interior]
    index = {p: i for i, p in enumerate(sites)}
    M = len(sites)
    A = np.eye(M)
    for (x, y), i in index.items():
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            j = index.get((x + dx, y + dy))
            if j is not None:
                A[i, j] -= 0.25
    b = np.zeros(M)
    b[index[tuple(w)]] = 1.0
    return np.linalg.solve(A, b), index


def origin_system(d):
    """(I - P) and the right-hand side e_0 of the Green's solve from (0, 0)."""
    A, _ = _system(d)
    b = np.zeros(d.interior_count)
    b[d.interior_index((0, 0))] = 1.0
    return A, b


class TestGreenSolve:
    def test_single_site_is_one(self, single_domain):
        assert green_solve(single_domain, (0, 0)).value_at((0, 0)) == pytest.approx(1.0, abs=1e-12)

    def test_plus_shape_center(self, plus_domain):
        F = green_solve(plus_domain, (0, 0))
        assert F.value_at((0, 0)) == pytest.approx(4.0 / 3.0, abs=1e-10)
        # whole field against the dense-chain oracle
        oracle, index = absorbing_chain_green(plus_domain, (0, 0))
        for p, i in index.items():
            assert F.value_at(p) == pytest.approx(oracle[i], abs=1e-10)

    def test_symmetry(self, pacman16):
        Fa = green_solve(pacman16, (0, 0))
        Fb = green_solve(pacman16, (3, 2))
        assert Fa.value_at((3, 2)) == pytest.approx(Fb.value_at((0, 0)), abs=1e-8)

    def test_nonnegative_and_diagonal_at_least_one(self, pacman16):
        F = green_solve(pacman16, (1, 1))
        assert F.values.min() >= -1e-10
        assert F.value_at((1, 1)) >= 1.0

    def test_deterministic(self, pacman16):
        a = green_solve(pacman16, (0, 0)).values
        b = green_solve(pacman16, (0, 0)).values
        assert np.array_equal(a, b)

    def test_source_must_be_interior(self, pacman16):
        with pytest.raises(DomainError):
            green_solve(pacman16, (10 ** 6, 0))
        with pytest.raises(DomainError):
            green_solve(pacman16, (10 ** 400, 0))

    def test_gauss_seidel_agrees(self):
        d = build_lattice_domain(build_geometry(PI, 8))
        cg = green_solve(d, (0, 0))
        A, b = origin_system(d)
        gs, _ = _gauss_seidel(A, b, d, RESIDUAL_TOLERANCE, MAX_ITERATIONS)
        assert np.max(np.abs(cg.values - gs)) < 1e-8

    def test_gauss_seidel_convergence_error(self, pacman16):
        A, b = origin_system(pacman16)
        with pytest.raises(ConvergenceError) as err:
            _gauss_seidel(A, b, pacman16, RESIDUAL_TOLERANCE, 1000)
        assert err.value.residual is not None
        assert err.value.residual > 0


class TestDirichlet:
    def test_constant_data(self, pacman16):
        h = np.full(pacman16.boundary_count, 2.5)
        F = dirichlet_solve(pacman16, h)
        assert np.max(np.abs(F.values - 2.5)) < 1e-9

    def test_plus_shape_explicit(self, plus_domain):
        # boundary value 1 on the two sites (2,0) and (1,1); 0 elsewhere:
        # F(1,0) = 1/4 [F(0) + 1 + 1 + h(1,-1)=0], F(other arms) = F(0)/4
        h = np.zeros(plus_domain.boundary_count)
        h[plus_domain.boundary_index((2, 0))] = 1.0
        h[plus_domain.boundary_index((1, 1))] = 1.0
        F = dirichlet_solve(plus_domain, h)
        c = F.value_at((0, 0))
        assert 0.0 < c < 1.0
        # direct solve of the 5-site system
        sites = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)]
        A = np.eye(5)
        rhs = np.zeros(5)
        for i, (x, y) in enumerate(sites):
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                q = (x + dx, y + dy)
                if q in sites:
                    A[i, sites.index(q)] -= 0.25
                else:
                    bi = plus_domain.boundary_index(q)
                    rhs[i] += 0.25 * h[bi]
        oracle = np.linalg.solve(A, rhs)
        for i, p in enumerate(sites):
            assert F.value_at(p) == pytest.approx(oracle[i], abs=1e-10)

    def test_maximum_principle(self, pacman16):
        rng = np.random.default_rng(11)
        h = rng.uniform(-3, 7, size=pacman16.boundary_count)
        F = dirichlet_solve(pacman16, h)
        tol = 1e-9
        assert F.values.min() >= h.min() - tol
        assert F.values.max() <= h.max() + tol

    def test_indicator_rows_sum_to_one(self, pacman16):
        total = np.zeros(pacman16.interior_count)
        for k in range(1, pacman16.geometry.N + 1):
            h = (pacman16.boundary_arc == k).astype(float)
            total += dirichlet_solve(pacman16, h).values
        assert np.max(np.abs(total - 1.0)) < 1e-8

    def test_indicator_rows_nonnegative(self, pacman16):
        m = discrete_arc_measure(pacman16, (0, 0))
        assert np.all(m.probabilities >= 0)
        assert m.total == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("alpha", [0.0, PI / 4, PI / 2, PI])
    def test_one_solve_arc_measure_matches_per_arc_solves(self, alpha):
        d = build_lattice_domain(build_geometry(alpha, 16))
        ix = d.interior_index((0, 0))
        per_arc = [dirichlet_solve(d, (d.boundary_arc == k).astype(float)).values[ix]
                   for k in range(1, d.geometry.N + 1)]
        m = discrete_arc_measure(d, (0, 0))
        assert np.max(np.abs(m.probabilities - per_arc)) <= 1e-8

    @settings(max_examples=10, deadline=None)
    @given(alpha=st.floats(0.0, PI), n=st.integers(8, 20))
    def test_arc_measure_sums_to_one_at_any_angle(self, alpha, n):
        m = discrete_arc_measure(build_lattice_domain(build_geometry(alpha, n)),
                                 (0, 0))
        assert np.all(m.probabilities >= 0)
        assert m.total == pytest.approx(1.0, abs=1e-8)

    def test_bad_boundary_data(self, pacman16):
        with pytest.raises(DomainError):
            dirichlet_solve(pacman16, np.zeros(3))
        h = np.zeros(pacman16.boundary_count)
        h[0] = np.inf
        with pytest.raises(DomainError):
            dirichlet_solve(pacman16, h)


class TestPreconditionedCG:
    @pytest.mark.parametrize("alpha", [0.0, PI / 2, PI])
    def test_iteration_guard(self, alpha):
        # 24-36 iterations with the box preconditioner; hundreds without
        d = build_lattice_domain(build_geometry(alpha, 64))
        A, b = origin_system(d)
        x, iterations = _cg(A, b, _box_preconditioner(d), RESIDUAL_TOLERANCE,
                            MAX_ITERATIONS)
        assert iterations <= 60
        assert np.max(np.abs(b - A @ x)) <= RESIDUAL_TOLERANCE


class TestGreenViaPotential:
    def test_single_site(self, single_domain):
        F = green_via_potential(single_domain, (0, 0))
        assert F.value_at((0, 0)) == pytest.approx(1.0, abs=1e-10)

    def test_plus_shape(self, plus_domain):
        F = green_via_potential(plus_domain, (0, 0))
        assert F.value_at((0, 0)) == pytest.approx(4.0 / 3.0, abs=1e-5)

    def test_matches_green_solve_on_pacman(self, pacman16):
        F1 = green_solve(pacman16, (0, 0))
        F2 = green_via_potential(pacman16, (0, 0))
        assert np.max(np.abs(F1.values - F2.values)) <= 1e-6

    def test_off_center_source(self, pacman16):
        F1 = green_solve(pacman16, (4, -3))
        F2 = green_via_potential(pacman16, (4, -3))
        assert np.max(np.abs(F1.values - F2.values)) <= 1e-6

    @pytest.mark.parametrize("alpha", [PI / 4, 3 * PI / 4])
    def test_matches_green_solve_with_lattice_edge(self, alpha):
        # the theta = 2 pi - alpha edge runs through lattice points here
        d = build_lattice_domain(build_geometry(alpha, 16))
        F1 = green_solve(d, (0, 0))
        F2 = green_via_potential(d, (0, 0))
        assert np.max(np.abs(F1.values - F2.values)) <= 1e-6

    @settings(max_examples=10, deadline=None)
    @given(alpha=st.floats(0.0, PI), n=st.integers(8, 20))
    def test_matches_green_solve_at_any_angle(self, alpha, n):
        # criterion 1's tolerance
        d = build_lattice_domain(build_geometry(alpha, n))
        F1 = green_solve(d, (0, 0))
        F2 = green_via_potential(d, (0, 0))
        assert np.max(np.abs(F1.values - F2.values)) <= 1e-5

    @pytest.mark.parametrize("alpha", [0.0, PI])
    @pytest.mark.parametrize("n", [32, 64])
    def test_memory_within_guard(self, alpha, n):
        # the lattice build's memory guard budgets _BYTES_PER_CELL per grid
        # cell; the representation, kernel included, stays inside it
        d = build_lattice_domain(build_geometry(alpha, n))
        tracemalloc.start()
        try:
            green_via_potential(d, (0, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= _BYTES_PER_CELL * (4 * n + 3) ** 2


class TestMonteCarloEquivalence:
    def test_plus_shape(self, plus_domain):
        est, se = green_mc(plus_domain, (0, 0), WalkRunConfig(trials=20000, seed=101))
        assert abs(est - 4.0 / 3.0) <= 3 * se

    def test_pacman8(self):
        d = build_lattice_domain(build_geometry(PI, 8))
        exact = green_solve(d, (0, 0)).value_at((0, 0))
        est, se = green_mc(d, (0, 0), WalkRunConfig(trials=20000, seed=101))
        assert abs(est - exact) <= 3 * se
