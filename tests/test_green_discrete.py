import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve
from hypothesis import given, settings
from hypothesis import strategies as st

from pacgreen import (ConvergenceError, DomainError, WalkRunConfig,
                      build_geometry, build_lattice_domain, dirichlet_solve,
                      discrete_arc_measure, green_discrete, green_mc,
                      green_solve, green_via_potential,
                      lattice_domain_from_sites)
from pacgreen.domain import _BYTES_PER_CELL
from pacgreen.green_discrete import (MAX_ITERATIONS, RESIDUAL_TOLERANCE,
                                     _boundary_distances, _cg, _coupling,
                                     _diagonal, _exit_weights, _gather,
                                     _multigrid)

PI = math.pi


def _scatter(d, values):
    """An interior vector on the solver's grid: ``_gather``'s inverse."""
    mg = _multigrid(d)
    v = np.zeros(mg.top.size)
    v[mg.sites] = values
    return v


def _gauss_seidel(A, b, d, tol, maxit):
    """Red-black sweeps x <- b + x - A(x): the verification reference for
    the solver's CG."""
    parity = (d.interior[:, 0] + d.interior[:, 1]) & 1
    red = parity == 0
    black = ~red
    x = np.zeros_like(b)
    for it in range(1, maxit + 1):
        x[red] = b[red] + (x - A(x))[red]
        x[black] = b[black] + (x - A(x))[black]
        if it % 4 == 0 or it == maxit:
            res = np.max(np.abs(b - A(x)))
            if res <= tol:
                return x, it
    raise ConvergenceError("gauss-seidel did not converge",
                           residual=float(np.max(np.abs(b - A(x)))),
                           iterations=maxit)


@pytest.fixture(scope="module")
def plus_domain():
    g = build_geometry(PI, 8)
    return lattice_domain_from_sites(g, [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)])


@pytest.fixture(scope="module")
def single_domain():
    return lattice_domain_from_sites(build_geometry(PI, 8), [(0, 0)])


@pytest.fixture(scope="module")
def line_domain():
    # 200 sites on an odd column: the grid of every other site is empty
    g = build_geometry(PI, 128)
    return lattice_domain_from_sites(g, [(1 - g.z0[0], y) for y in range(200)])


@pytest.fixture(scope="module")
def pacman16():
    return build_lattice_domain(build_geometry(PI, 16))


@pytest.fixture(scope="module")
def pacman_a03():
    return build_lattice_domain(build_geometry(0.3, 33))


@pytest.fixture(scope="module")
def pacman_a25():
    return build_lattice_domain(build_geometry(2.5, 24))


@pytest.fixture(scope="module")
def pacman_near_pi():
    # the sites next to the ray lie one fine step from its boundary, which
    # the coarse grids' diagonal carries
    return build_lattice_domain(build_geometry(PI - 1e-4, 24))


@pytest.fixture(scope="module")
def pacman_slit16():
    # boundary sites on the slit have interior neighbours on both sides
    return build_lattice_domain(build_geometry(0.0, 16))


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


def sparse_system(d):
    """(I - P) over interior sites and the boundary quarter-weight coupling
    B, as CSR matrices built from the site coordinates, not the site grid."""
    M = d.interior_count
    sites = np.concatenate([d.interior, d.boundary])
    lo = sites.min(0) - 1
    width = sites[:, 1].max() - lo[1] + 2

    def key(p):
        return (p[..., 0] - lo[0]) * width + p[..., 1] - lo[1]

    # each interior site's four neighbours, looked up among the sorted keys
    order = np.argsort(key(sites))
    known = key(sites)[order]
    step = np.array([(1, 0), (-1, 0), (0, 1), (0, -1)])
    wanted = key(d.interior[:, None, :] + step).ravel()
    at = np.searchsorted(known, wanted)
    assert np.array_equal(known[at], wanted)
    rows, cols = np.repeat(np.arange(M), 4), order[at]
    inner = cols < M
    A = sp.identity(M, format="csr") - sp.csr_matrix(
        (np.full(np.count_nonzero(inner), 0.25), (rows[inner], cols[inner])),
        shape=(M, M))
    B = sp.csr_matrix(
        (np.full(np.count_nonzero(~inner), 0.25),
         (rows[~inner], cols[~inner] - M)), shape=(M, d.boundary_count))
    return A, B


def origin_system(d):
    """(I - P) and the right-hand side e_0 of the Green's solve from (0, 0)."""
    A, _ = sparse_system(d)
    b = np.zeros(d.interior_count)
    b[d.interior_index((0, 0))] = 1.0
    return A, b


def grid_system(d):
    """origin_system on the solver's grid, which CG and the V-cycle work
    on: the sparse (I - P) between the solver's own gather and scatter,
    and the scattered right-hand side."""
    A, b = origin_system(d)
    return (lambda v: _scatter(d, A @ _gather(d, v))), _scatter(d, b), A, b


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

    def test_deterministic(self):
        # a domain keeps its last solve, so solve on two fresh domains
        a, b = (green_solve(build_lattice_domain(build_geometry(PI, 16)),
                            (0, 0)).values for _ in range(2))
        assert np.array_equal(a, b)

    def test_solve_ignores_blas_threads(self):
        # CG's inner products, the coarsest grid's inverse and its product
        # are summed in numpy's own loops; through BLAS and LAPACK this
        # solve changes bits between one and two threads
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        code = ("import hashlib, math, sys, pacgreen as p\n"
                "d = p.build_lattice_domain(p.build_geometry(math.pi / 2, 32))\n"
                "G = p.green_solve(d, (0, 0)).values\n"
                "sys.stdout.write(hashlib.sha256(G.tobytes()).hexdigest())")
        out = []
        for threads in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-c", code],
                env=dict(os.environ, PYTHONPATH=src,
                         OPENBLAS_NUM_THREADS=threads),
                capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            out.append(proc.stdout)
        assert out[0] and out[0] == out[1]

    def test_source_must_be_interior(self, pacman16):
        with pytest.raises(DomainError):
            green_solve(pacman16, (10 ** 6, 0))
        with pytest.raises(DomainError):
            green_solve(pacman16, (10 ** 400, 0))

    def test_gauss_seidel_agrees(self):
        d = build_lattice_domain(build_geometry(PI, 8))
        cg = green_solve(d, (0, 0))
        A, b = origin_system(d)
        gs, _ = _gauss_seidel(A.dot, b, d, RESIDUAL_TOLERANCE, MAX_ITERATIONS)
        assert np.max(np.abs(cg.values - gs)) < 1e-8

    def test_gauss_seidel_convergence_error(self, pacman16):
        A, b = origin_system(pacman16)
        with pytest.raises(ConvergenceError) as err:
            _gauss_seidel(A.dot, b, pacman16, RESIDUAL_TOLERANCE, 1000)
        assert err.value.residual is not None
        assert err.value.residual > 0

    def test_cg_convergence_error(self, pacman16):
        # CG needs about 10 iterations here
        A, b, _, _ = grid_system(pacman16)
        with pytest.raises(ConvergenceError) as err:
            _cg(A, b, _multigrid(pacman16), RESIDUAL_TOLERANCE, 2)
        assert err.value.residual > 0
        assert err.value.iterations == 2


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


class TestOperator:
    @pytest.mark.parametrize("domain", [
        "pacman16", "plus_domain", "single_domain", "line_domain",
        "pacman_a03", "pacman_a25", "pacman_slit16"])
    def test_equals_sparse_products_bit_for_bit(self, domain, request):
        # the stencil sums each row in the CSR order, so the solves repeat
        # those of a sparse-matrix solver to the last bit; between them the
        # domains put boundary sites in the halo rows and columns of the
        # solver's grid, and at alpha = 0 on both sides of the slit
        d = request.getfixturevalue(domain)
        A, B = sparse_system(d)
        rng = np.random.default_rng(5)
        x = rng.standard_normal(d.interior_count)
        h = rng.standard_normal(d.boundary_count)
        Ax = _gather(d, _multigrid(d).operator(_scatter(d, x)))
        assert Ax.tobytes() == (A @ x).tobytes()
        assert _gather(d, _coupling(d, h)).tobytes() == (B @ h).tobytes()
        w = (1, 0) if d.interior_index((1, 0)) >= 0 else d.interior[0]
        G = green_solve(d, w).values
        assert _exit_weights(d, w).tobytes() == (B.T @ G).tobytes()

    def test_grid_vectors_vanish_off_the_sites(self, pacman_slit16):
        # CG's inner products run over the whole grid, so (I - P) and B
        # must leave every other cell at zero
        d = pacman_slit16
        mg = _multigrid(d)
        rng = np.random.default_rng(7)
        off = np.ones(mg.top.size, dtype=bool)
        off[mg.sites] = False
        Ax = mg.operator(_scatter(d, rng.standard_normal(d.interior_count)))
        b = _coupling(d, rng.standard_normal(d.boundary_count))
        assert not Ax[off].any() and not b[off].any()

    def test_package_runs_without_scipy(self):
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        code = ("import sys, pacgreen as p\n"
                "d = p.build_lattice_domain(p.build_geometry(3.14159, 8))\n"
                "p.green_solve(d, (0, 0))\n"
                "p.discrete_arc_measure(d, (0, 0))\n"
                "print([m for m in sys.modules if m.startswith('scipy')])")
        proc = subprocess.run([sys.executable, "-c", code],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestPreconditionedCG:
    @pytest.mark.parametrize("alpha", [
        0.0, 1.0, PI / 2, 2.0, PI,
        # just below an aligned angle a row or column of sites next to the
        # ray lies one fine step from its boundary
        PI - 1e-4, 3.14, PI / 2 - 3e-8, PI / 2 + 1e-3])
    def test_iteration_guard(self, alpha):
        # 9-10 iterations here, flat in n and alpha
        counts = []
        for n in (32, 64, 128):
            d = build_lattice_domain(build_geometry(alpha, n))
            A_grid, b_grid, A, b = grid_system(d)
            x, iterations = _cg(A_grid, b_grid, _multigrid(d),
                                RESIDUAL_TOLERANCE, MAX_ITERATIONS)
            assert iterations <= 12
            assert np.max(np.abs(b - A @ _gather(d, x))) <= RESIDUAL_TOLERANCE
            counts.append(iterations)
        assert counts[-1] <= counts[0] + 1

    @pytest.mark.parametrize("alpha", [0.0, PI - 1e-4])
    def test_iteration_guard_at_256(self, alpha):
        # past the sizes above: 11 and 9 iterations here.  The solver's own
        # operator, which equals the sparse (I - P) bit for bit
        # (TestOperator), spares building that at this size
        d = build_lattice_domain(build_geometry(alpha, 256))
        mg = _multigrid(d)
        b = np.zeros(mg.top.size)
        b[mg.sites[d.interior_index((0, 0))]] = 1.0
        x, iterations = _cg(mg.operator, b, mg, RESIDUAL_TOLERANCE,
                            MAX_ITERATIONS)
        assert iterations <= 12
        assert np.max(np.abs(b - mg.operator(x))) <= RESIDUAL_TOLERANCE

    @pytest.mark.parametrize("domain", [
        "single_domain", "plus_domain", "line_domain", "pacman16",
        "pacman_a03", "pacman_a25", "pacman_near_pi"])
    def test_preconditioner_symmetric_positive(self, domain, request):
        # CG needs M symmetric positive definite; the V-cycle is, up to
        # rounding in its own precision, float32, on multilevel domains and
        # on those solved by the coarsest grid's dense inverse alone.  A
        # sweep order that breaks the symmetry, red-black on the way up,
        # exceeds the bound 17 000-fold or more on the multilevel domains
        d = request.getfixturevalue(domain)
        M = _multigrid(d)
        eps = np.finfo(M.top.u.dtype).eps
        rng = np.random.default_rng(11)
        for _ in range(3):
            u, v = rng.standard_normal((2, d.interior_count))
            # the cycle returns its own buffer, so each result is copied
            Mu, Mv = (_gather(d, M(_scatter(d, w))) for w in (u, v))
            assert (abs(u @ Mv - Mu @ v)
                    <= eps * np.linalg.norm(u) * np.linalg.norm(Mv))
            assert v @ Mv > 0

    @pytest.mark.parametrize("alpha", [1.0, 2.5, PI - 1e-4, PI / 2 - 3e-8])
    def test_matches_sparse_direct_solve(self, alpha):
        d = build_lattice_domain(build_geometry(alpha, 16))
        A, b = origin_system(d)
        exact = spsolve(A.tocsc(), b)
        assert np.max(np.abs(green_solve(d, (0, 0)).values - exact)) <= 1e-9


def ray_scan(mask, k):
    """The distances of _boundary_distances at level k, by walking each
    level-k site's four rays on the finest mask."""
    s = 1 << k
    H, W = mask.shape
    t = np.zeros((4, H // s, W // s), dtype=int)
    for i, j in zip(*np.nonzero(mask[::s, ::s])):
        for r, (dy, dx) in enumerate(((-1, 0), (1, 0), (0, -1), (0, 1))):
            y, x, step = i * s + dy, j * s + dx, 1
            while step < s and 0 <= y < H and 0 <= x < W and mask[y, x]:
                y, x, step = y + dy, x + dx, step + 1
            t[r, i, j] = step
    return t


class TestCoarseDiagonal:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_distances_match_a_ray_scan(self, data):
        depth = data.draw(st.integers(1, 3))
        H, W = ((1 << depth) * data.draw(st.integers(1, 5)) for _ in range(2))
        # three sites in four, so some coarse sites see no non-site
        mask = np.array(data.draw(st.lists(st.integers(0, 3), min_size=H * W,
                                           max_size=H * W)),
                        dtype=bool).reshape(H, W)
        levels = list(_boundary_distances(mask, depth))
        assert len(levels) == depth
        for k, t in enumerate(levels, 1):
            expected = ray_scan(mask, k)
            assert np.array_equal(t, expected)
            y, x, near = _diagonal(t, k)
            D = np.ones(t.shape[1:])
            D[y, x] = near
            site = expected[0] > 0
            sums = (np.where(site, (1 << k) / np.maximum(expected, 1), 1.0)
                    - 1.0).sum(axis=0)
            assert np.allclose(D[site], 1.0 + 0.25 * sums[site],
                               rtol=1e-15, atol=0)
            far = (expected == 1 << k).all(axis=0)
            assert np.all(D[far] == 1.0)
            assert np.all(D[site & ~far] > 1.0)

    def test_distances_past_eight_bits(self):
        # from level 7 on a distance can reach 2^7 = 128
        mask = np.ones((256, 256), dtype=bool)
        mask[128, 200] = mask[40, 0] = False
        levels = list(_boundary_distances(mask, 8))
        for k in (6, 7, 8):
            assert np.array_equal(levels[k - 1], ray_scan(mask, k))
        assert levels[6].max() == 128 and levels[7].max() == 256
        y, x, D = _diagonal(levels[7], 8)
        # the one site of level 8, (0, 0): t = 1, 40, 1, 256
        assert (y.tolist(), x.tolist()) == ([0], [0])
        assert D[0] == 64 * (1 + 1 / 40 + 1 + 1 / 256)


class TestKeptSolve:
    """A domain keeps its last Green's solve for the exit law."""

    @staticmethod
    def count_solves(monkeypatch):
        calls = []

        def counted(*args):
            calls.append(1)
            return _cg(*args)

        monkeypatch.setattr(green_discrete, "_cg", counted)
        return calls

    def test_solve_count(self, monkeypatch):
        d = build_lattice_domain(build_geometry(PI, 16))
        calls = self.count_solves(monkeypatch)
        # both Green's function constructions and the exact arc law from
        # one source: the potential kernel's Dirichlet solve never reuses
        green_solve(d, (4, -3))
        assert len(calls) == 1
        green_via_potential(d, (4, -3))
        discrete_arc_measure(d, (4, -3))
        assert len(calls) == 2
        # the other point forms of the same site
        discrete_arc_measure(d, 4 - 3j)
        _exit_weights(d, d.interior[d.interior_index((4, -3))])
        green_solve(d, np.array([4.0, -3.0]))
        assert len(calls) == 2
        # a new source replaces the kept solve
        green_solve(d, (0, 0))
        green_solve(d, (4, -3))
        assert len(calls) == 4
        green_via_potential(d, (4, -3))
        assert len(calls) == 5

    @settings(max_examples=10, deadline=None)
    @given(alpha=st.floats(0.0, PI), n=st.integers(8, 20))
    def test_same_bytes_as_a_fresh_domain(self, alpha, n):
        g = build_geometry(alpha, n)
        d = build_lattice_domain(g)
        G = green_solve(d, (0, 0)).values
        p = discrete_arc_measure(d, (0, 0)).probabilities
        assert G.tobytes() == green_solve(build_lattice_domain(g),
                                          (0, 0)).values.tobytes()
        assert p.tobytes() == discrete_arc_measure(build_lattice_domain(g),
                                                   (0, 0)).probabilities.tobytes()

    def test_returned_field_is_a_copy(self):
        d = build_lattice_domain(build_geometry(PI, 16))
        expected = discrete_arc_measure(d, (0, 0)).probabilities.copy()
        G = green_solve(d, (0, 0))
        G.values[:] = 7.0
        assert np.array_equal(discrete_arc_measure(d, (0, 0)).probabilities,
                              expected)

    def test_kept_solution_is_read_only(self):
        d = build_lattice_domain(build_geometry(PI, 16))
        green_solve(d, (0, 0))
        kept = _multigrid(d).green[1]
        assert not kept.flags.writeable
        with pytest.raises(ValueError):
            kept[0] = 1.0


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

    def test_point_forms_agree(self, pacman16):
        expected = green_via_potential(pacman16, (4, -3)).values
        row = pacman16.interior[pacman16.interior_index((4, -3))]
        for w in (4 - 3j, row, np.array([4.0, -3.0])):
            assert np.array_equal(green_via_potential(pacman16, w).values,
                                  expected)

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
