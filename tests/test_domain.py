import cmath
import ctypes
import math
import os
import subprocess
import sys
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pacgreen import (DomainError, arc_index, bm_arc_measure, build_geometry,
                      build_lattice_domain, c_alpha, contains, green_pacman,
                      green_solve, lattice_domain_from_sites, nearest_boundary,
                      potential_asymptotic, potential_exact)
from pacgreen.domain import (_BYTES_PER_CELL, _box, _keep_freed_memory,
                             arc_edges, arc_index_of_radius,
                             lattice_coordinates, lattice_site, point_xy,
                             require_angle, require_memory, require_scale,
                             sector_mask)
from pacgreen.walk_mc import _jump_tables

PI = math.pi

# Wedge angles whose theta = 2 pi - alpha edge runs through lattice points,
# with the primitive lattice step along that edge (w-frame).
LATTICE_EDGES = [(PI / 4, (1, -1)), (3 * PI / 4, (-1, -1)),
                 (PI - math.atan(0.5), (-2, -1))]
ALPHAS = st.one_of(st.floats(0.0, PI),
                   st.sampled_from([0.0, PI / 2, PI] + [a for a, _ in LATTICE_EDGES]))


def brute_force_interior(g):
    """Independent membership route: cmath phase comparisons, pure loops."""
    count = 0
    R = 2 * g.n
    for wx in range(-R - 1, R + 2):
        for wy in range(-R - 1, R + 2):
            r = math.hypot(wx, wy)
            if not (0 < r < R):
                continue
            theta = cmath.phase(complex(wx, wy)) % (2 * PI)
            if 0 < theta < 2 * PI - g.alpha:
                count += 1
    return count


class TestBuildGeometry:
    def test_halfdisk_example(self):
        g = build_geometry(PI, 10)
        assert g.z0 == (0, 10)
        assert g.c_alpha == 1.0

    def test_slit_example(self):
        g = build_geometry(0.0, 10)
        assert g.z0 == (-10, 0)
        assert g.c_alpha == 0.5

    def test_right_angle_example(self):
        g = build_geometry(PI / 2, 100)
        assert g.c_alpha == pytest.approx(2.0 / 3.0, abs=1e-15)
        # N = ceil(200 / ln^2 100) = ceil(9.4306...) = 10
        assert g.N == 10

    def test_z0_within_half_sqrt2(self):
        for alpha in np.linspace(0, PI, 17):
            for n in (8, 13, 64, 100):
                g = build_geometry(alpha, n)
                target = n * cmath.exp(1j * (PI - alpha / 2))
                assert abs(g.z0_complex - target) <= math.sqrt(2) / 2 + 1e-12

    def test_invalid_alpha(self):
        with pytest.raises(DomainError):
            build_geometry(-0.1, 10)
        with pytest.raises(DomainError):
            build_geometry(PI + 0.1, 10)

    @pytest.mark.parametrize("alpha", [
        "1", None, 1j, complex(1.0, 0.0), math.nan, math.inf, -math.inf,
        -0.1, PI + 1e-12, [1.0], np.array([1.0])])
    def test_non_angles_refused(self, alpha):
        # one rule: DomainError, never a TypeError from the comparison
        with pytest.raises(DomainError, match="alpha must be a real number"):
            require_angle(alpha)
        with pytest.raises(DomainError, match="alpha must be a real number"):
            build_geometry(alpha, 8)

    @pytest.mark.parametrize("alpha", [0, 0.0, 1, PI, np.float32(1.5),
                                       np.int64(2), np.float64(PI)])
    def test_angles_are_floats(self, alpha):
        assert type(require_angle(alpha)) is float
        assert require_angle(alpha) == alpha
        assert type(build_geometry(alpha, 8).alpha) is float

    def test_invalid_n(self):
        with pytest.raises(DomainError):
            build_geometry(1.0, 7)

    def test_c_alpha_endpoints_and_monotone(self):
        assert c_alpha(0.0) == 0.5
        assert c_alpha(PI) == 1.0
        grid = np.linspace(0, PI, 100)
        vals = [c_alpha(a) for a in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestContains:
    def test_origin_interior(self):
        assert contains(build_geometry(PI, 10), 0j)

    def test_slit_point_excluded(self):
        g = build_geometry(0.0, 10)
        z = -g.z0_complex + 5
        assert not contains(g, z)

    def test_outside_radius(self):
        g = build_geometry(PI / 2, 100)
        assert not contains(g, -g.z0_complex + 250)

    def test_tip_excluded(self):
        g = build_geometry(PI / 2, 16)
        assert not contains(g, -g.z0_complex)

    def test_wedge_edge_lattice_points_excluded(self):
        # theta = 2 pi - alpha edge for alpha = pi/2 is the negative
        # imaginary axis in the w-frame
        g = build_geometry(PI / 2, 16)
        z0 = g.z0_complex
        assert not contains(g, -z0 + complex(0, -5))
        assert not contains(g, -z0 + complex(0, -31))
        # negative real axis is interior for alpha < pi
        assert contains(g, -z0 + complex(-5, 0))
        # ... and boundary for alpha = pi
        gpi = build_geometry(PI, 16)
        assert not contains(gpi, -gpi.z0_complex + complex(-5, 0))


class TestPointCoercion:
    @pytest.mark.parametrize("call", [
        lambda g, d, z: contains(g, z),
        lambda g, d, z: nearest_boundary(g, z),
        lambda g, d, z: tuple(bm_arc_measure(g, z).probabilities),
        lambda g, d, z: green_pacman(g, 0j, z),
        lambda g, d, z: d.interior_index(z),
    ], ids=["contains", "nearest_boundary", "bm_arc_measure", "green_pacman",
            "interior_index"])
    def test_site_row_equals_tuple(self, call):
        g = build_geometry(PI, 16)
        d = build_lattice_domain(g)
        row = d.interior[5]
        assert call(g, d, row) == call(g, d, (int(row[0]), int(row[1])))

    # a point is a complex number or a 1-D pair: no entry is dropped and
    # no shape reaches an IndexError or a TypeError
    @pytest.mark.parametrize("z", [(0, 0, 99), (0, 0, 7), (3, 4, 5), (1,), (),
                                   np.zeros((2, 2)), "0,0", None],
                             ids=["(0,0,99)", "(0,0,7)", "(3,4,5)", "(1,)", "()",
                                  "2x2", "str", "None"])
    @pytest.mark.parametrize("call", [
        lambda g, d, z: contains(g, z),
        lambda g, d, z: nearest_boundary(g, z),
        lambda g, d, z: d.require_interior(z),
        lambda g, d, z: potential_exact(z),
        lambda g, d, z: potential_asymptotic(z),
    ], ids=["contains", "nearest_boundary", "require_interior",
            "potential_exact", "potential_asymptotic"])
    def test_other_shapes_refused(self, call, z):
        g = build_geometry(PI, 16)
        d = build_lattice_domain(g)
        with pytest.raises(DomainError, match="complex number or an"):
            call(g, d, z)

    def test_complex_scalar_and_pair_agree(self):
        g = build_geometry(PI, 16)
        for z in ((3, 4), [3, 4], np.array([3, 4]), 3 + 4j, np.complex128(3 + 4j)):
            assert point_xy(z) == (3, 4)
            assert contains(g, z)
        assert potential_exact(3 + 4j) == potential_exact((3, 4))

    @pytest.mark.parametrize("z", [((1, 2), (3, 4)), (1, (2, 3)), [[1], 2]],
                             ids=["nested", "ragged", "ragged list"])
    def test_nested_or_ragged_pairs_refused(self, z):
        with pytest.raises(DomainError, match="complex number or an"):
            point_xy(z)


class TestLatticeSite:
    @pytest.mark.parametrize("z", [(3, 4), (3.0, 4), 3 + 4j, np.array([3.0, 4.0]),
                                   (np.float32(3), np.int8(4))],
                             ids=["ints", "float", "complex", "float row",
                                  "numpy scalars"])
    def test_integer_coordinates_read_as_ints(self, z):
        site = lattice_site(z)
        assert site == (3, 4)
        assert [type(v) for v in site] == [int, int]

    @pytest.mark.parametrize("z", [(3.5, 4), (0.5, 0), 0.5 + 0j, (np.inf, 0),
                                   (np.nan, 0), ("3", 4)],
                             ids=["(3.5,4)", "(0.5,0)", "0.5+0j", "inf", "nan",
                                  "str"])
    def test_other_points_refused(self, z):
        with pytest.raises(DomainError, match="not a lattice site"):
            lattice_site(z)

    def test_array_form(self):
        for v in ([3.0, -2.0], np.array([3, -2], dtype=np.int32)):
            a = lattice_coordinates(v)
            assert a.dtype == np.int64 and a.tolist() == [3, -2]
        # an int64 array is taken as it is, without a pass over it
        a = np.arange(5)
        assert lattice_coordinates(a) is a

    @pytest.mark.parametrize("v", [[3.5], [np.nan], [np.inf], [2.0 ** 63],
                                   [2 ** 63], [1, 10 ** 400], ["3"], [1j]],
                             ids=["3.5", "nan", "inf", "2.0^63", "2^63",
                                  "1e400", "str", "complex"])
    def test_array_form_refuses_non_integers(self, v):
        with pytest.raises(DomainError, match="integers within int64"):
            lattice_coordinates(v)

    def test_interior_index_refuses_non_lattice_points(self):
        d = build_lattice_domain(build_geometry(PI, 16))
        for lookup in (d.interior_index, d.boundary_index):
            with pytest.raises(DomainError, match="not a lattice site"):
                lookup((0.5, 0))
            # a lattice site off the grid is no site of the domain
            assert lookup((10 ** 400, 0)) == -1

    def test_from_sites_takes_lattice_sites_only(self):
        g = build_geometry(PI, 8)
        for sites in ([(0.5, 0)], [(0, 0, 7)]):
            with pytest.raises(DomainError):
                lattice_domain_from_sites(g, sites)
        d = lattice_domain_from_sites(g, [0j])
        assert d.interior.tolist() == [[0, 0]]
        assert np.array_equal(d.grid, lattice_domain_from_sites(g, [(0, 0)]).grid)

    @pytest.mark.parametrize("far", [10 ** 6, 10 ** 400])
    def test_from_sites_refuses_a_mask_over_memory(self, far):
        # two sites far apart span a box of about far^2 cells, 3.64 TiB of
        # mask at 10^6 and past int64 at 10^400: both are refused before
        # anything is allocated
        g = build_geometry(PI, 8)
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="physical memory"):
                lattice_domain_from_sites(g, [(0, 0), (far, far)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_from_sites_allocates_only_the_box(self):
        # one site 10^6 from the tip takes a 3 x 3 box
        g = build_geometry(PI, 8)
        tracemalloc.start()
        try:
            d = lattice_domain_from_sites(g, [(10 ** 6, 0)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        assert (d.width, d.height, d.grid.size) == (3, 3, 9)
        assert d.interior.tolist() == [[10 ** 6, 0]]
        assert d.boundary_count == 4
        assert d.interior_index((10 ** 6, 0)) == 0
        assert d.interior_index((10 ** 6 + 2, 0)) == -1

    @pytest.mark.parametrize("site", [(2 ** 62, 0), (-2 ** 62, 0),
                                      (10 ** 400, 0)],
                             ids=["2^62", "-2^62", "1e400"])
    def test_from_sites_refuses_a_box_past_int64(self, site):
        with pytest.raises(DomainError, match="within 2\\^62"):
            lattice_domain_from_sites(build_geometry(PI, 8), [site])


class TestLatticeDomain:
    def test_interior_count_matches_brute_force(self):
        g = build_geometry(PI, 8)
        d = build_lattice_domain(g)
        assert d.interior_count == brute_force_interior(g)
        assert d.interior_count == 381
        # area heuristic is a sanity band only: lattice boundary effects
        # push the count ~5% under pi (2n)^2 / 2
        heuristic = PI * (2 * g.n) ** 2 / 2
        assert abs(d.interior_count - heuristic) / heuristic < 0.10

    def test_slit_lattice_points_are_boundary(self):
        g = build_geometry(0.0, 8)
        d = build_lattice_domain(g)
        for t in range(1, 16):
            z = -g.z0_complex + t
            assert not contains(g, z)
            assert d.boundary_index((int(z.real), int(z.imag))) >= 0
        # interior sites exist on both sides of the slit
        assert d.interior_index((8 + 5, 1)) >= 0
        assert d.interior_index((8 + 5, -1)) >= 0

    def test_boundary_disjoint_from_interior(self):
        for alpha in (0.0, PI / 2, PI):
            d = build_lattice_domain(build_geometry(alpha, 8))
            inter = set(map(tuple, d.interior))
            bnd = set(map(tuple, d.boundary))
            assert not inter & bnd
            # every boundary site touches an interior site
            for x, y in d.boundary:
                assert any((x + dx, y + dy) in inter
                           for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)))

    def test_deterministic_construction(self):
        g = build_geometry(PI / 2, 16)
        d1 = build_lattice_domain(g)
        d2 = build_lattice_domain(g)
        assert np.array_equal(d1.interior, d2.interior)
        assert np.array_equal(d1.boundary, d2.boundary)
        assert np.array_equal(d1.boundary_arc, d2.boundary_arc)

    def test_site_ordering_row_major(self):
        d = build_lattice_domain(build_geometry(PI, 8))
        keys = [(y, x) for x, y in d.interior]
        assert keys == sorted(keys)

    def test_from_sites_single_and_plus(self):
        g = build_geometry(PI, 8)
        single = lattice_domain_from_sites(g, [(0, 0)])
        assert single.interior_count == 1
        assert single.boundary_count == 4
        plus = lattice_domain_from_sites(g, [(0, 0), (1, 0), (-1, 0),
                                             (0, 1), (0, -1)])
        assert plus.interior_count == 5
        assert plus.boundary_count == 8

    def test_from_sites_empty(self):
        with pytest.raises(DomainError):
            lattice_domain_from_sites(build_geometry(PI, 8), [])

    @pytest.mark.parametrize("alpha", [0.0, PI / 4, PI / 2, PI])
    def test_from_sites_of_full_interior_equals_build(self, alpha):
        g = build_geometry(alpha, 16)
        d = build_lattice_domain(g)
        e = lattice_domain_from_sites(g, d.interior)
        for name in ("interior", "boundary", "boundary_arc", "grid"):
            a, b = getattr(d, name), getattr(e, name)
            assert a.dtype == b.dtype
            assert np.array_equal(a, b), name
        assert (e.corner, e.width, e.height) == (d.corner, d.width, d.height)


def assert_site_grid(d):
    """The one site grid against the site arrays and the scalar lookups."""
    M, B = d.interior_count, d.boundary_count
    cells = np.arange(d.grid.size)
    assert np.array_equal(d.flat(d.unflat(cells)), cells)
    for sites in (d.interior, d.boundary):
        assert np.array_equal(d.unflat(d.flat(sites)), sites)
    # each id once: at its site, and nowhere else
    assert np.array_equal(d.grid[d.flat(d.interior)], np.arange(M))
    assert np.array_equal(d.grid[d.flat(d.boundary)], M + np.arange(B))
    assert np.count_nonzero(d.grid >= 0) == M + B
    for site, v in zip(d.unflat(cells), d.grid):
        assert d.interior_index(site) == (v if 0 <= v < M else -1)
        assert d.boundary_index(site) == (v - M if v >= M else -1)


def whole_box_scan(g):
    """The site arrays and grid from sector_mask over the whole (4n + 3)^2
    square, indexed [wx, wy], listed by argwhere on its transpose; the
    grid is indexed [wy, wx] from the square's corner (-2n - 1, -2n - 1)."""
    off = 2 * g.n + 1
    ax = np.arange(-off, off + 1, dtype=np.int64)
    interior = sector_mask(g, ax[:, None], ax[None, :])
    near = np.zeros_like(interior)
    near[1:, :] |= interior[:-1, :]
    near[:-1, :] |= interior[1:, :]
    near[:, 1:] |= interior[:, :-1]
    near[:, :-1] |= interior[:, 1:]
    grid = np.full(interior.shape, -1, dtype=np.int64)
    sites, first = [], 0
    for mask in (interior, near & ~interior):
        wy, wx = (np.argwhere(mask.T) - off).T
        grid[wy + off, wx + off] = first + np.arange(wx.size)
        first += wx.size
        sites.append(np.stack([wx - g.z0[0], wy - g.z0[1]], axis=1))
    bw = sites[1] + np.asarray(g.z0)
    arcs = arc_index_of_radius(g, np.hypot(bw[:, 0], bw[:, 1]))
    return {"interior": sites[0], "boundary": sites[1], "boundary_arc": arcs,
            "grid": grid}


def assert_whole_box_scan(g):
    """The build's sites are the square scan's, and its grid is the
    square's grid cropped to the interior's box and a one-cell margin,
    outside which the square holds no site."""
    d = build_lattice_domain(g)
    want = whole_box_scan(g)
    off = 2 * g.n + 1
    (x0, y0), w, h = d.corner, d.width, d.height
    box = np.s_[y0 + off:y0 + off + h, x0 + off:x0 + off + w]
    square = want.pop("grid")
    want["grid"] = square[box].ravel()
    for name, want in want.items():
        got = getattr(d, name)
        assert (got.dtype, got.shape) == (want.dtype, want.shape), name
        assert got.tobytes() == want.tobytes(), name
    square[box] = -1
    assert np.all(square == -1)
    wi = d.interior + np.asarray(g.z0)
    assert (x0 + 1, y0 + 1) == tuple(wi.min(axis=0))
    assert (x0 + w - 2, y0 + h - 2) == tuple(wi.max(axis=0))


class TestSiteSet:
    """The build scans the rows of its box at or below the axis with
    sector_mask and the rest with the disk test alone, and crops to the
    interior's box; the sites must be the whole square's."""

    @pytest.mark.parametrize("n", [8, 23, 40])
    @pytest.mark.parametrize("alpha", [0.0, PI / 4, PI / 2, 3 * PI / 4, PI])
    def test_lattice_edge_angles(self, alpha, n):
        assert_whole_box_scan(build_geometry(alpha, n))

    @settings(max_examples=25, deadline=None)
    @given(alpha=ALPHAS, n=st.integers(8, 40))
    def test_any_angle(self, alpha, n):
        assert_whole_box_scan(build_geometry(alpha, n))


class TestSiteGrid:
    @settings(max_examples=10, deadline=None)
    @given(alpha=st.floats(0.0, PI), n=st.integers(8, 20))
    def test_layout_at_any_angle(self, alpha, n):
        assert_site_grid(build_lattice_domain(build_geometry(alpha, n)))

    def test_layout_of_plus_shape(self):
        d = lattice_domain_from_sites(
            build_geometry(PI, 8), [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)])
        assert_site_grid(d)


class TestMemoryGuard:
    def test_estimate_bounds_a_solve(self):
        # the guard charges per cell of the box, which is the square at
        # alpha = 0 and half of it at pi; the estimate must cover the build,
        # a Green's solve and the walk engine's level grid at both
        for alpha in (0.0, PI):
            g = build_geometry(alpha, 64)
            tracemalloc.start()
            try:
                d = build_lattice_domain(g)
                green_solve(d, (0, 0))
                _jump_tables(d)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            _, width, height = _box(alpha, g.n)
            assert peak <= _BYTES_PER_CELL * width * height

    # Per cell of the (4n + 3)^2 grid at alpha = 0, n = 64, in a fresh
    # process (the kernel's Gauss rule and table are filled in the window).
    # Evaluating the closed form, eps and the errors over whole arrays
    # after the solve, with CG's residual and the operator's site mask as
    # vectors of their own, read 228 (rate point) and 178 (potential path);
    # in blocks, without those two vectors, 156 and 129.
    @pytest.mark.parametrize("call, bound", [
        ("experiments._rate_point(0.0, 64)", 190),
        ("green_via_potential(build_lattice_domain(build_geometry(0.0, 64)),"
         " (0, 0))", 150)], ids=["rate_point", "potential"])
    def test_after_solve_evaluations_stay_in_blocks(self, call, bound):
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        code = ("import sys, tracemalloc\n"
                "from pacgreen import (build_geometry, build_lattice_domain,"
                " experiments, green_via_potential)\n"
                "tracemalloc.start()\n"
                f"{call}\n"
                "peak = tracemalloc.get_traced_memory()[1]\n"
                "sys.stdout.write(str(peak / (4 * 64 + 3) ** 2))")
        proc = subprocess.run([sys.executable, "-c", code],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) <= bound

    def test_one_rule_for_the_build_and_the_sweep(self):
        for bad in (7, 8.5, math.nan, math.inf, "9"):
            with pytest.raises(DomainError, match="integer"):
                require_scale(bad)
            with pytest.raises(DomainError, match="integer"):
                build_geometry(0.0, bad)
        assert require_scale(16.0) == 16 and type(require_scale(16.0)) is int
        require_memory(64)
        with pytest.raises(DomainError, match="physical memory"):
            require_memory(10 ** 6)
        with pytest.raises(DomainError, match="physical memory"):
            build_lattice_domain(build_geometry(0.0, 10 ** 6))


class TestAllocatorPolicy:
    @pytest.mark.skipif(not hasattr(ctypes.pythonapi, "mallopt"),
                        reason="the C library has no mallopt")
    def test_second_sweep_reuses_freed_memory(self):
        # Under glibc's default thresholds the second of two identical
        # sweeps of rate points faults about 1 400 pages in again, which
        # the first freed.  A fresh process, since one that has freed a
        # large block has raised those thresholds itself; three sizes,
        # since a single repeated size at the defaults faults 2 to 1 300
        # times, by where small long-lived blocks happen to land.
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        code = ("import math, resource, sys\n"
                "from pacgreen import experiments\n"
                "def sweep():\n"
                "    for n in (16, 32, 64):\n"
                "        experiments._rate_point(math.pi, n)\n"
                "sweep()\n"
                "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
                "sweep()\n"
                "faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
                "sys.stdout.write(str(faults - before))")
        proc = subprocess.run([sys.executable, "-c", code],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 100

    def test_thresholds(self):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        _keep_freed_memory(types.SimpleNamespace(mallopt=mallopt))
        # M_MMAP_THRESHOLD at 32 MiB, M_TRIM_THRESHOLD at twice that
        assert calls == [(-3, 32 << 20), (-1, 64 << 20)]

    def test_library_without_mallopt_is_left_alone(self):
        asked = []

        class NoMallopt:
            def __getattr__(self, name):
                asked.append(name)
                raise AttributeError(name)

        assert _keep_freed_memory(NoMallopt()) is None
        assert asked == ["mallopt"]


class TestEdgeProperties:
    @pytest.mark.parametrize("alpha, step", LATTICE_EDGES)
    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(8, 256), k=st.integers(1, 600))
    def test_lattice_points_on_edge_excluded(self, alpha, step, n, k):
        g = build_geometry(alpha, n)
        wx, wy = k * step[0], k * step[1]
        assert not sector_mask(g, wx, wy)
        assert not contains(g, (wx - g.z0[0], wy - g.z0[1]))

    @settings(max_examples=40, deadline=None)
    @given(alpha=ALPHAS, n=st.integers(8, 40),
           points=st.lists(st.tuples(st.integers(-82, 82), st.integers(-82, 82)),
                           min_size=1, max_size=30))
    def test_contains_agrees_with_lattice_domain(self, alpha, n, points):
        g = build_geometry(alpha, n)
        d = build_lattice_domain(g)
        for wx, wy in points:
            z = (wx - g.z0[0], wy - g.z0[1])
            inside = contains(g, z)
            assert inside == bool(sector_mask(g, wx, wy))
            assert inside == (d.interior_index(z) >= 0)

    @settings(max_examples=30, deadline=None)
    @given(alpha=ALPHAS, n=st.integers(8, 64))
    def test_arcs_partition_boundary(self, alpha, n):
        g = build_geometry(alpha, n)
        d = build_lattice_domain(g)
        assert set(d.boundary_arc.tolist()) == set(range(1, g.N + 1))
        assert d.boundary_arc.tolist() == [arc_index(g, (int(x), int(y)))
                                           for x, y in d.boundary]
        inter = set(map(tuple, d.interior.tolist()))
        assert inter.isdisjoint(map(tuple, d.boundary.tolist()))

    @settings(max_examples=60, deadline=None)
    @given(alpha=ALPHAS, n=st.integers(8, 256), data=st.data())
    def test_brownian_arc_measure_sums_to_one(self, alpha, n, data):
        g = build_geometry(alpha, n)
        R = 2 * n
        w = (data.draw(st.integers(-R, R)), data.draw(st.integers(-R, R)))
        z = (w[0] - g.z0[0], w[1] - g.z0[1])
        assume(contains(g, z))
        m = bm_arc_measure(g, z)
        assert m.total == pytest.approx(1.0, abs=1e-9)
        assert np.all(m.probabilities >= 0)


class TestArcIndex:
    def test_first_bucket(self):
        g = build_geometry(PI, 100)
        z = -g.z0_complex + 0.5 * g.bucket_width
        assert arc_index(g, z) == 1

    def test_circular_arc_maps_to_last(self):
        g = build_geometry(PI, 100)
        assert g.N == 10
        z = -g.z0_complex + 200 * cmath.exp(1j * 1.0)
        assert arc_index(g, z) == g.N

    def test_mid_bucket(self):
        g = build_geometry(0.0, 64)
        z = -g.z0_complex + 3.2 * g.bucket_width
        assert arc_index(g, z) == 4

    @pytest.mark.parametrize("alpha,n", [(0.0, 16), (PI / 2, 33), (PI, 100)])
    def test_edges_bound_the_buckets(self, alpha, n):
        # arc k covers [edges[k - 1], edges[k]); the last edge is the radius
        g = build_geometry(alpha, n)
        edges = arc_edges(g)
        mid = (edges[:-1] + edges[1:]) / 2
        assert arc_index_of_radius(g, mid).tolist() == list(range(1, g.N + 1))
        assert edges[0] == 0.0 and edges[-1] == g.radius

    def test_nondecreasing_and_all_nonempty(self):
        for alpha in (0.0, PI / 2, PI):
            g = build_geometry(alpha, 32)
            d = build_lattice_domain(g)
            radii = np.hypot(d.boundary[:, 0] + g.z0[0],
                             d.boundary[:, 1] + g.z0[1])
            order = np.argsort(radii)
            assert np.all(np.diff(d.boundary_arc[order]) >= 0)
            assert set(d.boundary_arc) == set(range(1, g.N + 1))


class TestNearestBoundary:
    def test_point_above_slit(self):
        g = build_geometry(0.0, 64)
        z = (26 - g.z0[0], 4 - g.z0[1])    # w-frame (26, 4)
        dist, k = nearest_boundary(g, z)
        assert dist == pytest.approx(4.0)
        assert k == 2

    def test_point_near_circle(self):
        g = build_geometry(PI, 64)
        z = -g.z0_complex + 125 * cmath.exp(1j * 1.2)
        dist, k = nearest_boundary(g, z)
        assert dist == pytest.approx(3.0)
        assert k == g.N
