import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pacgreen import (DomainError, arc_index, bm_arc_measure, build_geometry,
                      build_lattice_domain, c_alpha, contains, green_pacman,
                      lattice_domain_from_sites, nearest_boundary)
from pacgreen.domain import sector_mask

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
        for name in ("interior", "boundary", "boundary_arc",
                     "_interior_grid", "_boundary_grid"):
            a, b = getattr(d, name), getattr(e, name)
            assert a.dtype == b.dtype
            assert np.array_equal(a, b), name
        assert e._offset == d._offset


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
