import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pacgreen import (DomainError, SingularityError,
                      bm_arc_measure, build_geometry, cauchy_interval_measure,
                      contains, green_halfdisk, green_halfplane, green_pacman,
                      halfdisk_to_halfplane, map_to_halfdisk)

PI = math.pi


class TestMapToHalfdisk:
    @pytest.mark.parametrize("alpha", [0.0, PI / 2, PI])
    def test_image_of_origin(self, alpha):
        # f(0) = (1/2)^{c} i (1 + O(1/n))
        g = build_geometry(alpha, 64)
        f0 = map_to_halfdisk(g, 0j)
        assert abs(f0) == pytest.approx(0.5 ** g.c_alpha, rel=5.0 / g.n)
        assert cmath.phase(f0) == pytest.approx(PI / 2, abs=5.0 / g.n)

    def test_slit_upper_side_maps_to_positive_reals(self):
        g = build_geometry(0.0, 64)
        z = -g.z0_complex + 32.0
        u = map_to_halfdisk(g, z)
        assert u.imag == pytest.approx(0.0, abs=1e-12)
        assert u.real == pytest.approx((32.0 / 128.0) ** 0.5, abs=1e-12)
        assert 0 < u.real < 1

    def test_circular_arc_maps_to_unit_circle(self):
        g = build_geometry(PI, 64)
        z = -g.z0_complex + 128.0 * cmath.exp(1j * 2.0)
        assert abs(map_to_halfdisk(g, z)) == pytest.approx(1.0, abs=1e-12)

    def test_interior_maps_inside(self):
        rng = np.random.default_rng(0)
        g = build_geometry(PI / 2, 32)
        for _ in range(50):
            z = complex(rng.integers(-70, 71), rng.integers(-70, 71))
            if not contains(g, z):
                continue
            u = map_to_halfdisk(g, z)
            assert abs(u) < 1.0 and u.imag > 0.0

    def test_tip_rejected(self):
        g = build_geometry(PI / 2, 32)
        with pytest.raises(DomainError):
            map_to_halfdisk(g, -g.z0_complex)


class TestHalfdiskToHalfplane:
    def test_center_of_diameter(self):
        assert halfdisk_to_halfplane(1j) == pytest.approx(0.0, abs=1e-15)

    def test_semicircle_formula(self):
        u = cmath.exp(1j * PI / 3)
        assert halfdisk_to_halfplane(u) == pytest.approx(-1.0, abs=1e-12)

    def test_half_i(self):
        assert halfdisk_to_halfplane(0.5j) == pytest.approx(1.5j, abs=1e-15)

    def test_origin_rejected(self):
        with pytest.raises(DomainError):
            halfdisk_to_halfplane(0.0)

    def test_real_segments_map_outside_two(self):
        assert halfdisk_to_halfplane(0.3).real < -2
        assert halfdisk_to_halfplane(-0.3).real > 2


class TestGreenHalfplane:
    def test_colinear_points(self):
        assert green_halfplane(1j, 2j) == pytest.approx(math.log(3), abs=1e-14)

    def test_offset_points(self):
        assert green_halfplane(1j, 1 + 1j) == pytest.approx(math.log(5) / 2,
                                                            abs=1e-14)

    def test_symmetry(self):
        a, b = 0.3 + 1.7j, -2.1 + 0.4j
        assert green_halfplane(a, b) == green_halfplane(b, a)

    def test_positive(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a = complex(rng.normal(), abs(rng.normal()) + 0.01)
            b = complex(rng.normal(), abs(rng.normal()) + 0.01)
            if a != b:
                assert green_halfplane(a, b) > 0

    def test_errors(self):
        with pytest.raises(SingularityError):
            green_halfplane(1j, 1j)
        with pytest.raises(DomainError):
            green_halfplane(1 - 1j, 1j)


class TestGreenPacman:
    def test_halfdisk_case_reduces_to_reflection_formula(self):
        g = build_geometry(PI, 64)
        for z, w in (((3, 5), (-10, 20)), ((0, 1), (40, 30))):
            u = map_to_halfdisk(g, complex(*z))
            v = map_to_halfdisk(g, complex(*w))
            assert green_pacman(g, z, w) == pytest.approx(green_halfdisk(u, v),
                                                          abs=1e-12)

    def test_symmetry(self):
        g = build_geometry(PI / 2, 64)
        assert green_pacman(g, 0j, 5 + 5j) == pytest.approx(
            green_pacman(g, 5 + 5j, 0j), abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, PI / 2, PI])
    def test_chain_vs_reflection_formula(self, alpha):
        # two independent closed forms agree at random interior pairs
        g = build_geometry(alpha, 64)
        rng = np.random.default_rng(42)
        pairs = 0
        while pairs < 100:
            z = complex(rng.integers(-130, 131), rng.integers(-130, 131))
            w = complex(rng.integers(-130, 131), rng.integers(-130, 131))
            if z == w or not (contains(g, z) and contains(g, w)):
                continue
            pairs += 1
            u, v = map_to_halfdisk(g, z), map_to_halfdisk(g, w)
            assert green_pacman(g, z, w) == pytest.approx(green_halfdisk(u, v),
                                                          abs=1e-10)

    @settings(max_examples=10, deadline=None)
    @given(alpha=st.floats(0.0, PI), n=st.integers(8, 20),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_chain_vs_reflection_at_any_angle(self, alpha, n, seed):
        g = build_geometry(alpha, n)
        rng = np.random.default_rng(seed)
        pairs = 0
        while pairs < 20:
            z, w = (complex(*rng.integers(-2 * n - 2, 2 * n + 3, size=2))
                    for _ in range(2))
            if z == w or not (contains(g, z) and contains(g, w)):
                continue
            pairs += 1
            u, v = map_to_halfdisk(g, z), map_to_halfdisk(g, w)
            assert green_pacman(g, z, w) == pytest.approx(green_halfdisk(u, v),
                                                          abs=1e-10)

    def test_circle_mean_value_property(self):
        g = build_geometry(PI / 2, 64)
        z, w = complex(-30, 25), complex(10, 10)
        ring = [green_pacman(g, z + cmath.exp(2j * PI * t / 64), w)
                for t in range(64)]
        assert abs(np.mean(ring) - green_pacman(g, z, w)) <= 1e-4

    def test_boundary_decay_monotone(self):
        g = build_geometry(PI, 64)
        direction = cmath.exp(1j * PI / 4)
        vals = [green_pacman(g, (128 - t) * direction - g.z0_complex, 0j)
                for t in (8, 4, 2, 1)]
        assert all(a > b - 1e-9 for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.01

    def test_log_singularity_bounded(self):
        g = build_geometry(PI, 64)
        z = complex(5, 20)
        for eps in (1.0, 0.5, 0.2, 0.1):
            w = z + eps
            assert abs(green_pacman(g, z, w) + math.log(abs(z - w))) <= 10

    def test_errors(self):
        g = build_geometry(PI / 2, 32)
        with pytest.raises(SingularityError):
            green_pacman(g, 1 + 1j, 1 + 1j)
        with pytest.raises(DomainError):
            green_pacman(g, -g.z0_complex + 500, 0j)


class TestConformalChain:
    def test_boundary_rays_land_in_real_segment(self):
        g = build_geometry(PI / 2, 64)
        for r in (5.0, 30.0, 100.0):
            for theta in (0.0, 2 * PI - g.alpha):
                z = r * cmath.exp(1j * theta) - g.z0_complex
                u = map_to_halfdisk(g, z)
                assert abs(u.imag) < 1e-12
                assert -1 <= u.real <= 1


class TestBmArcMeasure:
    def test_sums_to_one(self):
        g = build_geometry(PI / 2, 100)
        m = bm_arc_measure(g, 0j)
        assert m.total == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("alpha,n", [(0.0, 64), (PI / 2, 16), (PI, 256)])
    def test_sums_to_one_various(self, alpha, n):
        g = build_geometry(alpha, n)
        m = bm_arc_measure(g, 0j)
        assert m.total == pytest.approx(1.0, abs=1e-9)

    def test_halfplane_cauchy_rule(self):
        assert cauchy_interval_measure(1j, -1.0, 1.0) == pytest.approx(0.5, abs=1e-12)
        assert cauchy_interval_measure(1j, -math.inf, math.inf) == pytest.approx(1.0, abs=1e-15)

    def test_nonnegative(self):
        g = build_geometry(0.0, 64)
        m = bm_arc_measure(g, complex(-40, 3))
        assert np.all(m.probabilities >= 0)

    def test_interior_precondition(self):
        g = build_geometry(PI, 16)
        with pytest.raises(DomainError):
            bm_arc_measure(g, -g.z0_complex + 100)

    @pytest.mark.parametrize("alpha", [0.0, PI / 2, PI])
    def test_arc_bound_shape(self, alpha):
        # measured(k) / bound(k) stable within factor 4 over admissible k
        # (two or more buckets away from the start's bucket, excluding the
        # terminal bucket that carries the whole circular arc)
        n = 64
        g = build_geometry(alpha, n)
        x = complex(26 - g.z0[0], 4 - g.z0[1])     # w-frame (26, 4), k0 = 2
        k0 = 2
        m = bm_arc_measure(g, x)
        c = g.c_alpha
        ratios = []
        for k in range(1, g.N + 1):
            if abs(k - k0) < 2 or k == g.N:
                continue
            bound = (k0 * k) ** (c - 1) / ((k ** c - k0 ** c) ** 2
                                           * math.log(n) ** c)
            ratios.append(m.probabilities[k - 1] / bound)
        assert max(ratios) / min(ratios) <= 4.0
