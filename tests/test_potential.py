import math

import numpy as np
import pytest

from pacgreen import (DomainError, EULER_GAMMA, K0, build_geometry,
                      build_lattice_domain, green_via_potential,
                      potential_asymptotic, potential_exact)
from pacgreen import potential as kernel
from pacgreen.potential import (EXACT_RADIUS, kernel_remainder,
                                potential_exact_many, potential_many,
                                potential_tensor)

# Closed-form kernel values: a(1,0) = 1 pins the normalization, and
# harmonicity at (1,0) with the diagonal value a(1,1) = 4/pi forces
# a(2,0) = 4 - 8/pi.
KNOWN = {(0, 0): 0.0, (1, 0): 1.0, (1, 1): 4 / math.pi,
         (2, 0): 4 - 8 / math.pi}


class TestExact:
    def test_origin_is_zero_exactly(self):
        assert potential_exact((0, 0)) == 0.0

    @pytest.mark.parametrize("pt,val", sorted(KNOWN.items()))
    def test_closed_forms(self, pt, val):
        assert potential_exact(pt) == pytest.approx(val, abs=1e-10)

    def test_unit_step_within_spec_tolerance(self):
        assert abs(potential_exact((1, 0)) - 1.0) <= 1e-6

    def test_tensor_rule_cross_check(self):
        # the raw two-axis rule is the independent route; its accuracy
        # degrades with |x| as the node spacing stops resolving the
        # removable singularity, hence the staged tolerances
        for pt in ((1, 0), (1, 1), (2, 0), (3, 2), (5, 3)):
            assert potential_tensor(pt) == pytest.approx(
                potential_exact(pt), abs=1e-7)
        for pt in ((10, 0), (12, 9), (20, 5)):
            assert potential_tensor(pt) == pytest.approx(
                potential_exact(pt), abs=2e-5)

    def test_lattice_symmetries(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            x = int(rng.integers(0, 21))
            y = int(rng.integers(0, 21))
            base = potential_exact((x, y))
            for sx in (1, -1):
                for sy in (1, -1):
                    assert potential_exact((sx * x, sy * y)) == pytest.approx(base, abs=1e-12)
                    assert potential_exact((sx * y, sy * x)) == pytest.approx(base, abs=1e-12)

    def test_discrete_harmonicity(self):
        def lap(x, y):
            return 0.25 * sum(potential_exact(p) for p in
                              ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1))) \
                - potential_exact((x, y))

        assert lap(0, 0) == pytest.approx(1.0, abs=1e-6)
        for pt in ((1, 0), (2, 1), (5, 5), (9, 2)):
            assert lap(*pt) == pytest.approx(0.0, abs=1e-6)

    def test_vectorized_matches_scalar(self):
        xs = np.array([1, 2, 7, -4])
        ys = np.array([0, 1, 3, 11])
        many = potential_exact_many(xs, ys)
        for i in range(len(xs)):
            assert many[i] == pytest.approx(
                potential_exact((xs[i], ys[i])), abs=1e-14)


class TestAsymptotic:
    def test_k0_value(self):
        assert abs(K0 - 1.029374) <= 1e-6
        assert K0 == pytest.approx((2 * EULER_GAMMA + 3 * math.log(2)) / math.pi,
                                   abs=1e-15)

    def test_unit_point_is_k0(self):
        assert potential_asymptotic((1, 0)) == K0

    def test_far_point(self):
        expected = (2 / math.pi) * math.log(100) + K0
        assert potential_asymptotic((100, 0)) == pytest.approx(expected, abs=1e-12)
        # direct evaluation: 0.63661977...*4.60517019 + 1.02937371 = 3.9611161
        assert potential_asymptotic((100, 0)) == pytest.approx(3.9611161, abs=1e-4)

    def test_origin_raises(self):
        with pytest.raises(DomainError):
            potential_asymptotic((0, 0))

    def test_remainder_order(self):
        # |a(x) - asymptotic| * |x|^2 stays below 1 (measured max ~0.054)
        worst = 0.0
        for x in range(10, 65, 3):
            for y in (0, x // 2, x):
                r2 = x * x + y * y
                if not (100 <= r2 <= 64 * 64):
                    continue
                diff = potential_exact((x, y)) - potential_asymptotic((x, y))
                worst = max(worst, abs(diff) * r2)
        assert worst <= 1.0


class TestKernelRemainder:
    def test_closed_forms(self):
        # eps = a - (2/pi) log|x| - k0 with the closed forms in KNOWN
        eps = kernel_remainder([1, 2, -1, 0], [1, 0, -1, -2])
        expected = [4 / math.pi - math.log(2) / math.pi - K0,
                    4 - 8 / math.pi - (2 / math.pi) * math.log(2) - K0]
        assert expected[0] == pytest.approx(0.0232302, abs=1e-7)
        assert expected[1] == pytest.approx(-0.0171240, abs=1e-7)
        # (-1,-1) and (0,-2) are lattice images of (1,1) and (2,0)
        assert eps == pytest.approx(expected * 2, abs=1e-9)

    def test_matches_policy(self):
        # exact inside radius 200, zero beyond it
        xs = np.array([3, -7, 12, 49, 35, 51, -120, 150, 141, 142, 0, 200,
                       201, 250])
        ys = np.array([40, 2, -31, 9, -35, 0, 97, -60, 141, 142, -199, 1, 0,
                       3])
        r = np.hypot(xs, ys)
        expected = np.where(r <= 200, potential_exact_many(xs, ys)
                            - (2 / math.pi) * np.log(r) - K0, 0.0)
        eps = kernel_remainder(xs, ys)
        assert eps == pytest.approx(expected, abs=1e-12)
        # between radius 50 and 200 eps is small but not 0
        assert np.all(eps[(r > 50) & (r <= 200)] != 0.0)

    def test_origin_raises(self):
        with pytest.raises(DomainError):
            kernel_remainder([1, 0], [0, 0])


class TestPolicy:
    def test_origin(self):
        assert potential_many([0], [0])[0] == 0.0

    def test_continuity_across_cutoff(self):
        lo, at, hi = potential_many([EXACT_RADIUS - 1, EXACT_RADIUS,
                                     EXACT_RADIUS + 1], [0, 0, 0])
        # exact up to the radius, asymptotic past it: the switch moves a
        # by |eps| there, about 1.4e-6
        assert at == pytest.approx(potential_exact((EXACT_RADIUS, 0)), abs=1e-12)
        assert hi == pytest.approx(potential_exact((EXACT_RADIUS + 1, 0)), abs=2e-6)
        assert lo < at < hi

    def test_negation_symmetry(self):
        xs = np.array([3, 60, 0, 150, 250])
        ys = np.array([4, 11, 7, -90, 1])
        assert np.array_equal(potential_many(xs, ys), potential_many(-xs, -ys))
        assert np.array_equal(potential_many(xs, ys), potential_many(ys, xs))


class TestTable:
    def test_grows_lazily_up_to_the_exact_radius(self, monkeypatch):
        monkeypatch.setattr(kernel, "_table", kernel._RemainderTable())
        green_via_potential(build_lattice_domain(build_geometry(math.pi, 8)),
                            (0, 0))
        assert 0 < kernel._table.rows - 1 < EXACT_RADIUS
        potential_many([250], [0])
        assert kernel._table.rows - 1 == EXACT_RADIUS

    def test_growth_keeps_values(self, monkeypatch):
        xs, ys = np.array([1, 5, 17, -30, 90]), np.array([0, -3, 17, 2, 44])
        full = kernel_remainder(xs, ys)
        monkeypatch.setattr(kernel, "_table", kernel._RemainderTable())
        for i in range(1, len(xs) + 1):      # each call grows the table
            grown = kernel_remainder(xs[:i], ys[:i])
        assert np.array_equal(grown, full)


def test_package_attribute_is_the_module():
    import pacgreen
    assert pacgreen.potential.potential_many is potential_many
