import math
import os
import subprocess
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest

from pacgreen import (DomainError, EULER_GAMMA, K0, build_geometry,
                      build_lattice_domain, green_via_potential,
                      potential_asymptotic, potential_exact)
from pacgreen import potential as kernel
from pacgreen.potential import (EXACT_RADIUS, QUADRATURE_ORDER, SITE_BLOCK,
                                kernel_remainder, potential_exact_many,
                                potential_many)

# Closed-form kernel values: a(1,0) = 1 pins the normalization, and
# harmonicity at (1,0) with the diagonal value a(1,1) = 4/pi forces
# a(2,0) = 4 - 8/pi.
KNOWN = {(0, 0): 0.0, (1, 0): 1.0, (1, 1): 4 / math.pi,
         (2, 0): 4 - 8 / math.pi}


def potential_tensor(x) -> float:
    """a(x) by the raw two-axis tensor-product rule, independent of the
    package's one-axis residue form."""
    nodes, weights = np.polynomial.legendre.leggauss(QUADRATURE_ORDER)
    t = nodes * math.pi
    w = weights * math.pi
    ct = np.cos(t)
    denom = 1.0 - 0.5 * (ct[:, None] + ct[None, :])
    num = 1.0 - np.cos(x[0] * t)[:, None] * np.cos(x[1] * t)[None, :]
    return float((w @ (num / denom) @ w) / (2.0 * math.pi) ** 2)


def potential_reference(xs, ys) -> np.ndarray:
    """a over integer offset arrays by the one-point formula in blocks of
    64 points, each point's cos(x1 t) and rho^x2 rows computed on their
    own: the bits that potential_exact_many must reproduce under the
    package's Gauss rule."""
    t, w, s, rho = kernel._gauss_rule()
    x1 = np.abs(np.asarray(xs, dtype=np.float64))
    x2 = np.abs(np.asarray(ys, dtype=np.float64))
    out = np.empty(x1.shape, dtype=np.float64)
    for lo in range(0, x1.shape[0], 64):
        f = np.multiply(x1[lo:lo + 64, None], t)
        np.cos(f, out=f)
        f *= np.power(rho, x2[lo:lo + 64, None])
        np.subtract(1.0, f, out=f)
        f /= s
        f *= w
        out[lo:lo + 64] = (2.0 / math.pi) * f.sum(axis=1)
    return out


class TestGaussRule:
    def test_even_powers_are_exact(self):
        # sum w x^(2k) = 2 / (2k + 1) for k < QUADRATURE_ORDER; measured
        # worst error 1.1e-16 (leggauss: 1.3e-14)
        x, w = kernel._legendre_rule(QUADRATURE_ORDER)
        x2, p = x * x, np.ones_like(x)
        for k in range(QUADRATURE_ORDER):
            assert abs((w * p).sum() - 2.0 / (2 * k + 1)) <= 1e-15, k
            p *= x2

    def test_matches_a_40_digit_reference(self):
        # Newton on the recurrence in 40-digit decimals from each double
        # node; measured worst 9.1e-17 (nodes) and 5.7e-15 relative
        # (weights), against 1.1e-10 for leggauss's weight at the ends
        x, w = kernel._legendre_rule(QUADRATURE_ORDER)
        n = QUADRATURE_ORDER
        for i in (0, 1, 2, 3, 5, 10, 30, 128, 255):
            with localcontext() as ctx:
                ctx.prec = 40
                r = Decimal(float(x[i]))
                for _ in range(3):
                    p0, p1 = Decimal(1), r
                    for j in range(1, n):
                        p0, p1 = p1, ((2 * j + 1) * r * p1 - j * p0) / (j + 1)
                    dp = n * (r * p1 - p0) / (r * r - 1)
                    r -= p1 / dp
                weight = 2 / ((1 - r * r) * dp * dp)
                assert abs(Decimal(float(x[i])) - r) <= Decimal(2e-16), i
                assert abs(Decimal(float(w[i])) / weight - 1) <= 2e-14, i

    def test_matches_leggauss(self):
        # measured: nodes 2.2e-16 apart; weights 1.1e-10 relative, which is
        # leggauss's own error at the ends (the Newton weights are within
        # 7.6e-15 of a 40-digit reference at every node)
        x, w = kernel._legendre_rule(QUADRATURE_ORDER)
        nodes, weights = np.polynomial.legendre.leggauss(QUADRATURE_ORDER)
        assert np.max(np.abs(x - nodes)) <= 1e-15
        assert np.max(np.abs(w / weights - 1.0)) <= 1.5e-10

    def test_rule_and_fill_need_no_lapack(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the kernel called LAPACK")

        for name in ("eigvalsh", "eigh", "eigvals", "eig", "solve", "inv"):
            monkeypatch.setattr(np.linalg, name, refuse)
        monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)
        kept = kernel._gauss_rule()
        kernel._gauss_rule.cache_clear()
        try:
            rule = kernel._gauss_rule()
            table = kernel._RemainderTable()
            table.upto(EXACT_RADIUS)
        finally:
            kernel._gauss_rule.cache_clear()
        monkeypatch.undo()
        for a, b in zip(rule, kept):
            assert np.array_equal(a, b)
        assert table.rows == EXACT_RADIUS + 1
        assert np.array_equal(table.eps, kernel._table.upto(EXACT_RADIUS))


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


    def test_matches_reference_bit_for_bit(self):
        # repeated and distinct x1 and x2, zero and negative offsets, the
        # origin, points past the exact radius, and three 64-point blocks
        rng = np.random.default_rng(29)
        xs = np.concatenate([rng.integers(-260, 261, 100), [0, 0, 3, -3],
                             rng.choice([-7, 0, 7, 250], 60)])
        ys = np.concatenate([rng.integers(-260, 261, 100), [0, -5, 0, 5],
                             rng.choice([-201, 0, 1, 2], 60)])
        assert np.array_equal(potential_exact_many(xs, ys),
                              potential_reference(xs, ys))

    def test_point_does_not_depend_on_its_block(self):
        # several quadrature blocks, each point bit for bit its own value
        rng = np.random.default_rng(11)
        xs, ys = rng.integers(-150, 151, (2, 150))
        many = potential_exact_many(xs, ys)
        assert [float(v) for v in many] == [
            potential_exact((x, y)) if x or y else 0.0
            for x, y in zip(xs, ys)]


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

    def test_blocks_match_one_pass(self):
        # more than two blocks of sites, the origin and both sides of the
        # exact radius among them
        rng = np.random.default_rng(5)
        xs, ys = rng.integers(-260, 261, (2, 2 * SITE_BLOCK + 100))
        xs[[0, SITE_BLOCK]] = ys[[0, SITE_BLOCK]] = 0
        r = np.hypot(xs, ys)
        nz = r > 0
        want = np.zeros(r.shape)
        want[nz] = ((2.0 / math.pi) * np.log(r[nz]) + K0
                    + kernel_remainder(xs[nz], ys[nz]))
        assert np.array_equal(potential_many(xs, ys), want)

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

    def test_rows_match_the_reference(self):
        # the octant within the exact radius, bit for bit; 0 elsewhere
        eps = kernel._table.upto(EXACT_RADIUS)
        x, y = np.indices(eps.shape)
        inside = (y <= x) & (np.hypot(x, y) <= EXACT_RADIUS)
        inside[0, 0] = False
        assert not eps[~inside].any()
        x, y = x[inside], y[inside]
        want = (potential_reference(x, y)
                - (2 / math.pi) * np.log(np.hypot(x, y)) - K0)
        assert np.array_equal(eps[x, y], want)

    def test_cold_fill_memory(self):
        # a fresh process: what importing the kernel keeps, plus the peak
        # of its Gauss rule and a fill to the exact radius; measured 2.12 MB
        # (3.78 MB with leggauss's 512 x 512 companion matrix)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        code = ("import sys, tracemalloc\n"
                "import numpy\n"
                "tracemalloc.start()\n"
                "import pacgreen.potential as kernel\n"
                "tracemalloc.reset_peak()\n"
                "kernel._table.upto(kernel.EXACT_RADIUS)\n"
                "sys.stdout.write(str(tracemalloc.get_traced_memory()[1]))")
        proc = subprocess.run([sys.executable, "-c", code],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) <= 2.8e6

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
