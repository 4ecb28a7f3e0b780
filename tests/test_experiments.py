import cmath
import math

import numpy as np
import pytest

from pacgreen import (DomainError, ExperimentConfig, FitError, WalkRunConfig,
                      build_geometry, build_lattice_domain, expdiff_estimate,
                      experiments, fit_loglog, green_solve, nearest_boundary,
                      prop_bound_scale, rate_sweep, region_min_radius)
from pacgreen.experiments import RatePoint
from pacgreen.green_continuous import green_pacman_many
from pacgreen.potential import SITE_BLOCK, kernel_remainder

PI = math.pi


class TestFitLoglog:
    def test_exact_power_law(self):
        scales = [math.log(n) ** 2 / n for n in (32, 64, 128, 256)]
        pts = [(s, s ** 0.7) for s in scales]
        slope, intercept, r2 = fit_loglog(pts)
        assert slope == pytest.approx(0.7, abs=1e-10)
        assert intercept == pytest.approx(0.0, abs=1e-10)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_constant_values(self):
        slope, _, _ = fit_loglog([(1.0, 3.0), (2.0, 3.0), (4.0, 3.0)])
        assert slope == pytest.approx(0.0, abs=1e-14)

    def test_hand_computed(self):
        slope, intercept, r2 = fit_loglog([(1, 2), (2, 4), (4, 8)])
        assert slope == pytest.approx(1.0, abs=1e-12)
        assert intercept == pytest.approx(math.log(2), abs=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_errors(self):
        with pytest.raises(FitError):
            fit_loglog([(1, 2), (2, 4)])
        with pytest.raises(FitError):
            fit_loglog([(1, 2), (2, -4), (4, 8)])
        with pytest.raises(FitError):
            fit_loglog([(1, 2), (1, 2), (1, 2)])


class TestRegionMinRadius:
    def test_formula(self):
        g = build_geometry(PI, 16)
        assert region_min_radius(g) == pytest.approx(
            (16 / math.log(16) ** 2) ** (g.c_alpha / 2))


class TestExperimentConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            ExperimentConfig(alphas=(), ns=(8, 16, 32))
        with pytest.raises(DomainError):
            ExperimentConfig(alphas=(0.0,), ns=(4, 16, 32))
        with pytest.raises(DomainError):
            ExperimentConfig(alphas=(0.0,), ns=(16, 16, 32))
        for bad in (-0.1, 4.0, math.nan, math.inf):
            with pytest.raises(DomainError, match="alpha"):
                ExperimentConfig(alphas=(0.0, bad), ns=(8, 16, 32))

    @pytest.mark.parametrize("bad", ["1", None, 1j, math.nan, -0.1, 4.0])
    def test_angles_follow_the_domain_rule(self, bad):
        with pytest.raises(DomainError, match="alpha must be a real number"):
            ExperimentConfig(alphas=(0.0, bad), ns=(8, 16, 32))

    def test_every_n_is_checked_before_any_solve(self):
        for bad in (16.5, math.nan, math.inf):
            with pytest.raises(DomainError, match="integer"):
                ExperimentConfig(alphas=(0.0,), ns=(8, bad, 1e9))
        assert ExperimentConfig(alphas=(0.0,), ns=(8, 16.0, 32)).ns[1] == 16
        # the memory guard runs for the largest n
        with pytest.raises(DomainError, match="physical memory"):
            ExperimentConfig(alphas=(0.0,), ns=(64, 128, 200_000))
        # an integer too large for a float reaches the guard too
        with pytest.raises(DomainError, match="physical memory"):
            ExperimentConfig(alphas=(0.0,), ns=(64, 128, 10 ** 400))


def chain_reference(g, z, w):
    """g(z, w) by the map chain in cmath, point by point: the argument in
    [0, 2 pi), the power map, -(u + 1/u), log|p - conj q| - log|p - q|."""
    def image(x, y):
        v = complex(x + g.z0[0], y + g.z0[1])
        u = (abs(v) / g.radius) ** g.c_alpha * cmath.exp(
            1j * g.c_alpha * (cmath.phase(v) % (2 * math.pi)))
        return -(u + 1 / u)
    p = image(*z)
    return np.array([math.log(abs(p - q.conjugate())) - math.log(abs(p - q))
                     for q in (image(int(x), int(y)) for x, y in w)])


class TestRatePoint:
    @pytest.mark.parametrize("alpha", [0.0, 1.0, PI / 2, 2.0, PI])
    def test_region_and_closed_form(self, alpha, monkeypatch):
        # the region is every interior site with hypot(x, y) >= rmin, and
        # the closed form on it is the map chain's
        original, calls = experiments.green_pacman_many, []

        def recorded(g, z, w):
            calls.append((np.array(w), original(g, z, w)))
            return calls[-1][1]

        monkeypatch.setattr(experiments, "green_pacman_many", recorded)
        experiments._rate_point(alpha, 32)
        # the region may span several blocks: their calls, in order
        w = np.concatenate([c[0] for c in calls])
        values = np.concatenate([c[1] for c in calls])
        g = build_geometry(alpha, 32)
        d = build_lattice_domain(g)
        x, y = d.interior.T
        want = d.interior[np.hypot(x, y) >= region_min_radius(g)]
        assert len(w) == len(want)
        assert np.array_equal(w, want)
        ref = chain_reference(g, (0, 0), want)
        assert np.max(np.abs(values - ref)) <= 1e-12


    @pytest.mark.parametrize("alpha", [0.0, PI / 2, PI])
    def test_blocks_match_one_pass(self, alpha):
        # the region spans several blocks; the errors must equal, bit for
        # bit, the formulas over the whole region at once
        g = build_geometry(alpha, 64)
        d = build_lattice_domain(g)
        G = green_solve(d, (0, 0))
        rmin = region_min_radius(g)
        region = np.hypot(*d.interior.T) >= rmin
        w = d.interior[region]
        assert len(w) > 2 * SITE_BLOCK
        diff = G.values[region] - (2 / PI) * green_pacman_many(g, 0j, w)
        err = np.abs(diff)
        corrected = np.abs(diff + kernel_remainder(w[:, 0], w[:, 1]))
        assert experiments._rate_point(alpha, 64) == RatePoint(
            n=64, sup_error=float(err.max()), mean_error=float(err.mean()),
            region_min_radius=rmin,
            corrected_sup_error=float(corrected.max()))


class TestRateSweep:
    def test_small_sweep_structure(self):
        cfg = ExperimentConfig(alphas=(PI,), ns=(8, 12, 16))
        results = rate_sweep(cfg)
        assert len(results) == 1
        res = results[0]
        assert res.c_alpha == 1.0
        assert [p.n for p in res.points] == [8, 12, 16]
        assert all(p.sup_error > 0 for p in res.points)
        assert 0.0 <= res.r_squared <= 1.0

    def test_too_few_scales(self):
        with pytest.raises(FitError):
            rate_sweep(ExperimentConfig(alphas=(PI,), ns=(8, 16)))


class TestExpdiff:
    def test_preconditions(self):
        g = build_geometry(PI, 64)
        cfg = WalkRunConfig(trials=10, seed=1)
        with pytest.raises(DomainError):
            expdiff_estimate(g, (0, 0), 0j, cfg)     # origin is too deep
        zx = (26 - g.z0[0], 4 - g.z0[1])
        far = complex(zx[0] - 80, zx[1])
        with pytest.raises(DomainError):
            expdiff_estimate(g, zx, far, cfg)        # |x - y| too large

    @pytest.mark.parametrize("x", [(26.5, -60), (26.9, -60.9)])
    def test_x_must_be_a_lattice_site(self, x, monkeypatch):
        # refused with the other inputs, before the domain is built
        def build(g):
            raise AssertionError("domain built")
        monkeypatch.setattr(experiments, "build_lattice_domain", build)
        g = build_geometry(PI, 64)
        with pytest.raises(DomainError, match="not a lattice site"):
            expdiff_estimate(g, x, (26, -60), WalkRunConfig(trials=50, seed=5))

    def test_x_takes_the_point_forms_y_takes(self):
        g = build_geometry(PI, 64)
        cfg = WalkRunConfig(trials=50, seed=3)
        assert (expdiff_estimate(g, 26 - 60j, (26, -60), cfg)
                == expdiff_estimate(g, (26, -60), 26 - 60j, cfg))

    def test_same_arc_concentration_scale(self):
        # both starts near bucket 2: the estimate is a few bucket-widths
        # over an O(n) radius, i.e. O(log^2 n / n)
        g = build_geometry(PI, 64)
        zx = (26 - g.z0[0], 4 - g.z0[1])
        est, se = expdiff_estimate(g, zx, complex(*zx),
                                   WalkRunConfig(trials=4000, seed=42))
        scale = g.bucket_width / g.n
        assert est <= 2.0 * scale
        assert est > 0

    def test_clt_scaling(self):
        g = build_geometry(PI, 64)
        zx = (26 - g.z0[0], 4 - g.z0[1])
        _, se1 = expdiff_estimate(g, zx, complex(*zx),
                                  WalkRunConfig(trials=4000, seed=9))
        _, se2 = expdiff_estimate(g, zx, complex(*zx),
                                  WalkRunConfig(trials=8000, seed=9))
        assert se2 / se1 == pytest.approx(1 / math.sqrt(2), rel=0.10)

    def test_bound_shape_across_buckets(self):
        # estimate / (k0^{c-1} n^{-c} log^{c+1} n) lands in [0.01, 100]
        # and is stable within a factor 4 across k0 in {2, 4, 8}
        g = build_geometry(PI, 64)
        L2 = g.bucket_width
        ratios = []
        for k0 in (2, 4, 8):
            rho = min((k0 - 0.5) * L2, 2 * g.n - 3.5)
            zx = (int(round(rho)) - g.z0[0], 4 - g.z0[1])
            _, kk = nearest_boundary(g, zx)
            assert kk == k0
            est, _ = expdiff_estimate(g, zx, complex(*zx),
                                      WalkRunConfig(trials=20000, seed=42))
            ratios.append(est / prop_bound_scale(g, kk))
        assert all(0.01 <= r <= 100 for r in ratios)
        assert max(ratios) / min(ratios) <= 4.0

    def test_prop_bound_scale(self):
        g = build_geometry(PI, 64)
        expected = 64 ** -1.0 * math.log(64) ** 2
        assert prop_bound_scale(g, 3) == pytest.approx(expected, abs=1e-12)
