import math

import numpy as np
import pytest

from pacgreen import (DomainError, ExperimentConfig, FitError, WalkRunConfig,
                      build_geometry, error_field, expdiff_estimate,
                      fit_loglog, nearest_boundary, prop_bound_scale,
                      rate_sweep, region_min_radius)

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


class TestErrorField:
    def test_values_nonnegative_finite(self):
        g = build_geometry(PI, 16)
        F = error_field(g)
        assert np.all(F.values >= 0)
        assert np.all(np.isfinite(F.values))

    def test_origin_ball_excluded(self):
        g = build_geometry(PI, 16)
        rmin = region_min_radius(g)
        assert rmin == pytest.approx((16 / math.log(16) ** 2) ** (g.c_alpha / 2))
        F = error_field(g)
        zc = F.domain.interior[:, 0] + 1j * F.domain.interior[:, 1]
        inside_ball = np.abs(zc) < rmin
        assert np.all(F.values[inside_ball] == 0.0)
        assert F.values[~inside_ball].max() > 0

    def test_sup_decreases_with_n(self):
        sups = []
        for n in (32, 64):
            F = error_field(build_geometry(PI, n))
            sups.append(F.values.max())
        assert sups[1] < sups[0]


class TestExperimentConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            ExperimentConfig(alphas=(), ns=(8, 16, 32))
        with pytest.raises(DomainError):
            ExperimentConfig(alphas=(0.0,), ns=(4, 16, 32))
        with pytest.raises(DomainError):
            ExperimentConfig(alphas=(0.0,), ns=(16, 16, 32))


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
