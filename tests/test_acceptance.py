"""Acceptance suite: one test per criterion, one printed verdict line each.

Criterion 6's rate band is checked on the corrected sup error, with the
n-independent kernel remainder eps(w) = a(w) - (2/pi) log|w| - k0 taken
out exactly.  The raw sup error on the admissible region sits at |w| <= 3,
within 10 % of |eps| there, so its slope records when the innermost
admissible site moves, not the rate; the ordering, monotonicity and
constant-stability checks stay on the raw sup error.
"""

import math
import os
import re
import time

import numpy as np
import pytest

from pacgreen import (ExperimentConfig, K0, WalkRunConfig, bm_arc_measure,
                      build_geometry, build_lattice_domain, cauchy_interval_measure,
                      contains, discrete_arc_measure, green_halfdisk,
                      green_pacman, green_solve, green_via_potential,
                      lattice_domain_from_sites, map_to_halfdisk,
                      potential_asymptotic, potential_exact, rate_sweep,
                      walk_arc_measure)
from pacgreen.potential import potential_exact_many

PI = math.pi
ALPHAS = (0.0, PI / 2, PI)
SEED = 20260808


def report(num, ok, detail):
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def test_criterion_1_oracle_equivalence():
    """green_solve vs green_via_potential within 1e-5 max norm; < 1 min."""
    t0 = time.time()
    worst = 0.0
    for alpha in ALPHAS:
        for n in (8, 16, 32):
            d = build_lattice_domain(build_geometry(alpha, n))
            a = green_solve(d, (0, 0)).values
            b = green_via_potential(d, (0, 0)).values
            worst = max(worst, float(np.max(np.abs(a - b))))
    elapsed = time.time() - t0
    ok = worst <= 1e-5 and elapsed < 60
    assert report(1, ok, f"max |G_solve - G_repr| = {worst:.3e} "
                         f"(tol 1e-5), {elapsed:.1f}s (< 60s)")


def test_criterion_2_hand_computable_cases():
    g = build_geometry(PI, 8)
    single = lattice_domain_from_sites(g, [(0, 0)])
    plus = lattice_domain_from_sites(g, [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)])
    v_single = green_solve(single, (0, 0)).value_at((0, 0))
    v_plus = green_solve(plus, (0, 0)).value_at((0, 0))
    a0 = potential_exact((0, 0))
    a1 = potential_exact((1, 0))
    checks = [
        ("single-site Green = 1", v_single == 1.0),
        ("plus-shape Green = 4/3", abs(v_plus - 4.0 / 3.0) <= 1e-10),
        ("a(0) = 0", a0 == 0.0),
        ("a(1,0) = 1 +- 1e-6", abs(a1 - 1.0) <= 1e-6),
        ("k0 = 1.029374 +- 1e-6", abs(K0 - 1.029374) <= 1e-6),
    ]
    ok = all(flag for _, flag in checks)
    assert report(2, ok, "; ".join(f"{name}: {'ok' if f else 'BAD'}"
                                   for name, f in checks))


def test_criterion_3_walk_vs_exact_harmonic_measure():
    """1e5-trial walk exit law vs Dirichlet indicator rows, 3 SE per arc."""
    t0 = time.time()
    worst_z = 0.0
    for alpha in ALPHAS:
        d = build_lattice_domain(build_geometry(alpha, 16))
        exact = discrete_arc_measure(d, (0, 0)).probabilities
        m = walk_arc_measure(d, (0, 0), WalkRunConfig(trials=100_000, seed=SEED))
        se = np.maximum(m.stderr, 1e-12)
        worst_z = max(worst_z, float(np.max(np.abs(m.probabilities - exact) / se)))
    elapsed = time.time() - t0
    ok = worst_z <= 3.0 and elapsed < 120
    assert report(3, ok, f"worst |z-score| over arcs = {worst_z:.2f} (<= 3), "
                         f"{elapsed:.1f}s (< 120s)")


def test_criterion_4_closed_form_self_consistency():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for alpha in ALPHAS:
        g = build_geometry(alpha, 64)
        pairs = 0
        while pairs < 100:
            z = complex(int(rng.integers(-130, 131)), int(rng.integers(-130, 131)))
            w = complex(int(rng.integers(-130, 131)), int(rng.integers(-130, 131)))
            if z == w or not (contains(g, z) and contains(g, w)):
                continue
            pairs += 1
            chain = green_pacman(g, z, w)
            refl = green_halfdisk(map_to_halfdisk(g, z), map_to_halfdisk(g, w))
            worst = max(worst, abs(chain - refl))
    ok = worst <= 1e-10
    assert report(4, ok, f"max |chain - reflection| over 300 pairs = {worst:.2e} "
                         "(tol 1e-10)")


def test_criterion_5_cauchy_law():
    sums = []
    for alpha in ALPHAS:
        g = build_geometry(alpha, 100)
        sums.append(bm_arc_measure(g, 0j).total)
    sum_dev = max(abs(s - 1.0) for s in sums)
    half = cauchy_interval_measure(1j, -1.0, 1.0)
    ok = sum_dev <= 1e-9 and abs(half - 0.5) <= 1e-12
    assert report(5, ok, f"arc-sum deviation = {sum_dev:.2e} (tol 1e-9); "
                         f"measure([-1,1] from i) = {half!r} (0.5 +- 1e-12)")


@pytest.fixture(scope="module")
def rate_results():
    t0 = time.time()
    cfg = ExperimentConfig(alphas=ALPHAS, ns=(32, 64, 128, 256))
    results = rate_sweep(cfg)
    return {res.alpha: res for res in results}, time.time() - t0


def _check_rate_band(res):
    """Slope of ln(corrected sup err) vs ln(1/n) within [c-0.15, c+0.25].

    The corrected error |G - (2/pi) g + eps| has the kernel remainder eps
    taken out (see module docstring); the raw slope is printed alongside.
    """
    alpha = res.alpha
    lo, hi = res.c_alpha - 0.15, res.c_alpha + 0.25
    ok = lo <= res.corrected_slope <= hi
    report(6, ok, f"alpha={alpha:.4f}: corrected slope="
                  f"{res.corrected_slope:.4f} in [{lo:.2f},{hi:.2f}], "
                  f"raw slope={res.slope:.4f} (corrected sups="
                  f"{[f'{p.corrected_sup_error:.5f}' for p in res.points]})")
    assert ok, (
        f"alpha={alpha}: corrected slope {res.corrected_slope:.4f} outside "
        f"[{lo:.2f}, {hi:.2f}]; corrected sups "
        f"{[p.corrected_sup_error for p in res.points]} at n = "
        f"{[p.n for p in res.points]}")


def readme_slope_table():
    """The README's slope table as {(row, alpha): cell}, the angles of its
    head row read with pi/2 and pi spelled out."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path, encoding="utf-8") as fh:
        table = re.search(r"^\| α \|.*?\n(?!\|)", fh.read(), re.M | re.S)
    rows = [[c.strip() for c in line.strip("|").split("|")]
            for line in table.group().splitlines()]
    angles = [{"π/2": PI / 2, "π": PI}.get(c) or float(c) for c in rows[0][1:]]
    return {(row[0], a): c for row in rows[2:] for a, c in zip(angles, row[1:])}


def _check_readme_column(res):
    """The README quotes c_alpha and both slopes to the decimals shown."""
    table = readme_slope_table()
    quoted = [table[row, res.alpha]
              for row in ("c_α", "raw slope", "corrected slope")]
    assert quoted == [f"{v:.3f}" for v in
                      (res.c_alpha, res.slope, res.corrected_slope)]


@pytest.mark.parametrize("alpha", ALPHAS)
def test_criterion_6_rate_band(rate_results, alpha):
    results, _ = rate_results
    _check_rate_band(results[alpha])


def test_readme_slope_table(rate_results):
    results, _ = rate_results
    for res in results.values():
        _check_readme_column(res)


# Off the special angles: the three unaligned angles with the least room
# above the band's lower edge, +0.10 to +0.11, in a scan of 17 evenly
# spaced angles; only alpha = pi has less
@pytest.mark.parametrize("alpha", [0.982, 1.767, 2.945])
def test_criterion_6_rate_band_off_the_special_angles(alpha):
    res, = rate_sweep(ExperimentConfig(alphas=(alpha,), ns=(32, 64, 128, 256)))
    _check_rate_band(res)
    _check_readme_column(res)


def test_criterion_6_ordering_and_runtime(rate_results):
    """Slopes strictly increasing in alpha; sweep well under 15 minutes."""
    results, elapsed = rate_results
    slopes = [results[a].slope for a in ALPHAS]
    ordered = slopes[0] < slopes[1] < slopes[2]
    ok = ordered and elapsed < 900
    assert report(6, ok, f"slopes={[f'{s:.3f}' for s in slopes]} strictly "
                         f"increasing={ordered}; sweep {elapsed:.0f}s (< 900s)")


def test_rate_sweep_monotone_improvement(rate_results):
    """Per alpha, sup error is nonincreasing in n up to one <= 20% inversion."""
    results, _ = rate_results
    for alpha, res in results.items():
        sups = [p.sup_error for p in res.points]
        inversions = [(b - a) / a for a, b in zip(sups, sups[1:]) if b > a]
        assert len(inversions) <= 1, f"alpha={alpha}: {sups}"
        assert all(x <= 0.20 for x in inversions), f"alpha={alpha}: {sups}"


def test_rate_sweep_constant_stability(rate_results):
    """sup error <= C (ln^2 n / n)^{c_alpha} with C stable within factor 4."""
    results, _ = rate_results
    for alpha, res in results.items():
        consts = [p.sup_error / (math.log(p.n) ** 2 / p.n) ** res.c_alpha
                  for p in res.points]
        assert max(consts) / min(consts) <= 4.0, f"alpha={alpha}: {consts}"


def _arc_tail_bound(g, k0, k):
    c = g.c_alpha
    return (k0 * k) ** (c - 1.0) / ((k ** c - k0 ** c) ** 2
                                    * math.log(g.n) ** c)


def test_criterion_7_arc_bound_shape_checks():
    """C(k) = measured(k)/bound(k) varies by <= 4 over admissible k
    (|k - k0| >= 2, excluding the terminal circular-arc bucket)."""
    n, k0 = 64, 2
    spreads = []
    for alpha in (0.0, PI):
        g = build_geometry(alpha, n)
        x = (26 - g.z0[0], 4 - g.z0[1])      # w-frame (26, 4): d = 4, arc 2
        admissible = [k for k in range(1, g.N + 1)
                      if abs(k - k0) >= 2 and k < g.N]
        exact = bm_arc_measure(g, complex(*x)).probabilities
        cb = [exact[k - 1] / _arc_tail_bound(g, k0, k) for k in admissible]
        d = build_lattice_domain(g)
        walk = walk_arc_measure(d, x, WalkRunConfig(trials=100_000, seed=SEED))
        cw = [walk.probabilities[k - 1] / _arc_tail_bound(g, k0, k)
              for k in admissible]
        spreads.append((alpha, max(cb) / min(cb), max(cw) / min(cw)))
    ok = all(sb <= 4.0 and sw <= 4.0 for _, sb, sw in spreads)
    assert report(7, ok, "; ".join(
        f"alpha={a:.2f}: BM spread {sb:.2f}, walk spread {sw:.2f} (<= 4)"
        for a, sb, sw in spreads))


def test_criterion_8_asymptotic_remainder():
    """|a_exact - a_asymptotic| * |x|^2 bounded by 1 over 10 <= |x| <= 64."""
    pts = [(x, y) for x in range(0, 65) for y in range(0, x + 1)
           if 100 <= x * x + y * y <= 64 * 64]
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    exact = potential_exact_many(xs, ys)
    r = np.hypot(xs, ys)
    asym = (2.0 / PI) * np.log(r) + K0
    worst = float(np.max(np.abs(exact - asym) * r ** 2))
    ok = worst <= 1.0
    assert report(8, ok, f"max |a - asym|*|x|^2 = {worst:.4f} over "
                         f"{len(pts)} octant points (<= 1)")
