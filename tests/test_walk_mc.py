import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from bisect import bisect_right

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.ndimage import distance_transform_cdt
from scipy.sparse.linalg import spsolve

from pacgreen import (ArcMeasure, DomainError, StepBudgetError, WalkRunConfig,
                      bm_arc_measure, build_geometry, build_lattice_domain,
                      dirichlet_solve, discrete_arc_measure, green_mc,
                      green_solve, lattice_domain_from_sites, mean_exit_steps,
                      simulate_exit, trial_rng, walk_arc_measure)
from pacgreen import walk_mc
from pacgreen.green_discrete import _exit_weights
from pacgreen.walk_mc import (_MASK64, _draws, _jump_tables, _philox,
                              _run_trials, _simulate, _square_law,
                              _square_radius, sample_exits)

PI = math.pi


def jump_kernel(d):
    """The engine's jump kernel, read from its tables, as a sparse matrix
    from interior sites to interior sites then boundary sites."""
    t = _jump_tables(d)
    levels, laws = t.levels, t.laws
    M = d.interior_count
    P = d.flat(d.interior)
    code = levels[P]
    rows, cols, vals = [], [], []
    for c in np.unique(code):
        offs, cum, _ = laws[c]
        side = 0.25 * np.diff(cum, prepend=0.0, append=1.0)
        i = np.nonzero(code == c)[0]
        targets = P[i][:, None] + np.ravel(offs)[None, :]
        rows.append(np.repeat(i, targets.shape[1]))
        cols.append(d.grid[targets].ravel())
        vals.append(np.tile(side, 4 * i.size))
    cols = np.concatenate(cols)
    assert np.all(cols >= 0), "a jump lands off the interior and boundary"
    return sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), cols)),
                         shape=(M, M + d.boundary_count))


def jump_defect(d):
    """max over arcs k and interior x of |h_k(x) - sum_y K(x, y) h_k(y)|,
    h_k the discrete-harmonic extension of the indicator of arc k."""
    K = jump_kernel(d)
    worst = 0.0
    for k in range(1, d.geometry.N + 1):
        hb = (d.boundary_arc == k).astype(np.float64)
        h = dirichlet_solve(d, hb).values
        worst = max(worst, float(np.max(np.abs(h - K @ np.concatenate([h, hb])))))
    return worst


def replay(d, start, count_site, seed, trials):
    """The walk on squares trial by trial, each from its own ``trial_rng``
    stream, on the engine's tables: the reference ``_run_trials`` equals."""
    t, W = _jump_tables(d), d.stride
    levels, laws = t.levels, t.laws
    q = None if count_site is None else int(d.flat(count_site))
    rows = []
    for i in range(trials):
        rng, p, vis, tim = trial_rng(seed, i), int(d.flat(start)), 0.0, 0.0
        while code := int(levels[p]):
            offs, cum, mean_time = laws[code]
            r = _square_radius(code)
            u = 4.0 * rng.random()
            tim += mean_time
            if q is not None:
                dy, dx = q // W - p // W + r, q % W - p % W + r
                if 0 <= dx <= 2 * r and 0 <= dy <= 2 * r:
                    vis += float(_square_law(r)[2][dy, dx])
            side = int(u)
            p += int(offs[side][bisect_right(cum, u - side)])
        rows.append((p, vis, tim))
    ends, visits, times = map(np.array, zip(*rows))
    return d.unflat(ends), visits, times


def same_bits(a, b):
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


@pytest.fixture(scope="module")
def single_domain():
    return lattice_domain_from_sites(build_geometry(PI, 8), [(0, 0)])


@pytest.fixture(scope="module")
def plus_domain():
    g = build_geometry(PI, 8)
    return lattice_domain_from_sites(g, [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)])


@pytest.fixture(scope="module")
def pacman16():
    return build_lattice_domain(build_geometry(PI, 16))


class TestSimulateExit:
    def test_single_site_exits_in_one_step(self, single_domain):
        for trial in range(20):
            exit_site, visits, steps = simulate_exit(single_domain, (0, 0),
                                                     trial_rng(9, trial))
            assert steps == 1
            assert visits == 1
            assert abs(exit_site[0]) + abs(exit_site[1]) == 1

    def test_exit_site_is_boundary(self, pacman16):
        for trial in range(30):
            exit_site, _, _ = simulate_exit(pacman16, (0, 0), trial_rng(4, trial))
            assert pacman16.boundary_index(exit_site) >= 0
            assert pacman16.interior_index(exit_site) < 0

    def test_exit_law_matches_solver(self, plus_domain):
        # the stepwise reference against the exact law B^T G per boundary site
        d = plus_domain
        exact = _exit_weights(d, (0, 0))
        trials = 4000
        counts = np.zeros(d.boundary_count)
        for t in range(trials):
            exit_site, _, _ = simulate_exit(d, (0, 0), trial_rng(12, t))
            counts[d.boundary_index(exit_site)] += 1
        se = np.sqrt(exact * (1 - exact) / trials)
        assert np.all(np.abs(counts / trials - exact) <= 4 * se)

    def test_deterministic_per_stream(self, pacman16):
        a = simulate_exit(pacman16, (0, 0), trial_rng(7, 3))
        b = simulate_exit(pacman16, (0, 0), trial_rng(7, 3))
        assert a == b

    def test_budget_exhaustion(self, pacman16):
        with pytest.raises(StepBudgetError):
            _simulate(pacman16, (0, 0), (0, 0), trial_rng(1, 0), 3)

    def test_start_must_be_interior(self, pacman16):
        with pytest.raises(DomainError):
            simulate_exit(pacman16, (999, 999), trial_rng(0, 0))


class TestWalkArcMeasure:
    def test_probabilities_sum_exactly_one(self, pacman16):
        m = walk_arc_measure(pacman16, (0, 0), WalkRunConfig(trials=500, seed=2))
        assert m.probabilities.sum() == 1.0
        assert m.counts.sum() == 500
        assert np.all(m.stderr >= 0)

    def test_bit_identical_on_repeat(self, pacman16):
        cfg = WalkRunConfig(trials=400, seed=123)
        a = walk_arc_measure(pacman16, (0, 0), cfg)
        b = walk_arc_measure(pacman16, (0, 0), cfg)
        assert np.array_equal(a.counts, b.counts)
        assert np.array_equal(a.probabilities, b.probabilities)

    def test_trial_streams_replay_as_a_prefix(self, pacman16):
        # trial i draws only from stream (seed, i): a longer run repeats
        # every exit, visit sum and exit time of a shorter one, also when
        # the shorter one draws many blocks ahead
        long = _run_trials(pacman16, (3, -2), (0, 0),
                           WalkRunConfig(trials=600, seed=55), times=True)
        for k in (7, 300):
            short = _run_trials(pacman16, (3, -2), (0, 0),
                                WalkRunConfig(trials=k, seed=55), times=True)
            for a, b in zip(long, short):
                assert same_bits(a[:k], b)

    def test_matches_exact_harmonic_measure(self, pacman16):
        # exact-oracle check at module scale; the acceptance suite runs the
        # full three-alpha version at 1e5 trials
        exact = discrete_arc_measure(pacman16, (0, 0)).probabilities
        m = walk_arc_measure(pacman16, (0, 0), WalkRunConfig(trials=20000, seed=20260808))
        for k in range(pacman16.geometry.N):
            se = max(m.stderr[k], 1e-12)
            assert abs(m.probabilities[k] - exact[k]) <= 3 * se

    def test_close_to_brownian_exit_law(self):
        # invariance-principle closeness at n = 64: total-variation gap to
        # the exact Brownian arc measure (measured ~0.012, band 0.05)
        g = build_geometry(PI, 64)
        d = build_lattice_domain(g)
        bm = bm_arc_measure(g, 0j).probabilities
        m = walk_arc_measure(d, (0, 0),
                             WalkRunConfig(trials=100_000, seed=20260808))
        tv = 0.5 * float(np.abs(m.probabilities - bm).sum())
        assert tv <= 0.05


class TestJumpEngine:
    """Deterministic checks of the walk-on-squares tables; no Monte Carlo."""

    @pytest.mark.parametrize("alpha, n", [(0.0, 8), (PI / 4, 16), (PI / 2, 12),
                                          (1.0, 20), (PI, 24)])
    def test_arc_harmonic_measures_are_jump_harmonic(self, alpha, n):
        # exact iff every table, square radius and ring is right
        d = build_lattice_domain(build_geometry(alpha, n))
        assert jump_defect(d) <= 1e-9

    @settings(max_examples=10, deadline=None)
    @given(alpha=st.floats(0.0, PI), n=st.integers(8, 20))
    def test_jump_harmonic_at_any_angle(self, alpha, n):
        assert jump_defect(build_lattice_domain(build_geometry(alpha, n))) <= 1e-9

    @pytest.mark.parametrize("h", [0, 1, 2, 4, 8])
    def test_square_law(self, h):
        cum, mean_time, G = _square_law(h)
        if h == 0:
            # one step, exactly: the series would give 1 - 1 ulp
            assert same_bits(G, np.ones((1, 1)))
            assert cum.size == 0
            assert mean_time == 1.0
        side = G[:, -1]
        assert abs(side.sum() - 1.0) <= 1e-12     # four sides of G / 4
        for other in (G[:, 0], G[0, :], G[-1, :]):
            assert np.allclose(other, side, rtol=0, atol=1e-15)
        # on a (2h + 1)^2 square domain the solver gives the same exit law
        # B^T G as the engine's jump from the centre, and the same mean
        # exit time sum(G)
        g = build_geometry(PI, 8)
        d = lattice_domain_from_sites(
            g, [(x, y) for x in range(-h, h + 1) for y in range(-h, h + 1)])
        levels = _jump_tables(d).levels
        assert _square_radius(int(levels[d.flat((0, 0))])) == h
        row = jump_kernel(d)[d.interior_index((0, 0))].toarray().ravel()
        G_solve = green_solve(d, (0, 0)).values
        exact = _exit_weights(d, (0, 0))
        assert not row[:d.interior_count].any()
        assert np.max(np.abs(row[d.interior_count:] - exact)) <= 1e-9
        # the mean exit time against an exact solve; CG's sum is off it by
        # tau^T r, for its residual r = e - A G and the exit times tau,
        # A tau = 1, so within |tau|^T |r|, plus the rounding of the sums
        m = 2 * h + 1
        T = sp.diags([np.ones(m - 1), np.ones(m - 1)], [-1, 1])
        A = (sp.identity(m * m) - 0.25 * (sp.kron(T, sp.identity(m))
                                          + sp.kron(sp.identity(m), T))).tocsc()
        e = np.zeros(m * m)
        e[d.interior_index((0, 0))] = 1.0
        G_exact = spsolve(A, e).sum()
        tau = spsolve(A, np.ones(m * m))
        assert mean_time == pytest.approx(G_exact, abs=1e-12)
        assert (abs(G_solve.sum() - G_exact)
                <= np.abs(tau) @ np.abs(e - A @ G_solve) + 1e-12)

    def test_square_law_ignores_blas_threads(self):
        # einsum sums the series in numpy's own loops; at this radius a
        # BLAS matrix product changes bits between one and two threads
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        code = ("import sys\n"
                "from pacgreen.walk_mc import _square_law\n"
                "cum, _, G = _square_law(64)\n"
                "sys.stdout.write((G.tobytes() + cum.tobytes()).hex())")
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

    @pytest.mark.parametrize("alpha", [0.0, 1.0, PI / 2, PI])
    @pytest.mark.parametrize("n", [8, 33, 64])
    def test_levels_follow_the_chessboard_distance(self, alpha, n):
        d = build_lattice_domain(build_geometry(alpha, n))
        interior = d.interior_mask
        levels = _jump_tables(d).levels
        # largest interior square radius h, rounded down to a power of two
        h = distance_transform_cdt(interior, metric="chessboard") - 1
        expected = np.where(h > 0, np.floor(np.log2(np.maximum(h, 1))) + 2, 1)
        assert np.array_equal(levels, np.where(interior, expected, 0).ravel())

    def test_budget_exhaustion(self, pacman16, single_domain, monkeypatch):
        # one jump from the centre cannot leave the domain
        monkeypatch.setattr(walk_mc, "_budget", lambda n: 1)
        cfg = WalkRunConfig(trials=5, seed=1)
        with pytest.raises(StepBudgetError):
            _run_trials(pacman16, (0, 0), None, cfg)
        # from a lone site every trial exits at its first jump: a budget of
        # one jump is enough, and of none is not
        _run_trials(single_domain, (0, 0), None, cfg)
        monkeypatch.setattr(walk_mc, "_budget", lambda n: 0)
        with pytest.raises(StepBudgetError):
            _run_trials(single_domain, (0, 0), None, cfg)

    @pytest.mark.parametrize("domain, start, count_site, seed", [
        ("pacman16", (0, 0), None, 4), ("pacman16", (0, 0), (0, 0), -5),
        ("pacman16", (9, -11), (2, 1), 2**64 - 1),
        ("plus_domain", (0, 0), (0, 0), 77), ("plus_domain", (1, 0), (0, 0), 77)])
    @pytest.mark.parametrize("trials", [3, 100, 400, 1000])
    def test_lockstep_equals_scalar_replay(self, request, domain, start,
                                           count_site, seed, trials):
        # 3 and 100 trials fill the draw buffer many blocks ahead, and
        # refill it after trials exit; 1000 trials from pacman16's centre
        # run past 32 rounds, through refills capped at one block a trial
        # and refills grown to the rounds already run
        d = request.getfixturevalue(domain)
        got = _run_trials(d, start, count_site, WalkRunConfig(trials, seed),
                          times=True)
        for a, b in zip(got, replay(d, start, count_site, seed, trials)):
            assert same_bits(a, b)

    def test_refills_grow_with_the_run(self, monkeypatch):
        # every refill continues the last one and gives each of the L live
        # trials max(ceil(_BATCH / L), min(j // 4, trials // L)) blocks
        d = build_lattice_domain(build_geometry(PI, 64))
        trials, calls = 2000, []

        def spy(seed, streams, first, blocks):
            calls.append((first, blocks, streams.size))
            return _draws(seed, streams, first, blocks)

        monkeypatch.setattr(walk_mc, "_draws", spy)
        sample_exits(d, (0, 0), WalkRunConfig(trials, 0))
        assert calls[0][0] == 0
        for (f0, b0, _), (f1, _, _) in zip(calls, calls[1:]):
            assert f1 == f0 + b0
        for first, blocks, live in calls:
            assert blocks == max(-(-walk_mc._BATCH // live),
                                 min(first, trials // live))
            assert blocks * live <= max(walk_mc._BATCH, trials)
        # O(log J) evaluations for J rounds: the last refill starts at round
        # 4 f < J; one refill every 4 rounds makes 13 evaluations here
        assert len(calls) <= 2 + math.ceil(math.log2(4 * calls[-1][0]))

    def test_guide_steps_over_several_keys_a_bucket(self, monkeypatch):
        # past n = 128 the guide's buckets are capped and hold several keys
        monkeypatch.setattr(walk_mc, "_GUIDE_BITS", 4)
        k = walk_mc._key_table.__wrapped__(8)
        assert k.passes > 1
        v = np.concatenate([k.keys - np.uint64(1), k.keys, k.keys + np.uint64(1)])
        v = v[v < np.uint64(8 << 53)]
        assert np.array_equal(k.bisect(v), k.keys.searchsorted(v, side="right"))

    def test_key_table_is_shared_per_code_count(self):
        a, b = (_jump_tables(build_lattice_domain(build_geometry(alpha, 64)))
                for alpha in (1.0, PI))
        assert len(a.laws) == len(b.laws)
        assert a.keys is b.keys
        assert not a.keys.keys.flags.writeable
        assert not a.keys.guide.flags.writeable

    @pytest.mark.parametrize("n", [8, 64])
    def test_key_table_bisects_like_the_doubles(self, n):
        # at and next to every threshold, the integer key of a draw lands
        # on the offset that 4u, its side and bisect_right(cum) pick
        d = build_lattice_domain(build_geometry(PI, n))
        t = _jump_tables(d)
        # code 0, off the interior, absorbs: every draw stays put (the
        # loop below also runs code 0, at the ends of each side)
        u53 = np.arange(0, 2**53, 2**45 - 1, dtype=np.uint64)
        assert not t.offs[t.keys.bisect(u53)].any()
        for c in range(len(t.laws)):
            offs, cum, _ = t.laws[c]
            edge = np.ceil(np.asarray(cum) * 2.0**51).astype(np.int64)
            m = np.unique(np.clip(np.concatenate(
                [edge - 1, edge, edge + 1, [0, 2**51 - 1]]), 0, 2**51 - 1))
            for side in range(4):
                u53 = (np.uint64(side << 51) + m.astype(np.uint64))
                got = t.offs[t.keys.bisect(np.uint64(c << 53) | u53)]
                u = 4.0 * (u53.astype(np.float64) * 2.0**-53)
                want = [offs[int(v)][bisect_right(cum, v - int(v))] for v in u]
                assert np.array_equal(got, want)
        # the guide's lookup is numpy's bisection, at and next to every key
        # and every bucket start
        k = t.keys
        edges = np.concatenate([k.keys, np.arange(k.guide.size,
                                                  dtype=np.uint64) << k.shift])
        v = np.concatenate([edges - np.uint64(1), edges, edges + np.uint64(1)])
        v = v[v < np.uint64(len(t.laws) << 53)]
        assert np.array_equal(k.bisect(v), k.keys.searchsorted(v, side="right"))

    def test_mean_exit_steps_vs_solver(self):
        # E_0[T] = sum_w G(0, w)
        d = build_lattice_domain(build_geometry(PI, 8))
        exact = green_solve(d, (0, 0)).values.sum()
        est, se = mean_exit_steps(d, (0, 0), WalkRunConfig(trials=20000, seed=31))
        assert abs(est - exact) <= 3 * se


class TestGreenMc:
    def test_single_site(self, single_domain):
        est, se = green_mc(single_domain, (0, 0), WalkRunConfig(trials=200, seed=5))
        assert est == 1.0
        assert se == 0.0

    def test_plus_shape(self, plus_domain):
        est, se = green_mc(plus_domain, (0, 0), WalkRunConfig(trials=20000, seed=31))
        assert abs(est - 4.0 / 3.0) <= 3 * se

    def test_pacman_vs_solver(self):
        d = build_lattice_domain(build_geometry(PI, 8))
        exact = green_solve(d, (0, 0)).value_at((0, 0))
        est, se = green_mc(d, (0, 0), WalkRunConfig(trials=20000, seed=31))
        assert abs(est - exact) <= 3 * se

    def test_off_source_start(self, plus_domain):
        # G(start, w) with start != w: visits to w from a neighbor
        est, se = green_mc(plus_domain, (0, 0), WalkRunConfig(trials=20000, seed=77),
                           start=(1, 0))
        exact = green_solve(plus_domain, (0, 0)).value_at((1, 0))
        assert abs(est - exact) <= 3 * se


class TestScaling:
    def test_mean_steps_quadratic_in_n(self):
        means = []
        for n in (8, 16, 32):
            d = build_lattice_domain(build_geometry(PI, n))
            m, _ = mean_exit_steps(d, (0, 0), WalkRunConfig(trials=3000, seed=5))
            means.append(m)
        for a, b in zip(means, means[1:]):
            assert 2.5 <= b / a <= 6.0


class TestConfig:
    def test_trials_positive(self):
        with pytest.raises(DomainError):
            WalkRunConfig(trials=0, seed=1)

    def test_trials_over_physical_memory(self):
        # 10^12 trials at about 207 bytes each need about 188 TiB; the
        # config must refuse before any walk state is allocated
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="physical memory"):
                WalkRunConfig(trials=10 ** 12, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


class TestArcMeasureType:
    def test_validation(self):
        with pytest.raises(DomainError):
            ArcMeasure(probabilities=np.array([0.5, 0.7]))
        with pytest.raises(DomainError):
            ArcMeasure(probabilities=np.array([-0.1, 0.5]))
        m = ArcMeasure(probabilities=np.array([0.25, 0.75]))
        assert m.total == 1.0

    @pytest.mark.parametrize("seed", [0, -5, 2**63 + 7, 2**64 - 1])
    def test_block_function_is_numpy_philox(self, seed):
        # 70 doubles cross the 4-word block and the old 32-draw chunk
        streams = np.arange(300)
        ours = _draws(seed, streams, 0, 18).astype(np.float64) * 2.0**-53
        words = np.stack(_philox(np.full(1, 1, dtype=np.uint64),
                                 np.full(1, seed & _MASK64, dtype=np.uint64),
                                 streams.astype(np.uint64)))
        for i in range(300):
            assert same_bits(ours[:70, i], trial_rng(seed, i).random(70))
            raw = trial_rng(seed, i).bit_generator.random_raw(4)
            assert same_bits(words[:, i], raw)
        # a buffer that starts at a later block holds the same draws
        assert same_bits(_draws(seed, streams[5:9], 7, 3),
                         _draws(seed, streams, 0, 10)[28:, 5:9])

    def test_stream_separation(self):
        a = trial_rng(0, 1).integers(0, 4, size=32)
        b = trial_rng(0, 2).integers(0, 4, size=32)
        c = trial_rng(0, 1).integers(0, 4, size=32)
        assert np.array_equal(a, c)
        assert not np.array_equal(a, b)


class TestPointForms:
    """Every front end takes a site in each form ``require_interior`` does,
    and rejects a point off the lattice instead of rounding it to a site."""

    FRONT_ENDS = {
        "simulate_exit": lambda d, x: simulate_exit(d, x, trial_rng(3, 0)),
        "green_mc": lambda d, x: green_mc(d, x, WalkRunConfig(50, 3)),
        "green_mc_start": lambda d, x: green_mc(d, (1, 0), WalkRunConfig(50, 3),
                                                start=x),
        "mean_exit_steps": lambda d, x: mean_exit_steps(d, x,
                                                        WalkRunConfig(50, 3)),
        "walk_arc_measure": lambda d, x: walk_arc_measure(
            d, x, WalkRunConfig(50, 3)).counts.tolist(),
        "sample_exits": lambda d, x: sample_exits(
            d, x, WalkRunConfig(50, 3)).tolist(),
    }

    @pytest.mark.parametrize("front_end", sorted(FRONT_ENDS))
    def test_point_forms_agree(self, front_end):
        d = build_lattice_domain(build_geometry(PI, 8))
        run = self.FRONT_ENDS[front_end]
        row = d.interior[d.interior_index((0, 0))]
        expected = run(d, (0, 0))
        for x in (0j, row, np.array([0.0, 0.0])):
            assert run(d, x) == expected
        one = run(d, (1, 0))
        for x in ((1.0, 0.0), 1 + 0j, d.interior[d.interior_index((1, 0))]):
            assert run(d, x) == one
        for x in ((0.5, 0), (-0.7, 0), 0.9 + 0.9j, (0.5, -0.5), (np.inf, 0)):
            with pytest.raises(DomainError):
                run(d, x)


class TestPinnedOutputs:
    """The walk's output bytes on pacman16, as sha256 digests recorded
    before the site grid became y-major.  A change that keeps the exit law
    but moves draws to other sites (a rotated side order, a transposed
    table) passes every statistical test and fails here."""

    # seed: (sample_exits exits, green_mc (mean, stderr), simulate_exit
    # exits, mean_exit_steps (mean, stderr))
    DIGESTS = {
        0: ("8eedb19524e299c3f832328960830f79aee50008495fb73cbee2bfabe3100941",
            "c7c4ac1bd08513780f527a18e7515e08e19fac8bdf47c2e8fbd0d0193bef99d4",
            "71ab6223f065f1420d40a92737e30cfd75191a749b9ab5977e05687050ee8d15",
            "e054c02ecf908e102ec5bb0de2d68e1103ce02297807c1f4365ad6e36d6a155e"),
        20261019: (
            "c68572fcc8fd3aeb7f910358eaae225fd5e5a6c4fec21b889d52e115ebe1bf51",
            "e65179335b52d1a2d86a5457a10bd2289391e4d9055c92a1562ddcec148a740d",
            "00c7a1e00d6c125857f9311d5c99365beed64d809a9d80024b3227144cfab4fd",
            "0810710df703bd53ee1aa4ada28086061871ef5afdab664c42849113652036d5"),
    }

    @pytest.mark.parametrize("seed", sorted(DIGESTS))
    def test_bytes_are_pinned(self, pacman16, seed):
        cfg = WalkRunConfig(trials=200, seed=seed)
        outputs = (
            sample_exits(pacman16, (0, 0), cfg),
            np.array(green_mc(pacman16, (0, 0), cfg)),
            np.array([simulate_exit(pacman16, (0, 0), trial_rng(seed, i))[0]
                      for i in range(50)]),
            np.array(mean_exit_steps(pacman16, (0, 0), cfg)))
        digests = tuple(hashlib.sha256(a.tobytes()).hexdigest()
                        for a in outputs)
        assert digests == self.DIGESTS[seed]
