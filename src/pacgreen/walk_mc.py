"""Monte Carlo simple-random-walk engine.

Each trial consumes its own counter-based Philox stream keyed by
(seed, trial index), so trials are reproducible individually and the
aggregate does not depend on execution order or on the trial count.

Trials run on squares (Muller, Ann. Math. Stat. 1956), exactly on the
lattice: from an interior site whose l-infinity ball of radius r >= 0 is
interior (r a power of two, or 0), the walk is stopped on leaving the
(2r + 1)^2 square around it; by the strong Markov property the site it
stops at has the square's exit law from its centre, G_box / 4 on the
row next to each side, so one draw replaces the whole sojourn.  Visit
counts and exit times are Rao-Blackwellized: each sojourn adds its
expectation, G_box(centre, w) or sum(G_box), in place of its realisation.

All trials of a run jump in lockstep, one round per jump, so a round
costs a few numpy calls however many trials it moves.  Uniform j
of trial i is word j mod 4 of the Philox4x64-10 block (Salmon et al.,
SC'11) with key (seed, i) and counter j // 4 + 1, so one numpy evaluation
of the block function fills the draws of every trial still inside for
the next rounds, and each trial draws bit for bit the doubles
``trial_rng(seed, i).random()`` gives.  The side and site of a jump are
read off the draw's integer bits through one key table for all levels.
Cells off the interior have a level of their own whose every jump stays
put, so a trial that exits waits in place, adding nothing, until the
draw buffer next refills; only then are exited trials collected.  A run
adds up only the sums its front end returns.  ``simulate_exit`` keeps
the stepwise walk as the reference.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .domain import (ArcMeasure, LatticeDomain, arc_index_of_radius,
                     require_bytes)
from .errors import DomainError, StepBudgetError

_MASK64 = (1 << 64) - 1
_CHUNK0 = 1024
_CHUNK_MAX = 32768

# Bytes of walk state per trial: a run holds every live trial's state at
# once, unchunked.  The largest tracemalloc peak of the four front ends at
# alpha = pi, n = 64, 60 000 trials from (0, 0) or (26, -60), is green_mc's
# from (0, 0): 234 a trial (14.0 MB).
_BYTES_PER_TRIAL = 234


@dataclass(frozen=True)
class WalkRunConfig:
    """Trial count and stream seed.  DomainError, before anything is
    allocated, for a count whose walk state would not fit in memory."""

    trials: int
    seed: int

    def __post_init__(self):
        if self.trials < 1:
            raise DomainError("trials must be positive")
        require_bytes(_BYTES_PER_TRIAL * int(self.trials),
                      f"a walk of {self.trials} trials")


def trial_rng(seed: int, stream: int) -> np.random.Generator:
    """Philox generator for one (seed, stream) pair."""
    key = np.array([seed & _MASK64, stream & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# Philox4x64-10 (Salmon et al., SC'11): multipliers and key increments,
# paired for words (0, 2) of the block
_PHILOX_M = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], dtype=np.uint64)
_PHILOX_W = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64)
# 0-d arrays: numpy converts a Python int operand on every call
_LOW32 = np.array(0xFFFFFFFF, dtype=np.uint64)
_SHIFT32 = np.array(32, dtype=np.uint64)

# A round takes its uniform from a buffer of draws that one block-function
# evaluation fills for every trial still inside.  The evaluation costs
# about 180 numpy calls whatever its size, so it covers at least _BATCH
# (trial, block) pairs: the next block of every trial when many are
# inside, many blocks ahead when few are.
_BATCH = 256


def _philox(c0, k0, k1):
    """Philox4x64-10 blocks for counters (c0, 0, 0, 0) and keys (k0, k1).

    Arguments are uint64 arrays that broadcast together (never numpy
    scalars, whose overflow warns); returns the four words of each block.
    Words 0 and 2 go through the multipliers side by side, as one array.
    """
    shape = np.broadcast_shapes(c0.shape, k0.shape, k1.shape)
    col = (2,) + (1,) * len(shape)
    m, w = _PHILOX_M.reshape(col), _PHILOX_W.reshape(col)
    m0, m1 = m & _LOW32, m >> _SHIFT32
    x = np.zeros((2,) + shape, dtype=np.uint64)      # words 0 and 2
    x[0] = c0
    y = np.zeros_like(x)                             # words 1 and 3
    k = np.empty_like(x)
    k[0], k[1] = k0, k1
    for rnd in range(10):
        if rnd:
            k += w
        # numpy has no 128-bit product: with x = a + 2^32 b and
        # m = m0 + 2^32 m1, the high word of x * m is summed from 32-bit
        # products, none of whose partial sums overflows.  The arrays are
        # updated in place, so few stay alive at once.
        a, b = x & _LOW32, x >> _SHIFT32
        x *= m                              # the low word
        t = a * m0
        t >>= _SHIFT32
        t += b * m0
        a *= m1
        a += t & _LOW32
        a >>= _SHIFT32
        t >>= _SHIFT32
        b *= m1
        b += t
        b += a                              # the high word
        # words (x0, x1, x2, x3) become
        # (hi(x2) ^ x1 ^ k0, lo(x2), hi(x0) ^ x3 ^ k1, lo(x0))
        b ^= y[::-1]
        b ^= k[::-1]
        x, y = b[::-1], x[::-1]
    return x[0], y[0], x[1], y[1]


def _draws(seed, streams, first, blocks):
    """Doubles 4 first .. 4 (first + blocks) - 1 of the streams
    ``trial_rng(seed, s)`` for s in ``streams``, times 2^53, as uint64
    integers in a (4 blocks, len(streams)) array.

    numpy's Philox starts at counter 0 and increments it before each
    block, and a double is the top 53 bits of one word times 2^-53.
    """
    c0 = np.arange(first + 1, first + blocks + 1, dtype=np.uint64)[:, None]
    k0 = np.full(1, seed & _MASK64, dtype=np.uint64)
    words = np.stack(_philox(c0, k0, streams.astype(np.uint64)), axis=1)
    return words.reshape(4 * blocks, -1) >> 11


def mean_stderr(values: np.ndarray) -> tuple[float, float]:
    """Sample mean and its standard error (0 for a single value)."""
    n = len(values)
    se = values.std(ddof=1) / math.sqrt(n) if n > 1 else 0.0
    return float(values.mean()), float(se)


def _budget(n: int) -> int:
    """Per-trial step budget: 100 times (2n)^2, the mean exit time from
    the centre of the disk of radius 2n."""
    return 100 * (2 * n) ** 2


def _simulate(d: LatticeDomain, start, count_site, rng, max_steps):
    inside = d.interior_mask.ravel()
    steps = np.array([1, -1, d.stride, -d.stride], dtype=np.int64)
    p, q = int(d.flat(start)), int(d.flat(count_site))
    visits = 1 if p == q else 0
    done = 0
    chunk = _CHUNK0
    while done < max_steps:
        m = min(chunk, max_steps - done)
        draws = rng.integers(0, 4, size=m)
        ps = p + np.cumsum(steps[draws])
        # positions past the first exit may leave the grid; clipping keeps
        # them on it, and the first exit is the only one read
        hit = np.nonzero(~inside[np.clip(ps, 0, inside.size - 1)])[0]
        if hit.size:
            j = int(hit[0])
            visits += int(np.count_nonzero(ps[:j] == q))
            return tuple(d.unflat(ps[j]).tolist()), visits, done + j + 1
        visits += int(np.count_nonzero(ps == q))
        p = int(ps[-1])
        done += m
        chunk = min(chunk * 2, _CHUNK_MAX)
    raise StepBudgetError(
        f"walk did not exit within {max_steps} steps (configuration bug)")


def simulate_exit(d: LatticeDomain, start, rng: np.random.Generator):
    """Run one walk from an interior site until it leaves the interior.

    Returns (exit site, visits to start including time 0, step count).
    """
    start = d.interior_site(start)
    return _simulate(d, start, start, rng, _budget(d.geometry.n))


@lru_cache(maxsize=None)
def _square_law(r: int):
    """Exit law of the (2r + 1)^2 square from its centre.

    Returns (cum, mean time, G): cum bisects a uniform into a site of one
    side (all four sides carry the same law), the mean exit time is
    sum(G), and G = G_box(centre, .) is indexed [y, x] from the corner.

    G is the box's sine series (Lawler & Limic 2010), with m = 2r + 1 and
    S[j, t] = sin(pi j t / (m + 1)) for j, t = 1..m: G = S^T D S, where
    D = 4 / (m + 1)^2 s s^T / lambda, s = S[:, r] the modes at the centre
    and lambda_jk = 1 - (cos(pi j / (m + 1)) + cos(pi k / (m + 1))) / 2.
    Two-operand einsum sums the products in its own loops, never in BLAS,
    so the tables do not depend on the BLAS thread count.
    """
    m = 2 * r + 1
    if r:
        t = np.arange(1, m + 1)
        # j t reduced mod 2 (m + 1) exactly keeps the sine's argument small
        S = np.sin(np.pi / (m + 1) * (np.outer(t, t) % (2 * m + 2)))
        c = np.cos(np.pi / (m + 1) * t)
        s = S[:, r]
        D = 4.0 / (m + 1) ** 2 * (s[:, None] * s) / (
            1.0 - 0.5 * (c[:, None] + c))
        G = np.einsum("jy,jx->yx", S, np.einsum("jk,kx->jx", D, S))
    else:
        # the 1 x 1 square is one step, with G = 1; the series gives 1 - 1 ulp
        G = np.ones((1, 1))
    G.setflags(write=False)
    side = G[:, -1]           # 4 x the exit law through the wall x = r + 1
    cum = np.cumsum(side[:-1]) / side.sum()
    cum.setflags(write=False)
    return cum, float(G.sum()), G


def _erode(E, s):
    """Sites x with E at x and at x +- s along each axis.

    When E holds the sites whose l-infinity ball of radius r is interior
    and s <= 2r + 1, the three balls cover one of radius r + s, so the
    result holds the sites whose ball of radius r + s is interior.
    """
    F = np.zeros_like(E)
    F[s:-s] = E[:-2 * s] & E[s:-s] & E[2 * s:]
    out = np.zeros_like(E)
    out[:, s:-s] = F[:, :-2 * s] & F[:, s:-s] & F[:, 2 * s:]
    return out


def _square_radius(code: int) -> int:
    return 0 if code == 1 else 1 << (code - 2)


@dataclass(frozen=True)
class _Jumps:
    """Jump tables of a domain (see ``_jump_tables``)."""

    levels: np.ndarray      # uint8 level code per cell, 0 off the interior
    laws: list              # per code: (offsets [side, site], cum, mean time)
    keys: np.ndarray        # uint64 bisection keys of every (code, side)
    offs: np.ndarray        # int64 flat offset per key
    mean_time: np.ndarray   # per code


def _jump_tables(d: LatticeDomain) -> _Jumps:
    """Level grid and per-level jump laws of a domain, cached on it.

    The level grid is indexed like ``interior_mask``: 0 off the interior,
    and 1 + l at a site whose largest interior square has radius r with
    2^(l - 1) <= r < 2^l (l = 0 for r = 0).  It comes from doubling
    erosions, E_1 = erode(E_0, 1) and E_2r = erode(E_r, r).  Level code c
    jumps with square radius r = ``_square_radius(c)`` to site t = -r .. r
    of side s: the step (r + 1, t) turned by s quarter turns, so sides
    0 .. 3 are the walls x+, y+, x-, y- and one law serves all four.
    Code 0 absorbs: one site a side, at offset 0, and mean time 0.

    One sorted key table serves every level.  A double u = m 2^-53 makes
    side s = floor(4u) and site ``bisect_right(cum, 4u - s)``; as
    4u - s = (m mod 2^51) 2^-51 exactly, cum_i <= 4u - s iff
    ceil(cum_i 2^51) <= m mod 2^51.  So group g = 4c + s holds the keys
    g 2^51 + ceil(cum_i 2^51), closed by (g + 1) 2^51, and
    ``bisect_right(keys, c 2^53 + m)`` lands on the group's start plus
    the site: ``offs`` lists every group's flat offsets in that order.
    """
    cached = getattr(d, "_jump_cache", None)
    if cached is not None:
        return cached
    W = d.stride
    E = d.interior_mask
    code = E.astype(np.uint8)
    r = 0
    while True:
        step = max(r, 1)
        E = _erode(E, step)
        if not E.any():
            break
        r += step
        code += E
    laws = [(np.zeros((4, 1), dtype=np.int64), np.empty(0), 0.0)]
    for c in range(1, int(code.max()) + 1):
        r = _square_radius(c)
        cum, mean_time, _ = _square_law(r)
        t = np.arange(-r, r + 1)
        a = r + 1
        offs = np.stack([a + t * W, a * W - t, -a - t * W, t - a * W])
        laws.append((offs, cum, mean_time))
    keys = []
    for c, (_, cum, _) in enumerate(laws):
        site = np.ceil(cum * 2.0 ** 51).astype(np.uint64)
        for g in range(4 * c, 4 * c + 4):
            keys += [np.uint64(g << 51) + site, np.full(1, (g + 1) << 51,
                                                         dtype=np.uint64)]
    d._jump_cache = _Jumps(
        levels=code.ravel(), laws=laws, keys=np.concatenate(keys),
        offs=np.concatenate([law[0].ravel() for law in laws]),
        mean_time=np.array([law[2] for law in laws]))
    return d._jump_cache


@lru_cache(maxsize=None)
def _box_greens(codes: int):
    """(radius, G, start) for level codes 0 .. codes - 1: every code's
    G_box raveled one after another in G, from index start[c]."""
    radius = np.array([0] + [_square_radius(c) for c in range(1, codes)])
    G = [_square_law(r)[2].ravel() for r in radius[1:]]
    start = np.cumsum([0, 0] + [g.size for g in G[:-1]])
    return radius, np.concatenate(G), start


def _run_trials(d: LatticeDomain, start, count_site, cfg: WalkRunConfig,
                times: bool = False):
    """(exits, visits, exit times) arrays indexed by trial.  Visits to
    count_site are kept only when it is given (None counts nothing, so
    visits are 0), and exit times only when ``times`` (else None).

    All trials walk on squares in lockstep: round j makes jump j of every
    trial still inside.  Its uniform u is double j of the trial's Philox
    stream (cfg.seed, i), the one ``trial_rng(cfg.seed, i).random()``
    gives, so any prefix of trials reproduces exactly under a larger trial
    count.  4u picks side floor(4u) and, by bisection at 4u - side, the
    site on it, both read off u's integer bits through one key table.
    Visits to count_site and exit times are Rao-Blackwellized: each jump
    adds G_box(centre, count_site) and the square's mean exit time, in
    jump order.  A trial that exits stands still on level code 0 and adds
    0.0, so the packed arrays shed the trials that exited only when the
    draw buffer refills, and the run ends when no trial is inside.
    """
    t = _jump_tables(d)
    W = d.stride
    q = -1 if count_site is None else int(d.flat(count_site))
    qy, qx = divmod(q, W)
    if q >= 0:
        radius, G, G_at = _box_greens(len(t.laws))
    budget = _budget(d.geometry.n)
    code_key = np.arange(len(t.laws), dtype=np.uint64) << 53
    ends = np.empty(cfg.trials, dtype=np.int64)
    visits, exit_times = np.zeros(cfg.trials), None
    if q >= 0:
        vis = np.zeros(cfg.trials)
    if times:
        exit_times, tim = np.zeros(cfg.trials), np.zeros(cfg.trials)
    live = np.arange(cfg.trials)        # the trials not yet collected,
    p = np.full(cfg.trials, int(d.flat(start)), dtype=np.int64)  # their cells
    first = end = 0                     # the rounds the draw buffer holds
    for j in itertools.count():
        code = t.levels[p]
        if j == end or not code.any():
            out = code == 0
            if out.any():
                gone = live[out]
                ends[gone] = p[out]
                if q >= 0:
                    visits[gone] = vis[out]
                if times:
                    exit_times[gone] = tim[out]
                if gone.size == live.size:
                    return d.unflat(ends), visits, exit_times
                inside = np.flatnonzero(code)
                live, p, code = live[inside], p[inside], code[inside]
                if q >= 0:
                    vis = vis[inside]
                if times:
                    tim = tim[inside]
        if j == budget:
            raise StepBudgetError(
                f"walk did not exit within {budget} jumps (configuration bug)")
        if j == end:
            blocks = -(-_BATCH // live.size)
            buf = _draws(cfg.seed, live, j // 4, blocks)
            first, end = j, j + 4 * blocks
        if times:
            tim += t.mean_time[code]
        if q >= 0:
            r = radius[code]
            y, x = np.divmod(p, W)
            dx, dy = qx - x, qy - y
            hit = np.flatnonzero((np.abs(dx) <= r) & (np.abs(dy) <= r))
            if hit.size:
                r = r[hit]
                vis[hit] += G[G_at[code[hit]] + (dy[hit] + r) * (2 * r + 1)
                                + dx[hit] + r]
        p += t.offs[t.keys.searchsorted(code_key[code] | buf[j - first],
                                        side="right")]


def walk_arc_measure(d: LatticeDomain, x, cfg: WalkRunConfig) -> ArcMeasure:
    """Empirical exit distribution over boundary arcs, from x."""
    g = d.geometry
    exits, _, _ = _run_trials(d, d.interior_site(x), None, cfg)
    radii = np.hypot(exits[:, 0] + g.z0[0], exits[:, 1] + g.z0[1])
    arcs = arc_index_of_radius(g, radii)
    counts = np.bincount(arcs - 1, minlength=g.N)
    p = counts / cfg.trials
    se = np.sqrt(p * (1.0 - p) / cfg.trials)
    return ArcMeasure(probabilities=p, trials=cfg.trials, counts=counts,
                      stderr=se)


def green_mc(d: LatticeDomain, w, cfg: WalkRunConfig, start=None):
    """Visit-count estimate of the discrete Green's function G(start, w).

    Each square sojourn adds G_box(centre, w), its expected visits to w.
    Returns (mean estimate, standard error).  Default start is w.
    """
    w = d.interior_site(w)
    start = w if start is None else d.interior_site(start)
    _, visits, _ = _run_trials(d, start, w, cfg)
    return mean_stderr(visits)


def mean_exit_steps(d: LatticeDomain, x, cfg: WalkRunConfig):
    """Mean and standard error of the exit time from x.

    Each square sojourn adds sum(G_box), its expected length in steps.
    """
    _, _, steps = _run_trials(d, d.interior_site(x), None, cfg, times=True)
    return mean_stderr(steps)


def sample_exits(d: LatticeDomain, x, cfg: WalkRunConfig) -> np.ndarray:
    """Exit sites for every trial, as an (trials, 2) array of z-frame points."""
    exits, _, _ = _run_trials(d, d.interior_site(x), None, cfg)
    return exits
