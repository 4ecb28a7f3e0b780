"""Monte Carlo simple-random-walk engine.

Each trial consumes its own counter-based Philox stream keyed by
(seed, trial index), so trials are reproducible individually and the
aggregate does not depend on execution order.

Trials run on squares (Muller, Ann. Math. Stat. 1956), exactly on the
lattice: from an interior site whose l-infinity ball of radius r >= 0 is
interior (r a power of two, or 0), the walk is stopped on leaving the
(2r + 1)^2 square around it; by the strong Markov property the site it
stops at has the square's exit law from its centre, G_box / 4 on the
row next to each side, so one draw replaces the whole sojourn.  Visit
counts and exit times are Rao-Blackwellized: each sojourn adds its
expectation, G_box(centre, w) or sum(G_box), in place of its realisation.
``simulate_exit`` keeps the stepwise walk as the reference.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .box import box_green
from .domain import LatticeDomain, arc_index_of_radius
from .errors import DomainError, StepBudgetError

_MASK64 = (1 << 64) - 1
_CHUNK0 = 1024
_CHUNK_MAX = 32768
_UNIFORMS = 32      # uniforms a jump walk draws from its stream at a time

# How far an arc law may stray from [0, 1] and from total mass 1.  The
# discrete law comes from a solve stopped at max-norm residual 1e-10: its
# row sums to 1 plus the sum of the residuals, measured within 4.4e-9 for
# n <= 256, with every entry positive.  The walk and Brownian laws sum to 1
# up to rounding.
ARC_TOLERANCE = 1e-6


@dataclass(frozen=True)
class WalkRunConfig:
    """Trial count and stream seed."""

    trials: int
    seed: int

    def __post_init__(self):
        if self.trials < 1:
            raise DomainError("trials must be positive")


@dataclass
class ArcMeasure:
    """Probability per boundary arc k in 1..N, with optional MC metadata."""

    probabilities: np.ndarray
    trials: int | None = None
    counts: np.ndarray | None = None
    stderr: np.ndarray | None = None

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=np.float64)
        if np.any(p < -ARC_TOLERANCE) or np.any(p > 1.0 + ARC_TOLERANCE):
            raise DomainError("arc probabilities must lie in [0, 1]")
        if abs(p.sum() - 1.0) > ARC_TOLERANCE:
            raise DomainError("arc probabilities must sum to 1")
        self.probabilities = p

    @property
    def total(self) -> float:
        return float(self.probabilities.sum())


def trial_rng(seed: int, stream: int) -> np.random.Generator:
    """Philox generator for one (seed, stream) pair."""
    key = np.array([seed & _MASK64, stream & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


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
    # -1 off the domain reads as 2^64 - 1, so one comparison finds the exit
    cells = d.grid.view(np.uint64)
    M = d.interior_count
    steps = np.array([d.stride, -d.stride, 1, -1], dtype=np.int64)
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
        hit = np.nonzero(cells[np.clip(ps, 0, cells.size - 1)] >= M)[0]
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
    d.require_interior(start)
    return _simulate(d, start, start, rng, _budget(d.geometry.n))


@lru_cache(maxsize=None)
def _square_law(r: int):
    """Exit law of the (2r + 1)^2 square from its centre.

    Returns (cum, mean time, G): cum bisects a uniform into a site of one
    side (all four sides carry the same law), the mean exit time is
    sum(G), and G = G_box(centre, .) is indexed [y, x] from the corner.
    """
    m = 2 * r + 1
    e = np.zeros((m, m))
    e[r, r] = 1.0
    # the 1 x 1 square is one step, with G = 1; the DST would round it
    G = box_green(m, m)(e) if r else e
    G.setflags(write=False)
    side = G[:, -1]           # 4 x the exit law through the wall x = r + 1
    cum = np.cumsum(side[:-1]) / side.sum()
    return tuple(cum.tolist()), float(G.sum()), G


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


def _jump_tables(d: LatticeDomain):
    """Level grid and per-level jump laws of a domain, cached on it.

    The level grid is indexed like the domain's site grid, one byte
    a cell: 0 off the interior, and 1 + l at a site whose largest interior
    square has radius r with 2^(l - 1) <= r < 2^l (l = 0 for r = 0).  It
    comes from doubling erosions, E_1 = erode(E_0, 1) and
    E_2r = erode(E_r, r).  Level code c jumps with square radius
    ``_square_radius(c)``; its law is (flat offsets by side, cum, mean
    time).
    """
    cached = getattr(d, "_jump_cache", None)
    if cached is not None:
        return cached
    W = d.stride
    # -1 off the domain reads as 2^64 - 1, as in _simulate
    E = (d.grid.view(np.uint64) < d.interior_count).reshape(-1, W)
    code = E.astype(np.uint8)
    r = 0
    while True:
        step = max(r, 1)
        E = _erode(E, step)
        if not E.any():
            break
        r += step
        code += E
    laws = [None]
    for c in range(1, int(code.max()) + 1):
        r = _square_radius(c)
        cum, mean_time, _ = _square_law(r)
        t = range(-r, r + 1)
        a = r + 1
        offs = ([a * W + j for j in t], [a - j * W for j in t],
                [-a * W - j for j in t], [j * W - a for j in t])
        laws.append((offs, cum, mean_time))
    d._jump_cache = (code.tobytes(), W, laws)
    return d._jump_cache


def _jump_walk(tables, p, q, rng, budget):
    """One walk on squares from flat grid index p until it leaves the interior.

    Returns (flat exit index, Rao-Blackwellized visits to flat index q,
    or 0 when q < 0, Rao-Blackwellized exit time, jumps).  One uniform u
    per jump picks side floor(4u) and, by bisection at 4u - side, the
    site on it.
    """
    levels, W, laws = tables
    qx, qy = divmod(q, W)
    visits = time = 0.0
    drawn = jumps = 0
    us = ()
    while code := levels[p]:
        # us holds uniforms drawn - len(us) .. drawn - 1 of the stream
        if jumps == drawn:
            if drawn == budget:
                raise StepBudgetError(
                    f"walk did not exit within {budget} jumps (configuration bug)")
            us = rng.random(min(_UNIFORMS, budget - drawn)).tolist()
            drawn += len(us)
        u = 4.0 * us[jumps - drawn]
        jumps += 1
        offs, cum, mean_time = laws[code]
        time += mean_time
        if q >= 0:
            r = _square_radius(code)
            px, py = divmod(p, W)
            dx, dy = qx - px + r, qy - py + r
            if 0 <= dx <= 2 * r and 0 <= dy <= 2 * r:
                visits += float(_square_law(r)[2][dy, dx])
        side = int(u)
        p += offs[side][bisect_right(cum, u - side)]
    return p, visits, time, jumps


def _run_trials(d: LatticeDomain, start, count_site, cfg: WalkRunConfig):
    """(exits, visits, exit times) arrays indexed by trial.

    Visits to count_site (None counts nothing) and exit times are the
    Rao-Blackwellized estimates of ``_jump_walk``.  Trial i draws only
    from its own Philox stream (cfg.seed, i), so any prefix of trials
    reproduces exactly under a larger trial count.
    """
    tables = _jump_tables(d)
    p0 = int(d.flat(start))
    q = -1 if count_site is None else int(d.flat(count_site))
    budget = _budget(d.geometry.n)
    ends = np.empty(cfg.trials, dtype=np.int64)
    visits = np.empty(cfg.trials)
    times = np.empty(cfg.trials)
    for i in range(cfg.trials):
        ends[i], visits[i], times[i], _ = _jump_walk(
            tables, p0, q, trial_rng(cfg.seed, i), budget)
    return d.unflat(ends), visits, times


def walk_arc_measure(d: LatticeDomain, x, cfg: WalkRunConfig) -> ArcMeasure:
    """Empirical exit distribution over boundary arcs, from x."""
    d.require_interior(x)
    g = d.geometry
    exits, _, _ = _run_trials(d, x, None, cfg)
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
    if start is None:
        start = w
    d.require_interior(start)
    d.require_interior(w)
    _, visits, _ = _run_trials(d, start, w, cfg)
    return mean_stderr(visits)


def mean_exit_steps(d: LatticeDomain, x, cfg: WalkRunConfig):
    """Mean and standard error of the exit time from x.

    Each square sojourn adds sum(G_box), its expected length in steps.
    """
    d.require_interior(x)
    _, _, steps = _run_trials(d, x, None, cfg)
    return mean_stderr(steps)


def sample_exits(d: LatticeDomain, x, cfg: WalkRunConfig) -> np.ndarray:
    """Exit sites for every trial, as an (trials, 2) array of z-frame points."""
    d.require_interior(x)
    exits, _, _ = _run_trials(d, x, None, cfg)
    return exits
