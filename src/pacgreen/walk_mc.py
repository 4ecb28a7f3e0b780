"""Monte Carlo simple-random-walk engine.

Each trial consumes its own counter-based Philox stream keyed by
(seed, trial index), so trials are reproducible individually and the
aggregate does not depend on execution order.  Paths are generated in
vectorized chunks; the first lattice site outside the interior is the
exit site.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import LatticeDomain, arc_index_of_radius
from .errors import DomainError, StepBudgetError

_MASK64 = (1 << 64) - 1
_STEP_DX = np.array([1, -1, 0, 0], dtype=np.int64)
_STEP_DY = np.array([0, 0, 1, -1], dtype=np.int64)
_CHUNK0 = 1024
_CHUNK_MAX = 32768


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
        if np.any(p < 0) or np.any(p > 1):
            raise DomainError("arc probabilities must lie in [0, 1]")
        if p.sum() > 1.0 + 1e-12:
            raise DomainError("arc probabilities sum above 1")
        self.probabilities = p

    @property
    def total(self) -> float:
        return float(self.probabilities.sum())


def trial_rng(seed: int, stream: int) -> np.random.Generator:
    """Philox generator for one (seed, stream) pair."""
    key = np.array([seed & _MASK64, stream & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _budget(n: int) -> int:
    """Per-trial step budget: 100 times (2n)^2, the mean exit time from
    the centre of the disk of radius 2n."""
    return 100 * (2 * n) ** 2


def _simulate(d: LatticeDomain, start, count_site, rng, max_steps):
    g = d.geometry
    grid = d._interior_grid
    off = d._offset
    hi0, hi1 = grid.shape[0] - 1, grid.shape[1] - 1
    sx, sy = int(start[0]) + g.z0[0], int(start[1]) + g.z0[1]
    cx, cy = int(count_site[0]) + g.z0[0], int(count_site[1]) + g.z0[1]
    px, py = sx, sy
    visits = 1 if (sx == cx and sy == cy) else 0
    done = 0
    chunk = _CHUNK0
    while done < max_steps:
        m = min(chunk, max_steps - done)
        draws = rng.integers(0, 4, size=m)
        xs = px + np.cumsum(_STEP_DX[draws])
        ys = py + np.cumsum(_STEP_DY[draws])
        # positions past the first exit may leave the grid; clipping maps
        # them onto margin cells, which are never interior
        gx = np.clip(xs + off, 0, hi0)
        gy = np.clip(ys + off, 0, hi1)
        outside = grid[gx, gy] < 0
        hit = np.nonzero(outside)[0]
        if hit.size:
            j = int(hit[0])
            visits += int(np.count_nonzero((xs[:j] == cx) & (ys[:j] == cy)))
            exit_w = (int(xs[j]), int(ys[j]))
            exit_z = (exit_w[0] - g.z0[0], exit_w[1] - g.z0[1])
            return exit_z, visits, done + j + 1
        visits += int(np.count_nonzero((xs == cx) & (ys == cy)))
        px, py = int(xs[-1]), int(ys[-1])
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


def _run_trials(d: LatticeDomain, start, count_site, cfg: WalkRunConfig):
    """(exits, visits, steps) arrays indexed by trial.

    Trial i draws only from its own Philox stream (cfg.seed, i), so any
    prefix of trials reproduces exactly under a larger trial count.
    """
    budget = _budget(d.geometry.n)
    exits = np.empty((cfg.trials, 2), dtype=np.int64)
    visits = np.empty(cfg.trials, dtype=np.int64)
    steps = np.empty(cfg.trials, dtype=np.int64)
    for i in range(cfg.trials):
        exits[i], visits[i], steps[i] = _simulate(
            d, start, count_site, trial_rng(cfg.seed, i), budget)
    return exits, visits, steps


def walk_arc_measure(d: LatticeDomain, x, cfg: WalkRunConfig) -> ArcMeasure:
    """Empirical exit distribution over boundary arcs, from x."""
    d.require_interior(x)
    g = d.geometry
    exits, _, _ = _run_trials(d, x, x, cfg)
    radii = np.hypot(exits[:, 0] + g.z0[0], exits[:, 1] + g.z0[1])
    arcs = arc_index_of_radius(g, radii)
    counts = np.bincount(arcs - 1, minlength=g.N)
    p = counts / cfg.trials
    se = np.sqrt(p * (1.0 - p) / cfg.trials)
    return ArcMeasure(probabilities=p, trials=cfg.trials, counts=counts,
                      stderr=se)


def green_mc(d: LatticeDomain, w, cfg: WalkRunConfig, start=None):
    """Visit-count estimate of the discrete Green's function G(start, w).

    Returns (mean visit count, standard error).  Default start is w.
    """
    if start is None:
        start = w
    d.require_interior(start)
    d.require_interior(w)
    _, visits, _ = _run_trials(d, start, w, cfg)
    visits = visits.astype(np.float64)
    se = visits.std(ddof=1) / math.sqrt(cfg.trials) if cfg.trials > 1 else 0.0
    return float(visits.mean()), float(se)


def mean_exit_steps(d: LatticeDomain, x, cfg: WalkRunConfig):
    """Mean and standard error of the exit time from x."""
    d.require_interior(x)
    _, _, steps = _run_trials(d, x, x, cfg)
    steps = steps.astype(np.float64)
    se = steps.std(ddof=1) / math.sqrt(cfg.trials) if cfg.trials > 1 else 0.0
    return float(steps.mean()), float(se)


def sample_exits(d: LatticeDomain, x, cfg: WalkRunConfig) -> np.ndarray:
    """Exit sites for every trial, as an (trials, 2) array of z-frame points."""
    d.require_interior(x)
    exits, _, _ = _run_trials(d, x, x, cfg)
    return exits
