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
    """Trial count, stream seed, and per-trial step budget.

    max_steps_per_trial of None resolves to 100 (2n)^2 at run time; an
    explicit value below that diffusive safety factor is rejected.
    """

    trials: int
    seed: int
    max_steps_per_trial: int | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise DomainError("trials must be positive")

    def resolve_budget(self, n: int) -> int:
        floor = 100 * (2 * n) ** 2
        if self.max_steps_per_trial is None:
            return floor
        if self.max_steps_per_trial < floor:
            raise DomainError(
                f"max_steps_per_trial must be >= 100 (2n)^2 = {floor}")
        return self.max_steps_per_trial


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


def simulate_exit(d: LatticeDomain, start, rng: np.random.Generator,
                  max_steps: int | None = None):
    """Run one walk from an interior site until it leaves the interior.

    Returns (exit site, visits to start including time 0, step count).
    """
    if d.interior_index(start) < 0:
        raise DomainError(f"start {start} is not an interior site")
    budget = max_steps if max_steps is not None \
        else 100 * (2 * d.geometry.n) ** 2
    return _simulate(d, start, start, rng, budget)


def _check_start(d: LatticeDomain, x):
    if d.interior_index(x) < 0:
        raise DomainError(f"{x} is not an interior site")


def _run_trials(d: LatticeDomain, start, count_site, cfg: WalkRunConfig):
    """(exits, visits, steps) arrays indexed by trial.

    Trial i draws only from its own Philox stream (cfg.seed, i), so any
    prefix of trials reproduces exactly under a larger trial count.
    """
    budget = cfg.resolve_budget(d.geometry.n)
    exits = np.empty((cfg.trials, 2), dtype=np.int64)
    visits = np.empty(cfg.trials, dtype=np.int64)
    steps = np.empty(cfg.trials, dtype=np.int64)
    for i in range(cfg.trials):
        exits[i], visits[i], steps[i] = _simulate(
            d, start, count_site, trial_rng(cfg.seed, i), budget)
    return exits, visits, steps


def walk_arc_measure(d: LatticeDomain, x, cfg: WalkRunConfig) -> ArcMeasure:
    """Empirical exit distribution over boundary arcs, from x."""
    _check_start(d, x)
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
    _check_start(d, start)
    if d.interior_index(w) < 0:
        raise DomainError(f"{w} is not an interior site")
    _, visits, _ = _run_trials(d, start, w, cfg)
    visits = visits.astype(np.float64)
    se = visits.std(ddof=1) / math.sqrt(cfg.trials) if cfg.trials > 1 else 0.0
    return float(visits.mean()), float(se)


def mean_exit_steps(d: LatticeDomain, x, cfg: WalkRunConfig):
    """Mean and standard error of the exit time from x."""
    _check_start(d, x)
    _, _, steps = _run_trials(d, x, x, cfg)
    steps = steps.astype(np.float64)
    se = steps.std(ddof=1) / math.sqrt(cfg.trials) if cfg.trials > 1 else 0.0
    return float(steps.mean()), float(se)


def sample_exits(d: LatticeDomain, x, cfg: WalkRunConfig) -> np.ndarray:
    """Exit sites for every trial, as an (trials, 2) array of z-frame points."""
    _check_start(d, x)
    exits, _, _ = _run_trials(d, x, x, cfg)
    return exits
