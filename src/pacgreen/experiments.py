"""Convergence-rate experiments and the exit-radius comparison estimator.

The headline experiment: solve the discrete Green's function with source
at the origin once per (alpha, n) and evaluate the continuous closed form
at every interior lattice point w with |w| >= (n / log^2 n)^{c_alpha / 2}.
On that region the additive O(|w|^-2) term, the kernel remainder
eps(w) = a(w) - (2/pi) log|w| - k0, is bounded by the rate, but at
n <= 256 it is not negligible: the raw sup error |G - (2/pi) g| sits at
|w| <= 3, within 10 % of |eps| there, and only moves when the innermost
admissible site does.  So two sup errors are recorded per n:

* raw, |G - (2/pi) g|, regressed on log(log^2 n / n) (``slope``);
* corrected, |G - (2/pi) g + eps|, with the n-independent remainder taken
  out exactly, regressed on log(1/n) (``corrected_slope``).  Against
  log(log^2 n / n) a pure n^{-c} law would fit with slope about 1.8 c at
  these n.

The corrected fit measures the rate exponent, to be compared with c_alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import (PacmanGeometry, _as_complex, build_geometry,
                     build_lattice_domain, c_alpha, contains, nearest_boundary,
                     require_memory, require_scale)
from .errors import DomainError, FitError
from .green_continuous import bm_arc_measure, green_pacman_many
from .green_discrete import _dot, green_solve
from .potential import SITE_BLOCK, kernel_remainder
from .walk_mc import WalkRunConfig, mean_stderr, sample_exits, trial_rng

_BM_STREAM = 1 << 48   # keeps the exit-radius sampler off the walk streams


def region_min_radius(g: PacmanGeometry) -> float:
    """Inner exclusion radius (n / log^2 n)^{c_alpha / 2} around the origin."""
    return (g.n / g.bucket_width) ** (g.c_alpha / 2.0)


def fit_loglog(points) -> tuple[float, float, float]:
    """Least squares of log(value) on log(scale): (slope, intercept, r^2)."""
    pts = list(points)
    if len(pts) < 3:
        raise FitError("need at least 3 points")
    scales = np.array([p[0] for p in pts], dtype=np.float64)
    values = np.array([p[1] for p in pts], dtype=np.float64)
    if np.any(scales <= 0) or np.any(values <= 0):
        raise FitError("scales and values must be positive")
    x, y = np.log(scales), np.log(values)
    dx = x - x.mean()
    denom = float(_dot(dx, dx))
    if denom == 0.0:
        raise FitError("scales are all identical")
    slope = float(_dot(dx, y - y.mean())) / denom
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (intercept + slope * x)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float((resid ** 2).sum()) / ss_tot
    return slope, intercept, max(0.0, min(1.0, r2))


@dataclass(frozen=True)
class RatePoint:
    n: int
    sup_error: float
    mean_error: float
    region_min_radius: float
    corrected_sup_error: float


@dataclass
class RateFitResult:
    alpha: float
    c_alpha: float
    points: list[RatePoint]
    slope: float
    intercept: float
    r_squared: float
    corrected_slope: float


@dataclass(frozen=True)
class ExperimentConfig:
    alphas: tuple
    ns: tuple

    def __post_init__(self):
        if not self.alphas:
            raise DomainError("need at least one alpha")
        # every angle is checked here, so a bad one fails before any solve;
        # the comparisons are false for nan
        for a in self.alphas:
            if not 0.0 <= a <= math.pi:
                raise DomainError(f"alpha must lie in [0, pi], got {a}")
        # and every n, against the memory guard at the largest
        ns = [require_scale(n) for n in self.ns]
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise DomainError("ns must be strictly increasing")
        if ns:
            require_memory(max(ns))


def _rate_point(alpha: float, n: int) -> RatePoint:
    """Raw and corrected errors on the admissible region.

    The raw error is |G(w) - (2/pi) g(w)|.  The region rule bounds the
    kernel remainder eps(w) by the rate but does not make it negligible at
    n <= 256, so the corrected error |G(w) - (2/pi) g(w) + eps(w)| takes it
    out exactly on the same sites.  One solve with source at the origin
    serves every site through the symmetry G(0, w) = G(w, 0).
    """
    g = build_geometry(alpha, n)
    if not contains(g, 0j):
        raise DomainError("origin is not interior for this geometry")
    d = build_lattice_domain(g)
    G = green_solve(d, (0, 0))
    rmin = region_min_radius(g)
    # only sites with |x|, |y| <= ceil(rmin) can fall within rmin of the
    # origin: decide those by hypot and keep every other site
    r = math.ceil(rmin)
    box = np.arange(-r, r + 1)
    near = d.grid[d.flat(np.stack(np.meshgrid(box, box), axis=-1))].ravel()
    near = near[(near >= 0) & (near < d.interior_count)]
    x, y = d.interior[near].T
    keep = np.ones(d.interior_count, dtype=bool)
    keep[near[np.hypot(x, y) < rmin]] = False
    # the errors in blocks of sites, so the peak is the solve's; err stays
    # whole, so its mean is rounded as one numpy reduction
    err = np.empty(np.count_nonzero(keep))
    corrected_sup, done = 0.0, 0
    for lo in range(0, keep.size, SITE_BLOCK):
        sites = np.flatnonzero(keep[lo:lo + SITE_BLOCK]) + lo
        w = d.interior.take(sites, axis=0)
        diff = G.values[sites] - (2.0 / math.pi) * green_pacman_many(g, 0j, w)
        np.abs(diff, out=err[done:done + sites.size])
        done += sites.size
        diff += kernel_remainder(w[:, 0], w[:, 1])
        corrected_sup = max(corrected_sup, float(np.abs(diff, out=diff).max()))
    return RatePoint(n=n, sup_error=float(err.max()),
                     mean_error=float(err.mean()), region_min_radius=rmin,
                     corrected_sup_error=corrected_sup)


def rate_sweep(cfg: ExperimentConfig) -> list[RateFitResult]:
    """Sup-error decay and fitted rate exponents per alpha.

    ``slope`` fits the raw sup error against log^2 n / n;
    ``corrected_slope`` fits the corrected sup error (kernel remainder
    taken out) against 1/n and is the one to compare with c_alpha.
    """
    if len(cfg.ns) < 3:
        raise FitError("need at least 3 scales per alpha")
    results = []
    for a in cfg.alphas:
        pts = [_rate_point(a, n) for n in cfg.ns]
        slope, intercept, r2 = fit_loglog(
            [(math.log(p.n) ** 2 / p.n, p.sup_error) for p in pts])
        corrected_slope, _, _ = fit_loglog(
            [(1.0 / p.n, p.corrected_sup_error) for p in pts])
        results.append(RateFitResult(alpha=a, c_alpha=c_alpha(a),
                                     points=pts, slope=slope,
                                     intercept=intercept, r_squared=r2,
                                     corrected_slope=corrected_slope))
    return results


def prop_bound_scale(g: PacmanGeometry, k0: int) -> float:
    """Reference scale k0^{c-1} n^{-c} log^{c+1} n for the exit-radius gap."""
    c = g.c_alpha
    return k0 ** (c - 1.0) * g.n ** (-c) * math.log(g.n) ** (c + 1.0)


def expdiff_estimate(g: PacmanGeometry, x, y,
                     walk_cfg: WalkRunConfig) -> tuple[float, float]:
    """Mean absolute log-ratio of walk and Brownian exit radii.

    The walk side is simulated from x; the Brownian side draws an arc from
    the exact exit law at y and places the radius uniformly inside the
    arc's radial bucket, then converts tip-radius to distance from the
    origin along a wedge ray (the two rays agree up to the lattice rounding
    of z0).  Both starts must sit within 10 log n of the boundary and of
    each other.

    Returns (estimate, standard error).
    """
    yc = _as_complex(y)
    xc = _as_complex(x)
    limit = 10.0 * math.log(g.n)
    dist, _ = nearest_boundary(g, xc)
    if dist > limit:
        raise DomainError(f"x must be within {limit:.2f} of the boundary")
    if abs(xc - yc) > limit:
        raise DomainError(f"|x - y| must be within {limit:.2f}")
    if not contains(g, xc) or not contains(g, yc):
        raise DomainError("x and y must be interior")

    d = build_lattice_domain(g)
    exits = sample_exits(d, (int(xc.real), int(xc.imag)), walk_cfg)
    s_radii = np.hypot(exits[:, 0], exits[:, 1])

    probs = bm_arc_measure(g, yc).probabilities
    cum = np.cumsum(probs)
    rng = trial_rng(walk_cfg.seed, _BM_STREAM)
    u = rng.random(walk_cfg.trials) * cum[-1]
    k = np.searchsorted(cum, u, side="right")          # 0-based bucket
    L2 = g.bucket_width
    lo = k * L2
    hi = np.minimum((k + 1) * L2, g.radius)
    rho = lo + rng.random(walk_cfg.trials) * (hi - lo)
    b_radii = np.abs(rho - g.z0_complex)

    return mean_stderr(np.abs(np.log(s_radii / b_radii)))
