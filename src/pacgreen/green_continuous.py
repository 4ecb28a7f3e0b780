"""Closed-form continuous Green's function and Brownian harmonic measure.

The map chain: z -> ((z + z0)/2n)^{c_alpha} sends the pacman domain to the
open upper half-disk (taking the argument in [0, 2 pi), the branch that is
continuous across the whole wedge); u -> -(u + 1/u) sends the half-disk to
the upper half-plane.  The half-plane Green's function and the Cauchy exit
law then give everything in closed form:

  * boundary rays land in the real axis outside (-2, 2), the circular arc
    in [-2, 2], so the harmonic measure of a boundary arc is a sum of
    Cauchy CDF differences over its real image intervals;
  * g(z, w) = log|p - conj(q)| - log|p - q| with p, q the half-plane
    images of z and w.
"""

from __future__ import annotations

import math

import numpy as np

from .domain import TIP_GUARD, PacmanGeometry, _as_complex, contains
from .errors import DomainError, SingularityError
from .walk_mc import ArcMeasure


def map_to_halfdisk(g: PacmanGeometry, z) -> complex:
    """Power map ((z + z0)/2n)^{c_alpha}, argument taken in [0, 2 pi)."""
    w = _as_complex(z) + g.z0_complex
    if abs(w) <= TIP_GUARD:
        raise DomainError("point coincides with the re-entrant tip")
    return complex(_map_many(g, np.complex128(w)))


def _map_many(g: PacmanGeometry, w: np.ndarray) -> np.ndarray:
    """Vectorized power map on w-frame complex points (tip at 0)."""
    theta = np.angle(w) % (2.0 * math.pi)
    c = g.c_alpha
    return (np.abs(w) / g.radius) ** c * np.exp(1j * c * theta)


def halfdisk_to_halfplane(u):
    """Joukowski-type map -(u + 1/u): upper half-disk onto upper half-plane.

    Elementwise on arrays; a complex in, a complex out.
    """
    u = np.asarray(u, dtype=np.complex128)
    if np.any(np.abs(u) <= TIP_GUARD):
        raise DomainError("map is singular at u = 0")
    q = -(u + 1.0 / u)
    return complex(q) if q.ndim == 0 else q


def _halfplane_green(a, b):
    """log|a - conj(b)| - log|a - b|, elementwise."""
    return np.log(np.abs(a - np.conj(b))) - np.log(np.abs(a - b))


def green_halfplane(a, b) -> float:
    """Green's function of the upper half-plane: log|a - conj(b)| - log|a - b|."""
    a, b = complex(a), complex(b)
    if a.imag <= 0 or b.imag <= 0:
        raise DomainError("both points must have positive imaginary part")
    if a == b:
        raise SingularityError("Green's function diverges on the diagonal")
    return float(_halfplane_green(a, b))


def green_halfdisk(u, v) -> float:
    """Half-disk Green's function by reflection (independent closed form)."""
    u, v = complex(u), complex(v)
    if u.imag <= 0 or v.imag <= 0 or abs(u) >= 1 or abs(v) >= 1:
        raise DomainError("points must lie in the open upper half-disk")
    if u == v:
        raise SingularityError("Green's function diverges on the diagonal")
    vc = v.conjugate()
    return math.log(abs((u - vc) * (1.0 - u * vc))) \
        - math.log(abs((u - v) * (1.0 - u * v)))


def _to_halfplane(g: PacmanGeometry, z) -> complex:
    return halfdisk_to_halfplane(map_to_halfdisk(g, z))


def green_pacman(g: PacmanGeometry, z, w) -> float:
    """Continuous Green's function of the pacman domain, via the map chain."""
    zc, wc = _as_complex(z), _as_complex(w)
    if not contains(g, zc) or not contains(g, wc):
        raise DomainError("both points must be strictly interior")
    if zc == wc:
        raise SingularityError("Green's function diverges on the diagonal")
    return float(green_pacman_many(g, zc, np.array([wc]))[0])


def green_pacman_many(g: PacmanGeometry, z, w_arr: np.ndarray) -> np.ndarray:
    """g(z, w) for one interior z against an array of interior points.

    Used for whole-field comparisons; callers must exclude w = z and the
    tip themselves.
    """
    p = _to_halfplane(g, _as_complex(z))
    q = halfdisk_to_halfplane(_map_many(g, np.asarray(w_arr) + g.z0_complex))
    return _halfplane_green(p, q)


def cauchy_interval_measure(p, lo: float, hi: float) -> float:
    """Harmonic measure of the real interval [lo, hi] seen from p in the
    upper half-plane: the Cauchy CDF difference
    (1/pi)[arctan((hi - Re p)/Im p) - arctan((lo - Re p)/Im p)]."""
    p = complex(p)
    if p.imag <= 0:
        raise DomainError("p must lie in the open upper half-plane")
    return (math.atan2(hi - p.real, p.imag)
            - math.atan2(lo - p.real, p.imag)) / math.pi


def _ray_images(g: PacmanGeometry, radii: np.ndarray):
    """Half-plane images of tip-radius values along the two wedge rays.

    The theta = 0 ray maps into (-inf, -2], the theta = 2 pi - alpha ray
    into [2, inf); radius 0 maps to the appropriate infinity.
    """
    q = (radii / g.radius) ** g.c_alpha
    with np.errstate(divide="ignore"):
        inv = np.where(q > 0, 1.0 / np.where(q > 0, q, 1.0), np.inf)
    v0 = np.where(q > 0, -(q + inv), -np.inf)
    v1 = np.where(q > 0, q + inv, np.inf)
    return v0, v1


def bm_arc_measure(g: PacmanGeometry, x) -> ArcMeasure:
    """Exact Brownian harmonic measure of each boundary arc, from x.

    Arc k covers tip-radii [(k-1) log^2 n, k log^2 n) on both rays; arc N
    additionally carries the circular part, whose image is [-2, 2].  The
    per-arc masses are Cauchy CDF differences at shared interval endpoints,
    so they telescope and sum to 1 up to rounding.
    """
    xc = _as_complex(x)
    if not contains(g, xc):
        raise DomainError("x must be strictly interior")
    p = _to_halfplane(g, xc)
    px, py = p.real, p.imag

    def cdf(t):
        with np.errstate(invalid="ignore"):
            return np.arctan((t - px) / py) / math.pi

    radii = np.minimum(np.arange(g.N + 1, dtype=np.float64) * g.bucket_width,
                       g.radius)
    v0, v1 = _ray_images(g, radii)
    c0, c1 = cdf(v0), cdf(v1)
    measures = (c0[1:] - c0[:-1]) + (c1[:-1] - c1[1:])
    measures[-1] += cdf(2.0) - cdf(-2.0)
    return ArcMeasure(probabilities=np.maximum(measures, 0.0))
