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

import cmath
import math

import numpy as np

from .domain import (TIP_GUARD, ArcMeasure, PacmanGeometry, _as_complex,
                     arc_edges, contains)
from .errors import DomainError, SingularityError


def _power_map(g: PacmanGeometry, wx, wy):
    """Modulus and argument of (w / 2n)^{c_alpha} at w-frame points
    (tip at 0), the argument of w taken in [0, 2 pi), in real arithmetic
    on float arrays: one arctan2, one log of |w / 2n|^2 and one exp."""
    c = g.c_alpha
    phi = np.arctan2(wy, wx)
    np.add(phi, 2.0 * math.pi, out=phi, where=phi < 0)
    phi *= c
    rho = np.multiply(wx, wx)
    rho += np.multiply(wy, wy)
    rho /= g.radius * g.radius
    np.log(rho, out=rho)
    rho *= 0.5 * c
    np.exp(rho, out=rho)
    return rho, phi


def _joukowski(rho, phi):
    """Real and imaginary parts of -(u + 1/u) for u = rho e^{i phi}, on
    float arrays; overwrites rho and phi."""
    inv = 1.0 / rho
    im = np.sin(phi)
    im *= inv - rho
    rho += inv
    rho *= np.cos(phi, out=phi)
    np.negative(rho, out=rho)
    return rho, im


def _halfplane_green(px, py, qx, qy):
    """log|p - conj(q)| - log|p - q| elementwise, from the real and
    imaginary parts: half the log of the ratio of the squared distances."""
    dx2 = np.square(px - qx)
    return 0.5 * np.log((dx2 + np.square(py + qy))
                        / (dx2 + np.square(py - qy)))


def _polar_image(g: PacmanGeometry, z):
    """Modulus and argument of the power map at one z-frame point, as
    1-element arrays; DomainError at the tip."""
    w = _as_complex(z) + g.z0_complex
    if abs(w) <= TIP_GUARD:
        raise DomainError("point coincides with the re-entrant tip")
    return _power_map(g, np.array([w.real]), np.array([w.imag]))


def map_to_halfdisk(g: PacmanGeometry, z) -> complex:
    """Power map ((z + z0)/2n)^{c_alpha}, argument taken in [0, 2 pi)."""
    rho, phi = _polar_image(g, z)
    return cmath.rect(rho[0], phi[0])


def halfdisk_to_halfplane(u):
    """Joukowski-type map -(u + 1/u): upper half-disk onto upper half-plane.

    Elementwise on arrays; a complex in, a complex out.
    """
    u = np.asarray(u, dtype=np.complex128)
    if np.any(np.abs(u) <= TIP_GUARD):
        raise DomainError("map is singular at u = 0")
    flat = u.reshape(-1)
    re, im = _joukowski(np.abs(flat), np.angle(flat))
    q = (re + 1j * im).reshape(u.shape)
    return complex(q) if q.ndim == 0 else q


def green_halfplane(a, b) -> float:
    """Green's function of the upper half-plane: log|a - conj(b)| - log|a - b|."""
    a, b = complex(a), complex(b)
    if a.imag <= 0 or b.imag <= 0:
        raise DomainError("both points must have positive imaginary part")
    if a == b:
        raise SingularityError("Green's function diverges on the diagonal")
    return float(_halfplane_green(a.real, a.imag, b.real, b.imag))


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
    re, im = _joukowski(*_polar_image(g, z))
    return complex(re[0], im[0])


def green_pacman(g: PacmanGeometry, z, w) -> float:
    """Continuous Green's function of the pacman domain, via the map chain."""
    zc, wc = _as_complex(z), _as_complex(w)
    if not contains(g, zc) or not contains(g, wc):
        raise DomainError("both points must be strictly interior")
    if zc == wc:
        raise SingularityError("Green's function diverges on the diagonal")
    return float(green_pacman_many(g, zc, np.array([[wc.real, wc.imag]]))[0])


def green_pacman_many(g: PacmanGeometry, z, w: np.ndarray) -> np.ndarray:
    """g(z, w) for one interior z against interior points w, given as rows
    (x, y) like ``LatticeDomain.interior``.

    Used for whole-field comparisons; callers must exclude w = z and the
    tip themselves.
    """
    p = _to_halfplane(g, z)
    w = np.asarray(w)
    qx, qy = _joukowski(*_power_map(g, w[:, 0] + float(g.z0[0]),
                                    w[:, 1] + float(g.z0[1])))
    return _halfplane_green(p.real, p.imag, qx, qy)


def _cauchy_cdf(p: complex, t):
    """The CDF less 1/2 at real points t of the exit law from p in the
    upper half-plane, a Cauchy law: arctan((t - Re p) / Im p) / pi."""
    with np.errstate(invalid="ignore"):
        return np.arctan((t - p.real) / p.imag) / math.pi


def cauchy_interval_measure(p, lo: float, hi: float) -> float:
    """Harmonic measure of the real interval [lo, hi] seen from p in the
    upper half-plane: the Cauchy CDF difference."""
    p = complex(p)
    if p.imag <= 0:
        raise DomainError("p must lie in the open upper half-plane")
    return float(_cauchy_cdf(p, hi) - _cauchy_cdf(p, lo))


def _ray_images(g: PacmanGeometry, radii: np.ndarray):
    """Half-plane images of tip-radius values along the two wedge rays.

    The theta = 0 ray maps into (-inf, -2], the theta = 2 pi - alpha ray
    into [2, inf); radius 0 maps to the appropriate infinity.
    """
    q = (radii / g.radius) ** g.c_alpha
    with np.errstate(divide="ignore"):
        v1 = q + 1.0 / q
    return -v1, v1


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
    v0, v1 = _ray_images(g, arc_edges(g))
    c0, c1 = _cauchy_cdf(p, v0), _cauchy_cdf(p, v1)
    measures = (c0[1:] - c0[:-1]) + (c1[:-1] - c1[1:])
    measures[-1] += _cauchy_cdf(p, 2.0) - _cauchy_cdf(p, -2.0)
    return ArcMeasure(probabilities=np.maximum(measures, 0.0))
