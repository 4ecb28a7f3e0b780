r"""Potential kernel of the planar simple random walk.

The kernel is the lattice integral

    a(x) = (2 pi)^-2 \int_{[-pi,pi]^2} (1 - cos(x . t)) / (1 - (cos t1 + cos t2)/2) dt.

Integrating one axis in closed form (a residue computation) leaves

    a(x) = (2/pi) \int_0^pi (1 - cos(x1 t) rho(t)^{|x2|}) / s(t) dt,
    s = sqrt(c^2 - 1),  rho = c - s,  c = 2 - cos t,

whose integrand extends analytically to t = 0, so Gauss-Legendre nodes
(never at the endpoint) converge spectrally.  The direct tensor-product
rule is kept as an independent cross-check; its node spacing near the
removable singularity limits it to |x| below roughly 50.

For large |x| the expansion a(x) = (2/pi) log|x| + k0 + O(|x|^-2) with
k0 = (2 gamma + 3 log 2)/pi takes over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError

EULER_GAMMA = 0.5772156649015328606
K0 = (2.0 * EULER_GAMMA + 3.0 * math.log(2.0)) / math.pi


# Gauss-Legendre order of every quadrature of the kernel.
QUADRATURE_ORDER = 512


@dataclass(frozen=True)
class PotentialKernelConfig:
    """Evaluation policy: the exact/asymptotic switch radius."""

    asymptotic_cutoff_radius: float = 50.0

    def __post_init__(self):
        if self.asymptotic_cutoff_radius < 20:
            raise DomainError("asymptotic_cutoff_radius must be >= 20")


DEFAULT_CONFIG = PotentialKernelConfig()

# Policy used where the representation G_D(z,w) = E[a(S_T - w)] - a(z - w)
# is evaluated: the asymptotic remainder at radius 200 is ~1.4e-6, well
# under the 1e-5 cross-construction budget, while order-512 quadrature
# still resolves the cos(x1 t) oscillation at that radius.
REPRESENTATION_CONFIG = PotentialKernelConfig(asymptotic_cutoff_radius=200.0)


@lru_cache(maxsize=1)
def _gauss_rule():
    nodes, weights = np.polynomial.legendre.leggauss(QUADRATURE_ORDER)
    t = (nodes + 1.0) * (math.pi / 2.0)
    w = weights * (math.pi / 2.0)
    half = np.sin(t / 2.0)
    s = 2.0 * half * np.sqrt(1.0 + half * half)   # sqrt(c^2 - 1), exact form
    rho = (2.0 - np.cos(t)) - s
    return t, w, s, rho


_BLOCK = 4096


def potential_exact_many(xs, ys) -> np.ndarray:
    """Vectorized exact kernel over integer offset arrays xs, ys."""
    t, w, s, rho = _gauss_rule()
    x1 = np.abs(np.asarray(xs, dtype=np.float64))
    x2 = np.abs(np.asarray(ys, dtype=np.float64))
    out = np.empty(x1.shape, dtype=np.float64)
    for lo in range(0, x1.shape[0], _BLOCK):
        a = x1[lo:lo + _BLOCK, None]
        b = x2[lo:lo + _BLOCK, None]
        f = (1.0 - np.cos(a * t[None, :]) * rho[None, :] ** b) / s[None, :]
        out[lo:lo + _BLOCK] = (2.0 / math.pi) * (f @ w)
    return out


def potential_exact(x) -> float:
    """a(x) by quadrature; a(0) = 0 exactly."""
    x1, x2 = int(x[0]), int(x[1])
    if x1 == 0 and x2 == 0:
        return 0.0
    return float(potential_exact_many([x1], [x2])[0])


def potential_tensor(x) -> float:
    """a(x) by the raw two-axis tensor-product rule (cross-check only)."""
    nodes, weights = np.polynomial.legendre.leggauss(QUADRATURE_ORDER)
    t = nodes * math.pi
    w = weights * math.pi
    ct = np.cos(t)
    denom = 1.0 - 0.5 * (ct[:, None] + ct[None, :])
    num = 1.0 - np.cos(x[0] * t)[:, None] * np.cos(x[1] * t)[None, :]
    return float((w @ (num / denom) @ w) / (2.0 * math.pi) ** 2)


def potential_asymptotic(x) -> float:
    """(2/pi) log|x| + k0; singular at the origin."""
    r = math.hypot(x[0], x[1])
    if r == 0.0:
        raise DomainError("asymptotic form is singular at x = 0")
    return (2.0 / math.pi) * math.log(r) + K0


def potential(x, cfg: PotentialKernelConfig = DEFAULT_CONFIG) -> float:
    """Exact kernel inside the cutoff radius, asymptotic expansion outside."""
    r = math.hypot(x[0], x[1])
    if r <= cfg.asymptotic_cutoff_radius:
        return potential_exact(x)
    return potential_asymptotic(x)


def potential_many(xs, ys, cfg: PotentialKernelConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Vectorized policy evaluation over integer offset arrays."""
    xs = np.asarray(xs, dtype=np.int64)
    ys = np.asarray(ys, dtype=np.int64)
    r = np.hypot(xs, ys)
    out = np.zeros(xs.shape, dtype=np.float64)
    near = (r <= cfg.asymptotic_cutoff_radius) & (r > 0)
    far = ~near & (r > 0)
    if near.any():
        out[near] = potential_exact_many(xs[near], ys[near])
    if far.any():
        out[far] = (2.0 / math.pi) * np.log(r[far]) + K0
    return out


@lru_cache(maxsize=1)
def _remainder_table() -> np.ndarray:
    """eps on the octant 0 <= y <= x <= cutoff, indexed [x, y].

    Filled one row of x at a time so the quadrature's temporaries stay
    small; entries beyond the cutoff radius (and the origin) stay 0.
    """
    cut = DEFAULT_CONFIG.asymptotic_cutoff_radius
    m = int(cut)
    table = np.zeros((m + 1, m + 1))
    for x in range(1, m + 1):
        y = np.arange(x + 1)
        y = y[np.hypot(x, y) <= cut]
        table[x, y] = (potential_exact_many(np.full(y.shape, x), y)
                       - (2.0 / math.pi) * np.log(np.hypot(x, y)) - K0)
    table.flags.writeable = False   # shared by every caller through the cache
    return table


def kernel_remainder(xs, ys) -> np.ndarray:
    """eps(x) = a(x) - (2/pi) log|x| - k0 over integer offset arrays.

    Exact (quadrature) within the default cutoff radius and 0 beyond it,
    the policy of ``potential_many``; past radius 50, |eps| < 3e-5.
    Raises DomainError at the origin, where eps is singular.
    """
    x1 = np.abs(np.asarray(xs, dtype=np.int64))
    x2 = np.abs(np.asarray(ys, dtype=np.int64))
    if np.any((x1 == 0) & (x2 == 0)):
        raise DomainError("kernel remainder is singular at x = 0")
    table = _remainder_table()
    hi, lo = np.maximum(x1, x2), np.minimum(x1, x2)
    out = np.zeros(hi.shape, dtype=np.float64)
    near = hi < table.shape[0]
    out[near] = table[hi[near], lo[near]]
    return out
