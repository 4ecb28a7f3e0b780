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

Policy: ``potential_many`` and ``kernel_remainder`` read one table of the
remainder eps(x) = a(x) - (2/pi) log|x| - k0 within EXACT_RADIUS, and
eps = 0 beyond it.  At radius 200 |eps| is about 1.4e-6, well under the
1e-5 budget of the potential-kernel representation of G_D, and order-512
quadrature still resolves the cos(x1 t) oscillation there.
"""

from __future__ import annotations

import math
import types
from functools import lru_cache

import numpy as np

from .errors import DomainError

EULER_GAMMA = 0.5772156649015328606
K0 = (2.0 * EULER_GAMMA + 3.0 * math.log(2.0)) / math.pi


# Gauss-Legendre order of every quadrature of the kernel.
QUADRATURE_ORDER = 512

# Radius within which the kernel is exact; the asymptotic form applies beyond.
EXACT_RADIUS = 200

# Read only by the benchmark's tracer (perfbench/tracing.py), which counts
# the points inside the exact radius; delete it with the tracer's next change.
DEFAULT_CONFIG = types.SimpleNamespace(asymptotic_cutoff_radius=EXACT_RADIUS)


@lru_cache(maxsize=1)
def _gauss_rule():
    nodes, weights = np.polynomial.legendre.leggauss(QUADRATURE_ORDER)
    t = (nodes + 1.0) * (math.pi / 2.0)
    w = weights * (math.pi / 2.0)
    half = np.sin(t / 2.0)
    s = 2.0 * half * np.sqrt(1.0 + half * half)   # sqrt(c^2 - 1), exact form
    rho = (2.0 - np.cos(t)) - s
    return t, w, s, rho


# Points per quadrature block: temporaries of _BLOCK x QUADRATURE_ORDER
# doubles (1 MB) whatever the number of points.
_BLOCK = 256


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
        # row sums, not f @ w: BLAS rounds a row by its place in the block,
        # and a point's value must not depend on the points beside it
        out[lo:lo + _BLOCK] = (2.0 / math.pi) * (f * w).sum(axis=1)
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


class _RemainderTable:
    """eps on the octant 0 <= y <= x, indexed [x, y], filled lazily.

    Rows 0..rows-1 are filled; entries beyond EXACT_RADIUS (and the
    origin) stay 0.  One full-size array, filled in blocks of _BLOCK
    points: growing it mid-computation then leaves no new allocation on
    top of the heap to keep freed memory resident.
    """

    def __init__(self):
        self.eps = np.zeros((EXACT_RADIUS + 1, EXACT_RADIUS + 1))
        self.rows = 1

    def upto(self, m: int) -> np.ndarray:
        """The table with at least rows 0..min(m, EXACT_RADIUS) filled."""
        m = min(m, EXACT_RADIUS)
        if m >= self.rows:
            x, y = np.tril_indices(m + 1)
            r = np.hypot(x, y)
            new = (x >= self.rows) & (r <= EXACT_RADIUS)
            x, y, r = x[new], y[new], r[new]
            self.eps[x, y] = (potential_exact_many(x, y)
                              - (2.0 / math.pi) * np.log(r) - K0)
            self.rows = m + 1
        return self.eps


_table = _RemainderTable()


def potential_many(xs, ys) -> np.ndarray:
    """a over integer offset arrays: (2/pi) log|x| + k0 + eps, exact within
    EXACT_RADIUS and asymptotic beyond; a(0) = 0."""
    xs = np.asarray(xs, dtype=np.int64)
    ys = np.asarray(ys, dtype=np.int64)
    r = np.hypot(xs, ys)
    out = np.zeros(r.shape, dtype=np.float64)
    nz = r > 0
    out[nz] = ((2.0 / math.pi) * np.log(r[nz]) + K0
               + kernel_remainder(xs[nz], ys[nz]))
    return out


def kernel_remainder(xs, ys) -> np.ndarray:
    """eps(x) = a(x) - (2/pi) log|x| - k0 over integer offset arrays.

    Exact (quadrature) within EXACT_RADIUS and 0 beyond it, the policy of
    ``potential_many``.  Raises DomainError at the origin, where eps is
    singular.
    """
    x1 = np.abs(np.asarray(xs, dtype=np.int64))
    x2 = np.abs(np.asarray(ys, dtype=np.int64))
    if np.any((x1 == 0) & (x2 == 0)):
        raise DomainError("kernel remainder is singular at x = 0")
    hi, lo = np.maximum(x1, x2), np.minimum(x1, x2)
    out = np.zeros(hi.shape, dtype=np.float64)
    if hi.size:
        eps = _table.upto(int(hi.max()))
        near = hi <= EXACT_RADIUS
        out[near] = eps[hi[near], lo[near]]
    return out
