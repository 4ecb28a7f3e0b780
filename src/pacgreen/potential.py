r"""Potential kernel of the planar simple random walk.

The kernel is the lattice integral

    a(x) = (2 pi)^-2 \int_{[-pi,pi]^2} (1 - cos(x . t)) / (1 - (cos t1 + cos t2)/2) dt.

Integrating one axis in closed form (a residue computation) leaves

    a(x) = (2/pi) \int_0^pi (1 - cos(x1 t) rho(t)^{|x2|}) / s(t) dt,
    s = sqrt(c^2 - 1),  rho = c - s,  c = 2 - cos t,

whose integrand extends analytically to t = 0, so Gauss-Legendre nodes
(never at the endpoint) converge spectrally.  The tests check it against
the direct tensor-product rule over both axes, whose node spacing near
the removable singularity limits that rule to |x| below roughly 50.

The Gauss-Legendre rule comes from Newton iteration on the Legendre
recurrence in numpy's own loops, so the kernel, like the solver, calls
neither BLAS nor LAPACK.  The quadrature needs cos(x1 t) and rho^|x2| at
every node: the remainder table's fill evaluates one cos row per table
row and the powers once per fill, and gives each point the same bits as
``potential_exact_many``, which evaluates both rows per point.

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


def _legendre_rule(n: int):
    """Gauss-Legendre nodes (ascending) and weights of even order n on
    [-1, 1], without LAPACK.

    Newton iteration in theta, x = cos theta, on P_n from the three-term
    recurrence (Hale & Townsend, SIAM J. Sci. Comput. 35(2), 2013),
    vectorised over the n/2 positive nodes and mirrored.  The recurrence
    runs on x - 1 = -2 sin^2(theta/2) and the differences p_j - p_(j-1)
    (Reinsch's form), which keeps the nodes near x = 1 to full relative
    precision.  From Tricomi's guess three steps reach rounding; the
    weights 2 / (dP_n/dtheta)^2 come from a fourth evaluation, whose step
    moves a node by rounding only.
    """
    k = np.arange(1, n // 2 + 1)
    theta = np.arccos((1.0 - (n - 1) / (8.0 * n ** 3))
                      * np.cos((4 * k - 1) * (math.pi / (4 * n + 2))))
    p, d, hp = (np.empty_like(theta) for _ in range(3))
    for _ in range(4):
        h = np.sin(theta / 2.0)
        h *= -2.0 * h                   # x - 1
        np.add(1.0, h, out=p)           # p_1 = x
        np.copyto(d, h)                 # p_1 - p_0
        for j in range(1, n):
            # (j + 1)(p_(j+1) - p_j) = (2j + 1)(x - 1) p_j + j (p_j - p_(j-1))
            np.multiply(h, p, out=hp)
            hp *= (2 * j + 1) / (j + 1)
            d *= j / (j + 1)
            d += hp
            p += d
        # dP_n/dtheta = n (x p_n - p_(n-1)) / sin theta
        dp = h * p
        dp += d
        dp *= n
        dp /= np.sin(theta)
        theta -= p / dp
    x = np.cos(theta)                   # descending
    w = 2.0 / (dp * dp)
    return np.concatenate([-x, x[::-1]]), np.concatenate([w, w[::-1]])


@lru_cache(maxsize=1)
def _gauss_rule():
    nodes, weights = _legendre_rule(QUADRATURE_ORDER)
    t = (nodes + 1.0) * (math.pi / 2.0)
    w = weights * (math.pi / 2.0)
    half = np.sin(t / 2.0)
    s = 2.0 * half * np.sqrt(1.0 + half * half)   # sqrt(c^2 - 1), exact form
    rho = (2.0 - np.cos(t)) - s
    return t, w, s, rho


# Points per quadrature block: two temporaries of _BLOCK x QUADRATURE_ORDER
# doubles (256 KB each) whatever the number of points.
_BLOCK = 64

# Points per block of the evaluations over a whole domain's sites
# (``potential_many`` here, the rate point's errors in ``experiments``):
# their temporaries stay a few hundred KB whatever the domain's size.
SITE_BLOCK = 8192


def _cos_rows(x1) -> np.ndarray:
    """cos(x1 t) at the nodes, one row per entry of x1 (floats)."""
    f = np.multiply(np.asarray(x1, dtype=np.float64)[..., None],
                    _gauss_rule()[0])
    return np.cos(f, out=f)


def _rho_rows(x2) -> np.ndarray:
    """rho(t)^x2 at the nodes, one row per entry of x2 (floats)."""
    return np.power(_gauss_rule()[3],
                    np.asarray(x2, dtype=np.float64)[..., None])


def _integrate(f, out):
    """out = a at a block's points, from f = cos(x1 t) rho^x2 with one row
    a point; f is overwritten.  Each row is combined in the order of the
    one-point formula, so a point's value does not depend on its block."""
    _, w, s, _ = _gauss_rule()
    # (1 - cos(x1 t) rho^x2) / s, times the weights, in place
    np.subtract(1.0, f, out=f)
    f /= s
    f *= w
    # row sums, not f @ w: BLAS rounds a row by its place in the block,
    # and a point's value must not depend on the points beside it
    np.multiply(f.sum(axis=1), 2.0 / math.pi, out=out)


def potential_exact_many(xs, ys) -> np.ndarray:
    """Vectorized exact kernel over 1-D integer offset arrays xs, ys."""
    x1 = np.abs(np.asarray(xs, dtype=np.float64))
    x2 = np.abs(np.asarray(ys, dtype=np.float64))
    out = np.empty(x1.shape)
    for lo in range(0, x1.size, _BLOCK):
        f = _cos_rows(x1[lo:lo + _BLOCK])
        f *= _rho_rows(x2[lo:lo + _BLOCK])
        _integrate(f, out[lo:lo + _BLOCK])
    return out


def potential_exact(x) -> float:
    """a(x) by quadrature; a(0) = 0 exactly."""
    x1, x2 = int(x[0]), int(x[1])
    if x1 == 0 and x2 == 0:
        return 0.0
    return float(potential_exact_many([x1], [x2])[0])


def potential_asymptotic(x) -> float:
    """(2/pi) log|x| + k0; singular at the origin."""
    r = math.hypot(x[0], x[1])
    if r == 0.0:
        raise DomainError("asymptotic form is singular at x = 0")
    return (2.0 / math.pi) * math.log(r) + K0


class _RemainderTable:
    """eps on the octant 0 <= y <= x, indexed [x, y], filled lazily.

    Rows 0..rows-1 are filled; entries beyond EXACT_RADIUS (and the
    origin) stay 0.  One full-size array, filled a row at a time: growing
    it mid-computation then adds no more than the fill's rho^y rows (0.8
    MB to EXACT_RADIUS) and one block's temporaries to the caller's peak,
    and no new allocation on top of the heap to keep freed memory
    resident.
    """

    def __init__(self):
        self.eps = np.zeros((EXACT_RADIUS + 1, EXACT_RADIUS + 1))
        self.rows = 1

    def upto(self, m: int) -> np.ndarray:
        """The table with at least rows 0..min(m, EXACT_RADIUS) filled."""
        m = min(m, EXACT_RADIUS)
        if m < self.rows:
            return self.eps
        # each row reads one row of cos(x t) and the rows of rho^y from
        # y = 0, as slices of one table for all the new rows
        rho_rows = _rho_rows(np.arange(m + 1))
        f = np.empty((_BLOCK, QUADRATURE_ORDER))
        for x in range(self.rows, m + 1):
            cos_x = _cos_rows(x)
            y = np.arange(min(x, math.isqrt(EXACT_RADIUS ** 2 - x * x)) + 1)
            a = np.empty(y.size)
            for lo in range(0, y.size, _BLOCK):
                hi = min(lo + _BLOCK, y.size)
                np.multiply(cos_x, rho_rows[lo:hi], out=f[:hi - lo])
                _integrate(f[:hi - lo], a[lo:hi])
            self.eps[x, y] = a - (2.0 / math.pi) * np.log(np.hypot(x, y)) - K0
            self.rows = x + 1
        return self.eps


_table = _RemainderTable()


def potential_many(xs, ys) -> np.ndarray:
    """a over integer offset arrays: (2/pi) log|x| + k0 + eps, exact within
    EXACT_RADIUS and asymptotic beyond; a(0) = 0."""
    xs = np.asarray(xs, dtype=np.int64)
    ys = np.asarray(ys, dtype=np.int64)
    out = np.zeros(xs.shape, dtype=np.float64)
    for lo in range(0, len(xs), SITE_BLOCK):
        x, y = xs[lo:lo + SITE_BLOCK], ys[lo:lo + SITE_BLOCK]
        r = np.hypot(x, y)
        nz = r > 0
        out[lo:lo + SITE_BLOCK][nz] = ((2.0 / math.pi) * np.log(r[nz]) + K0
                                      + kernel_remainder(x[nz], y[nz]))
    return out


def kernel_remainder(xs, ys) -> np.ndarray:
    """eps(x) = a(x) - (2/pi) log|x| - k0 over integer offset arrays.

    Exact (quadrature) within EXACT_RADIUS and 0 beyond it, the policy of
    ``potential_many``.  Raises DomainError at the origin, where eps is
    singular.
    """
    xs, ys = np.broadcast_arrays(np.asarray(xs, dtype=np.int64),
                                 np.asarray(ys, dtype=np.int64))
    # arrays of our own, even for scalars: the cell index is built in them
    x1 = np.abs(xs, out=np.empty_like(xs))
    x2 = np.abs(ys, out=np.empty_like(ys))
    hi = np.maximum(x1, x2)
    if not hi.size:
        return np.zeros(hi.shape)
    if not hi.all():
        raise DomainError("kernel remainder is singular at x = 0")
    eps = _table.upto(int(hi.max()))
    # one flat lookup; points beyond EXACT_RADIUS read the origin's 0
    lo = np.minimum(x1, x2, out=x1)
    cells = np.multiply(hi, EXACT_RADIUS + 1, out=x2)
    cells += lo
    cells[hi > EXACT_RADIUS] = 0
    return np.asarray(eps.take(cells))
