"""Discrete Green's function and Dirichlet solver on lattice domains.

Conventions: generator Delta f(z) = (1/4) sum_e f(z+e) - f(z); the Green's
field solves Delta F = -delta_w with zero boundary values, equivalently
(I - P) F = e_w on interior sites, where P is the interior-to-interior
quarter-weight adjacency.  Fields are stored over interior sites only, in
the domain's fixed (y, x) ordering.

No matrix is assembled.  A neighbour table read off the site grid once per
domain holds the site id of each interior site's four neighbours; (I - P),
the boundary coupling B (boundary data to right-hand side) and its
transpose (Green's field to exit law) are all applied from it.  CG on
(I - P) is preconditioned by one multigrid V-cycle, built once per domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .domain import LatticeDomain
from .errors import ConvergenceError, DomainError, InvariantError
from .potential import potential_many
from .walk_mc import ArcMeasure

# Stopping rule of every Dirichlet solve: max-norm true residual.
RESIDUAL_TOLERANCE = 1e-10
MAX_ITERATIONS = 200_000


@dataclass
class ScalarField:
    """Real value per interior site of a lattice domain."""

    domain: LatticeDomain
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != (self.domain.interior_count,):
            raise InvariantError("field length must equal interior site count")
        if not np.all(np.isfinite(v)):
            raise InvariantError("field values must be finite")
        self.values = v

    def value_at(self, z) -> float:
        return float(self.values[self.domain.require_interior(z)])


def _neighbours(d: LatticeDomain):
    """Site ids of every interior site's four neighbours, shape (4, M).

    Row k is the neighbour at cell offset (-1, -stride, +stride, +1)[k],
    that is y - 1, x - 1, x + 1, y + 1: the order of increasing id.  Ids
    below M are interior sites; M + j is boundary site j.
    """
    cached = getattr(d, "_neighbour_cache", None)
    if cached is None:
        step = np.array([[-1], [-d.stride], [d.stride], [1]])
        cached = d._neighbour_cache = d.grid[d.flat(d.interior) + step]
    return cached


def _operator(d: LatticeDomain, x):
    """(I - P) x.  Each row is summed as a CSR matrix with sorted columns
    sums it: from 0, the lower-id neighbours, the site, the higher-id ones;
    so solves repeat to the last bit.  In place, because temporaries of
    this size cost more than the sums."""
    n0, n1, n2, n3 = _neighbours(d)
    q = np.concatenate((0.25 * x, np.zeros(d.boundary_count)))
    y = q.take(n0)
    np.subtract(0.0, y, out=y)
    y -= q.take(n1)
    y += x
    y -= q.take(n2)
    y -= q.take(n3)
    return y


def _coupling(d: LatticeDomain, h):
    """B h: the quarter-weight sum of boundary data h over each interior
    site's boundary neighbours, summed in the same order."""
    n0, n1, n2, n3 = _neighbours(d)
    r = np.concatenate((np.zeros(d.interior_count), 0.25 * h))
    return 0.0 + r[n0] + r[n1] + r[n2] + r[n3]


# Coarsening stops at the first grid with at most this many sites, which
# the V-cycle solves by a dense inverse.
COARSEST_SITES = 150

# Sub-lattices of the two colours, by (y, x) parity in the w-frame.
_RED = ((0, 0), (1, 1))
_BLACK = ((0, 1), (1, 0))


def _sub(a, i, j, shape):
    """Every other cell of a padded level array from (i, j) on: one
    sub-lattice of a (shape)-sized grid, or its neighbours on one side."""
    return a[i:i + shape[0]:2, j:j + shape[1]:2]


def _around(a, i, j, shape):
    """The four neighbour views of sub-lattice (i, j) of padded array a."""
    return (_sub(a, i, j + 1, shape), _sub(a, i + 2, j + 1, shape),
            _sub(a, i + 1, j, shape), _sub(a, i + 1, j + 2, shape))


def _block(a):
    """The four coarse cells around each centre, as views of padded a."""
    return a[:-1, :-1], a[:-1, 1:], a[1:, :-1], a[1:, 1:]


def _stencil(out, views, weight, tmp, f=None):
    """out = weight * (sum of the four views), plus f when given."""
    np.add(views[0], views[1], out=tmp)
    tmp += views[2]
    tmp += views[3]
    if f is None:
        np.multiply(tmp, weight, out=out)
    else:
        tmp *= weight
        np.add(tmp, f, out=out)


class _Grid:
    """One level of the V-cycle: its site mask over a box of the w-frame,
    indexed [y, x], and the correction u and right-hand side f on it,
    each with a zero halo.  Cells off the mask stay zero."""

    def __init__(self, mask):
        self.mask = mask
        self.u = np.zeros((mask.shape[0] + 2, mask.shape[1] + 2))
        self.f = np.zeros_like(self.u)


class _Level:
    """Smoothing on a grid of even shape, and the transfers to and from
    the grid of every other site of it.

    On every grid (I - P) u = f is relaxed by Gauss-Seidel: a site's new
    value is f plus a quarter of its neighbours' sum.  With full weighting
    R = P^T / 4, bilinear prolongation P, and (1/4)(I - P) as the coarse
    operator for the doubled spacing, the coarse right-hand side is P^T
    of the residual.  After the red-black sweep the residual vanishes on
    black sites, and the black sweep overwrites what P puts there, so
    both transfers touch red sites only: the coarse sites themselves
    (even, even) and the cell centres between them (odd, odd).
    """

    def __init__(self, grid: _Grid, coarse: _Grid):
        shape = grid.mask.shape
        u, f, cu = grid.u, grid.f, coarse.u
        self.tmp = np.empty((shape[0] // 2, shape[1] // 2))
        self.res = np.zeros((shape[0] // 2 + 1, shape[1] // 2 + 1))
        self.coarse_f, self.coarse_u = coarse.f[1:-1, 1:-1], cu[1:-1, 1:-1]
        self.centre_from_coarse = _block(cu[1:, 1:])

        def colour(c, neighbours):
            # (u, f, quarter mask, neighbour views) on sub-lattice c
            return (_sub(u, c[0] + 1, c[1] + 1, shape),
                    _sub(f, c[0] + 1, c[1] + 1, shape),
                    0.25 * grid.mask[c[0]::2, c[1]::2],
                    _around(neighbours, *c, shape))

        self.black_from_f = [colour(c, f) for c in _BLACK]
        self.black = [colour(c, u) for c in _BLACK]
        self.red = [colour(c, u) for c in _RED]

    def down(self):
        # from u = 0 the red sweep gives u = f on red sites, so the black
        # sweep reads f there
        tmp = self.tmp
        for u, f, q, views in self.black_from_f:
            _stencil(u, views, q, tmp, f)
        (_, _, q_site, around_site), (_, _, q_centre, around_centre) = self.red
        _stencil(self.coarse_f, around_site, q_site, tmp)
        _stencil(self.res[1:, 1:], around_centre, q_centre, tmp)
        # P^T: each coarse site takes a quarter of its four centres' residual
        _stencil(self.coarse_f, _block(self.res), q_site, tmp, self.coarse_f)

    def up(self):
        tmp = self.tmp
        (u, f, _, _), (u_centre, f_centre, q_centre, _) = self.red
        np.add(f, self.coarse_u, out=u)
        _stencil(u_centre, self.centre_from_coarse, q_centre, tmp, f_centre)
        for u, f, q, views in self.black + self.red:
            _stencil(u, views, q, tmp, f)


class _VCycle:
    """Symmetric multigrid V-cycle for (I - P): the CG preconditioner.

    Level k takes the sites of the w-frame with both coordinates
    multiples of 2^k, so the re-entrant tip w = 0, and with it the slit at
    alpha = 0, lies on every grid (Brandt, Math. Comp. 1977).  Its box is
    the interior's bounding box rounded out to multiples of 2^depth, then
    halved k times.  One red-black Gauss-Seidel sweep on the way down and
    one black-red on the way up keep the cycle symmetric and positive
    definite, as CG needs (Tatebe, Copper Mountain Conference on
    Multigrid Methods, 1993).  The coarsest grid, at most COARSEST_SITES
    sites, is solved exactly.  Buffers are allocated once; a call writes
    every cell it reads before reading it, except cells that stay zero,
    so calls repeat to the last bit.  Calls must not overlap.
    """

    def __init__(self, d: LatticeDomain):
        x, y = (d.interior + np.asarray(d.geometry.z0)).T     # tip at 0
        both = x | y     # a multiple of 2^k iff both coordinates are
        depth = 0
        while np.count_nonzero(both & ((1 << depth) - 1) == 0) > COARSEST_SITES:
            depth += 1
        top = 1 << depth
        x = x - x.min() // top * top
        y = y - y.min() // top * top
        mask = np.zeros((-(-(y.max() + 1) // top) * top,
                         -(-(x.max() + 1) // top) * top), dtype=bool)
        mask[y, x] = True
        grids = [_Grid(mask)]
        for _ in range(depth):
            grids.append(_Grid(grids[-1].mask[::2, ::2].copy()))
        self.levels = [_Level(g, coarse) for g, coarse in zip(grids, grids[1:])]
        top_grid, coarsest = grids[0], grids[-1]
        self.f0, self.u0 = top_grid.f.reshape(-1), top_grid.u.reshape(-1)
        self.cells = self._cells(top_grid, x, y)
        self.coarse_f = coarsest.f.reshape(-1)
        self.coarse_u = coarsest.u.reshape(-1)
        self.coarse_cells, self.coarse_inverse = self._dense(coarsest)

    @staticmethod
    def _cells(grid, x, y):
        """Flat cells of sites (x, y) in a grid's padded arrays."""
        return (y + 1) * grid.u.shape[1] + x + 1

    @staticmethod
    def _dense(grid):
        """Flat cells of the coarsest grid's sites and the inverse of
        (I - P) over them."""
        y, x = np.nonzero(grid.mask)
        cells = _VCycle._cells(grid, x, y)
        ids = np.full(grid.u.size, -1)
        ids[cells] = np.arange(cells.size)
        A = np.eye(cells.size)
        for step in (1, grid.u.shape[1]):
            for nb in (ids[cells - step], ids[cells + step]):
                on = nb >= 0
                A[np.flatnonzero(on), nb[on]] -= 0.25
        inv = np.linalg.inv(A)
        return cells, 0.5 * (inv + inv.T)

    def __call__(self, r):
        self.f0[self.cells] = r
        for level in self.levels:
            level.down()
        self.coarse_u[self.coarse_cells] = (self.coarse_inverse
                                            @ self.coarse_f[self.coarse_cells])
        for level in reversed(self.levels):
            level.up()
        return self.u0.take(self.cells)


def _multigrid(d: LatticeDomain) -> _VCycle:
    """The domain's V-cycle, built once."""
    cached = getattr(d, "_multigrid_cache", None)
    if cached is None:
        cached = d._multigrid_cache = _VCycle(d)
    return cached


def _cg(A, b, precond, tol, maxit):
    """Preconditioned CG on x -> A(x); stops when the true residual's
    max-norm is <= tol."""
    x = np.zeros_like(b)
    r = b.copy()
    if np.max(np.abs(r)) <= tol:
        return x, 0
    z = precond(r)
    p = z.copy()
    rz = r @ z
    for it in range(1, maxit + 1):
        Ap = A(p)
        step = rz / (p @ Ap)
        x += step * p
        r -= step * Ap
        if np.max(np.abs(r)) <= tol:
            # guard against accumulated drift in the recurrence
            true_r = b - A(x)
            if np.max(np.abs(true_r)) <= tol:
                return x, it
            r = true_r
        z = precond(r)
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise ConvergenceError("conjugate gradient did not converge",
                           residual=float(np.max(np.abs(r))), iterations=maxit)


def _gauss_seidel(A, b, d: LatticeDomain, tol, maxit):
    # red-black sweeps x <- b + x - A(x); the verification reference for _cg
    parity = (d.interior[:, 0] + d.interior[:, 1]) & 1
    red = parity == 0
    black = ~red
    x = np.zeros_like(b)
    for it in range(1, maxit + 1):
        x[red] = b[red] + (x - A(x))[red]
        x[black] = b[black] + (x - A(x))[black]
        if it % 4 == 0 or it == maxit:
            res = np.max(np.abs(b - A(x)))
            if res <= tol:
                return x, it
    raise ConvergenceError("gauss-seidel did not converge",
                           residual=float(np.max(np.abs(b - A(x)))),
                           iterations=maxit)


def _solve(d: LatticeDomain, b):
    x, _ = _cg(partial(_operator, d), b, _multigrid(d),
               RESIDUAL_TOLERANCE, MAX_ITERATIONS)
    return x


def green_solve(d: LatticeDomain, w) -> ScalarField:
    """Discrete Green's function G(., w): expected visits to w before exit."""
    b = np.zeros(d.interior_count)
    b[d.require_interior(w)] = 1.0
    return ScalarField(d, _solve(d, b))


def dirichlet_solve(d: LatticeDomain, h) -> ScalarField:
    """Discrete-harmonic extension of boundary data h (per boundary site)."""
    h = np.asarray(h, dtype=np.float64)
    if h.shape != (d.boundary_count,):
        raise DomainError("boundary data length must equal boundary count")
    if not np.all(np.isfinite(h)):
        raise DomainError("boundary data must be finite")
    return ScalarField(d, _solve(d, _coupling(d, h)))


def green_via_potential(d: LatticeDomain, w) -> ScalarField:
    """Green's function through the potential-kernel representation.

    Solves the Dirichlet problem with boundary data a(b - w) and subtracts
    a(z - w) pointwise; agrees with green_solve up to solver tolerance and
    kernel evaluation error (the asymptotic form beyond
    ``potential.EXACT_RADIUS``).
    """
    wx, wy = d.interior_site(w)
    h = potential_many(d.boundary[:, 0] - wx, d.boundary[:, 1] - wy)
    ext = dirichlet_solve(d, h)
    a_int = potential_many(d.interior[:, 0] - wx, d.interior[:, 1] - wy)
    return ScalarField(d, ext.values - a_int)


def discrete_arc_measure(d: LatticeDomain, x) -> ArcMeasure:
    """Exact discrete harmonic measure of each boundary arc, seen from x.

    (I - P) is symmetric, so the harmonic extension of boundary data h
    evaluated at x is G(., x) . (B h): one Green's solve gives the weight
    (B^T G(., x))_b of every boundary site b, and summing over each arc
    gives the row.  It is nonnegative and sums to 1 up to solver tolerance
    (``walk_mc.ARC_TOLERANCE``).
    """
    p = np.bincount(d.boundary_arc - 1, weights=_exit_weights(d, x),
                    minlength=d.geometry.N)
    return ArcMeasure(probabilities=p)


def _exit_weights(d: LatticeDomain, x):
    """(B^T G(., x))_b for every boundary site b: the law of the site where
    the walk from x leaves the domain.  Each site's weight accumulates over
    its interior neighbours in increasing id, as a CSC product sums it."""
    G = green_solve(d, x).values
    M = d.interior_count
    w = np.bincount(_neighbours(d).T.ravel(), weights=np.repeat(0.25 * G, 4),
                    minlength=M + d.boundary_count)
    return w[M:]
