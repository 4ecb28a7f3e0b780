"""Discrete Green's function and Dirichlet solver on lattice domains.

Conventions: generator Delta f(z) = (1/4) sum_e f(z+e) - f(z); the Green's
field solves Delta F = -delta_w with zero boundary values, equivalently
(I - P) F = e_w on interior sites, where P is the interior-to-interior
quarter-weight adjacency.  Fields are stored over interior sites only, in
the domain's fixed (y, x) ordering.

No matrix is assembled.  The solver works on the finest grid of its
multigrid V-cycle, built once per domain: one flat array of four
planes, one per parity class of the sites (see _Grid), in which every
neighbour of a class's sites is a contiguous slice.  (I - P), the
boundary coupling B (boundary data to right-hand side), its transpose
(Green's field to exit law) and the V-cycle's smoothing are sums of such
slices.  CG on (I - P),
preconditioned by one V-cycle, runs on vectors in that layout: a solve
scatters its right-hand side into it once and gathers the solution once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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


# Coarsening stops at the first grid with at most this many sites, which
# the V-cycle solves by a dense inverse.
COARSEST_SITES = 150

# Plane k of a grid holds the cells of (y, x) parity _PLANES[k]; the red
# colour is planes 0 and 3, the black one planes 1 and 2.
_PLANES = ((0, 0), (0, 1), (1, 0), (1, 1))
_RED, _BLACK = (0, 3), (1, 2)


def _dot(a, b):
    """a . b, summed by numpy's own loops: two-operand einsum without
    optimize does not call BLAS, so solves and fits do not depend on the
    BLAS thread count."""
    return np.einsum("i,i->", a, b)


def _max_abs(a):
    """max |a|, by two reductions without a temporary."""
    return max(a.max(), -a.min())


def _inverse(a):
    """The inverse of a symmetric positive definite matrix, by Gauss-Jordan
    elimination without pivoting in numpy's own loops: LAPACK's inverse
    changes bits with the BLAS thread count from about 100 rows on."""
    a = a.copy()
    for k in range(len(a)):
        d = a[k, k]
        row = a[k] / d
        col = a[:, k].copy()
        a -= np.multiply.outer(col, row)
        a[k] = row
        a[:, k] = -col / d
        a[k, k] = 1.0 / d
    return a


class _Grid:
    """A box of H x W cells of the w-frame, with its site mask indexed
    [y, x], stored as four flat planes: plane k = 2a + b holds the cell
    (y, x) = (2i + a, 2j + b) at k L + (i + 1) C + j.

    A plane has rows i = -1 ... ceil(H/2) of C = ceil(W/2) + 1 cells.  Its
    first and last rows are halo, and so is the last cell of each row,
    which is also cell j = -1 of the next row.  Every cell within one step
    of the box, boundary sites included, thus has a cell of its own, and
    halo and non-site cells hold zero in every array the solver keeps.

    The neighbours of a plane's cells on one side lie in one other plane,
    all at one shift, so they form one contiguous slice.  ``views`` gives
    a plane's own slice and the four neighbour slices, each of length S:
    rows 0 ... ceil(H/2) from the last cell of row -1 for even y, rows
    -1 ... ceil(H/2) - 1 for odd y.  Those are the rows that hold the
    plane's box and boundary cells; the cells outside all four own slices
    are never written.

    A grid solves (D - P) u = f.  ``diagonal`` gives D as (y, x, D) on
    the sites where it is not 1 (see _diagonal); without it D = 1.  The
    grid keeps no D, only ``weight``, 1 / (4 D) on the sites and zero
    elsewhere.
    """

    def __init__(self, mask, diagonal=None):
        self.mask = mask
        half_h, half_w = -(-mask.shape[0] // 2), -(-mask.shape[1] // 2)
        self.row = C = half_w + 1
        self.plane = L = (half_h + 2) * C
        self.span = (half_h + 1) * C
        self.size = 4 * L
        # starts of the slices: own cells, then y - 1, y + 1, x - 1, x + 1
        self.starts = []
        for a, b in _PLANES:
            own = (2 * a + b) * L + (1 - a) * (C - 1)
            ny = (2 * (1 - a) + b) * L - (1 - a)
            nx = (2 * a + 1 - b) * L + (1 - a) * (C - 1)
            self.starts.append((own, ny, ny + C, nx - (1 - b), nx + b))
        # row-major over the mask, so in (y, x) order
        self.sites = self.cells(np.arange(mask.shape[0])[:, None],
                                np.arange(mask.shape[1]))[mask]
        self.u = np.zeros(self.size, np.float32)
        self.f = np.zeros(self.size, np.float32)
        self.weight = np.zeros(self.size, np.float32)
        self.weight[self.sites] = 0.25
        self.scaled = diagonal is not None
        if self.scaled:
            y, x, D = diagonal
            self.weight[self.cells(y, x)] = 0.25 / D

    def cells(self, y, x):
        """Flat cells of box coordinates (y, x), each in -1 ... H or W;
        the parts of y and of x are summed last, so broadcast (y, x) cost
        one pass over the box."""
        return ((2 * (y & 1) * self.plane + ((y >> 1) + 1) * self.row)
                + ((x & 1) * self.plane + (x >> 1)))

    def views(self, a, k):
        """Plane k's own slice of flat array a, then its neighbour slices
        at y - 1, y + 1, x - 1, x + 1."""
        return [a[s:s + self.span] for s in self.starts[k]]

    def blocks(self, a):
        """The box cells of each plane of a, as 2-D views [i, j]."""
        return [a[k * self.plane:(k + 1) * self.plane].reshape(-1, self.row)
                [1:-1, :-1] for k in range(4)]


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


def _quarter(weight):
    """A quarter where a grid's weight, at most a quarter, is positive, and
    zero elsewhere."""
    q = np.ceil(weight)
    q *= 0.25
    return q


class _Level:
    """Smoothing on a grid of even shape, and the transfers to and from
    the grid of every other site of it.

    On every grid (D - P) u = f is relaxed by Gauss-Seidel: a site's new
    value is f / D plus 1 / (4 D) of its neighbours' sum.  A grid with a
    diagonal keeps f / D in place of f, so its sweeps weigh by ``weight``
    alone.  With full weighting R = P^T / 4, bilinear prolongation P, and
    (1/4)(D - P) as the coarse operator for the doubled spacing, the
    coarse right-hand side is P^T of the residual, which the coarse grid
    keeps divided by its D.  After the red-black sweep the residual
    vanishes on black sites, and the black sweep overwrites what P puts
    there, so both transfers touch red sites only: the coarse sites
    themselves (plane 0) and the cell centres between them (plane 3).
    From u = 0 the red sweep leaves u = f / D there, so the residual on
    red sites is a quarter of the black neighbours' sum, whatever D.

    Both go through two scratch arrays laid out as one plane of this
    grid: ``at_sites`` holds the coarse right-hand side, then the coarse
    correction, on the cells of plane 0, which are the coarse grid's
    cells, and ``at_centres`` the residual on those of plane 3.  The
    coarse right-hand side is split into the coarse grid's planes, and
    its correction merged back, by strided copies.  The residual on the
    coarse sites and P^T weigh by the coarse grid's weight, from its
    ``diagonal`` as _Grid takes it, so the split copies the coarse grid's
    f / D.
    """

    def __init__(self, grid: _Grid, coarse: _Grid, diagonal=None):
        C, S = grid.row, grid.span
        self.tmp = np.empty(S, np.float32)
        at_sites = np.zeros(grid.plane + 1, np.float32)
        at_centres = np.zeros(grid.plane + 1, np.float32)
        # plane 0's own slice starts at C - 1 and plane 3's at 0; the
        # centres sit two cells in, so the first coarse site's centre at
        # (i - 1, j - 1) is in the array
        self.coarse_site = at_sites[C - 1:C - 1 + S]
        self.centre = at_centres[2:2 + S]
        # each coarse site's four centres, and each centre's four coarse
        # sites: (i - 1, j - 1), (i - 1, j), (i, j - 1), (i, j) and
        # (i, j), (i, j + 1), (i + 1, j), (i + 1, j + 1)
        self.centres_around = [at_centres[s:s + S] for s in (0, 1, C, C + 1)]
        self.coarse_around = [at_sites[s:s + S] for s in (0, 1, C, C + 1)]
        cells = at_sites[:grid.plane].reshape(-1, C)[1:-1, :-1]
        parts = [cells[a::2, b::2] for a, b in _PLANES]
        self.split = [(dst[:p.shape[0], :p.shape[1]], p)
                      for dst, p in zip(coarse.blocks(coarse.f), parts)]
        self.merge = [(p, src[:p.shape[0], :p.shape[1]])
                      for src, p in zip(coarse.blocks(coarse.u), parts)]
        # the residual and P weigh the centres by a quarter; the residual
        # on the coarse sites and P^T by the coarse grid's weight, laid out
        # as coarse_site: a quarter on plane 0's sites, which are the
        # coarse sites, over D at coarse site (i, j), cell i C + j + 1
        site, centre = (grid.views(grid.weight, k)[0] for k in (0, 3))
        self.site_weight = _quarter(site)
        if diagonal is not None:
            y, x, D = diagonal
            self.site_weight[y * C + x + 1] = 0.25 / D
        self.centre_weight = _quarter(centre) if grid.scaled else centre

        def colour(k, neighbours):
            # (u, f, weight, neighbour slices) of plane k
            return (grid.views(grid.u, k)[0], grid.views(grid.f, k)[0],
                    grid.views(grid.weight, k)[0],
                    grid.views(neighbours, k)[1:])

        self.black_from_f = [colour(k, grid.f) for k in _BLACK]
        self.black = [colour(k, grid.u) for k in _BLACK]
        self.red = [colour(k, grid.u) for k in _RED]

    def down(self):
        # from u = 0 the red sweep gives u = f on red sites, so the black
        # sweep reads f there
        tmp = self.tmp
        for u, f, q, views in self.black_from_f:
            _stencil(u, views, q, tmp, f)
        (_, _, _, around_site), (_, _, _, around_centre) = self.red
        _stencil(self.coarse_site, around_site, self.site_weight, tmp)
        _stencil(self.centre, around_centre, self.centre_weight, tmp)
        # P^T: each coarse site takes a quarter of its four centres'
        # residual, over its D
        _stencil(self.coarse_site, self.centres_around, self.site_weight,
                 tmp, self.coarse_site)
        for dst, src in self.split:
            np.copyto(dst, src)

    def up(self):
        tmp = self.tmp
        for dst, src in self.merge:
            np.copyto(dst, src)
        (u, f, _, _), (u_centre, f_centre, _, _) = self.red
        np.add(f, self.coarse_site, out=u)
        _stencil(u_centre, self.coarse_around, self.centre_weight, tmp,
                 f_centre)
        for u, f, q, views in self.black + self.red:
            _stencil(u, views, q, tmp, f)


def _boundary_distances(mask, depth):
    """For k = 1 ... depth, level k's distances t as an array [direction,
    y, x] over its box, the finest box halved k times: from each site of
    level k, the number of finest-grid steps in direction -y, +y, -x, +x
    to the first non-site of the finest mask, at most 2^k; 0 at
    non-sites.  Cells outside the box are non-sites.

    Level k - 1 gives level k without a scan: a site whose distance at
    level k - 1 stays below the cap keeps it, and one at the cap adds
    that of the level k - 1 cell half a step of level k further on."""
    t = mask.view(np.int8)[None]        # level 0, alike in all directions
    for k in range(1, depth + 1):
        own = t[:, ::2, ::2].copy()     # contiguous, for fast sums
        ahead = np.zeros((4,) + own.shape[1:],
                         np.int8 if k < 7 else np.int16)   # t <= 2^k
        r = range(4) if len(t) == 4 else (0,) * 4
        ahead[0, 1:] = t[r[0], 1:-1:2, ::2]
        ahead[1] = t[r[1], 1::2, ::2]
        ahead[2, :, 1:] = t[r[2], ::2, 1:-1:2]
        ahead[3] = t[r[3], ::2, 1::2]
        ahead *= own == 1 << (k - 1)
        ahead += own
        t = ahead
        yield t


def _diagonal(t, k):
    """D = 1 + (1/4) sum over the four directions of (2^k / t - 1), which
    is 2^k / 4 times the sum of 1 / t, on level k's sites, from their
    distances t (see _boundary_distances): the coarse operator's diagonal
    when the zero boundary value sits t finest-grid steps away, by linear
    extrapolation through it (Shortley & Weller, J. Appl. Phys. 9, 1938).
    Returns (y, x, D) on the sites with a non-site within 2^k - 1 steps;
    D is exactly 1 on the others."""
    s = 1 << k
    least = t.min(axis=0)
    # t is 0 in all four directions at non-sites
    near = np.flatnonzero((least > 0) & (least < s))
    D = 0.25 * s * (1.0 / t.reshape(4, -1)[:, near]).sum(axis=0)
    return (*np.divmod(near, least.shape[1]), D)


@lru_cache(maxsize=16)
def _dense_inverse(shape, mask, diagonal):
    """The symmetrised inverse of (D - P) over the sites of a coarsest
    grid, given by its mask's shape and bytes and the bytes of D on its
    sites in (y, x) order.  D depends on the finer grids, so a rate sweep
    over several n at one angle inverts once per n."""
    y, x = np.nonzero(np.frombuffer(mask, dtype=bool).reshape(shape))
    ids = np.full((shape[0] + 2, shape[1] + 2), -1)
    ids[y + 1, x + 1] = np.arange(y.size)
    A = np.diag(np.frombuffer(diagonal))
    for nb in (ids[y + 1, x], ids[y + 1, x + 2], ids[y, x + 1],
               ids[y + 2, x + 1]):
        on = nb >= 0
        A[np.flatnonzero(on), nb[on]] -= 0.25
    inv = _inverse(A)
    inv = 0.5 * (inv + inv.T)
    inv.flags.writeable = False
    return inv


class _VCycle:
    """Symmetric multigrid V-cycle for (I - P): the CG preconditioner, and
    the grid the solver works on.

    Level k takes the sites of the w-frame with both coordinates
    multiples of 2^k, so the re-entrant tip w = 0, and with it the slit at
    alpha = 0, lies on every grid (Brandt, Math. Comp. 1977).  Its box is
    the interior's bounding box rounded out to multiples of 2^depth, then
    halved k times.  One red-black Gauss-Seidel sweep on the way down and
    one black-red on the way up keep the cycle symmetric and positive
    definite, as CG needs (Tatebe, Copper Mountain Conference on
    Multigrid Methods, 1993).  The coarsest grid, at most COARSEST_SITES
    sites, is solved exactly.

    Injection puts a boundary that lies t < 2^k finest-grid steps from a
    site of level k a whole step of level k away.  So every level k >= 1
    solves (D_k - P) with a diagonal D_k >= 1 (see _diagonal) that moves
    the zero boundary value back to t steps; the coarse operators stay
    symmetric positive definite.  The finest grid keeps D = 1, so the
    operator CG solves is (I - P) alone.  Coarse grids keep their
    right-hand sides divided by D, except the coarsest, whose dense
    inverse carries D.  D lives only while the cycle is built.

    The cycle works in float32, apart from the coarsest grid's dense
    inverse.  It is only CG's preconditioner, and CG stops on the float64
    true residual, so the cycle's precision sets the iteration count, not
    what a solve means, and its passes, bound by memory traffic, move half
    the bytes (Goeddeke, Strzodka & Turek, Int. J. Parallel Emergent
    Distrib. Syst. 22(4), 2007).  Rounding leaves it symmetric to float32
    precision only.  The operator, B, B^T and CG stay float64.

    Buffers are allocated once; a call writes
    every cell it reads before reading it, except cells that stay zero,
    so calls repeat to the last bit.  Calls must not overlap, nor may
    solves on one domain, which share the operator's buffers.

    ``sites`` and ``boundary`` are the finest grid's cells of the domain's
    interior and boundary sites, in the domain's order.  ``green`` holds
    the last Green's solve, (interior index of its source, read-only
    solution on the finest grid), for ``_green`` alone.
    """

    def __init__(self, d: LatticeDomain):
        inside = d.interior_mask        # [wy + c, wx + c]
        c = d.stride // 2               # the row and column of w = 0
        count, depth = d.interior_count, 0
        while count > COARSEST_SITES:
            depth += 1
            s = 1 << depth
            count = np.count_nonzero(inside[c % s::s, c % s::s])
        top = 1 << depth
        # sites come in (y, x) order: the first and last rows are the
        # interior's lowest and highest
        z0, x = d.geometry.z0, d.interior[:, 0]
        xa, xb = x.min() + z0[0], x.max() + z0[0] + 1
        ya, yb = d.interior[0, 1] + z0[1], d.interior[-1, 1] + z0[1] + 1
        x0, y0 = xa // top * top, ya // top * top
        mask = np.zeros((-(-(yb - y0) // top) * top,
                         -(-(xb - x0) // top) * top), dtype=bool)
        mask[ya - y0:yb - y0, xa - x0:xb - x0] = inside[ya + c:yb + c,
                                                        xa + c:xb + c]
        grids, diagonals = [_Grid(mask)], []
        for k, t in enumerate(_boundary_distances(mask, depth), 1):
            diagonals.append(_diagonal(t, k))
            grids.append(_Grid(t[0] > 0, diagonals[-1] if k < depth else None))
        # the coarsest grid takes its right-hand side unscaled, and its
        # dense inverse carries D
        c = grids[-1].mask
        D = np.ones(c.shape)
        if diagonals:
            iy, ix, near = diagonals.pop()
            D[iy, ix] = near
        self.levels = [_Level(*args) for args
                       in zip(grids, grids[1:], diagonals + [None])]
        # only the finest and the coarsest grids read their sites again
        for grid in grids[1:-1]:
            del grid.sites
        self.top, self.coarsest = grids[0], grids[-1]
        self.inverse = _dense_inverse(c.shape, c.tobytes(), D[c].tobytes())
        # mask rows are y, so the mask's sites come in the domain's order
        self.sites = self.top.sites
        bx, by = (d.boundary + np.asarray(z0)).T
        self.boundary = self.top.cells(by - y0, bx - x0)
        self.q = np.zeros(self.top.size)
        self.Ax = np.zeros(self.top.size)
        self.q_views = [self.top.views(self.q, k)[1:] for k in range(4)]
        self.Ax_views = [self.top.views(self.Ax, k)[0] for k in range(4)]
        self.green = (-1, None)

    def __call__(self, r):
        """One V-cycle from f = r, rounded to float32, on the finest grid.
        Returns the finest grid's u, overwritten by the next call."""
        np.copyto(self.top.f, r)
        for level in self.levels:
            level.down()
        c = self.coarsest
        c.u[c.sites] = np.einsum("ij,j->i", self.inverse, c.f[c.sites])
        for level in reversed(self.levels):
            level.up()
        return self.top.u

    def operator(self, x):
        """(I - P) x.  Each site sums its row as a CSR matrix with sorted
        columns does: from 0, the lower-id neighbours (y - 1, x - 1), the
        site, the higher-id ones; so solves repeat to the last bit.
        Returns a buffer of the cycle's, overwritten by the next call."""
        np.multiply(x, 0.25, out=self.q)
        for k, (ym, yp, xm, xp) in enumerate(self.q_views):
            y, s = self.Ax_views[k], self.top.starts[k][0]
            np.subtract(0.0, ym, out=y)
            y -= xm
            y += x[s:s + self.top.span]
            y -= xp
            y -= yp
        # for x zero off the sites, the only other cells made nonzero are
        # the sites' non-site neighbours: the boundary
        self.Ax[self.boundary] = 0.0
        return self.Ax

    def neighbour_sum(self, v):
        """0 + v[y - 1] + v[x - 1] + v[x + 1] + v[y + 1] in every cell of
        the planes' own slices: a site's neighbours in increasing id, as
        CSR and CSC products of the quarter-weight coupling sum them."""
        out = np.zeros(self.top.size)
        for k in range(4):
            _, ym, yp, xm, xp = self.top.views(v, k)
            y = self.top.views(out, k)[0]
            np.add(ym, 0.0, out=y)
            y += xm
            y += xp
            y += yp
        return out


def _multigrid(d: LatticeDomain) -> _VCycle:
    """The domain's V-cycle, built once."""
    cached = getattr(d, "_multigrid_cache", None)
    if cached is None:
        cached = d._multigrid_cache = _VCycle(d)
    return cached


def _gather(d: LatticeDomain, v):
    """The interior vector of a vector on the solver's grid."""
    return v[_multigrid(d).sites]


def _coupling(d: LatticeDomain, h):
    """B h on the solver's grid: the quarter-weight sum of boundary data h
    over each interior site's boundary neighbours."""
    mg = _multigrid(d)
    v = np.zeros(mg.top.size)
    v[mg.boundary] = 0.25 * h
    b = mg.neighbour_sum(v)
    b *= mg.top.weight      # 0 off the sites; the quarter, times 4, is exact
    b *= 4.0
    return b


def _cg(A, b, precond, tol, maxit):
    """Preconditioned CG on x -> A(x); stops when the true residual's
    max-norm is <= tol.  precond is the domain's V-cycle, which works in
    float32; x, p and the residual r stay float64.  A and precond may
    return buffers of their own that their next call overwrites.  The
    cycle's operator scratch q is free once A has returned, and holds the
    updates' products."""
    x = np.zeros_like(b)
    r = b.copy()
    if _max_abs(r) <= tol:
        return x, 0
    z = precond(r)
    p = z.astype(np.float64)
    rz = _dot(r, z)
    tmp = precond.q
    for it in range(1, maxit + 1):
        Ap = A(p)
        step = rz / _dot(p, Ap)
        x += np.multiply(p, step, out=tmp)
        r -= np.multiply(Ap, step, out=tmp)
        if _max_abs(r) <= tol:
            # guard against accumulated drift in the recurrence
            np.subtract(b, A(x), out=r)
            if _max_abs(r) <= tol:
                return x, it
        z = precond(r)
        rz_new = _dot(r, z)
        p *= rz_new / rz
        p += z
        rz = rz_new
    raise ConvergenceError("conjugate gradient did not converge",
                           residual=float(_max_abs(r)), iterations=maxit)


def _solve(d: LatticeDomain, b):
    """x with (I - P) x = b, both on the solver's grid."""
    mg = _multigrid(d)
    x, _ = _cg(mg.operator, b, mg, RESIDUAL_TOLERANCE, MAX_ITERATIONS)
    return x


def _green(d: LatticeDomain, w):
    """G(., w) on the solver's grid, read-only.  The domain keeps the last
    source's solution, so a field and an exit law from one source cost one
    solve; a solve from another source replaces it."""
    mg = _multigrid(d)
    i = d.require_interior(w)
    if mg.green[0] != i:
        b = np.zeros(mg.top.size)
        b[mg.sites[i]] = 1.0
        x = _solve(d, b)
        x.flags.writeable = False
        mg.green = (i, x)
    return mg.green[1]


def green_solve(d: LatticeDomain, w) -> ScalarField:
    """Discrete Green's function G(., w): expected visits to w before exit."""
    return ScalarField(d, _gather(d, _green(d, w)))


def dirichlet_solve(d: LatticeDomain, h) -> ScalarField:
    """Discrete-harmonic extension of boundary data h (per boundary site)."""
    h = np.asarray(h, dtype=np.float64)
    if h.shape != (d.boundary_count,):
        raise DomainError("boundary data length must equal boundary count")
    if not np.all(np.isfinite(h)):
        raise DomainError("boundary data must be finite")
    return ScalarField(d, _gather(d, _solve(d, _coupling(d, h))))


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
    mg = _multigrid(d)
    return mg.neighbour_sum(0.25 * _green(d, x))[mg.boundary]
