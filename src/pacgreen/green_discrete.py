"""Discrete Green's function and Dirichlet solver on lattice domains.

Conventions: generator Delta f(z) = (1/4) sum_e f(z+e) - f(z); the Green's
field solves Delta F = -delta_w with zero boundary values, equivalently
(I - P) F = e_w on interior sites, where P is the interior-to-interior
quarter-weight adjacency.  Fields are stored over interior sites only, in
the domain's fixed (y, x) ordering.

No matrix is assembled.  A neighbour table read off the site grid once per
domain holds the site id of each interior site's four neighbours; (I - P),
the boundary coupling B (boundary data to right-hand side) and its
transpose (Green's field to exit law) are all applied from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .box import box_green
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


def _box_inverse(flat, solve, shape, r):
    """Scatter r into the box, solve there, gather."""
    box = np.zeros(shape[0] * shape[1])
    box[flat] = r
    return solve(box.reshape(shape)).ravel()[flat]


def _box_preconditioner(d: LatticeDomain):
    """Exact inverse of (I - P) on the interior's bounding box, restricted.

    The box carries Dirichlet walls (``box.box_green``).  Restricted to
    the domain's sites the inverse stays symmetric positive definite, so
    it preconditions CG on (I - P); this is the fast-Poisson
    idea of the capacitance method (Buzbee, Dorr, George & Golub, SIAM J.
    Numer. Anal. 1971).
    """
    cached = getattr(d, "_precond_cache", None)
    if cached is not None:
        return cached
    x = d.interior[:, 0] - d.interior[:, 0].min()
    y = d.interior[:, 1] - d.interior[:, 1].min()
    nx, ny = int(x.max()) + 1, int(y.max()) + 1
    d._precond_cache = partial(_box_inverse, y * nx + x, box_green(nx, ny),
                               (ny, nx))
    return d._precond_cache


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
    x, _ = _cg(partial(_operator, d), b, _box_preconditioner(d),
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
