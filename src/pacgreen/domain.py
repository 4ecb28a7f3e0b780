"""Pacman domains and their lattice discretization.

A pacman domain of scale n and wedge angle alpha in [0, pi] is the disk
sector

    { r e^{i theta} : 0 < theta < 2 pi - alpha, 0 < r < 2n } - z0,

where z0 is the lattice point closest to n e^{i (pi - alpha/2)}.  Two
coordinate frames appear throughout:

  * the z-frame, in which lattice walks live and the origin is the point
    Green's functions are anchored at;
  * the w-frame, w = z + z0, in which the re-entrant tip sits at 0 and the
    membership test is a plain sector condition.

The boundary is partitioned into radial arcs of width log^2 n measured
from the tip; the last arc (index N) also carries the whole circular part.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

# Distance below which a point counts as sitting on the tip singularity.
TIP_GUARD = 1e-9

# Peak bytes per cell of the (4n + 3)^2 grid while build_lattice_domain runs
# (11.21 MB at n = 128 by tracemalloc).
_BYTES_PER_CELL = 42


def c_alpha(alpha: float) -> float:
    """Rate exponent pi / (2 pi - alpha), increasing from 1/2 to 1."""
    return math.pi / (2.0 * math.pi - alpha)


def _closest_lattice_point(target: complex) -> tuple[int, int]:
    """Lattice point minimizing distance to target, ties by smaller x then y."""
    cx, cy = round(target.real), round(target.imag)
    best = None
    for x in (cx - 1, cx, cx + 1):
        for y in (cy - 1, cy, cy + 1):
            d = abs(complex(x, y) - target)
            key = (d, x, y)
            if best is None or key < best:
                best = key
    return best[1], best[2]


@dataclass(frozen=True)
class PacmanGeometry:
    """Continuous description of one pacman domain."""

    alpha: float
    n: int
    z0: tuple[int, int]
    c_alpha: float
    N: int
    radius: float

    @property
    def z0_complex(self) -> complex:
        return complex(self.z0[0], self.z0[1])

    @property
    def bucket_width(self) -> float:
        """Radial arc width log^2 n (natural logarithm)."""
        return math.log(self.n) ** 2


def build_geometry(alpha: float, n: int) -> PacmanGeometry:
    """Construct the geometry for wedge angle alpha and scale n."""
    if not (0.0 <= alpha <= math.pi):
        raise DomainError(f"alpha must lie in [0, pi], got {alpha}")
    if int(n) != n or n < 8:
        raise DomainError(f"n must be an integer >= 8, got {n}")
    n = int(n)
    z0 = _closest_lattice_point(n * np.exp(1j * (math.pi - alpha / 2.0)))
    N = math.ceil(2 * n / math.log(n) ** 2)
    return PacmanGeometry(alpha=float(alpha), n=n, z0=z0,
                          c_alpha=c_alpha(alpha), N=N, radius=2.0 * n)


def sector_mask(g: PacmanGeometry, wx, wy):
    """Vectorized membership test in w-frame coordinates (tip at 0).

    True where 0 < |w| < 2n and the argument of w, taken in [0, 2 pi),
    is strictly inside (0, 2 pi - alpha).  Points exactly on either wedge
    edge are excluded.
    """
    wx = np.asarray(wx)
    wy = np.asarray(wy)
    s, c = math.sin(g.alpha), math.cos(g.alpha)
    r2 = wx * wx + wy * wy
    inside_disk = (r2 > 0) & (r2 < (2 * g.n) ** 2)
    # the theta = 0 edge
    on_positive_axis = (wy == 0) & (wx > 0)
    # the theta = 2 pi - alpha edge and the wedge below it: rotate by alpha
    # and look for arguments landing in [0, alpha)
    ry = wx * s + wy * c
    # rounding in sin/cos leaves lattice points on a lattice-direction edge
    # a few ulps off it; lattice points off an edge sit far above this
    on_edge = np.abs(ry) <= 1e-12 * (np.abs(wx) + np.abs(wy))
    wedge = (wy <= 0) & np.where(on_edge, wx * c - wy * s > 0, ry > 0)
    return inside_disk & ~on_positive_axis & ~wedge


def _as_complex(z) -> complex:
    """A point given as an (x, y) pair (tuple, list or array row), or as a
    complex number.  DomainError for coordinates beyond float range."""
    try:
        return complex(z[0], z[1]) if np.ndim(z) == 1 else complex(z)
    except OverflowError:
        raise DomainError(f"point {z} is beyond float range") from None


def contains(g: PacmanGeometry, z) -> bool:
    """True iff the z-frame point z lies strictly inside the domain."""
    w = _as_complex(z) + g.z0_complex
    return bool(sector_mask(g, np.float64(w.real), np.float64(w.imag)))


def arc_index(g: PacmanGeometry, z) -> int:
    """Arc bucket of a boundary point: radial bucket of |z + z0|.

    Buckets have width log^2 n; everything at tip-distance
    >= (N - 1) log^2 n, including the circular part, maps to N.
    """
    r = abs(_as_complex(z) + g.z0_complex)
    return min(g.N, int(r / g.bucket_width) + 1)


def arc_index_of_radius(g: PacmanGeometry, r):
    """Vectorized arc bucket from tip-distance r."""
    k = np.floor(np.asarray(r, dtype=np.float64) / g.bucket_width).astype(np.int64) + 1
    return np.minimum(k, g.N)


def nearest_boundary(g: PacmanGeometry, z) -> tuple[float, int]:
    """Distance from z to the continuous boundary and the nearest arc index."""
    w = _as_complex(z) + g.z0_complex
    R = g.radius
    candidates = []
    # ray at theta = 0
    t = min(max(w.real, 0.0), R)
    candidates.append((abs(w - t), t))
    # ray at theta = 2 pi - alpha: rotate onto the positive axis
    wr = w * np.exp(1j * g.alpha)
    t = min(max(wr.real, 0.0), R)
    candidates.append((abs(wr - t), t))
    # circular arc
    candidates.append((abs(R - abs(w)), R))
    d, t = min(candidates)
    k = min(g.N, int(t / g.bucket_width) + 1)
    return d, k


@dataclass
class LatticeDomain:
    """Lattice discretization: interior sites, boundary sites, arc indices.

    Sites are stored in z-frame coordinates, ordered row-major by y then x
    so that solver iterations are reproducible.  Boundary sites are the
    non-interior lattice points one step from an interior point.
    """

    geometry: PacmanGeometry
    interior: np.ndarray        # (M, 2) int64
    boundary: np.ndarray        # (B, 2) int64
    boundary_arc: np.ndarray    # (B,) int64 in 1..N
    _interior_grid: np.ndarray = field(repr=False)   # dense w-frame index grid
    _boundary_grid: np.ndarray = field(repr=False)
    _offset: int = field(repr=False)

    @property
    def interior_count(self) -> int:
        return self.interior.shape[0]

    @property
    def boundary_count(self) -> int:
        return self.boundary.shape[0]

    def _grid_lookup(self, grid: np.ndarray, z) -> int:
        c = _as_complex(z)
        wx = int(c.real) + self.geometry.z0[0] + self._offset
        wy = int(c.imag) + self.geometry.z0[1] + self._offset
        if not (0 <= wx < grid.shape[0] and 0 <= wy < grid.shape[1]):
            return -1
        return int(grid[wx, wy])

    def interior_index(self, z) -> int:
        """Dense index of an interior site, or -1."""
        return self._grid_lookup(self._interior_grid, z)

    def require_interior(self, z) -> int:
        """Dense index of an interior site; DomainError for any other point."""
        i = self.interior_index(z)
        if i < 0:
            raise DomainError(f"{z} is not an interior site")
        return i

    def boundary_index(self, z) -> int:
        """Dense index of a boundary site, or -1."""
        return self._grid_lookup(self._boundary_grid, z)


def _from_mask(g: PacmanGeometry, interior: np.ndarray, off: int) -> LatticeDomain:
    """Lattice domain from a w-frame interior mask indexed [wx + off, wy + off].

    The mask must leave a one-cell margin so every boundary site lands on
    the grid.  Boundary sites are the non-interior 4-neighbours of interior
    sites.
    """
    near = np.zeros_like(interior)
    near[1:, :] |= interior[:-1, :]
    near[:-1, :] |= interior[1:, :]
    near[:, 1:] |= interior[:, :-1]
    near[:, :-1] |= interior[:, 1:]
    boundary = near & ~interior

    def sites(mask):
        # argwhere on the transposed mask yields (y, x) lexicographic order
        wy, wx = (np.argwhere(mask.T) - off).T
        grid = np.full(mask.shape, -1, dtype=np.int64)
        grid[wx + off, wy + off] = np.arange(wx.size)
        return np.stack([wx - g.z0[0], wy - g.z0[1]], axis=1), grid, wx, wy

    int_coords, int_grid, _, _ = sites(interior)
    bnd_coords, bnd_grid, bwx, bwy = sites(boundary)
    arcs = arc_index_of_radius(g, np.hypot(bwx, bwy))
    return LatticeDomain(geometry=g, interior=int_coords, boundary=bnd_coords,
                         boundary_arc=arcs, _interior_grid=int_grid,
                         _boundary_grid=bnd_grid, _offset=off)


def lattice_domain_from_sites(g: PacmanGeometry, interior_sites) -> LatticeDomain:
    """Lattice domain with an explicit interior site set (z-frame points).

    Boundary and arc classification follow the same rules as the full
    discretization.  Intended for small hand-checkable domains; the
    geometry supplies the coordinate frame and arc metadata.
    """
    w = np.array([(int(p[0]), int(p[1])) for p in interior_sites],
                 dtype=np.int64).reshape(-1, 2)
    if not w.size:
        raise DomainError("need at least one interior site")
    w += np.array(g.z0, dtype=np.int64)
    off = int(np.abs(w).max()) + 2
    mask = np.zeros((2 * off + 1, 2 * off + 1), dtype=bool)
    mask[w[:, 0] + off, w[:, 1] + off] = True
    return _from_mask(g, mask, off)


def build_lattice_domain(g: PacmanGeometry) -> LatticeDomain:
    """Enumerate interior and boundary lattice sites of the domain.

    Raises DomainError, before allocating, when the grid's working memory
    would exceed the machine's physical memory.
    """
    off = 2 * g.n + 1
    need = _BYTES_PER_CELL * (2 * off + 1) ** 2
    if hasattr(os, "sysconf"):
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        if need > have:
            raise DomainError(f"n = {g.n} needs about {need / 2**30:.3g} GiB "
                              f"for its lattice, over the {have / 2**30:.3g} "
                              "GiB of physical memory")
    ax = np.arange(-off, off + 1, dtype=np.int64)
    return _from_mask(g, sector_mask(g, ax[:, None], ax[None, :]), off)
