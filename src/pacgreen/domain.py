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

import ctypes
import math
import numbers
import os
from dataclasses import dataclass, field
from decimal import Decimal

import numpy as np

from .errors import DomainError

# Distance below which a point counts as sitting on the tip singularity.
TIP_GUARD = 1e-9

# Bytes per cell of a lattice domain's box (see ``_box``) that a build and
# what follows it, a Green's solve or a rate point, may take at their peak.
# At n = 256 and 512, tracemalloc peaks at 94 to 99 per box cell and peak
# RSS grows by 90 to 106, at alpha = 0, pi/2 and pi alike; 240 leaves room
# for what a peak does not see: first-touch pages and freed memory kept
# for reuse.  With 8 GiB the guard triggers at n = 1 496 at alpha = 0 and
# at n = 2 115 at alpha = pi.  At small n fixed costs exceed it, but there
# the guard never triggers.  The measurements are in CHANGES.md.
_BYTES_PER_CELL = 240


def _keep_freed_memory(libc) -> None:
    """Pin glibc's malloc thresholds where they would settle after freeing
    one 32 MiB block, so memory a rate point frees stays mapped for the next.

    By default glibc raises its mmap threshold only up to the largest block
    freed so far and trims the heap top beyond twice that, so each solve
    hands its temporaries back to the OS and the next one faults them in
    again.  32 MiB is glibc's ceiling for the mmap threshold on 64-bit and
    the trim threshold is twice it, glibc's own rule: freed blocks under
    32 MiB are reused, and up to 64 MiB of free heap top stays resident.
    A C library without ``mallopt`` (macOS, Windows) is left alone.
    """
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)    # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)    # M_TRIM_THRESHOLD


# the process's global symbols, C library included, on POSIX; the Python
# DLL, which has no mallopt, on Windows
_keep_freed_memory(ctypes.pythonapi)


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
    alpha, n = require_angle(alpha), require_scale(n)
    z0 = _closest_lattice_point(n * np.exp(1j * (math.pi - alpha / 2.0)))
    N = math.ceil(2 * n / math.log(n) ** 2)
    return PacmanGeometry(alpha=alpha, n=n, z0=z0,
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
    # the theta = 0 edge
    on_positive_axis = (wy == 0) & (wx > 0)
    # the theta = 2 pi - alpha edge and the wedge below it: rotate by alpha
    # and look for arguments landing in [0, alpha)
    ry = wx * s + wy * c
    # rounding in sin/cos leaves lattice points on a lattice-direction edge
    # a few ulps off it; lattice points off an edge sit far above this
    on_edge = np.abs(ry) <= 1e-12 * (np.abs(wx) + np.abs(wy))
    wedge = (wy <= 0) & np.where(on_edge, wx * c - wy * s > 0, ry > 0)
    return _inside_disk(g, wx, wy) & ~on_positive_axis & ~wedge


def _inside_disk(g: PacmanGeometry, wx, wy):
    """0 < |w| < 2n: all of ``sector_mask`` above the axis, where neither
    edge nor the wedge reaches for any alpha in [0, pi]."""
    r2 = wx * wx + wy * wy
    return (r2 > 0) & (r2 < (2 * g.n) ** 2)


def point_xy(z) -> tuple:
    """The coordinates of a point given as a complex number, an array of
    shape (2,) or a tuple or list of two scalars, entries as given.
    DomainError for anything else, so no entry past the second is dropped
    and no nested pair is taken for a point."""
    if isinstance(z, numbers.Complex):
        return z.real, z.imag
    if (isinstance(z, np.ndarray) and z.shape == (2,)
            or isinstance(z, (tuple, list)) and len(z) == 2
            and np.isscalar(z[0]) and np.isscalar(z[1])):
        return z[0], z[1]
    raise DomainError(f"a point is a complex number or an (x, y) pair, got {z!r}")


def lattice_site(z) -> tuple[int, int]:
    """The lattice site a point names, as two ints: ``point_xy``'s shape
    rule, integer coordinates, (3.0, 4) read as (3, 4); else DomainError."""
    x, y = point_xy(z)
    try:
        site = int(x), int(y)
        if site == (x, y):
            return site
    except (TypeError, ValueError, OverflowError):
        pass
    raise DomainError(f"{z!r} is not a lattice site")


def lattice_coordinates(v) -> np.ndarray:
    """The array form of ``lattice_site``: an array of coordinates as
    int64, integer arrays as they are, integer-valued floats as integers.
    DomainError for any other entry, or one beyond int64."""
    a = np.asarray(v)
    if a.dtype.kind in "bi":
        return a.astype(np.int64, copy=False)
    if a.dtype.kind in "fuO":
        try:
            with np.errstate(invalid="ignore"):   # nan, inf, past int64
                out = a.astype(np.int64)
            if np.all(out == a):
                return out
        except (TypeError, ValueError, OverflowError):
            pass
    raise DomainError("lattice coordinates must be integers within int64")


def _as_complex(z) -> complex:
    """``point_xy`` as a complex number.  DomainError for coordinates
    beyond float range."""
    try:
        return complex(*point_xy(z))
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
    return int(arc_index_of_radius(g, abs(_as_complex(z) + g.z0_complex)))


def arc_edges(g: PacmanGeometry) -> np.ndarray:
    """Tip-radii k log^2 n, k = 0..N, capped at the radius 2n: arc k covers
    [edges[k - 1], edges[k]) on both rays."""
    return np.minimum(np.arange(g.N + 1, dtype=np.float64) * g.bucket_width,
                      g.radius)


def arc_index_of_radius(g: PacmanGeometry, r):
    """Vectorized arc bucket from tip-distance r."""
    k = np.floor(np.asarray(r, dtype=np.float64) / g.bucket_width) + 1
    return np.minimum(k, g.N).astype(np.int64)


# How far an arc law may stray from [0, 1] and from total mass 1.  The
# discrete law comes from a solve stopped at max-norm residual 1e-10: its
# row sums to 1 plus the sum of the residuals, measured within 4.4e-9 for
# n <= 256, with every entry positive.  The walk and Brownian laws sum to 1
# up to rounding.
ARC_TOLERANCE = 1e-6


@dataclass
class ArcMeasure:
    """Probability per boundary arc k in 1..N, with optional MC metadata."""

    probabilities: np.ndarray
    trials: int | None = None
    counts: np.ndarray | None = None
    stderr: np.ndarray | None = None

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=np.float64)
        if np.any(p < -ARC_TOLERANCE) or np.any(p > 1.0 + ARC_TOLERANCE):
            raise DomainError("arc probabilities must lie in [0, 1]")
        if abs(p.sum() - 1.0) > ARC_TOLERANCE:
            raise DomainError("arc probabilities must sum to 1")
        self.probabilities = p

    @property
    def total(self) -> float:
        return float(self.probabilities.sum())


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
    return d, int(arc_index_of_radius(g, t))


@dataclass
class LatticeDomain:
    """Lattice discretization: interior sites, boundary sites, arc indices.

    Sites are stored in z-frame coordinates, ordered row-major by y then x
    so that solver iterations are reproducible.  Boundary sites are the
    non-interior lattice points one step from an interior point.

    ``grid`` is the site grid: a box of the w-frame, the interior's
    bounding box and a one-cell margin, of ``height`` rows y and ``width``
    columns x from its corner cell (wx, wy) = ``corner``, flattened with y
    as its rows.  Its cell holds the index i of an interior site
    (0 <= i < M), M + j for boundary site j, or -1; ``flat`` and
    ``unflat`` convert between z-frame sites and cells, and
    ``interior_mask`` is its interior in two dimensions.
    """

    geometry: PacmanGeometry
    interior: np.ndarray        # (M, 2) int64
    boundary: np.ndarray        # (B, 2) int64
    boundary_arc: np.ndarray    # (B,) int64 in 1..N
    grid: np.ndarray = field(repr=False)    # flat int64 site grid
    corner: tuple[int, int] = field(repr=False)
    width: int = field(repr=False)
    height: int = field(repr=False)

    @property
    def interior_count(self) -> int:
        return self.interior.shape[0]

    @property
    def boundary_count(self) -> int:
        return self.boundary.shape[0]

    @property
    def interior_mask(self) -> np.ndarray:
        """Bool mask of the interior, [wy - corner y, wx - corner x]."""
        # -1 off the domain reads as 2^64 - 1, so one comparison finds them
        M = self.interior_count
        return (self.grid.view(np.uint64) < M).reshape(self.height, self.width)

    @property
    def _origin(self) -> tuple[int, int]:
        """(column, row) of z = 0, which is w = z0."""
        (x0, y0), (cx, cy) = self.geometry.z0, self.corner
        return x0 - cx, y0 - cy

    def flat(self, points):
        """Cell index of z-frame sites on the grid (last axis x, y)."""
        p = np.asarray(points)
        ox, oy = self._origin
        return (p[..., 1] + oy) * self.width + p[..., 0] + ox

    def unflat(self, cells):
        """z-frame sites of cell indices, as int64 (..., 2)."""
        y, x = np.divmod(np.asarray(cells), self.width)
        ox, oy = self._origin
        return np.stack([x - ox, y - oy], axis=-1)

    def _cell(self, z) -> int:
        x, y = lattice_site(z)
        ox, oy = self._origin
        x, y = x + ox, y + oy
        if not (0 <= x < self.width and 0 <= y < self.height):
            return -1
        return int(self.grid[y * self.width + x])

    def interior_index(self, z) -> int:
        """Dense index of an interior site, or -1 for another lattice site."""
        i = self._cell(z)
        return i if i < self.interior_count else -1

    def require_interior(self, z) -> int:
        """Dense index of an interior site; DomainError for any other point."""
        i = self.interior_index(z)
        if i < 0:
            raise DomainError(f"{z} is not an interior site")
        return i

    def interior_site(self, z) -> np.ndarray:
        """The interior site z names, as a row of ``interior``, for every
        point form ``require_interior`` takes; DomainError for any other
        point."""
        return self.interior[self.require_interior(z)]

    def boundary_index(self, z) -> int:
        """Dense index of a boundary site, or -1 for another lattice site."""
        i = self._cell(z)
        return i - self.interior_count if i >= self.interior_count else -1


def _from_mask(g: PacmanGeometry, interior: np.ndarray,
               corner: tuple[int, int]) -> LatticeDomain:
    """Lattice domain from a w-frame interior mask indexed
    [wy - corner y, wx - corner x].

    The mask must leave a one-cell margin so every boundary site lands on
    the grid.  Boundary sites are the non-interior 4-neighbours of interior
    sites.  The mask's rows are y, so a row-major scan lists sites in the
    domain's (y, x) order, and the mask's flat cells are the grid's.
    """
    near = np.zeros_like(interior)
    near[1:, :] |= interior[:-1, :]
    near[:-1, :] |= interior[1:, :]
    near[:, 1:] |= interior[:, :-1]
    near[:, :-1] |= interior[:, 1:]
    boundary = near & ~interior
    height, width = interior.shape
    cx, cy = corner
    grid = np.full(interior.size, -1, dtype=np.int64)

    def sites(mask, first):
        cells = np.flatnonzero(mask)
        grid[cells] = first + np.arange(cells.size)
        y, x = np.divmod(cells, width)
        return np.stack([x + (cx - g.z0[0]), y + (cy - g.z0[1])], axis=1), x, y

    int_coords, _, _ = sites(interior, 0)
    bnd_coords, bx, by = sites(boundary, len(int_coords))
    arcs = arc_index_of_radius(g, np.hypot(bx + cx, by + cy))
    return LatticeDomain(geometry=g, interior=int_coords, boundary=bnd_coords,
                         boundary_arc=arcs, grid=grid, corner=corner,
                         width=width, height=height)


def lattice_domain_from_sites(g: PacmanGeometry, interior_sites) -> LatticeDomain:
    """Lattice domain with an explicit interior site set (z-frame points).

    Boundary and arc classification follow the same rules as the full
    discretization, and the grid covers the sites' bounding box and a
    one-cell margin, as ``build_lattice_domain``'s does.  The geometry
    supplies the coordinate frame and arc metadata.  Raises DomainError,
    before allocating, when the box would exceed the machine's physical
    memory at _BYTES_PER_CELL per cell.
    """
    x0, y0 = g.z0
    w = [(x + x0, y + y0) for x, y in map(lattice_site, interior_sites)]
    if not w:
        raise DomainError("need at least one interior site")
    # the box in Python ints, which no far site overflows
    wx, wy = zip(*w)
    corner = min(wx) - 1, min(wy) - 1
    width, height = max(wx) - corner[0] + 2, max(wy) - corner[1] + 2
    require_bytes(_BYTES_PER_CELL * width * height,
                  "a lattice around the given sites")
    # so every coordinate and cell offset of the box, in either frame, is
    # an int64
    far = corner[0] + width, corner[1] + height
    if max(map(abs, corner + far)) >= 2 ** 62:
        raise DomainError("lattice sites must lie within 2^62 of the tip")
    w = np.array(w, dtype=np.int64) - np.array(corner, dtype=np.int64)
    mask = np.zeros((height, width), dtype=bool)
    mask[w[:, 1], w[:, 0]] = True
    return _from_mask(g, mask, corner)


def require_angle(alpha) -> float:
    """alpha as a float; DomainError unless alpha is a real number in
    [0, pi]: nan, strings, None and complex numbers are refused."""
    if not (isinstance(alpha, numbers.Real) and 0.0 <= alpha <= math.pi):
        raise DomainError(f"alpha must be a real number in [0, pi], "
                          f"got {alpha!r}")
    return float(alpha)


def require_scale(n) -> int:
    """n as an int; DomainError unless n is an integer >= 8, nan, inf and
    non-numbers included.  n is never made a float, so an integer too
    large for one passes on to require_memory."""
    return require_integer(n, "n", 8)


def require_integer(v, what: str, least: int | None = None) -> int:
    """v as an int; DomainError unless v is an integer, and at least
    ``least`` when given: an integer-valued float passes, nan, inf and
    non-numbers do not."""
    try:
        ok = int(v) == v and (least is None or v >= least)
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        bound = "" if least is None else f" >= {least}"
        raise DomainError(f"{what} must be an integer{bound}, got {v!r}")
    return int(v)


def require_bytes(need: int, what: str) -> None:
    """DomainError when ``need`` bytes for ``what`` would exceed the
    machine's physical memory.  The need is reported in Decimal, which no
    int overflows."""
    if hasattr(os, "sysconf"):
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        if need > have:
            gib = Decimal(need) / 2**30
            raise DomainError(f"{what} needs about {gib:.3g} GiB, over the "
                              f"{have / 2**30:.3g} GiB of physical memory")


def _box(alpha: float, n: int) -> tuple[tuple[int, int], int, int]:
    """(corner, width, height) of a w-frame box around every interior site
    at (alpha, n), with a one-cell margin, from the geometry alone.

    Sites have |wx|, wy <= 2n - 1.  Below the axis the sector reaches
    wy > -2n when alpha < pi/2, else only wy > -2n sin(alpha), since its
    lower edge ends at 2n e^{i (2 pi - alpha)}: one row below the axis at
    alpha = pi.
    """
    low = 1 - 2 * n
    if alpha > math.pi / 2:
        low = max(low, math.floor(-2 * n * math.sin(alpha)))
    return (-2 * n, low - 1), 4 * n + 1, 2 * n - low + 2


def require_memory(n: int, alpha: float = 0.0) -> None:
    """DomainError when the box of the domain at (alpha, n), at
    _BYTES_PER_CELL per cell, would exceed the machine's physical memory.
    alpha = 0, the default, has the largest box of any angle at n."""
    _, width, height = _box(alpha, n)
    require_bytes(_BYTES_PER_CELL * width * height,
                  f"a lattice and a solve at n = {n}")


def build_lattice_domain(g: PacmanGeometry) -> LatticeDomain:
    """Enumerate interior and boundary lattice sites of the domain.

    Scans the box ``_box`` gives, with ``sector_mask`` on its rows at or
    below the axis and the disk test alone above it, and crops the scan
    to the interior's box and a one-cell margin.  Raises DomainError,
    before allocating, when the memory a solve on the domain needs would
    exceed the machine's physical memory.
    """
    require_memory(g.n, g.alpha)
    (x0, y0), width, height = _box(g.alpha, g.n)
    wx = np.arange(x0, x0 + width, dtype=np.int64)
    wy = np.arange(y0, y0 + height, dtype=np.int64)[:, None]
    mask = np.empty((height, width), dtype=bool)        # [wy, wx]
    k = 1 - y0                                          # the rows wy <= 0
    mask[:k] = sector_mask(g, wx, wy[:k])
    mask[k:] = _inside_disk(g, wx, wy[k:])
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    mask = mask[rows[0] - 1:rows[-1] + 2, cols[0] - 1:cols[-1] + 2]
    return _from_mask(g, mask, (x0 + int(cols[0]) - 1, y0 + int(rows[0]) - 1))
