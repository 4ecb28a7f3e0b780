"""Green's function of the simple random walk on a rectangular box.

On an nx-by-ny box of sites with Dirichlet walls, the DST-I along each
axis diagonalises (I - P), with eigenvalues
lambda_jk = 1 - (cos(pi j / (nx + 1)) + cos(pi k / (ny + 1))) / 2.
The walk engine takes its square exit laws from this inverse.
"""

from __future__ import annotations

import numpy as np


def _dst1(a):
    """-2 times the unnormalised DST-I along the last axis, through rfft of
    the odd extension.

    The DST-I is out_k = sum_m a_m sin(pi k m / (n + 1)) for k, m = 1..n;
    applying it twice multiplies by (n + 1) / 2.
    """
    n = a.shape[-1]
    ext = np.zeros(a.shape[:-1] + (2 * n + 2,))
    ext[..., 1:n + 1] = a
    ext[..., n + 2:] = -a[..., ::-1]
    return np.fft.rfft(ext, axis=-1).imag[..., 1:n + 1]


def box_green(nx: int, ny: int):
    """The inverse of (I - P) on an nx-by-ny box with Dirichlet walls.

    Returns a function mapping a right-hand side indexed [y, x] to the
    solution on the same sites, as a new C-contiguous array; column w of
    the inverse is G_box(., w).
    """
    lam = 1.0 - 0.5 * (np.cos(np.pi * np.arange(1, nx + 1) / (nx + 1))[:, None]
                       + np.cos(np.pi * np.arange(1, ny + 1) / (ny + 1))[None, :])
    # indexed (x mode, y mode); 4 / ((nx + 1)(ny + 1)) undoes the two DST-I
    # pairs and 1/16 the four factors of -2, a power of two, so exactly
    inv = 0.25 / ((nx + 1) * (ny + 1) * lam)

    def solve(b):
        t = _dst1(_dst1(b).T) * inv
        return np.ascontiguousarray(_dst1(_dst1(t).T))

    return solve
