"""Green's function of the simple random walk on a rectangular box.

On an nx-by-ny box of sites with Dirichlet walls, the DST-I along each
axis diagonalises (I - P), with eigenvalues
lambda_jk = 1 - (cos(pi j / (nx + 1)) + cos(pi k / (ny + 1))) / 2.
The solver preconditions CG with this inverse, and the walk engine takes
its square exit laws from it.  The module imports nothing from the
package, so both can use it.

Each box allocates its DST work buffers (an odd extension and a spectrum
per axis) once.  Allocated per call, arrays this large can come from fresh
pages every time, and their page faults then cost more than the transforms.
"""

from __future__ import annotations

import numpy as np


def _dst1(a, ext, spec):
    """Unnormalised DST-I along the last axis, through rfft of the odd extension.

    out_k = sum_m a_m sin(pi k m / (n + 1)) for k, m = 1..n; applying it
    twice multiplies by (n + 1) / 2.  Work buffers: ext, 2n + 2 columns,
    zero in columns 0 and n + 1; spec, complex, n + 2 columns.
    """
    n = a.shape[-1]
    ext[..., 1:n + 1] = a
    ext[..., n + 2:] = -a[..., ::-1]
    return -0.5 * np.fft.rfft(ext, axis=-1, out=spec).imag[..., 1:n + 1]


def box_green(nx: int, ny: int):
    """The inverse of (I - P) on an nx-by-ny box with Dirichlet walls.

    Returns a function mapping a right-hand side indexed [y, x] to the
    solution on the same sites; column w of the inverse is G_box(., w).
    The function reuses its work buffers, so calls must not overlap.
    """
    lam = 1.0 - 0.5 * (np.cos(np.pi * np.arange(1, nx + 1) / (nx + 1))[:, None]
                       + np.cos(np.pi * np.arange(1, ny + 1) / (ny + 1))[None, :])
    # indexed (x mode, y mode); 4 / ((nx + 1)(ny + 1)) undoes the two DST-I pairs
    inv = 4.0 / ((nx + 1) * (ny + 1) * lam)
    along_x = np.zeros((ny, 2 * nx + 2)), np.empty((ny, nx + 2), complex)
    along_y = np.zeros((nx, 2 * ny + 2)), np.empty((nx, ny + 2), complex)

    def solve(b):
        t = _dst1(_dst1(b, *along_x).T, *along_y) * inv
        return _dst1(_dst1(t, *along_y).T, *along_x)

    return solve
