"""Second-order finite differences on the unit-square lattice.

Reference solver for the elliptic problems behind the learned operators:
supervised training labels for source models and an independent oracle for
the time steppers.  The 5-point stencil lives on the same n x n lattice the
networks sample, so labels carry no interpolation error.  The solvers take
batches of fields of shape (..., n, n) and return one solution per field.

Scalar form:    (Delta_h - 1/kappa) u = f     with Dirichlet ring u = g.
Coupled form:   (I + i lam Delta_h) u = f     over complex u, algebraically
identical to L_lam (u1, u2)^T = (f1, f2)^T with u = u1 + i u2.

Both are diagonal in the interior sine modes sin(i pi x) sin(j pi y) (Buzbee,
Golub & Nielson, SIAM J. Numer. Anal. 7, 1970): a batch is solved by a type-I
sine transform, a division by the eigenvalues and the inverse transform, and
then checked against the stencil, FdSolverError unless its residual is small.
"""

from __future__ import annotations

import numpy as np
from scipy.fft import dstn, idstn

__all__ = ["fd_solve_scalar", "fd_solve_complex", "apply_operator", "lap5"]


class FdSolverError(RuntimeError):
    pass


def _eigenvalues(kind, param, n):
    """(n-2, n-2) eigenvalues of the interior operator at sine mode (i, j), from
    -4 (n-1)^2 (sin^2(i pi / 2(n-1)) + sin^2(j pi / 2(n-1))) for the Laplacian."""
    s = np.sin(np.arange(1, n - 1) * (np.pi / (2.0 * (n - 1)))) ** 2
    lap = -4.0 * (n - 1.0) ** 2 * (s[:, None] + s[None, :])
    return lap - 1.0 / param if kind == "scalar" else 1.0 + 1j * param * lap


def _fd_solve(kind, param, f, g):
    """Solve the scalar or complex lattice problem for fields f, g of shape
    (..., n, n): one ring correction, sine transform pair and residual check
    for the whole batch."""
    if kind == "scalar" and not 0.0 < param < np.inf:
        raise ValueError(f"kappa must be positive and finite, got {param!r}")
    dtype = np.float64 if kind == "scalar" else np.complex128
    f = np.asarray(f, dtype=dtype)
    g = np.asarray(g, dtype=dtype)
    if f.ndim < 2 or f.shape[-1] != f.shape[-2] or g.shape != f.shape:
        raise ValueError(f"lattice fields must be square and of one shape, "
                         f"got {f.shape} and {g.shape}")
    n = f.shape[-1]
    if n < 3:
        raise ValueError(f"a lattice needs n >= 3 nodes a side for an interior, got n = {n}")
    u = g.copy()
    u[..., 1:-1, 1:-1] = 0.0
    # on a zero interior the operator leaves the ring's share of each stencil row
    rhs = f[..., 1:-1, 1:-1] - apply_operator(param, u, kind)
    coef = dstn(rhs, type=1, axes=(-2, -1), overwrite_x=True)
    coef /= _eigenvalues(kind, param, n)
    u[..., 1:-1, 1:-1] = idstn(coef, type=1, axes=(-2, -1), overwrite_x=True)
    peak = lambda a: np.max(np.abs(a), axis=(-2, -1), initial=0.0)  # noqa: E731
    res = peak(apply_operator(param, u, kind) - f[..., 1:-1, 1:-1])
    ring_gain = 4.0 * (n - 1.0) ** 2 * (1.0 if kind == "scalar" else param)
    if not np.all(res <= 1e-12 * np.maximum(peak(f) + ring_gain * peak(g), 1.0)):
        raise FdSolverError(f"direct solve residual {np.max(res):.3e} above tolerance")
    return u


def fd_solve_scalar(kappa, f, g):
    """Solve (Delta_h - 1/kappa) u = f with u = g on the ring, kappa > 0.

    f, g: (..., n, n) arrays of one shape; only interior f values and ring g
    values are read.  Returns u in that shape.
    """
    return _fd_solve("scalar", kappa, f, g)


def fd_solve_complex(lam, f, g):
    """Solve (I + i lam Delta_h) u = f with u = g on the ring.

    f, g: (..., n, n) complex arrays, read as in fd_solve_scalar.  Returns u
    in that shape.
    """
    return _fd_solve("complex", lam, f, g)


def lap5(u):
    """5-point Laplacian of full-lattice fields (..., n, n) at interior nodes,
    shape (..., n-2, n-2)."""
    u = np.asarray(u)
    n = u.shape[-1]
    h2 = (n - 1.0) ** 2
    return (u[..., :-2, 1:-1] + u[..., 2:, 1:-1] + u[..., 1:-1, :-2] + u[..., 1:-1, 2:]
            - 4.0 * u[..., 1:-1, 1:-1]) * h2


def apply_operator(param, u, kind="scalar"):
    """Discrete operator at the interior nodes of fields (..., n, n):
    (Delta_h - 1/param) u, or (I + i param Delta_h) u for kind='complex'.
    Returns (..., n-2, n-2)."""
    u = np.asarray(u)
    if kind == "scalar":
        return lap5(u) - u[..., 1:-1, 1:-1] / param
    if kind == "complex":
        return u[..., 1:-1, 1:-1] + 1j * param * lap5(u)
    raise ValueError(f"unknown operator kind {kind!r}")
