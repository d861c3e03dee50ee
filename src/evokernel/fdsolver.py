"""Second-order finite differences on the unit-square lattice.

Reference solver for the elliptic problems behind the learned operators:
supervised training labels for source models and an independent oracle for
the time steppers.  The 5-point stencil lives on the same n x n lattice the
networks sample, so labels carry no interpolation error.

Scalar form:    (Delta_h - 1/kappa) u = f     with Dirichlet ring u = g.
Coupled form:   (I + i lam Delta_h) u = f     over complex u, algebraically
identical to L_lam (u1, u2)^T = (f1, f2)^T with u = u1 + i u2.
"""

from __future__ import annotations

import functools

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = ["fd_solve_scalar", "fd_solve_complex", "apply_operator", "lap5"]


class FdSolverError(RuntimeError):
    pass


@functools.cache
def _interior_laplacian(n):
    """Sparse Delta_h on the (n-2)^2 interior unknowns, Dirichlet-eliminated."""
    m = n - 2
    h2 = (n - 1.0) ** 2
    main = sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(m, m))
    eye = sp.identity(m)
    return (sp.kron(eye, main) + sp.kron(main, eye)) * h2


@functools.cache
def _factorize(kind, param, n):
    """Sparse LU solve of the scalar or complex operator, one per (kind, param, n)."""
    lap = _interior_laplacian(n)
    m2 = (n - 2) ** 2
    if kind == "scalar":
        A = (lap - (1.0 / param) * sp.identity(m2)).tocsc()
    else:
        A = (sp.identity(m2) + 1j * param * lap).tocsc().astype(np.complex128)
    return spla.factorized(A)


def _boundary_correction(g, n, dtype):
    """Contribution of the Dirichlet ring to the interior stencil rows."""
    h2 = (n - 1.0) ** 2
    b = np.zeros((n - 2, n - 2), dtype=dtype)
    b[0, :] += g[0, 1:-1]
    b[-1, :] += g[-1, 1:-1]
    b[:, 0] += g[1:-1, 0]
    b[:, -1] += g[1:-1, -1]
    return b * h2


def _check_residual(interior_apply, u_int, rhs, scale):
    res = np.max(np.abs(interior_apply(u_int) - rhs))
    if not res <= 1e-12 * max(scale, 1.0):
        raise FdSolverError(f"direct solve residual {res:.3e} above tolerance")


def _lattice_pair(f, g, dtype):
    """f and g as (n, n) arrays on one square lattice."""
    f = np.asarray(f, dtype=dtype)
    g = np.asarray(g, dtype=dtype)
    if f.ndim != 2 or f.shape[0] != f.shape[1] or g.shape != f.shape:
        raise ValueError(f"lattice fields must be square and of one shape, "
                         f"got {f.shape} and {g.shape}")
    return f, g


def fd_solve_scalar(kappa, f, g):
    """Solve (Delta_h - 1/kappa) u = f with u = g on the ring.

    f, g: (n, n) arrays; only interior f values and ring g values are read.
    Returns u as an (n, n) array.
    """
    f, g = _lattice_pair(f, g, np.float64)
    n = f.shape[0]
    solve = _factorize("scalar", kappa, n)
    rhs = f[1:-1, 1:-1] - _boundary_correction(g, n, np.float64)
    u_int = solve(rhs.ravel())
    u = g.copy()
    u[1:-1, 1:-1] = u_int.reshape(n - 2, n - 2)
    lap = _interior_laplacian(n)
    scale = float(np.max(np.abs(f))) + 4.0 * (n - 1.0) ** 2 * float(np.max(np.abs(g)))
    _check_residual(
        lambda v: (lap @ v - v / kappa) + _boundary_correction(g, n, np.float64).ravel(),
        u_int, f[1:-1, 1:-1].ravel(), scale)
    return u


def fd_solve_complex(lam, f, g):
    """Solve (I + i lam Delta_h) u = f with u = g on the ring.

    f, g: (n, n) complex arrays, read as in fd_solve_scalar.  Returns u as an
    (n, n) complex array.
    """
    f, g = _lattice_pair(f, g, np.complex128)
    n = f.shape[0]
    solve = _factorize("complex", lam, n)
    rhs = f[1:-1, 1:-1] - 1j * lam * _boundary_correction(g, n, np.complex128)
    u_int = solve(rhs.ravel())
    u = g.copy()
    u[1:-1, 1:-1] = u_int.reshape(n - 2, n - 2)
    lap = _interior_laplacian(n)
    scale = float(np.max(np.abs(f))) + 4.0 * lam * (n - 1.0) ** 2 * float(np.max(np.abs(g)))
    _check_residual(
        lambda v: v + 1j * lam * (lap @ v + _boundary_correction(g, n, np.complex128).ravel()),
        u_int, f[1:-1, 1:-1].ravel(), scale)
    return u


def lap5(u):
    """5-point Laplacian of full-lattice fields (..., n, n) at interior nodes,
    shape (..., n-2, n-2)."""
    u = np.asarray(u)
    n = u.shape[-1]
    h2 = (n - 1.0) ** 2
    return (u[..., :-2, 1:-1] + u[..., 2:, 1:-1] + u[..., 1:-1, :-2] + u[..., 1:-1, 2:]
            - 4.0 * u[..., 1:-1, 1:-1]) * h2


def apply_operator(param, u, kind="scalar"):
    """Discrete operator at interior nodes: (Delta_h - 1/param) u, or
    (I + i param Delta_h) u for kind='complex'.  Returns (n-2, n-2)."""
    u = np.asarray(u)
    if kind == "scalar":
        return lap5(u) - u[1:-1, 1:-1] / param
    if kind == "complex":
        return u[1:-1, 1:-1] + 1j * param * lap5(u)
    raise ValueError(f"unknown operator kind {kind!r}")
