"""Second-order finite differences on the unit-square lattice.

Reference solver for the elliptic problems behind the learned operators:
supervised training labels for source models and an independent oracle for
the time steppers.  The 5-point stencil lives on the same n x n lattice the
networks sample, so labels carry no interpolation error.  The solvers take
batches of fields of shape (..., n, n) and return one solution per field.

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
def _factorize(kind, param, n):
    """Sparse LU solve of the scalar or complex operator on the (n-2)^2
    Dirichlet-eliminated interior unknowns, one per (kind, param, n)."""
    m = n - 2
    main = sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(m, m))
    eye = sp.identity(m)
    lap = (sp.kron(eye, main) + sp.kron(main, eye)) * (n - 1.0) ** 2
    if kind == "scalar":
        A = (lap - (1.0 / param) * sp.identity(m * m)).tocsc()
    else:
        A = (sp.identity(m * m) + 1j * param * lap).tocsc().astype(np.complex128)
    return spla.factorized(A)


def _fd_solve(kind, param, f, g):
    """Solve the scalar or complex lattice problem for fields f, g of shape
    (..., n, n): one SuperLU call per field from the cached factor, and one
    ring correction and residual check for the whole batch."""
    if kind == "scalar" and not 0.0 < param < np.inf:
        raise ValueError(f"kappa must be positive and finite, got {param!r}")
    dtype = np.float64 if kind == "scalar" else np.complex128
    f = np.asarray(f, dtype=dtype)
    g = np.asarray(g, dtype=dtype)
    if f.ndim < 2 or f.shape[-1] != f.shape[-2] or g.shape != f.shape:
        raise ValueError(f"lattice fields must be square and of one shape, "
                         f"got {f.shape} and {g.shape}")
    n = f.shape[-1]
    u = g.copy()
    u[..., 1:-1, 1:-1] = 0.0
    # on a zero interior the operator leaves the ring's share of each stencil row
    rhs = f[..., 1:-1, 1:-1] - apply_operator(param, u, kind)
    solve = _factorize(kind, param, n)
    fields = u.reshape(-1, n, n)
    for i, b in enumerate(rhs.reshape(-1, (n - 2) ** 2)):
        fields[i, 1:-1, 1:-1] = solve(b).reshape(n - 2, n - 2)
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
