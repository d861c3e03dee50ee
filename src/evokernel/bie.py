"""Discretized second-kind boundary integral equations.

The single source of truth for the half-jump sign is ``residual_operator``:
the dense matrix B = I/2 + Ktilde diag(omega), computed once per kernel
matrix (``BoundaryKernelMatrix.operator``) and shared verbatim between the
classical Nystrom solve, the residual evaluation and the self-supervised
training loss (the loss multiplies batches of densities against the very
same B, so residuals recomputed here match the loss integrand bitwise).

Scalar and coupled densities share one code path because the kernel
matrices are stored in the shared residual orientation (see kernels).
Coupled densities are node-interleaved: (phi1, phi2) per node.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .kernels import potential_matrix

__all__ = ["residual_operator", "bie_residual", "nystrom_solve", "eval_double_layer"]


def residual_operator(kmat):
    """B = I/2 + Ktilde diag(omega); computed once per kernel matrix instance."""
    return kmat.operator


def bie_residual(kmat, phi, g):
    """Residual rows phi/2 + Ktilde(omega phi) - g.

    phi, g: arrays of shape (n,) or batched (m, n).  The batched form is
    exactly the expression the training loss differentiates.
    """
    phi = np.asarray(phi, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    B = residual_operator(kmat)
    if phi.shape[-1] != B.shape[0] or g.shape[-1] != B.shape[0]:
        raise ValueError("density/boundary-data length does not match the kernel matrix")
    return phi @ B.T - g


class SolverError(RuntimeError):
    pass


def nystrom_solve(kmat, g):
    """Dense LU solve of B phi = g; the classical oracle for densities.

    g: boundary data of shape (n,) or batched (m, n), node-interleaved if
    coupled.  Returns the density phi with the shape of g.  Raises
    ValueError on non-finite data, and SolverError with a condition estimate
    unless the defining residual property ||r||_inf <= 1e-10 * max(||g||_inf, 1)
    holds.
    """
    g = np.asarray(g, dtype=np.float64)
    lu = kmat.lu
    phi = scipy.linalg.lu_solve(lu, g.T).T if g.ndim > 1 else scipy.linalg.lu_solve(lu, g)
    scale = max(float(np.max(np.abs(g))), 1.0)
    res = np.max(np.abs(bie_residual(kmat, phi, g)))
    if not np.isfinite(res) or res > 1e-10 * scale:
        cond = np.linalg.cond(residual_operator(kmat))
        raise SolverError(
            f"Nystrom solve residual {res:.3e} exceeds tolerance "
            f"(condition estimate {cond:.3e})")
    return phi


def eval_double_layer(spec, grid, phi, pts):
    """Double-layer field u = Ptilde (omega phi) at points pts, shape (m, 2).

    phi: density of shape (n,) or batched (k, n).  Returns the field values,
    shape (..., m), or node-interleaved (..., 2m) for a coupled spec.
    """
    P = potential_matrix(spec, grid, pts)
    # a coupled P is complex; interleaved phi and u are views of phi1 + i phi2
    phi = np.ascontiguousarray(phi, dtype=np.float64).view(P.dtype)
    return ((phi * grid.weight) @ P.T).view(np.float64)
