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

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .kernels import boundary_kernel, potential_matrix

__all__ = [
    "Density", "BoundaryData", "FieldSample",
    "residual_operator", "bie_residual", "nystrom_solve",
    "system_nystrom_solve", "eval_double_layer",
    "density_to_csv", "field_to_csv",
]


@dataclass
class Density:
    """Boundary density values at quadrature nodes (interleaved if coupled)."""

    values: np.ndarray
    grid: object
    spec: object

    def __post_init__(self):
        expected = self.grid.n if self.spec.kind == "scalar" else 2 * self.grid.n
        if self.values.shape[-1] != expected:
            raise ValueError(
                f"density length {self.values.shape[-1]} != expected {expected}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("density contains non-finite entries")

    @property
    def components(self):
        """Coupled case: (phi1, phi2) views; scalar: (values,)."""
        if self.spec.kind == "scalar":
            return (self.values,)
        return (self.values[..., 0::2], self.values[..., 1::2])


@dataclass
class BoundaryData:
    """Dirichlet trace values at quadrature nodes (interleaved if coupled)."""

    values: np.ndarray
    grid: object

    def __post_init__(self):
        if not np.all(np.isfinite(self.values)):
            raise ValueError("boundary data contains non-finite entries")


@dataclass
class FieldSample:
    """Field values at interior points, plus near-boundary warnings."""

    points: np.ndarray
    values: np.ndarray
    near_boundary: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))


def residual_operator(kmat):
    """B = I/2 + Ktilde diag(omega); computed once per kernel matrix instance."""
    return kmat.operator


def bie_residual(kmat, phi, g):
    """Residual rows phi/2 + Ktilde(omega phi) - g.

    phi, g: arrays of shape (n,) or batched (m, n); Density/BoundaryData
    instances are accepted and unwrapped.  The batched form is exactly the
    expression the training loss differentiates.
    """
    if isinstance(phi, Density):
        phi = phi.values
    if isinstance(g, BoundaryData):
        g = g.values
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

    Raises SolverError with a condition estimate if the second-kind system
    is unexpectedly close to singular, and verifies the defining residual
    property ||r||_inf <= 1e-10 * max(||g||_inf, 1).
    """
    if isinstance(g, BoundaryData):
        gv = g.values
        grid = g.grid
    else:
        gv = np.asarray(g, dtype=np.float64)
        grid = kmat.grid
    B = residual_operator(kmat)
    lu = kmat.lu
    phi = scipy.linalg.lu_solve(lu, gv.T).T if gv.ndim > 1 else scipy.linalg.lu_solve(lu, gv)
    scale = max(float(np.max(np.abs(gv))), 1.0)
    res = np.max(np.abs(bie_residual(kmat, phi, gv)))
    if not np.isfinite(res) or res > 1e-10 * scale:
        cond = np.linalg.cond(B)
        raise SolverError(
            f"Nystrom solve residual {res:.3e} exceeds tolerance "
            f"(condition estimate {cond:.3e})")
    return Density(values=phi, grid=grid, spec=kmat.spec)


def system_nystrom_solve(kmat, g):
    """Coupled-case dense solve; identical path, interleaved layout."""
    if kmat.spec.kind != "system":
        raise ValueError("system_nystrom_solve expects a coupled kernel matrix")
    return nystrom_solve(kmat, g)


def eval_double_layer(spec, grid, phi, interior):
    """Evaluate the double-layer field u = Ptilde (omega phi) at interior points.

    interior: InteriorGrid (its margin drives near-boundary warnings) or a
    bare (m, 2) array.  Points closer to the boundary than the declared
    margin are evaluated anyway but flagged in FieldSample.near_boundary.
    """
    if isinstance(phi, Density):
        phi = phi.values
    phi = np.asarray(phi, dtype=np.float64)
    pts = getattr(interior, "points", interior)
    margin = getattr(interior, "margin", 0.0)
    P = potential_matrix(spec, grid, pts)
    vals = (phi * grid.weight) @ P.T
    near = np.zeros(0, dtype=int)
    if margin > 0.0:
        dist = grid.curve.distance(np.asarray(pts, dtype=np.float64))
        near = np.nonzero(dist < margin)[0]
    return FieldSample(points=np.asarray(pts), values=vals, near_boundary=near)


def density_to_csv(density, path):
    import csv

    grid = density.grid
    comps = density.components
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "x", "y"] + [f"phi{i+1}" for i in range(len(comps))])
        for l in range(grid.n):
            w.writerow([grid.t[l], grid.points[l, 0], grid.points[l, 1]]
                       + [c[l] for c in comps])


def field_to_csv(field, path):
    import csv

    vals = np.atleast_2d(field.values)
    coupled = vals.shape[-1] == 2 * field.points.shape[0]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "y"] + (["u1", "u2"] if coupled else ["u"]))
        for i in range(field.points.shape[0]):
            row = [field.points[i, 0], field.points[i, 1]]
            row += ([vals[0, 2 * i], vals[0, 2 * i + 1]] if coupled
                    else [vals[0, i]])
            w.writerow(row)
