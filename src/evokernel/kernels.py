"""Fundamental solutions and boundary kernels.

Scalar operator: Delta u - u/kappa.  Fundamental solution

    G0(x, y) = -K0(|x - y| / sqrt(kappa)) / (2 pi),

whose normal derivative in the source point y is

    dG0/dn_y = K1(r / sqrt(kappa)) / (2 pi sqrt(kappa)) * ((y - x) . n_y) / r.

Coupled 2x2 operator (the real/imaginary split of u + i*lam*Delta u):

    L_lam = [[I, -lam Delta], [lam Delta, I]],

with fundamental matrix (argument z = r / sqrt(lam))

    G = (1 / (2 pi lam)) * [[-kei0(z), -ker0(z)], [ker0(z), -kei0(z)]].

Sign and swap conventions for the second-kind boundary equations are the
ones validated against manufactured interior solutions (see tests); the
boundary kernel matrices below are stored in the *shared residual
orientation*: for both the scalar and the coupled case the discrete
residual reads

    r = phi/2 + Ktilde (omega * phi) - g,

and the interior double-layer field is  u(x) = Ptilde(x) (omega * phi).
For the coupled case Ktilde folds in both the density component swap
(phi1, phi2) -> (phi2, phi1) and the leading minus sign of the
representation, which is what makes the two cases share one code path.
Each folded 2x2 block [[a, b], [-b, a]] acts on phi1 + i phi2 as a - ib, so
the coupled potential matrix is complex; only the coupled boundary kernel
expands it to real node-interleaved blocks, for the residual operator.

Parametrized kernels include the speed factor |gamma'(t)|.  On smooth
curves the diagonal limit is curvature * speed / (4 pi): the Bessel/Kelvin
kernels differ from the logarithmic kernel by terms whose normal
derivative vanishes at coincidence, so the Laplace-type limit applies; in
the folded orientation it lands on the 2x2 block diagonal as that same
value times the identity.  The limits are re-verified numerically by
near-diagonal extrapolation in the test suite.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import specfun

__all__ = [
    "ScalarKernelSpec", "SystemKernelSpec", "BoundaryKernelMatrix",
    "scalar_g0", "scalar_dln", "system_g0", "system_dkdn",
    "scalar_boundary_kernel", "system_boundary_kernel", "boundary_kernel",
    "potential_matrix",
]


@dataclass(frozen=True)
class ScalarKernelSpec:
    """Parameter kappa > 0 of Delta u - u/kappa (equals lam of (I - lam Delta))."""

    kind = "scalar"
    kappa: float

    def __post_init__(self):
        if not self.kappa > 0:
            raise ValueError("kappa must be positive")


@dataclass(frozen=True)
class SystemKernelSpec:
    """Parameter lam > 0 of the coupled operator L_lam."""

    kind = "system"
    lam: float

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError("lam must be positive")


def _pair_geometry(x, y):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    d = y - x
    r = np.hypot(d[..., 0], d[..., 1])
    if np.any(r == 0.0):
        raise ValueError("kernel evaluation requires x != y")
    return d, r


def scalar_g0(spec, x, y):
    """Fundamental solution -K0(r/sqrt(kappa))/(2 pi); broadcasts over (..., 2)."""
    _, r = _pair_geometry(x, y)
    return -specfun.k0(r / np.sqrt(spec.kappa)) / (2.0 * np.pi)


def scalar_dln(spec, x, y, n_y):
    """Normal derivative of G0 in y along unit vector n_y."""
    d, r = _pair_geometry(x, y)
    n_y = np.asarray(n_y, dtype=np.float64)
    sk = np.sqrt(spec.kappa)
    drdn = (d[..., 0] * n_y[..., 0] + d[..., 1] * n_y[..., 1]) / r
    return specfun.k1(r / sk) / (2.0 * np.pi * sk) * drdn


def system_g0(spec, x, y):
    """2x2 fundamental matrix of L_lam at x, y; returns shape (..., 2, 2)."""
    _, r = _pair_geometry(x, y)
    z = r / np.sqrt(spec.lam)
    c = 1.0 / (2.0 * np.pi * spec.lam)
    kei0 = specfun.kei(0, z)
    ker0 = specfun.ker(0, z)
    out = np.empty(np.shape(r) + (2, 2))
    out[..., 0, 0] = -c * kei0
    out[..., 0, 1] = -c * ker0
    out[..., 1, 0] = c * ker0
    out[..., 1, 1] = -c * kei0
    return out


def system_dkdn(spec, x, y, n_y):
    """Normal-derivative (in y) entries of the kernel matrix lam * [[G11, -G12], [G21, -G22]].

    Equals (1 / (2 pi sqrt(lam))) * [[-kei0', ker0'], [ker0', kei0']](z) * dr/dn_y.
    """
    d, r = _pair_geometry(x, y)
    n_y = np.asarray(n_y, dtype=np.float64)
    sl = np.sqrt(spec.lam)
    z = r / sl
    drdn = (d[..., 0] * n_y[..., 0] + d[..., 1] * n_y[..., 1]) / r
    f = drdn / (2.0 * np.pi * sl)
    dker = specfun.dker0(z)
    dkei = specfun.dkei0(z)
    out = np.empty(np.shape(r) + (2, 2))
    out[..., 0, 0] = -dkei * f
    out[..., 0, 1] = dker * f
    out[..., 1, 0] = dker * f
    out[..., 1, 1] = dkei * f
    return out


@dataclass(frozen=True)
class BoundaryKernelMatrix:
    """Dense parametrized boundary kernel in shared residual orientation.

    values has shape (n, n) for the scalar case or (2n, 2n) for the coupled
    case with node-interleaved component layout.  The residual operator B and
    its LU factors are computed once per instance and live as long as it.
    """

    values: np.ndarray
    grid: object
    spec: object

    @functools.cached_property
    def operator(self):
        """B = I/2 + Ktilde diag(omega); read it through bie.residual_operator."""
        return self.values * self.grid.weight + 0.5 * np.eye(self.n_unknowns)

    @functools.cached_property
    def lu(self):
        """scipy.linalg.lu_factor of the residual operator B."""
        return scipy.linalg.lu_factor(self.operator)

    @property
    def kind(self):
        return self.spec.kind

    @property
    def n_unknowns(self):
        return self.values.shape[0]


def _node_geometry(grid, pts):
    """r = |y - x| and dr/dn_y from targets x = pts (m, 2) to the grid nodes y.

    Coincident pairs get the placeholder r = 1 (so drdn = 0) and are flagged
    in the returned mask; callers overwrite or reject them.  The components
    of y - x are two (m, n) outer differences, and dr/dn is formed in place
    in the first, in the operation order of (dx nx + dy ny) / r.
    """
    dx = grid.points[:, 0] - pts[:, 0, None]
    dy = grid.points[:, 1] - pts[:, 1, None]
    r = np.hypot(dx, dy)
    coincident = r == 0.0
    r[coincident] = 1.0
    dx *= grid.normals[:, 0]
    dy *= grid.normals[:, 1]
    dx += dy
    dx /= r
    return r, dx, coincident


def _double_layer(spec, grid, r, drdn):
    """Kernel entries dG/dn_y * |gamma'| for the pair geometry (r, drdn), (m, n).

    Scalar: real.  Coupled: with D = [[-dkei, dker], [dker, dkei]] * f the
    folded block K[p, q] = -D[p, 1-q] is [[a, b], [-b, a]], stored as the
    complex a - ib = -(dker + i dkei) * f.  The coupled branch evaluates
    the Kelvin derivatives once per distinct distance r and gathers them per
    pair; the functions act elementwise, so the entries are the all-pairs ones.
    The scalar branch overwrites r and the coupled one drdn, in the operation
    order of the formulas above, so callers pass arrays they no longer need.
    """
    if spec.kind == "scalar":
        # every pair: K1 is cheaper than the sort np.unique would need
        sk = np.sqrt(spec.kappa)
        r /= sk
        K = specfun.k1(r)
        K /= 2.0 * np.pi * sk
        K *= drdn
        K *= grid.speeds
        return K
    sl = np.sqrt(spec.lam)
    ru, inv = np.unique(r, return_inverse=True)
    inv = inv.reshape(r.shape)      # numpy 1.x returns it flat, 2.x shaped like r
    drdn /= 2.0 * np.pi * sl
    drdn *= grid.speeds
    K = (-specfun.dkelvin0(ru / sl))[inv]
    K *= drdn
    return K


def _self_kernel(spec, grid):
    """_double_layer between the grid's own nodes, diagonal curv * speed / (4 pi)."""
    r, drdn, _ = _node_geometry(grid, grid.points)
    K = _double_layer(spec, grid, r, drdn)
    np.fill_diagonal(K, grid.curvatures * grid.speeds / (4.0 * np.pi))
    return K


def scalar_boundary_kernel(spec, grid):
    """K(s_j, t_l) = dG0/dn_y * |gamma'(t_l)|, diagonal = curv * speed / (4 pi)."""
    return BoundaryKernelMatrix(values=_self_kernel(spec, grid), grid=grid, spec=spec)


def system_boundary_kernel(spec, grid):
    """Coupled-case kernel with swap and representation sign folded in.

    The complex kernel a - ib of _double_layer, with the scalar diagonal,
    expanded to the real blocks [[a, b], [-b, a]] that act on the
    node-interleaved density (phi1, phi2); diagonal blocks are
    (curv * speed / 4 pi) * Id.
    """
    C = _self_kernel(spec, grid)
    K = np.empty((grid.n, 2, grid.n, 2))
    K[:, 0, :, 0] = K[:, 1, :, 1] = C.real
    K[:, 0, :, 1] = -C.imag
    K[:, 1, :, 0] = C.imag
    return BoundaryKernelMatrix(values=K.reshape(2 * grid.n, 2 * grid.n), grid=grid,
                                spec=spec)


@functools.cache
def boundary_kernel(spec, grid):
    """The kernel matrix of (spec, grid), built once per distinct pair.

    Specs compare by kind and value, grids by their node arrays (cache_key),
    so one matrix serves every time step, batch and equal grid of a process.
    """
    if spec.kind == "scalar":
        return scalar_boundary_kernel(spec, grid)
    return system_boundary_kernel(spec, grid)


def potential_matrix(spec, grid, pts):
    """Interior evaluation matrix Ptilde with u = Ptilde (omega * phi).

    pts: (m, 2) strictly interior points.  Returns (m, n), real for a scalar
    spec and complex for a coupled one, whose entries a - ib are the folded
    blocks [[a, b], [-b, a]] of the boundary kernel (see _double_layer).
    """
    r, drdn, coincident = _node_geometry(grid, np.asarray(pts, dtype=np.float64))
    if np.any(coincident):
        raise ValueError("potential evaluation point lies on the boundary grid")
    return _double_layer(spec, grid, r, drdn)

