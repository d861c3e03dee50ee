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

Parametrized kernels include the speed factor |gamma'(t)|.  On smooth
curves the diagonal limit is curvature * speed / (4 pi): the Bessel/Kelvin
kernels differ from the logarithmic kernel by terms whose normal
derivative vanishes at coincidence, so the Laplace-type limit applies; in
the folded orientation it lands on the 2x2 block diagonal as that same
value times the identity.  The limits are re-verified numerically by
near-diagonal extrapolation in the test suite.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from . import specfun

__all__ = [
    "ScalarKernelSpec", "SystemKernelSpec", "BoundaryKernelMatrix",
    "scalar_g0", "scalar_dln", "system_g0", "system_dkdn",
    "scalar_boundary_kernel", "system_boundary_kernel", "boundary_kernel",
    "potential_matrix", "save_kernel_matrix", "load_kernel_matrix",
    "clear_cache",
]


@dataclass(frozen=True)
class ScalarKernelSpec:
    """Parameter kappa > 0 of Delta u - u/kappa (equals lam of (I - lam Delta))."""

    kappa: float

    def __post_init__(self):
        if not self.kappa > 0:
            raise ValueError("kappa must be positive")

    @property
    def kind(self):
        return "scalar"

    @property
    def value(self):
        return self.kappa


@dataclass(frozen=True)
class SystemKernelSpec:
    """Parameter lam > 0 of the coupled operator L_lam."""

    lam: float

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError("lam must be positive")

    @property
    def kind(self):
        return "system"

    @property
    def value(self):
        return self.lam


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

    @cached_property
    def operator(self):
        """B = I/2 + Ktilde diag(omega); read it through bie.residual_operator."""
        return self.values * self.grid.weight + 0.5 * np.eye(self.n_unknowns)

    @cached_property
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
    in the returned mask; callers overwrite or reject them.
    """
    d = grid.points[None, :, :] - pts[:, None, :]
    r = np.hypot(d[..., 0], d[..., 1])
    coincident = r == 0.0
    r[coincident] = 1.0
    drdn = (d[..., 0] * grid.normals[None, :, 0]
            + d[..., 1] * grid.normals[None, :, 1]) / r
    return r, drdn, coincident


def _double_layer(spec, grid, r, drdn):
    """Kernel entries dG/dn_y * |gamma'| for the pair geometry (r, drdn).

    Scalar: (m, n).  Coupled: (2m, 2n) interleaved with the swap and sign
    folded in: with D = [[-dkei, dker], [dker, dkei]] * f the folded block
    is K[a, b] = -D[a, 1-b].
    """
    if spec.kind == "scalar":
        sk = np.sqrt(spec.kappa)
        return specfun.k1(r / sk) / (2.0 * np.pi * sk) * drdn * grid.speeds[None, :]
    sl = np.sqrt(spec.lam)
    z = r / sl
    f = drdn / (2.0 * np.pi * sl) * grid.speeds[None, :]
    dker = specfun.dker0(z.ravel()).reshape(z.shape)
    dkei = specfun.dkei0(z.ravel()).reshape(z.shape)
    m, n = r.shape
    K = np.empty((2 * m, 2 * n))
    K[0::2, 0::2] = -dker * f
    K[0::2, 1::2] = dkei * f
    K[1::2, 0::2] = -dkei * f
    K[1::2, 1::2] = -dker * f
    return K


def scalar_boundary_kernel(spec, grid):
    """K(s_j, t_l) = dG0/dn_y * |gamma'(t_l)|, diagonal = curv * speed / (4 pi)."""
    r, drdn, _ = _node_geometry(grid, grid.points)
    K = _double_layer(spec, grid, r, drdn)
    np.fill_diagonal(K, grid.curvatures * grid.speeds / (4.0 * np.pi))
    return BoundaryKernelMatrix(values=K, grid=grid, spec=spec)


def system_boundary_kernel(spec, grid):
    """Coupled-case kernel with swap and representation sign folded in.

    With D the raw normal-derivative block (system_dkdn) the folded entries
    acting on the interleaved density (phi1, phi2) are
    Ktilde[:, :, a, 0] = -D[a, 1], Ktilde[:, :, a, 1] = -D[a, 0];
    diagonal blocks are (curv * speed / 4 pi) * Id.
    """
    r, drdn, _ = _node_geometry(grid, grid.points)
    K = _double_layer(spec, grid, r, drdn)
    c = grid.curvatures * grid.speeds / (4.0 * np.pi)
    idx = np.arange(grid.n)
    K[2 * idx, 2 * idx] = c
    K[2 * idx + 1, 2 * idx + 1] = c
    K[2 * idx, 2 * idx + 1] = 0.0
    K[2 * idx + 1, 2 * idx] = 0.0
    return BoundaryKernelMatrix(values=K, grid=grid, spec=spec)


_CACHE: dict = {}


def boundary_kernel(spec, grid):
    """Cached kernel-matrix builder keyed by (spec kind+value, curve, n_bd).

    Matrices are reused across time steps; an optional on-disk cache is
    enabled by the EVOKERNEL_CACHE_DIR environment variable.  Its files are
    named by a sha256 of the file header (spec, curve with its parameters,
    n_bd), and the header is checked again on load.
    """
    key = (spec.kind, spec.value, grid.cache_key)
    hit = _CACHE.get(key)
    if hit is not None:
        return hit
    cache_dir = os.environ.get("EVOKERNEL_CACHE_DIR")
    path = None
    if cache_dir:
        os.makedirs(cache_dir, exist_ok=True)
        full_key = json.dumps(_header(spec, grid), sort_keys=True)
        digest = hashlib.sha256(full_key.encode()).hexdigest()
        path = os.path.join(cache_dir, digest + ".kmat")
        if os.path.exists(path):
            kmat = load_kernel_matrix(path, grid=grid, spec=spec)
            _CACHE[key] = kmat
            return kmat
    if spec.kind == "scalar":
        kmat = scalar_boundary_kernel(spec, grid)
    else:
        kmat = system_boundary_kernel(spec, grid)
    _CACHE[key] = kmat
    if path:
        save_kernel_matrix(kmat, path)
    return kmat


def clear_cache():
    _CACHE.clear()


def potential_matrix(spec, grid, pts):
    """Interior evaluation matrix Ptilde with u = Ptilde (omega * phi).

    pts: (m, 2) strictly interior points.  Scalar: (m, n); coupled: (2m, 2n)
    interleaved, swap and sign folded exactly as in the boundary kernel.
    """
    r, drdn, coincident = _node_geometry(grid, np.asarray(pts, dtype=np.float64))
    if np.any(coincident):
        raise ValueError("potential evaluation point lies on the boundary grid")
    return _double_layer(spec, grid, r, drdn)


_MAGIC = b"EVOKERNEL-KMAT/1\n"


def _header(spec, grid):
    """File header of the (spec, grid) kernel matrix, as it reads back from JSON."""
    n = grid.n if spec.kind == "scalar" else 2 * grid.n
    return json.loads(json.dumps({
        "rows": n, "cols": n, "kind": spec.kind, "param": float(spec.value),
        "curve": grid.curve.kind, "params": grid.curve.params, "n_bd": grid.n,
    }))


def save_kernel_matrix(kmat, path):
    """Flat binary export: magic, JSON header line, row-major float64 block."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write((json.dumps(_header(kmat.spec, kmat.grid), sort_keys=True) + "\n").encode())
        fh.write(np.ascontiguousarray(kmat.values, dtype="<f8").tobytes())


def load_kernel_matrix(path, grid=None, spec=None):
    """Read a saved matrix; raises ValueError on a header that does not match
    the requested spec/grid or a body that is not exactly rows*cols float64s."""
    with open(path, "rb") as fh:
        magic = fh.readline()
        if magic != _MAGIC:
            raise ValueError(f"{path}: not a kernel matrix file")
        header = json.loads(fh.readline().decode())
        body = fh.read()
    if spec is None:
        spec = (ScalarKernelSpec(header["param"]) if header["kind"] == "scalar"
                else SystemKernelSpec(header["param"]))
    elif (header["kind"], header["param"]) != (spec.kind, float(spec.value)):
        raise ValueError(f"{path}: header {header} does not match {spec}")
    if grid is not None and header != _header(spec, grid):
        raise ValueError(f"{path}: header {header} does not match the requested grid")
    rows, cols = header["rows"], header["cols"]
    if len(body) != rows * cols * 8:
        raise ValueError(f"{path}: body has {len(body)} bytes, expected {rows * cols * 8}")
    vals = np.frombuffer(body, dtype="<f8").reshape(rows, cols).copy()
    return BoundaryKernelMatrix(values=vals, grid=grid, spec=spec)
