"""Random training-data generators and the dataset container.

Source datasets pair random fields f with labels u from the finite-difference
solver (homogeneous Dirichlet); boundary datasets are label-free (the
boundary model trains on the integral-equation residual) and hold only
traces g, which every kappa shares.  Every record derives its own seed from
(root seed, index) so generation is deterministic regardless of schedule, and
a dataset rebuilt from its provenance record is bit-identical.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field

import numpy as np

from . import container
from .fdsolver import fd_solve_complex, fd_solve_scalar
from .geometry import QuadratureGrid, square_lattice

__all__ = [
    "Dataset", "grf_boundary",
    "build_source_dataset", "build_boundary_dataset",
    "build_offlattice_source_dataset", "trig_family",
    "save_dataset", "load_dataset",
]


def _rng(seed, *key):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, *key])))


def _filtered_fields(seeds, n, sigmas):
    """Unit-variance white noise smoothed by a periodic Gaussian filter, for
    each (seed, sigma) pair, as (k, n, n), each field rescaled to unit max-abs.

    sigma is the filter standard deviation in lattice units; the whole batch
    shares one fft2 and one ifft2 call."""
    if any(sigma <= 0 for sigma in sigmas):
        raise ValueError("sigma must be positive")
    noise = np.array([_rng(seed, 0xF1E1D).standard_normal((n, n))
                      for seed in seeds]).reshape(-1, n, n)
    k = np.fft.fftfreq(n) * n
    kx, ky = np.meshgrid(k, k, indexing="ij")
    # each record's factor is formed in Python floats, as a lone record's
    # is, so a batched field is bitwise the single-record one
    decay = np.array([-2.0 * (np.pi * float(sigma) / n) ** 2 for sigma in sigmas])
    spectrum = np.fft.fft2(noise)
    spectrum *= np.exp(decay[:, None, None] * (kx**2 + ky**2))
    smooth = np.fft.ifft2(spectrum).real
    peak = np.max(np.abs(smooth), axis=(-2, -1), keepdims=True)
    return smooth / np.where(peak > 0, peak, 1.0)


_TRIG = {0: np.sin, 1: np.cos}
# the ranges of a random trig_family member's amplitude a and frequencies b, c
_AMP_RANGE, _FREQ_RANGE = (-1.0, 1.0), (0.5, 3.0)


def trig_family(a, b, c, form):
    """Closed-form generator a * T1(b pi x) * T2(c pi y) with T in {sin, cos}.

    form is a 2-bit code selecting (T1, T2); returns a callable f(X, Y).
    Every member satisfies Delta f = -pi^2 (b^2 + c^2) f, which downstream
    generators use for exact source terms.
    """
    t1, t2 = _TRIG[form >> 1], _TRIG[form & 1]

    def f(X, Y):
        return a * t1(b * np.pi * X) * t2(c * np.pi * Y)

    return f


def _trig_sources(seeds, n):
    """A random product-of-trigonometrics field on the closed n x n unit
    lattice for each seed, as (k, n, n)."""
    # contiguous coordinate planes: the trig ufuncs run slower on strided views
    X, Y = np.ascontiguousarray(square_lattice(n).points.T).reshape(2, n, n)
    return np.array([trig_family(*_trig_draw(_rng(seed, 0x7A16)))(X, Y)
                     for seed in seeds]).reshape(-1, n, n)


def _trig_draw(rng):
    """(a, b, c, form) of a random trig_family member."""
    return (rng.uniform(*_AMP_RANGE), rng.uniform(*_FREQ_RANGE),
            rng.uniform(*_FREQ_RANGE), int(rng.integers(0, 4)))


def grf_boundary(seed, grid: QuadratureGrid, length_scale):
    """Gaussian random field on the boundary parameter.

    Zero mean, periodic squared-exponential covariance
    exp(-2 sin^2((s - t)/2) / l^2), sampled through a jittered Cholesky
    factor of the node covariance.
    """
    if length_scale <= 0:
        raise ValueError("length_scale must be positive")
    L = _grf_factor(grid, length_scale)
    rng = _rng(seed, 0x96F)
    return L @ rng.standard_normal(grid.n)


@functools.cache
def _grf_factor(grid, length_scale):
    """Jittered Cholesky factor of the node covariance, one per (grid, length_scale)."""
    t = grid.t
    d = t[:, None] - t[None, :]
    C = np.exp(-2.0 * np.sin(0.5 * d) ** 2 / length_scale**2)
    jitter = 1e-10 * grid.n
    try:
        return np.linalg.cholesky(C + jitter * np.eye(grid.n))
    except np.linalg.LinAlgError as exc:
        raise RuntimeError("boundary covariance not positive definite after jitter") from exc


@dataclass
class Dataset:
    """Training records in kappa-major blocks, sharing one grid descriptor.

    A source dataset holds fields f and labels u of shape
    (len(kappas), per_kappa, width); block ik belongs to kappas[ik].  A
    boundary dataset holds its traces g once, shape (n_g, width), and every
    kappa shares them.  provenance["kind"] names the builder.
    """

    kappas: np.ndarray
    g: np.ndarray | None = None
    f: np.ndarray | None = None
    u: np.ndarray | None = None
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        shapes = {n: np.shape(a) for n, a in self._arrays().items()}
        k = shapes.get("kappas", ())
        if "g" in shapes:
            ok = shapes.keys() == {"kappas", "g"} and len(shapes["g"]) == 2
        else:
            ok = (shapes.keys() == {"kappas", "f", "u"} and shapes["f"] == shapes["u"]
                  and len(shapes["f"]) == 3 and shapes["f"][:1] == k)
        if len(k) != 1 or not ok:
            raise ValueError(f"a dataset holds kappas (K,) with g (n_g, width), or with "
                             f"f and u both (K, per_kappa, width); got shapes {shapes}")

    @property
    def per_kappa(self):
        """Records per kappa: the shared traces, or the rows of one block."""
        return len(self.g) if self.g is not None else self.f.shape[1]

    @property
    def n_records(self):
        return len(self.kappas) * self.per_kappa

    def _arrays(self):
        """{name: array} of the arrays that are set, in file order."""
        return {n: getattr(self, n) for n in _ARRAYS if getattr(self, n) is not None}

    def content_hash(self):
        """The sha256 of the arrays' bytes in file order: the body sha256 that
        save_dataset writes into the file's header."""
        h = hashlib.sha256()
        for arr in self._arrays().values():
            h.update(np.ascontiguousarray(arr))
        return h.hexdigest()


def build_source_dataset(kappas, per_kappa, n, seed, mix=0.5, sigma_range=(1.0, 4.0),
                         coupled=False):
    """Random sources labelled by the lattice solver, homogeneous boundary.

    mix: fraction of Gaussian-filtered-noise records (the rest are trig
    products).  For the coupled case two independent fields form
    (f1, f2) and labels come from the complex solve; records stack the
    components as [f1 | f2].  f and u have shape (len(kappas), per_kappa, width).
    """
    kappas = np.asarray(kappas, dtype=np.float64)
    width = n * n * (2 if coupled else 1)
    f_arr = np.empty((len(kappas), per_kappa, width))
    u_arr = np.empty_like(f_arr)
    for ik, kap in enumerate(kappas):
        # every record keeps its own stream; the fields of one kappa are
        # filtered and solved as one batch
        subs, sigmas = [], []  # per field; a nan sigma marks a trig product
        for j in range(per_kappa):
            rng = _rng(seed, ik, j)
            for _ in range(1 + coupled):
                subs.append(int(rng.integers(0, 2**31)))
                sigmas.append(rng.uniform(*sigma_range) if rng.uniform() < mix else np.nan)
        subs, sigmas = np.array(subs, dtype=np.int64), np.array(sigmas)
        noisy = ~np.isnan(sigmas)
        # views: a coupled record stacks its fields as [f1 | f2], [u1 | u2]
        fields, labels = f_arr[ik].reshape(-1, n, n), u_arr[ik].reshape(-1, n, n)
        fields[noisy] = _filtered_fields(subs[noisy], n, sigmas[noisy])
        fields[~noisy] = _trig_sources(subs[~noisy], n)
        if coupled:
            f = fields[0::2] + 1j * fields[1::2]
            sol = fd_solve_complex(kap, f, np.zeros_like(f))
            labels[0::2], labels[1::2] = sol.real, sol.imag
        else:
            labels[:] = fd_solve_scalar(kap, fields, np.zeros_like(fields))
    prov = {"kind": "source", "seed": seed, "per_kappa": per_kappa, "n": n,
            "mix": mix, "sigma_range": list(sigma_range), "coupled": coupled,
            "kappas": [float(k) for k in kappas]}
    return Dataset(kappas, f=f_arr, u=u_arr, provenance=prov)


def build_boundary_dataset(kappas, n_g, grid, seed, length_scales=(0.4, 0.8, 1.6),
                           coupled=False):
    """Label-free boundary traces: n_g GRF samples shared across all kappas.

    The records are the Cartesian product {kappa_i} x {g_j}; g holds each
    trace once, shape (n_g, width).  Coupled records stack two independent
    traces node-interleaved.  The traces read only the parameter nodes
    grid.t, so the grids of one n on every curve give the same records.
    """
    kappas = np.asarray(kappas, dtype=np.float64)
    width = grid.n * (2 if coupled else 1)
    g_rows = np.empty((n_g, width))
    for j in range(n_g):
        rng = _rng(seed, 0xB0, j)
        ell = float(length_scales[int(rng.integers(0, len(length_scales)))])
        sub = int(rng.integers(0, 2**31))
        if coupled:
            g_rows[j, 0::2] = grf_boundary(sub, grid, ell)
            g_rows[j, 1::2] = grf_boundary(sub + 1, grid, ell)
        else:
            g_rows[j] = grf_boundary(sub, grid, ell)
    prov = {"kind": "boundary", "seed": seed, "n_g": n_g, "n_bd": grid.n,
            "length_scales": [float(x) for x in length_scales],
            "coupled": coupled, "kappas": [float(k) for k in kappas]}
    return Dataset(kappas, g=g_rows, provenance=prov)


def build_offlattice_source_dataset(kappas, per_kappa, grid, pts, seed):
    """Source data on scattered interior points (petal-style domains).

    Labels avoid any volume solver: draw a trig-product w with the exact
    identity Delta w = -pi^2 (b^2 + c^2) w, so f = (Delta - 1/kappa) w is
    closed-form; the zero-boundary solution is u = w - v where v solves the
    homogeneous problem with trace w|_boundary through the Nystrom oracle
    (spectrally accurate on smooth curves).
    """
    from .bie import eval_double_layer, nystrom_solve
    from .kernels import ScalarKernelSpec, boundary_kernel

    kappas = np.asarray(kappas, dtype=np.float64)
    pts = np.asarray(pts, dtype=np.float64)
    m = pts.shape[0]
    f_arr = np.empty((len(kappas), per_kappa, m))
    u_arr = np.empty_like(f_arr)
    bpts = grid.points
    traces = np.empty((per_kappa, grid.n))
    for ik, kap in enumerate(kappas):
        spec = ScalarKernelSpec(float(kap))
        for j in range(per_kappa):
            a, b, c, form = _trig_draw(_rng(seed, 0x9E7A1, ik, j))
            w = trig_family(a, b, c, form)
            u_arr[ik, j] = w(pts[:, 0], pts[:, 1])
            coef = -(np.pi**2) * (b**2 + c**2) - 1.0 / kap
            f_arr[ik, j] = coef * u_arr[ik, j]
            traces[j] = w(bpts[:, 0], bpts[:, 1])
        # one Nystrom solve and one potential matrix serve the kappa's records
        phi = nystrom_solve(boundary_kernel(spec, grid), traces)
        u_arr[ik] -= eval_double_layer(spec, grid, phi, pts)
    prov = {"kind": "source-offlattice", "seed": seed, "per_kappa": per_kappa,
            "points": m, "n_bd": grid.n,
            "kappas": [float(k) for k in kappas],
            "generator": "trig-products with Nystrom boundary correction"}
    return Dataset(kappas, f=f_arr, u=u_arr, provenance=prov)


_MAGIC = b"EVOKERNEL-DATA/3\n"
_ARRAYS = ("kappas", "g", "f", "u")


def save_dataset(ds, path):
    """An evokernel.container file: header {provenance}, then the arrays that
    are set, kappas first."""
    container.write(path, _MAGIC, {"provenance": ds.provenance}, ds._arrays())


def load_dataset(path):
    """The Dataset of a save_dataset file; a file whose arrays do not form one
    is a ValueError naming it."""
    header, arrays = container.read(path, _MAGIC)
    try:
        return Dataset(provenance=header["provenance"], **arrays)
    except (TypeError, ValueError) as exc:   # a stray or missing array name, a shape
        raise ValueError(f"{path}: {exc}") from exc
