"""Kernel evaluators vs finite-difference and extrapolation oracles."""

import numpy as np
import pytest

from evokernel import kernels as ker
from evokernel import specfun as sf
from evokernel.evolution import SquareLatticeDomain
from evokernel.geometry import (BoundaryCurve, DiskCurve, make_curve, petal_lattice,
                                sample_quadrature)


def test_scalar_g0_pinned():
    spec = ker.ScalarKernelSpec(1.0)
    val = ker.scalar_g0(spec, np.array([0.0, 0.0]), np.array([1.0, 0.0]))
    assert val == pytest.approx(-sf.k0(1.0) / (2 * np.pi), rel=1e-14)


def test_scalar_g0_symmetry():
    spec = ker.ScalarKernelSpec(0.07)
    rng = np.random.default_rng(1)
    x = rng.standard_normal((1000, 2))
    y = rng.standard_normal((1000, 2))
    assert np.array_equal(ker.scalar_g0(spec, x, y), ker.scalar_g0(spec, y, x))


def test_scalar_g0_pde_residual():
    # 5-point Laplacian: Delta G0 - G0/kappa ~ 0 away from the singularity
    spec = ker.ScalarKernelSpec(1.0)
    y = np.array([0.0, 0.0])
    x0 = np.array([0.5, 0.0])
    h = 1e-3
    vals = [ker.scalar_g0(spec, x0 + d, y)
            for d in (np.zeros(2), [h, 0], [-h, 0], [0, h], [0, -h])]
    lap = (vals[1] + vals[2] + vals[3] + vals[4] - 4 * vals[0]) / h**2
    assert abs(lap - vals[0] / spec.kappa) < 1e-5


def test_scalar_dln_pinned_and_orthogonal():
    spec = ker.ScalarKernelSpec(1.0)
    x = np.array([0.0, 0.0])
    y = np.array([1.0, 0.0])
    val = ker.scalar_dln(spec, x, y, np.array([1.0, 0.0]))
    assert val == pytest.approx(sf.k1(1.0) / (2 * np.pi), rel=1e-14)
    assert ker.scalar_dln(spec, x, y, np.array([0.0, 1.0])) == pytest.approx(0.0, abs=1e-16)


def test_scalar_dln_matches_directional_difference():
    spec = ker.ScalarKernelSpec(0.05)
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = rng.uniform(-1, 1, 2)
        y = x + rng.uniform(0.2, 1.0) * _unit(rng)
        n = _unit(rng)
        h = 1e-5
        fd = (ker.scalar_g0(spec, x, y + h * n) - ker.scalar_g0(spec, x, y - h * n)) / (2 * h)
        assert ker.scalar_dln(spec, x, y, n) == pytest.approx(fd, rel=1e-6, abs=1e-10)


def _unit(rng):
    v = rng.standard_normal(2)
    return v / np.hypot(*v)


def test_system_g0_structure():
    spec = ker.SystemKernelSpec(0.1)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((50, 2))
    y = rng.standard_normal((50, 2))
    G = ker.system_g0(spec, x, y)
    assert np.array_equal(G[..., 0, 1], -G[..., 1, 0])
    assert np.array_equal(G[..., 0, 0], G[..., 1, 1])


def test_system_g0_operator_identity():
    # L_lam applied to the first fundamental-matrix column via finite differences
    lam = 0.1
    spec = ker.SystemKernelSpec(lam)
    y = np.zeros(2)
    h = 1e-3
    for x0 in (np.array([0.5, 0.0]), np.array([0.3, 0.35])):
        def comp(pt, i):
            return ker.system_g0(spec, pt, y)[i, 0]
        def lap(i):
            return (comp(x0 + [h, 0], i) + comp(x0 - [h, 0], i)
                    + comp(x0 + [0, h], i) + comp(x0 - [0, h], i)
                    - 4 * comp(x0, i)) / h**2
        r1 = comp(x0, 0) - lam * lap(1)
        r2 = lam * lap(0) + comp(x0, 1)
        assert abs(r1) < 1e-4 and abs(r2) < 1e-4


def test_system_scaling_identity():
    # kernel arguments depend on r/sqrt(lam): scaling the curve by 2 and lam by 4
    # leaves the fundamental matrix equal up to the 1/lam prefactor
    g1 = ker.system_g0(ker.SystemKernelSpec(0.05),
                       np.array([0.0, 0.0]), np.array([0.3, 0.4]))
    g2 = ker.system_g0(ker.SystemKernelSpec(0.2),
                       np.array([0.0, 0.0]), np.array([0.6, 0.8]))
    assert np.allclose(g1, 4.0 * g2, rtol=1e-13)


def test_singularity_errors():
    x = np.array([0.1, 0.2])
    with pytest.raises(ValueError):
        ker.scalar_g0(ker.ScalarKernelSpec(1.0), x, x)
    with pytest.raises(ValueError):
        ker.system_g0(ker.SystemKernelSpec(1.0), x, x)
    with pytest.raises(ValueError):
        ker.ScalarKernelSpec(-1.0)
    with pytest.raises(ValueError):
        ker.SystemKernelSpec(0.0)


def test_scalar_diagonal_limit_disk():
    # unit disk: K(s, s) = 1/(4 pi); cross-check by near-diagonal evaluation
    curve = make_curve("disk", radius=1.0)
    grid = sample_quadrature(curve, 64)
    spec = ker.ScalarKernelSpec(0.05)
    km = ker.scalar_boundary_kernel(spec, grid)
    assert np.allclose(np.diag(km.values), 1.0 / (4 * np.pi), rtol=1e-13)
    s = 0.7
    vals = []
    for eps in (1e-2, 1e-3, 1e-4):
        x = curve.point(np.array([s]))[0]
        y = curve.point(np.array([s + eps]))[0]
        n = curve.normal(np.array([s + eps]))[0]
        vals.append(ker.scalar_dln(spec, x, y, n) * curve.speed(np.array([s + eps]))[0])
    gaps = [abs(v - 1.0 / (4 * np.pi)) for v in vals]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-6


def test_square_edge_diagonal_zero():
    grid = sample_quadrature(make_curve("square"), 64)
    km = ker.scalar_boundary_kernel(ker.ScalarKernelSpec(0.07), grid)
    assert np.all(np.diag(km.values) == 0.0)
    # entries between nodes on one straight edge vanish as well
    assert km.values[1, 5] == pytest.approx(0.0, abs=1e-16)


def test_system_diagonal_extrapolation():
    # folded diagonal blocks are (curvature*speed/4pi) * Id; verify the raw
    # kernel limits by Richardson extrapolation on the disk
    lam = 0.1
    curve = make_curve("disk", radius=1.0)
    spec = ker.SystemKernelSpec(lam)
    s = 1.3
    x = curve.point(np.array([s]))[0]
    out = []
    for eps in (1e-3, 1e-4):
        y = curve.point(np.array([s + eps]))[0]
        n = curve.normal(np.array([s + eps]))[0]
        out.append(ker.system_dkdn(spec, x, y, n))
    extrap = out[1] + (out[1] - out[0]) / 9.0  # h^?: conservative refinement
    c = 1.0 / (4 * np.pi)
    assert abs(extrap[0, 1] + c) < 1e-6
    assert abs(extrap[1, 0] + c) < 1e-6
    assert abs(extrap[0, 0]) < 1e-6 and abs(extrap[1, 1]) < 1e-6
    grid = sample_quadrature(curve, 32)
    km = ker.system_boundary_kernel(spec, grid)
    assert km.values[0, 0] == pytest.approx(c, rel=1e-13)
    assert km.values[1, 1] == pytest.approx(c, rel=1e-13)
    assert km.values[0, 1] == 0.0


def test_kernel_matrix_finite_rows():
    grid = sample_quadrature(make_curve("petal"), 256)
    km = ker.boundary_kernel(ker.ScalarKernelSpec(0.08), grid)
    assert np.all(np.isfinite(km.values))
    assert np.max(np.sum(np.abs(km.values), axis=1)) < 1e3


def test_kernel_cache_and_roundtrip():
    grid = sample_quadrature(make_curve("disk", radius=1.0), 32)
    spec = ker.ScalarKernelSpec(0.06)
    a = ker.boundary_kernel(spec, grid)
    b = ker.boundary_kernel(ker.ScalarKernelSpec(0.06), grid)
    assert a is b
    assert np.array_equal(a.values, ker.scalar_boundary_kernel(spec, grid).values)
    assert ker.boundary_kernel(ker.SystemKernelSpec(0.06), grid).kind == "system"


@pytest.mark.parametrize("spec", [ker.ScalarKernelSpec(0.11), ker.SystemKernelSpec(0.11)],
                         ids=["scalar", "system"])
def test_kernel_memo_keyed_by_grid_content(spec):
    # equal curves from separate calls share one matrix; another radius or
    # n_bd gets its own, each bitwise the direct build
    direct = ker.scalar_boundary_kernel if spec.kind == "scalar" else ker.system_boundary_kernel
    grids = [sample_quadrature(make_curve("disk", radius=r), n)
             for r, n in ((1.0, 32), (1.0, 32), (2.0, 32), (1.0, 64))]
    kmats = [ker.boundary_kernel(spec, grid) for grid in grids]
    assert kmats[0] is kmats[1]
    assert len({id(k) for k in kmats}) == 3
    for grid, kmat in zip(grids, kmats):
        assert np.array_equal(kmat.values, direct(spec, grid).values)


class _Ellipse(BoundaryCurve):
    """A user curve that keeps the base class's kind and params."""

    def __init__(self, a, b):
        self.a, self.b = a, b

    def point(self, t):
        return np.stack([self.a * np.cos(t), self.b * np.sin(t)], axis=-1)

    def derivative(self, t):
        return np.stack([-self.a * np.sin(t), self.b * np.cos(t)], axis=-1)

    def second_derivative(self, t):
        return np.stack([-self.a * np.cos(t), -self.b * np.sin(t)], axis=-1)


class _DiskEllipse(DiskCurve):
    """An ellipse that inherits the disk's kind and attributes."""

    def __init__(self, b):
        super().__init__()
        self.b = b

    def point(self, t):
        return np.stack([np.cos(t), self.b * np.sin(t)], axis=-1)

    def derivative(self, t):
        return np.stack([-np.sin(t), self.b * np.cos(t)], axis=-1)

    def second_derivative(self, t):
        return np.stack([-np.cos(t), -self.b * np.sin(t)], axis=-1)


def test_kernel_memo_keeps_custom_curves_apart():
    # grids are keyed by their nodes, so user curves share entries only when equal
    spec = ker.ScalarKernelSpec(0.11)
    curves = [_Ellipse(1.0, 0.5), _Ellipse(2.0, 1.0), _Ellipse(1.0, 0.5),
              make_curve("disk"), _DiskEllipse(0.5)]
    grids = [sample_quadrature(curve, 32) for curve in curves]
    assert len(set(grids)) == 3
    assert grids[0] == grids[2] == grids[4] and grids[0] != grids[1] != grids[3] != grids[0]
    kmats = [ker.boundary_kernel(spec, grid) for grid in grids]
    assert kmats[0] is kmats[2] is kmats[4]
    assert len({id(k) for k in kmats}) == 3
    for grid, kmat in zip(grids, kmats):
        assert np.array_equal(kmat.values, ker.scalar_boundary_kernel(spec, grid).values)


def _pair_geometry(grid, pts):
    """(r, dr/dn, coincident) from one (m, n, 2) difference array."""
    d = grid.points[None, :, :] - pts[:, None, :]
    r = np.hypot(d[..., 0], d[..., 1])
    coincident = r == 0.0
    r[coincident] = 1.0
    drdn = (d[..., 0] * grid.normals[None, :, 0] + d[..., 1] * grid.normals[None, :, 1]) / r
    return r, drdn, coincident


def _all_pairs_coupled(spec, grid, pts):
    """Folded coupled kernel with dker0/dkei0 evaluated on every pair."""
    r, drdn, _ = _pair_geometry(grid, pts)
    sl = np.sqrt(spec.lam)
    z = r / sl
    f = drdn / (2.0 * np.pi * sl) * grid.speeds[None, :]
    dker = sf.dker0(z.ravel()).reshape(z.shape)
    dkei = sf.dkei0(z.ravel()).reshape(z.shape)
    K = np.empty((2 * r.shape[0], 2 * r.shape[1]))
    K[0::2, 0::2] = -dker * f
    K[0::2, 1::2] = dkei * f
    K[1::2, 0::2] = -dkei * f
    K[1::2, 1::2] = -dker * f
    return K


def _lattice_cases():
    # square: distances repeat across the lattice; petal: they rarely do
    dom = SquareLatticeDomain(17, 64)
    petal = make_curve("petal")
    return [(dom.quad, dom.points[dom.interior_idx]),
            (sample_quadrature(petal, 64), petal_lattice(petal, spacing=0.08).points)]


@pytest.mark.parametrize("case", ["square", "disk", "petal"])
def test_node_geometry_bitwise_difference_array(case):
    """The outer-difference pair geometry equals the (m, n, 2) formula byte for
    byte, for interior targets and for the grid's own nodes."""
    if case == "square":
        dom = SquareLatticeDomain(41, 256)
        grid, pts = dom.quad, dom.points[dom.interior_idx]
    elif case == "disk":
        grid = sample_quadrature(make_curve("disk", radius=0.7), 96)
        pts = np.random.default_rng(3).uniform(-0.45, 0.45, (200, 2))
    else:
        grid, pts = _lattice_cases()[1]
    for targets in (pts, grid.points):
        got, ref = ker._node_geometry(grid, targets), _pair_geometry(grid, targets)
        for a, b in zip(got, ref):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("case", [0, 1], ids=["square", "petal"])
def test_coupled_matrices_bitwise_all_pairs(case):
    """The complex potential holds each all-pairs folded block [[a, b], [-b, a]]
    as a - ib bit for bit, and the boundary kernel expands it back to them."""
    grid, pts = _lattice_cases()[case]
    spec = ker.SystemKernelSpec(0.0075)
    C, ref = ker.potential_matrix(spec, grid, pts), _all_pairs_coupled(spec, grid, pts)
    assert C.dtype == np.complex128 and C.shape == (pts.shape[0], grid.n)
    for a, b, part in ((0, 0, C.real), (1, 1, C.real), (1, 0, C.imag), (0, 1, -C.imag)):
        assert np.array_equal(ref[a::2, b::2], part)
    ref = _all_pairs_coupled(spec, grid, grid.points)
    c = grid.curvatures * grid.speeds / (4.0 * np.pi)
    for a in range(2):
        for b in range(2):
            np.fill_diagonal(ref[a::2, b::2], c if a == b else 0.0)
    assert np.array_equal(ker.system_boundary_kernel(spec, grid).values, ref)


def test_coupled_potential_evaluates_distinct_distances_once(monkeypatch):
    """One complex Bessel evaluation per distinct distance serves both Kelvin
    derivatives."""
    dom = SquareLatticeDomain(17, 64)
    pts = dom.points[dom.interior_idx]
    counts = {}
    kelvin_complex = sf._kelvin_complex

    def counting(order, x):
        counts[order] = counts.get(order, 0) + np.size(x)
        return kelvin_complex(order, x)

    monkeypatch.setattr(sf, "_kelvin_complex", counting)
    ker.potential_matrix(ker.SystemKernelSpec(0.0075), dom.quad, pts)
    distinct = np.unique(_pair_geometry(dom.quad, pts)[0]).size
    assert distinct < pts.shape[0] * dom.quad.n
    assert counts == {1: distinct}


@pytest.mark.parametrize("spec", [ker.ScalarKernelSpec(0.05), ker.SystemKernelSpec(0.0075)],
                         ids=["scalar", "system"])
def test_potential_rejects_target_on_node(spec):
    grid = sample_quadrature(make_curve("disk"), 32)
    pts = np.array([[0.1, 0.2], grid.points[5], [-0.3, 0.0]])
    with pytest.raises(ValueError, match="boundary grid"):
        ker.potential_matrix(spec, grid, pts)


def test_potential_fold_matches_pointwise_kernels():
    grid, pts = _lattice_cases()[1]
    rng = np.random.default_rng(4)
    scalar, system = ker.ScalarKernelSpec(0.05), ker.SystemKernelSpec(0.0075)
    P = ker.potential_matrix(scalar, grid, pts)
    K = ker.potential_matrix(system, grid, pts)
    for i, j in zip(rng.integers(0, pts.shape[0], 12), rng.integers(0, grid.n, 12)):
        x, y, n_y, speed = pts[i], grid.points[j], grid.normals[j], grid.speeds[j]
        np.testing.assert_allclose(P[i, j], ker.scalar_dln(scalar, x, y, n_y) * speed,
                                   rtol=1e-14, atol=0)
        D = ker.system_dkdn(system, x, y, n_y) * speed
        folded = np.array([[-D[a, 1 - b] for b in range(2)] for a in range(2)])
        a_ib = K[i, j]      # the block [[a, b], [-b, a]] as a - ib
        np.testing.assert_allclose([[a_ib.real, -a_ib.imag], [a_ib.imag, a_ib.real]],
                                   folded, rtol=1e-14, atol=0)
