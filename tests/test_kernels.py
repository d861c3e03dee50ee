"""Kernel evaluators vs finite-difference and extrapolation oracles."""

import numpy as np
import pytest

from evokernel import kernels as ker
from evokernel import specfun as sf
from evokernel.geometry import make_curve, sample_quadrature


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


def test_kernel_cache_and_roundtrip(tmp_path):
    grid = sample_quadrature(make_curve("disk", radius=1.0), 32)
    spec = ker.ScalarKernelSpec(0.06)
    a = ker.boundary_kernel(spec, grid)
    b = ker.boundary_kernel(ker.ScalarKernelSpec(0.06), grid)
    assert a is b
    path = tmp_path / "k.kmat"
    ker.save_kernel_matrix(a, path)
    loaded = ker.load_kernel_matrix(path)
    assert np.array_equal(loaded.values, a.values)
    assert loaded.spec.kappa == spec.kappa


def test_disk_cache_keys_curve_params(tmp_path, monkeypatch):
    # two disks that differ only in radius need separate cache files
    monkeypatch.setenv("EVOKERNEL_CACHE_DIR", str(tmp_path))
    spec = ker.ScalarKernelSpec(0.1)
    grids = [sample_quadrature(make_curve("disk", radius=r), 32) for r in (1.0, 2.0)]
    for grid in grids:
        ker.clear_cache()
        ker.boundary_kernel(spec, grid)
    assert len(list(tmp_path.iterdir())) == 2
    for grid in grids:
        ker.clear_cache()
        cached = ker.boundary_kernel(spec, grid)
        assert np.array_equal(cached.values, ker.scalar_boundary_kernel(spec, grid).values)
    ker.clear_cache()
    path = tmp_path / "k.kmat"
    ker.save_kernel_matrix(cached, path)
    with pytest.raises(ValueError):
        ker.load_kernel_matrix(path, grid=grids[0], spec=spec)
    with pytest.raises(ValueError):
        ker.load_kernel_matrix(path, grid=grids[1], spec=ker.ScalarKernelSpec(0.2))


def test_load_rejects_truncated_file(tmp_path):
    grid = sample_quadrature(make_curve("disk"), 32)
    spec = ker.ScalarKernelSpec(0.1)
    path = tmp_path / "k.kmat"
    ker.save_kernel_matrix(ker.scalar_boundary_kernel(spec, grid), path)
    data = path.read_bytes()
    for body in (data[:-8], data + bytes(8)):
        path.write_bytes(body)
        with pytest.raises(ValueError, match=r"k\.kmat: body has \d+ bytes, expected 8192"):
            ker.load_kernel_matrix(path, grid=grid, spec=spec)
