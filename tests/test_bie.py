"""Nystrom solves and double-layer evaluation against manufactured solutions."""

import numpy as np
import pytest

from evokernel import bie, kernels
from evokernel.experiments import scalar_boundary_solution, system_boundary_case
from evokernel.geometry import make_curve, sample_quadrature, square_lattice

DISK = make_curve("disk", radius=1.0)


def _disk_setup(kappa, n):
    grid = sample_quadrature(DISK, n)
    spec = kernels.ScalarKernelSpec(kappa)
    return spec, grid, kernels.boundary_kernel(spec, grid)


def _polar_points(rmax=0.8, nr=8, nth=16):
    rr, th = np.meshgrid(np.linspace(0.1, rmax, nr),
                         np.linspace(0, 2 * np.pi, nth, endpoint=False))
    return np.stack([(rr * np.cos(th)).ravel(), (rr * np.sin(th)).ravel()], 1)


def test_residual_zero_for_zero_inputs():
    spec, grid, km = _disk_setup(0.05, 32)
    r = bie.bie_residual(km, np.zeros(32), np.zeros(32))
    assert np.all(r == 0.0)


def test_residual_linearity():
    spec, grid, km = _disk_setup(0.05, 32)
    rng = np.random.default_rng(0)
    phi, g = rng.standard_normal(32), rng.standard_normal(32)
    a = 2.75
    assert np.allclose(bie.bie_residual(km, a * phi, a * g),
                       a * bie.bie_residual(km, phi, g), rtol=1e-13, atol=1e-15)


def test_residual_operator_fresh_per_matrix():
    # a dropped matrix's id() is reused by the next one, so B must belong to the matrix
    grid = sample_quadrature(DISK, 32)
    eye = 0.5 * np.eye(32)
    for kappa in np.linspace(0.02, 0.2, 200):
        km = kernels.scalar_boundary_kernel(kernels.ScalarKernelSpec(kappa), grid)
        B = km.values * grid.weight + eye
        assert np.array_equal(bie.residual_operator(km), B)
        phi = bie.nystrom_solve(km, np.ones(32))
        assert np.max(np.abs(B @ phi - 1.0)) <= 1e-10


def test_solve_residual_property():
    spec, grid, km = _disk_setup(0.05, 128)
    g = scalar_boundary_solution(0.05)(grid.points)
    phi = bie.nystrom_solve(km, g)
    r = bie.bie_residual(km, phi, g)
    assert np.max(np.abs(r)) <= 1e-10 * np.max(np.abs(g))


def test_solve_zero_data():
    spec, grid, km = _disk_setup(0.08, 32)
    phi = bie.nystrom_solve(km, np.zeros(32))
    assert np.max(np.abs(phi)) == 0.0


def test_solve_linearity():
    spec, grid, km = _disk_setup(0.08, 64)
    rng = np.random.default_rng(4)
    g1, g2 = rng.standard_normal(64), rng.standard_normal(64)
    lhs = bie.nystrom_solve(km, g1 + g2)
    rhs = bie.nystrom_solve(km, g1) + bie.nystrom_solve(km, g2)
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-13)


def test_second_kind_conditioning():
    for kappa in (0.05, 0.1, 1 / 128):
        for curve in (DISK, make_curve("square"), make_curve("petal")):
            grid = sample_quadrature(curve, 128)
            km = kernels.boundary_kernel(kernels.ScalarKernelSpec(kappa), grid)
            B = bie.residual_operator(km)
            assert np.linalg.cond(B) < 1e3


def test_manufactured_disk_field_convergence():
    # trace -> solve -> evaluate against the exact homogeneous solution;
    # the plain-trapezoid scheme is third order here (the parametrized
    # kernel has an r^2 log r diagonal term), so errors shrink by ~8x per
    # node doubling; tolerances pinned from the observed convergence.
    kappa = 0.05
    u = scalar_boundary_solution(kappa)
    pts = _polar_points()
    errs = []
    for n in (64, 128, 256):
        spec, grid, km = _disk_setup(kappa, n)
        phi = bie.nystrom_solve(km, u(grid.points))
        field = bie.eval_double_layer(spec, grid, phi, pts)
        errs.append(np.max(np.abs(field - u(pts))))
    assert errs[1] < 0.35 * errs[0]
    assert errs[2] < 0.35 * errs[1]
    assert errs[2] < 2.0e-5
    assert errs[2] / np.max(np.abs(u(pts))) < 2.5e-6


def test_zero_density_zero_field():
    spec, grid, km = _disk_setup(0.05, 32)
    field = bie.eval_double_layer(spec, grid, np.zeros(32), _polar_points())
    assert np.all(field == 0.0)


def _system_disk(lam, n):
    curve = make_curve("disk", radius=0.5, center=(0.5, 0.5))
    grid = sample_quadrature(curve, n)
    spec = kernels.SystemKernelSpec(lam)
    return spec, grid, kernels.boundary_kernel(spec, grid)


def test_system_solve_and_field():
    lam = 0.1
    fields = system_boundary_case(lam)
    errs = []
    for n in (64, 128, 256):
        spec, grid, km = _system_disk(lam, n)
        b1, b2 = fields(grid.points)
        g = np.empty(2 * n)
        g[0::2], g[1::2] = b1, b2
        phi = bie.nystrom_solve(km, g)
        rr, th = np.meshgrid(np.linspace(0.05, 0.3, 5),
                             np.linspace(0, 2 * np.pi, 10, endpoint=False))
        pts = np.stack([0.5 + (rr * np.cos(th)).ravel(),
                        0.5 + (rr * np.sin(th)).ravel()], 1)
        out = bie.eval_double_layer(spec, grid, phi, pts)
        e1, e2 = fields(pts)
        errs.append(max(np.max(np.abs(out[0::2] - e1)),
                        np.max(np.abs(out[1::2] - e2))))
    assert errs[-1] < 1e-6
    assert errs[2] < 0.35 * errs[1] < 0.35 * 0.35 * errs[0]


@pytest.mark.parametrize("layout", ["batched", "strided"])
def test_system_field_matches_pointwise_kernels(layout):
    """u_a(x) = sum_j omega sum_b -D_a,1-b(x, y_j) phi_b(y_j) |gamma'(t_j)| with D
    from system_dkdn, node-interleaved, for a batch and a strided density."""
    spec, grid, _ = _system_disk(0.08, 32)
    pts = 0.5 + 0.3 * _polar_points(nr=3, nth=5)
    rng = np.random.default_rng(11)
    phi = rng.standard_normal((3, 2 * grid.n))
    if layout == "strided":
        phi = rng.standard_normal(4 * grid.n)[::2]
    D = kernels.system_dkdn(spec, pts[:, None, :], grid.points[None], grid.normals[None])
    folded = -D[..., ::-1] * grid.speeds[:, None, None]       # [a, b] = -D[a, 1 - b]
    ref = grid.weight * np.einsum("ijab,...jb->...ia", folded,
                                  phi.reshape(phi.shape[:-1] + (grid.n, 2)))
    ref = ref.reshape(phi.shape[:-1] + (2 * len(pts),))
    out = bie.eval_double_layer(spec, grid, phi, pts)
    assert out.shape == ref.shape
    assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_system_zero_data():
    spec, grid, km = _system_disk(0.05, 32)
    phi = bie.nystrom_solve(km, np.zeros(64))
    assert np.max(np.abs(phi)) == 0.0


def test_system_component_swap_symmetry():
    # G11 = G22 and G12 = -G21 imply: swapping the data components while
    # flipping the sign of one of them maps solutions accordingly
    lam = 0.08
    spec, grid, km = _system_disk(lam, 64)
    rng = np.random.default_rng(6)
    g1, g2 = rng.standard_normal(64), rng.standard_normal(64)
    g = np.empty(128)
    g[0::2], g[1::2] = g1, g2
    phi = bie.nystrom_solve(km, g)
    # swapped data (g2, -g1): expect density (phi2, -phi1)
    gs = np.empty(128)
    gs[0::2], gs[1::2] = g2, -g1
    phis = bie.nystrom_solve(km, gs)
    assert np.allclose(phis[0::2], phi[1::2], rtol=1e-10, atol=1e-12)
    assert np.allclose(phis[1::2], -phi[0::2], rtol=1e-10, atol=1e-12)


def test_density_validation():
    spec, grid, km = _disk_setup(0.05, 32)
    with pytest.raises(ValueError):
        bie.nystrom_solve(km, np.zeros(31))
    with pytest.raises(ValueError):
        bie.nystrom_solve(km, np.full(32, np.nan))
    with pytest.raises(ValueError):
        bie.bie_residual(km, np.zeros(16), np.zeros(16))


def test_residual_batched_matches_rows():
    spec, grid, km = _disk_setup(0.05, 32)
    rng = np.random.default_rng(9)
    phi = rng.standard_normal((5, 32))
    g = rng.standard_normal((5, 32))
    batched = bie.bie_residual(km, phi, g)
    assert batched.shape == (5, 32)
    for i in range(5):
        assert np.allclose(batched[i], bie.bie_residual(km, phi[i], g[i]),
                           rtol=1e-13, atol=1e-15)


def test_nystrom_solve_reports_a_residual_above_tolerance():
    """A solve whose residual exceeds 1e-10 max(|g|, 1) is a SolverError with
    the operator's condition estimate: here B is the Hilbert matrix."""
    import scipy.linalg
    grid = sample_quadrature(DISK, 16)
    values = (scipy.linalg.hilbert(16) - 0.5 * np.eye(16)) / grid.weight
    km = kernels.BoundaryKernelMatrix(values, grid, kernels.ScalarKernelSpec(0.05))
    with pytest.raises(bie.SolverError, match="condition estimate"):
        bie.nystrom_solve(km, np.ones(16))
