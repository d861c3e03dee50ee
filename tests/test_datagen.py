import numpy as np
import pytest

from evokernel import datagen as dg
from evokernel import fdsolver as fd
from evokernel.geometry import make_curve, petal_lattice, sample_quadrature


def test_filtered_field_determinism_and_limits():
    a = dg.gaussian_filtered_field(42, 33, 2.0)
    b = dg.gaussian_filtered_field(42, 33, 2.0)
    assert np.array_equal(a, b)
    # very wide filter flattens the field
    flat = dg.gaussian_filtered_field(42, 33, 33.0)
    assert flat.max() - flat.min() < 0.1 or np.max(np.abs(flat)) < 1e-12


def test_filtered_field_spectrum_decays_with_sigma():
    def hf_energy(sigma):
        f = dg.gaussian_filtered_field(7, 64, sigma)
        F = np.abs(np.fft.fft2(f))**2
        k = np.fft.fftfreq(64) * 64
        kx, ky = np.meshgrid(k, k, indexing="ij")
        mask = np.hypot(kx, ky) > 16
        return F[mask].sum() / F.sum()
    assert hf_energy(4.0) < hf_energy(1.0)


def test_trig_source_bounds_and_distinct_seeds():
    fields = [dg.random_trig_source(seed, 21) for seed in range(1, 9)]
    bound = max(abs(a) for a in dg._AMP_RANGE)
    assert bound == 1.0
    for f in fields:
        assert np.max(np.abs(f)) <= bound
    assert not np.array_equal(fields[0], fields[1])


def test_trig_family_forced_case():
    f = dg.trig_family(1.0, 1.0, 0.0, form=0b01)  # sin(pi x) * cos(0) = sin(pi x)
    xs = np.linspace(0, 1, 11)
    assert np.allclose(f(xs, 0.3 * np.ones(11)), np.sin(np.pi * xs))


def test_grf_unit_variance_and_limits():
    grid = sample_quadrature(make_curve("disk", radius=1.0), 64)
    L = dg._grf_factor(grid, 0.8)
    C = L @ L.T
    assert np.allclose(np.diag(C), 1.0, atol=1e-6)
    smooth = dg.grf_boundary(3, grid, 50.0)
    assert smooth.max() - smooth.min() < 0.2


def test_grf_factor_keyed_by_grid_content():
    grids = [sample_quadrature(make_curve("disk", radius=r), n)
             for r, n in ((1.0, 32), (1.0, 32), (2.0, 32), (1.0, 64))]
    factors = [dg._grf_factor(grid, 0.4) for grid in grids]
    assert factors[0] is factors[1]
    assert len({id(L) for L in factors}) == 3
    assert dg._grf_factor(grids[0], 0.8) is not factors[0]
    assert np.array_equal(dg.grf_boundary(7, grids[0], 0.4), dg.grf_boundary(7, grids[1], 0.4))


def test_grf_empirical_covariance():
    grid = sample_quadrature(make_curve("disk", radius=1.0), 32)
    ell = 0.8
    samples = np.stack([dg.grf_boundary(s, grid, ell) for s in range(10000)])
    emp = samples.T @ samples / samples.shape[0]
    lag0 = np.mean(np.diag(emp))
    assert abs(lag0 - 1.0) < 0.05
    k = round(np.pi / 4 / grid.weight)  # lag pi/4 in parameter
    lagk = np.mean(np.diag(emp, k=k))
    target = np.exp(-2 * np.sin(k * grid.weight / 2)**2 / ell**2)
    assert abs(lagk - target) < 0.05


def test_source_dataset_consistency_and_determinism():
    kappas = [0.05, 0.075, 0.1]
    ds = dg.build_source_dataset(kappas, 4, 17, seed=5)
    assert ds.n_records == 12
    # labels satisfy the discrete operator equation
    for i in (0, 7):
        kap = kappas[int(ds.kappa_index[i])]
        u = ds.u[i].reshape(17, 17)
        f = ds.f[i].reshape(17, 17)
        res = fd.apply_operator(kap, u) - f[1:-1, 1:-1]
        assert np.max(np.abs(res)) < 1e-9
        # homogeneous boundary labels
        assert np.max(np.abs(u[0, :])) == 0.0
    ds2 = dg.build_source_dataset(kappas, 4, 17, seed=5)
    assert ds.content_hash() == ds2.content_hash()


@pytest.mark.parametrize("coupled", [False, True])
def test_source_dataset_equals_per_record_reference(coupled):
    # the record loop of single-field draws and solves that the per-kappa
    # batches replace; every record keeps its own RNG stream
    kappas, per_kappa, n, seed, mix = [0.05, 0.1], 8, 17, 3, 0.5
    ds = dg.build_source_dataset(kappas, per_kappa, n, seed, mix=mix, coupled=coupled)
    zeros = np.zeros((n, n))
    kinds = set()
    rec = 0
    for ik, kap in enumerate(kappas):
        for j in range(per_kappa):
            rng = dg._rng(seed, ik, j)

            def draw():
                sub = int(rng.integers(0, 2**31))
                noisy = rng.uniform() < mix
                kinds.add(noisy)
                if noisy:
                    return dg.gaussian_filtered_field(sub, n, rng.uniform(1.0, 4.0))
                return dg.random_trig_source(sub, n)

            if coupled:
                f1, f2 = draw(), draw()
                sol = fd.fd_solve_complex(kap, f1 + 1j * f2, zeros.astype(complex))
                f = np.concatenate([f1.ravel(), f2.ravel()])
                u = np.concatenate([sol.real.ravel(), sol.imag.ravel()])
            else:
                f = draw()
                u = fd.fd_solve_scalar(kap, f, zeros).ravel()
            assert np.array_equal(ds.f[rec], f.ravel())
            assert np.array_equal(ds.u[rec], u)
            assert ds.kappa_index[rec] == ik
            rec += 1
    assert rec == ds.n_records and kinds == {False, True}


def test_boundary_dataset_structure():
    grid = sample_quadrature(make_curve("square"), 32)
    ds = dg.build_boundary_dataset([0.05, 0.1], 6, grid, seed=2)
    assert ds.kind == "boundary-selfsup"
    assert ds.f is None and ds.u is None
    assert ds.n_records == 12
    with pytest.raises(ValueError):
        dg.Dataset(kind="boundary-selfsup", kappas=np.array([1.0]),
                   kappa_index=np.zeros(1, dtype=int), g=np.zeros((1, 4)),
                   f=np.zeros((1, 4)))


@pytest.mark.parametrize("coupled", [False, True])
def test_boundary_dataset_equals_per_record_reference(coupled):
    # every kappa repeats the same n_g traces; a coupled trace interleaves
    # two independent draws node by node
    grid = sample_quadrature(make_curve("square"), 32)
    kappas, n_g, seed = [0.05, 0.08, 0.1], 4, 2
    ds = dg.build_boundary_dataset(kappas, n_g, grid, seed, coupled=coupled)
    for j in range(n_g):
        rng = dg._rng(seed, 0xB0, j)
        ell = float((0.4, 0.8, 1.6)[int(rng.integers(0, 3))])
        sub = int(rng.integers(0, 2**31))
        g = dg.grf_boundary(sub, grid, ell)
        if coupled:
            g = np.stack([g, dg.grf_boundary(sub + 1, grid, ell)], axis=-1).ravel()
        for ik in range(len(kappas)):
            assert np.array_equal(ds.g[ik * n_g + j], g)
    assert np.array_equal(ds.kappa_index, np.repeat(np.arange(len(kappas)), n_g))


@pytest.mark.parametrize("coupled", [False, True])
def test_boundary_dataset_does_not_depend_on_the_curve(coupled):
    """The traces are a GRF over the parameter nodes grid.t, which every curve
    shares at one n_bd: the square, a radius-2 disk and the default petal give
    bitwise-equal traces, one content hash and one provenance."""
    grids = [sample_quadrature(curve, 32) for curve in (
        make_curve("square"), make_curve("disk", radius=2.0), make_curve("petal"))]
    sets = [dg.build_boundary_dataset([0.05, 0.1], 4, grid, 3, coupled=coupled)
            for grid in grids]
    assert len({grid.cache_key for grid in grids}) == 3
    assert all(np.array_equal(ds.g, sets[0].g) for ds in sets[1:])
    assert len({ds.content_hash() for ds in sets}) == 1
    assert all(ds.provenance == sets[0].provenance for ds in sets[1:])


def test_offlattice_dataset_equals_per_record_reference():
    """Sources are bitwise the per-record closed form; the labels, solved and
    summed per kappa as one batch, match one Nystrom solve and one
    double-layer sum per record; reruns are bit-identical."""
    from evokernel.bie import eval_double_layer, nystrom_solve
    from evokernel.kernels import ScalarKernelSpec, boundary_kernel
    curve = make_curve("petal")
    grid = sample_quadrature(curve, 64)
    pts = petal_lattice(curve, spacing=0.1, margin=0.1).points
    kappas, per_kappa, seed = [0.05, 0.1], 3, 3
    ds = dg.build_offlattice_source_dataset(kappas, per_kappa, grid, pts, seed)
    for ik, kap in enumerate(kappas):
        spec = ScalarKernelSpec(kap)
        for j in range(per_kappa):
            a, b, c, form = dg._trig_draw(dg._rng(seed, 0x9E7A1, ik, j))
            w = dg.trig_family(a, b, c, form)
            w_pts = w(pts[:, 0], pts[:, 1])
            coef = -(np.pi**2) * (b**2 + c**2) - 1.0 / kap
            assert np.array_equal(ds.f[ik * per_kappa + j], coef * w_pts)
            phi = nystrom_solve(boundary_kernel(spec, grid),
                                w(grid.points[:, 0], grid.points[:, 1]))
            u = w_pts - eval_double_layer(spec, grid, phi, pts)
            assert np.max(np.abs(ds.u[ik * per_kappa + j] - u)) <= 1e-13 * np.max(np.abs(u))
    assert np.array_equal(ds.kappa_index, np.repeat(np.arange(len(kappas)), per_kappa))
    rerun = dg.build_offlattice_source_dataset(kappas, per_kappa, grid, pts, seed)
    assert rerun.content_hash() == ds.content_hash()


def test_kappa_grid_11_values():
    ks = np.linspace(0.05, 0.1, 11)
    assert np.allclose(ks, [0.05, 0.055, 0.06, 0.065, 0.07, 0.075, 0.08,
                            0.085, 0.09, 0.095, 0.1])


def test_offlattice_labels_match_oracle():
    curve = make_curve("petal")
    pts = petal_lattice(curve, spacing=0.08, margin=0.08).points
    # label error is the Nystrom discretization error, ~8x smaller per node
    # doubling; the 128-vs-256 and 256-vs-512 gaps pin that behavior
    sets = {n: dg.build_offlattice_source_dataset(
        [0.1], 3, sample_quadrature(curve, n), pts, seed=9) for n in (128, 256, 512)}
    assert np.array_equal(sets[128].f, sets[256].f)  # sources are closed-form
    gap1 = np.max(np.abs(sets[128].u - sets[256].u))
    gap2 = np.max(np.abs(sets[256].u - sets[512].u))
    assert gap2 < 0.3 * gap1
    assert gap2 < 1e-5


def test_dataset_file_roundtrip(tmp_path):
    grid = sample_quadrature(make_curve("square"), 16)
    ds = dg.build_boundary_dataset([0.06], 3, grid, seed=8)
    path = tmp_path / "d.bin"
    dg.save_dataset(ds, path)
    back = dg.load_dataset(path)
    assert back.content_hash() == ds.content_hash()
    assert back.provenance == ds.provenance
