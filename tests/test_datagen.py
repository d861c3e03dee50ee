import json

import numpy as np
import pytest

from evokernel import datagen as dg
from evokernel import fdsolver as fd
from evokernel.geometry import make_curve, petal_lattice, sample_quadrature


def _filtered_field(seed, n, sigma):
    return dg._filtered_fields([seed], n, [sigma])[0]


def test_filtered_field_determinism_and_limits():
    a = _filtered_field(42, 33, 2.0)
    b = _filtered_field(42, 33, 2.0)
    assert np.array_equal(a, b)
    # very wide filter flattens the field
    flat = _filtered_field(42, 33, 33.0)
    assert flat.max() - flat.min() < 0.1 or np.max(np.abs(flat)) < 1e-12


def test_filtered_field_spectrum_decays_with_sigma():
    def hf_energy(sigma):
        f = _filtered_field(7, 64, sigma)
        F = np.abs(np.fft.fft2(f))**2
        k = np.fft.fftfreq(64) * 64
        kx, ky = np.meshgrid(k, k, indexing="ij")
        mask = np.hypot(kx, ky) > 16
        return F[mask].sum() / F.sum()
    assert hf_energy(4.0) < hf_energy(1.0)


def test_trig_source_bounds_and_distinct_seeds():
    fields = [dg._trig_sources([seed], 21)[0] for seed in range(1, 9)]
    bound = max(abs(a) for a in dg._AMP_RANGE)
    assert bound == 1.0
    for f in fields:
        assert np.max(np.abs(f)) <= bound
    assert not np.array_equal(fields[0], fields[1])


@pytest.mark.parametrize("args, kwargs, digest", [
    (([0.05, 0.1], 8, 9, 3), {},
     "7c4b96b648e1d600d552a9757304597d47d0f602d7e889e91e1a026306f5d22d"),
    (([0.05], 4, 9, 3), {"coupled": True},
     "c164bd95db8baae729c65cd08b1a37f6f2a3e3cfbe9dbdae4c00918c0df605fe"),
])
def test_source_dataset_content_hash_is_pinned(args, kwargs, digest):
    """Values written by earlier versions: the lattice, the trig and noise
    fields and the solver's labels must not move a bit."""
    assert dg.build_source_dataset(*args, **kwargs).content_hash() == digest


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
    assert ds.f.shape == ds.u.shape == (3, 4, 17 * 17)
    assert ds.per_kappa == 4 and ds.n_records == 12
    # labels satisfy the discrete operator equation of their block's kappa
    for ik, j in ((0, 0), (1, 3)):
        kap = kappas[ik]
        u = ds.u[ik, j].reshape(17, 17)
        f = ds.f[ik, j].reshape(17, 17)
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
    assert ds.f.shape == ds.u.shape == (len(kappas), per_kappa, n * n * (1 + coupled))
    for ik, kap in enumerate(kappas):
        for j in range(per_kappa):
            rng = dg._rng(seed, ik, j)

            def draw():
                sub = int(rng.integers(0, 2**31))
                noisy = rng.uniform() < mix
                kinds.add(noisy)
                if noisy:
                    return _filtered_field(sub, n, rng.uniform(1.0, 4.0))
                return dg._trig_sources([sub], n)[0]

            if coupled:
                f1, f2 = draw(), draw()
                sol = fd.fd_solve_complex(kap, f1 + 1j * f2, zeros.astype(complex))
                f = np.concatenate([f1.ravel(), f2.ravel()])
                u = np.concatenate([sol.real.ravel(), sol.imag.ravel()])
            else:
                f = draw()
                u = fd.fd_solve_scalar(kap, f, zeros).ravel()
            assert np.array_equal(ds.f[ik, j], f.ravel())
            assert np.array_equal(ds.u[ik, j], u)
    assert kinds == {False, True}


def test_boundary_dataset_structure():
    grid = sample_quadrature(make_curve("square"), 32)
    ds = dg.build_boundary_dataset([0.05, 0.1], 6, grid, seed=2)
    assert ds.provenance["kind"] == "boundary"
    assert ds.f is None and ds.u is None
    # each of the 6 traces is stored once and serves both kappas
    assert ds.g.shape == (6, 32)
    assert ds.per_kappa == 6 and ds.n_records == 12


_K2 = np.array([0.05, 0.1])


@pytest.mark.parametrize("kappas, arrays", [
    (_K2, {"g": np.zeros((3, 4)), "f": np.zeros((2, 3, 4))}),
    (_K2, {"g": np.zeros((3, 4)), "f": np.zeros((2, 3, 4)), "u": np.zeros((2, 3, 4))}),
    (_K2, {"g": np.zeros((2, 3, 4))}),
    (_K2, {"g": np.zeros(4)}),
    (_K2, {"f": np.zeros((2, 3, 4))}),
    (_K2, {"u": np.zeros((2, 3, 4))}),
    (_K2, {"f": np.zeros((2, 3, 4)), "u": np.zeros((2, 3, 5))}),
    (_K2, {"f": np.zeros((6, 4)), "u": np.zeros((6, 4))}),
    (_K2, {"f": np.zeros((3, 3, 4)), "u": np.zeros((3, 3, 4))}),
    (_K2, {}),
    (np.array(0.05), {"g": np.zeros((3, 4))}),
    (np.zeros((2, 1)), {"f": np.zeros((2, 3, 4)), "u": np.zeros((2, 3, 4))}),
], ids=["g-and-f", "g-and-labels", "g-3d", "g-1d", "f-alone", "u-alone", "f-u-differ",
        "records-not-blocks", "blocks-not-kappas", "no-records", "kappas-0d", "kappas-2d"])
def test_dataset_refuses_other_shapes(kappas, arrays):
    """A dataset is kappas (K,) with traces g (n_g, width), or with f and u of
    one shape (K, per_kappa, width); anything else names the shapes it got."""
    with pytest.raises(ValueError, match=r"\(K, per_kappa, width\); got shapes \{'kappas'"):
        dg.Dataset(kappas, **arrays)


_SQUARE16 = sample_quadrature(make_curve("square"), 16)


@pytest.mark.parametrize("build", [
    lambda: dg.build_boundary_dataset([0.05, 0.1], 3, _SQUARE16, seed=1),
    lambda: dg.build_boundary_dataset([0.05], 2, _SQUARE16, seed=1, coupled=True),
    lambda: dg.build_source_dataset([0.05, 0.1], 2, 5, seed=1),
    lambda: dg.build_source_dataset([0.05], 2, 5, seed=1, coupled=True),
    lambda: dg.build_offlattice_source_dataset(
        [0.05, 0.1], 2, sample_quadrature(make_curve("petal"), 32),
        petal_lattice(make_curve("petal"), spacing=0.2, margin=0.2).points, seed=1),
], ids=["boundary", "boundary-coupled", "source", "source-coupled", "source-offlattice"])
def test_content_hash_is_the_saved_body_sha256(tmp_path, build):
    """content_hash is the sha256 that the saved file's header records for its
    body, and the loaded dataset hashes the same."""
    ds = build()
    path = tmp_path / "d.bin"
    dg.save_dataset(ds, path)
    with open(path, "rb") as fh:
        assert fh.readline() == b"EVOKERNEL-DATA/3\n"
        header = json.loads(fh.readline())
    assert header["sha256"] == ds.content_hash()
    labelled = ["g"] if ds.g is not None else ["f", "u"]
    assert [a["name"] for a in header["arrays"]] == ["kappas", *labelled]
    back = dg.load_dataset(path)
    assert back.content_hash() == ds.content_hash() and back.provenance == ds.provenance


@pytest.mark.parametrize("coupled", [False, True])
def test_boundary_dataset_equals_per_record_reference(coupled):
    # every kappa shares the same n_g traces, stored once; a coupled trace
    # interleaves two independent draws node by node
    grid = sample_quadrature(make_curve("square"), 32)
    kappas, n_g, seed = [0.05, 0.08, 0.1], 4, 2
    ds = dg.build_boundary_dataset(kappas, n_g, grid, seed, coupled=coupled)
    assert ds.g.shape == (n_g, 32 * (1 + coupled))
    for j in range(n_g):
        rng = dg._rng(seed, 0xB0, j)
        ell = float((0.4, 0.8, 1.6)[int(rng.integers(0, 3))])
        sub = int(rng.integers(0, 2**31))
        g = dg.grf_boundary(sub, grid, ell)
        if coupled:
            g = np.stack([g, dg.grf_boundary(sub + 1, grid, ell)], axis=-1).ravel()
        assert np.array_equal(ds.g[j], g)


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
    assert ds.f.shape == ds.u.shape == (len(kappas), per_kappa, len(pts))
    for ik, kap in enumerate(kappas):
        spec = ScalarKernelSpec(kap)
        for j in range(per_kappa):
            a, b, c, form = dg._trig_draw(dg._rng(seed, 0x9E7A1, ik, j))
            w = dg.trig_family(a, b, c, form)
            w_pts = w(pts[:, 0], pts[:, 1])
            coef = -(np.pi**2) * (b**2 + c**2) - 1.0 / kap
            assert np.array_equal(ds.f[ik, j], coef * w_pts)
            phi = nystrom_solve(boundary_kernel(spec, grid),
                                w(grid.points[:, 0], grid.points[:, 1]))
            u = w_pts - eval_double_layer(spec, grid, phi, pts)
            assert np.max(np.abs(ds.u[ik, j] - u)) <= 1e-13 * np.max(np.abs(u))
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
