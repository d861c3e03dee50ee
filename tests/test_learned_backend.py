"""Learned backend: factored source operator, full-width potential, guards."""

import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest

from evokernel import evolution as ev
from evokernel import nn
from evokernel.experiments import schrodinger_problem
from evokernel.kernels import ScalarKernelSpec, SystemKernelSpec, potential_matrix
from evokernel.nn.models import augmented_points

N, N_BD, WIDTH = 9, 32, 16
DOMAIN = ev.SquareLatticeDomain(n=N, n_bd=N_BD)
LAM_RANGE = {False: (0.05, 0.1), True: (0.005, 0.01)}


def _models(coupled, seed=0):
    rng = np.random.default_rng(seed)
    src = nn.SourceModel.build(DOMAIN.points, [WIDTH, WIDTH], [WIDTH, WIDTH], rng,
                               coupled=coupled)
    bnd = nn.BoundaryModel.build(N_BD, rng, internal=WIDTH, coupled=coupled)
    return bnd, src


def _backend(coupled, seed=0):
    bnd, src = _models(coupled, seed)
    return ev.NekmBackend(DOMAIN, bnd, src, LAM_RANGE[coupled], coupled=coupled)


def _dense_source(src, kappa, f):
    """The source model as its definition reads: (f ⊙ kf) @ g^T, g dense N x N."""
    kf = src.nn_k.predict(np.array([[kappa]]))[0]
    coords = augmented_points(src.points) if src.coupled else src.points
    return (f * kf) @ src.nn_g.predict(coords).T


def _layered_boundary(bnd, kappa, g):
    """The boundary model as its layers read: nn_out(kf ⊙ nn_g(g))."""
    kf = bnd.nn_k.predict(np.array([[kappa]]))[0]
    return bnd.nn_out.predict(kf * bnd.nn_g.predict(g))


def _unfused_solve(backend, lam, F, gfun, t):
    """Dense source, layered boundary model on node-interleaved coupled
    values, interior-only potential (complex if coupled) on the density
    phi1 + i phi2 scattered in, ring overwritten."""
    dom = backend.domain
    idx = dom.interior_idx
    spec = SystemKernelSpec(lam) if backend.coupled else ScalarKernelSpec(lam)
    P = potential_matrix(spec, dom.quad, dom.points[idx]) * dom.quad.weight
    gq = gfun(dom.quad.points, t)
    if backend.coupled:
        npts = F.shape[-1]
        us = _dense_source(backend.source, lam, np.concatenate([F.real, F.imag], axis=-1))
        u = us[..., :npts] + 1j * us[..., npts:]
        g_il = np.empty(gq.shape[:-1] + (2 * gq.shape[-1],))
        g_il[..., 0::2] = gq.real
        g_il[..., 1::2] = gq.imag
        phi = _layered_boundary(backend.boundary, lam, g_il)
        u[..., idx] += (phi[..., 0::2] + 1j * phi[..., 1::2]) @ P.T
    else:
        u = _dense_source(backend.source, lam, -F / lam)
        u[..., idx] += _layered_boundary(backend.boundary, lam, gq) @ P.T
    u[..., dom.ring_idx] = gfun(dom.points[dom.ring_idx], t)
    return u


@pytest.mark.parametrize("coupled", [False, True])
@pytest.mark.parametrize("rows", [None, 3])
def test_factored_source_matches_dense(coupled, rows):
    _, src = _models(coupled)
    rng = np.random.default_rng(1)
    f = rng.standard_normal(src.n_samples if rows is None else (rows, src.n_samples))
    dense = _dense_source(src, 0.07, f)
    out = src.predict(0.07, f)
    assert out.shape == dense.shape
    assert np.max(np.abs(out - dense)) <= 1e-13 * np.max(np.abs(dense))


@pytest.mark.parametrize("coupled", [False, True])
@pytest.mark.parametrize("rows", [None, 3])
def test_folded_boundary_matches_layers(coupled, rows):
    bnd, _ = _models(coupled)
    width = bnd.nn_g.dims[0]
    rng = np.random.default_rng(6)
    g = rng.standard_normal(width if rows is None else (rows, width))
    layered = _layered_boundary(bnd, 0.07, g)
    M, c = bnd.operator(0.07)
    for out in (g @ M + c, bnd.predict(0.07, g)):
        assert out.shape == layered.shape
        assert np.max(np.abs(out - layered)) <= 1e-13 * np.max(np.abs(layered))


def test_step_operator_built_once_per_lam(monkeypatch):
    """Each model operator and potential matrix is evaluated once per lam over
    whole runs: two heat schemes (lam = 0.05, 0.1) and a Strang NLS run."""
    calls = []

    def count(owner, name, lam_of):
        fn = getattr(owner, name)

        def wrapper(*args):
            calls.append((f"{owner.__name__}.{name}", float(lam_of(*args))))
            return fn(*args)

        monkeypatch.setattr(owner, name, wrapper)

    count(nn.SourceModel, "operator", lambda model, lam: lam)
    count(nn.BoundaryModel, "operator", lambda model, lam: lam)
    count(ev, "potential_matrix", lambda spec, quad, pts: astuple(spec)[0])
    heat = _backend(False)
    for scheme in ("cn", "be"):
        ev.run_heat(ev.heat_family(DOMAIN, [0.6, 0.8], [0.8, 0.6], 0.1, 3), heat, scheme)
    ev.run_schrodinger(schrodinger_problem(DOMAIN, 0.01, 3), _backend(True))
    names = ("SourceModel.operator", "BoundaryModel.operator",
             f"{ev.__name__}.potential_matrix")
    assert sorted(calls) == sorted((n, lam) for lam in (0.05, 0.1, 0.005) for n in names)


@pytest.mark.parametrize("coupled", [False, True])
def test_step_record_layout(coupled):
    """The scalar record is (A, R) with R = [H | P M^T | P c], the coupled
    record (A, M, c, R) with R = [H | P]: H is bitwise the source factor, the
    boundary block bitwise P M^T and P c, or P, from the weighted potential P,
    with exactly zero ring rows, (M, c) bitwise the boundary model's, and no
    copy of H or P is kept.  The scalar A is the source A times -1/lam.  The
    coupled R is complex like the coupled potential: H's [real; imaginary]
    halves are R.real and R.imag, and A's rows are permuted to (re, im) pairs."""
    backend = _backend(coupled)
    lam = LAM_RANGE[coupled][0]
    record = backend._operator(lam)
    A_src, H = backend.source.operator(lam)
    M_bnd, c_bnd = backend.boundary.operator(lam)
    k = H.shape[1]
    spec = SystemKernelSpec(lam) if coupled else ScalarKernelSpec(lam)
    P_int = potential_matrix(spec, DOMAIN.quad, DOMAIN.points[DOMAIN.interior_idx])
    P_int *= DOMAIN.quad.weight
    npts, ring, interior = DOMAIN.points.shape[0], DOMAIN.ring_idx, DOMAIN.interior_idx
    if not coupled:
        A, R = record
        assert R.shape == (npts, k + N_BD + 1) and R.base is None
        assert R.dtype == np.float64
        assert not np.any(R[ring, k:])
        assert np.array_equal(R[interior, k:-1], P_int @ M_bnd.T)
        assert np.array_equal(R[interior, -1], P_int @ c_bnd)
        assert np.array_equal(R[:, :k], H)
        assert np.array_equal(A, A_src * (-1.0 / lam))
        assert sum(x.nbytes for x in record) == A_src.nbytes + R.size * 8
        return
    A, M, c, R = record
    assert R.shape == (npts, k + N_BD) and R.base is None
    assert not np.any(R[ring, k:])
    assert np.array_equal(R[interior, k:], P_int)
    assert R.dtype == P_int.dtype == np.complex128
    assert np.array_equal(R.real[:, :k], H[:npts]) and np.array_equal(R.imag[:, :k], H[npts:])
    assert A.flags.c_contiguous
    assert np.array_equal(A[0::2], A_src[:npts]) and np.array_equal(A[1::2], A_src[npts:])
    assert np.array_equal(M, M_bnd) and np.array_equal(c, c_bnd)
    assert sum(x.nbytes for x in record) == sum(
        x.nbytes for x in (A_src, M_bnd, c_bnd)) + R.size * 16


@pytest.mark.parametrize("rows", [None, 1, 7])
def test_folded_scalar_step_matches_unfolded(rows):
    """The scalar step [F A | g | 1] [H | P M^T | P c]^T equals the step with
    the boundary model outside R, [F A | g M + c] [H | P]^T, ring set."""
    backend = _backend(False)
    lam = LAM_RANGE[False][0]
    npts, ring, interior = DOMAIN.points.shape[0], DOMAIN.ring_idx, DOMAIN.interior_idx
    A, H = backend.source.operator(lam)
    M, c = backend.boundary.operator(lam)
    P = np.zeros((npts, N_BD))
    P[interior] = potential_matrix(ScalarKernelSpec(lam), DOMAIN.quad, DOMAIN.points[interior])
    P *= DOMAIN.quad.weight
    rng = np.random.default_rng(5)
    F = rng.standard_normal(npts if rows is None else (rows, npts))
    gfun = lambda pts, t: np.sin(pts[:, 0] + t) * pts[:, 1] + 0.5  # noqa: E731
    g = np.broadcast_to(gfun(DOMAIN.quad.points, 0.3), F.shape[:-1] + (N_BD,))
    ref = np.concatenate([(-F / lam) @ A, g @ M + c], axis=-1) @ np.hstack([H, P]).T
    ref[..., ring] = gfun(DOMAIN.points[ring], 0.3)
    out = backend.solve(lam, F, gfun, 0.3)
    assert out.shape == ref.shape == F.shape
    assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_source_head_must_be_linear():
    _, src = _models(False)
    src.nn_g.activations[-1] = "relu"
    with pytest.raises(ValueError, match="linear"):
        nn.SourceModel(src.points, src.nn_k, src.nn_g)


@pytest.mark.parametrize("coupled", [False, True])
@pytest.mark.parametrize("rows", [None, 4])
def test_solve_matches_unfused_composition(coupled, rows):
    backend = _backend(coupled)
    lam = LAM_RANGE[coupled][0]
    rng = np.random.default_rng(2)
    shape = DOMAIN.points.shape[0] if rows is None else (rows, DOMAIN.points.shape[0])
    F = rng.standard_normal(shape)
    if coupled:
        F = F + 1j * rng.standard_normal(shape)
        gfun = lambda pts, t: np.exp(1j * (pts[:, 0] - t)) * np.cos(pts[:, 1])  # noqa: E731
        out = backend.solve_coupled(lam, F, gfun, 0.3)
    else:
        gfun = lambda pts, t: np.sin(pts[:, 0] + t) * pts[:, 1]  # noqa: E731
        out = backend.solve(lam, F, gfun, 0.3)
    ref = _unfused_solve(backend, lam, F, gfun, 0.3)
    assert out.shape == ref.shape and out.dtype == ref.dtype
    assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))


def _coupled_case(seed, shape):
    rng = np.random.default_rng(seed)
    F = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    gfun = lambda pts, t: np.exp(1j * (pts[:, 0] - t)) * np.cos(pts[:, 1])  # noqa: E731
    return _backend(True), LAM_RANGE[True][0], F, gfun


def test_coupled_batched_solve_equals_rows():
    backend, lam, F, gfun = _coupled_case(8, (4, DOMAIN.points.shape[0]))
    batched = backend.solve_coupled(lam, F, gfun, 0.3)
    for i in range(F.shape[0]):
        row = backend.solve_coupled(lam, F[i], gfun, 0.3)
        assert np.max(np.abs(row - batched[i])) <= 1e-12 * np.max(np.abs(row))


@pytest.mark.parametrize("rows", [slice(None), 1])
def test_coupled_solve_of_strided_field_is_its_copy(rows):
    backend, lam, F, gfun = _coupled_case(9, (4, 2 * DOMAIN.points.shape[0]))
    F = F[rows, ::2]
    assert not F.flags.c_contiguous
    out = backend.solve_coupled(lam, F, gfun, 0.3)
    assert np.array_equal(out, backend.solve_coupled(lam, F.copy(), gfun, 0.3))


def test_learned_batched_equals_sequential():
    backend = _backend(False)
    a = np.array([0.5, 0.6, 0.7, 0.5])
    b = np.sqrt(1.0 - a * a)
    batched = ev.run_heat(ev.heat_family(DOMAIN, a, b, 0.1, 3), backend, "cn").final
    for i in range(a.size):
        single = ev.run_heat(ev.heat_family(DOMAIN, a[i], b[i], 0.1, 3), backend,
                             "cn").final[0]
        assert np.max(np.abs(single - batched[i])) <= 1e-12 * np.max(np.abs(single))
    assert np.array_equal(batched[0], batched[3])


def test_learned_rerun_bit_identical():
    a = np.array([0.45, 0.55, 0.65])
    b = np.sqrt(1.0 - a * a)
    finals = [ev.run_heat(ev.heat_family(DOMAIN, a, b, 0.1, 3), _backend(False, seed=4),
                          "cn").final for _ in range(2)]
    assert np.array_equal(finals[0], finals[1])
    nls = [ev.run_schrodinger(schrodinger_problem(DOMAIN, 0.01, 3),
                              _backend(True, seed=4)).final for _ in range(2)]
    assert np.array_equal(nls[0], nls[1])


def test_uq_run_stats_match_traced_run_heat():
    # this random-init model's errors all share one sign; the classical
    # backend's have both, so a stat read from |err| instead of err shows
    tau, n_steps = 0.1, 3
    for backend in (_backend(False), ev.ClassicalBackend(DOMAIN)):
        stats, hist = ev.uq_run(backend, 6, seed=3, tau=tau, n_steps=n_steps)
        a = hist["a"]
        prob = ev.heat_family(DOMAIN, a, np.sqrt(1.0 - a * a), tau, n_steps)
        res = ev.run_heat(prob, backend, scheme="cn")
        assert len(res.error_trace) == n_steps
        pred, exact = res.final, prob.exact(DOMAIN.points, tau * n_steps)
        err = pred - exact
        expected = {
            "samples": 6,
            "mean_exact": float(exact.mean()),
            "std_exact": float(exact.std()),
            "mean_pred": float(pred.mean()),
            "std_pred": float(pred.std()),
            "mean_error": float(err.mean()),
            "std_error": float(err.std()),
            "max_abs_error": float(np.max(np.abs(err))),
            "rel_l2_error": float(np.linalg.norm(err) / np.linalg.norm(exact)),
            "q95_abs_error": float(np.quantile(np.abs(err), 0.95)),
        }
        # same keys in the same order, every value bitwise
        assert list(stats.items()) == list(expected.items())
        assert np.array_equal(hist["probe_pred"],
                              ev.bilinear_probe(DOMAIN, res.final, (0.43, 0.2)))


class _KeepLast:
    """Backend proxy that keeps the field its last solve returned, as a step
    clock that stamps each solve does."""

    def __init__(self, backend):
        self.backend, self.domain, self.last = backend, backend.domain, None

    def solve(self, lam, F, gfun, t):
        self.last = self.backend.solve(lam, F, gfun, t)
        return self.last


@pytest.mark.parametrize("keep, fields", [(False, 2), (True, 3)])
def test_uq_run_holds_its_field_budget(keep, fields):
    """Above a warmed step record, uq_run holds two batch fields at a time,
    three when the backend keeps its last returned field, plus the step's X
    and a slack for the arrays that scale with the boundary points, not the
    lattice: quadrature data, ring data, their trigonometric tables and
    gather temporaries, at most 4 (n_bd + ring) values a sample."""
    n, samples = 33, 256
    dom = ev.SquareLatticeDomain(n=n, n_bd=N_BD)
    rng = np.random.default_rng(0)
    src = nn.SourceModel.build(dom.points, [WIDTH, WIDTH], [WIDTH, WIDTH], rng)
    bnd = nn.BoundaryModel.build(N_BD, rng, internal=WIDTH)
    backend = ev.NekmBackend(dom, bnd, src, LAM_RANGE[False])
    if keep:
        backend = _KeepLast(backend)
    field = samples * n * n * 8
    assert field >= 2 * 2**20
    X = samples * (WIDTH + 1 + N_BD + 1) * 8
    slack = samples * 4 * (N_BD + dom.ring_idx.size) * 8
    ev.uq_run(backend, samples, seed=1)               # builds the step record
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        ev.uq_run(backend, samples, seed=1)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= fields * field + X + slack, (
        f"peak {peak / field:.3f} fields, budget {fields} + X {X / field:.3f} "
        f"+ slack {slack / field:.3f}")


@pytest.mark.parametrize("coupled", [False, True])
def test_only_the_solution_is_live_at_the_ring_callback(coupled):
    """When a learned solve asks g for the ring values, the step's X and
    quadrature data are gone: above the memory held before the solve, only
    the solution's field is live."""
    samples = 4000
    rng = np.random.default_rng(4)
    src = nn.SourceModel.build(DOMAIN.points, [WIDTH, WIDTH], [WIDTH, WIDTH], rng,
                               coupled=coupled)
    bnd = nn.BoundaryModel.build(N_BD, rng, internal=8, coupled=coupled)
    backend = ev.NekmBackend(DOMAIN, bnd, src, LAM_RANGE[coupled], coupled=coupled)
    lam, dtype = LAM_RANGE[coupled][0], (complex if coupled else float)
    ring = DOMAIN.points[DOMAIN.ring_idx]
    live, base = [], None

    def gfun(pts, t):
        if base is not None and np.array_equal(pts, ring):
            live.append(tracemalloc.get_traced_memory()[0] - base)
        return np.full((samples, len(pts)), t, dtype)

    F = rng.standard_normal((samples, N * N)).astype(dtype)
    solve = backend.solve_coupled if coupled else backend.solve
    solve(lam, F, gfun, 0.0)                          # builds the step record
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        u = solve(lam, F, gfun, 0.5)
    finally:
        if not tracing:
            tracemalloc.stop()
    assert np.all(u[:, DOMAIN.ring_idx] == 0.5)
    assert len(live) == 1 and live[0] <= 1.05 * u.nbytes, f"{live[0] / u.nbytes:.3f} fields"


def test_guard_rejects_source_points_off_domain():
    bnd, src = _models(False)
    src.points = src.points + 1e-3
    with pytest.raises(ValueError, match="points"):
        ev.NekmBackend(DOMAIN, bnd, src, LAM_RANGE[False])


@pytest.mark.parametrize("coupled", [False, True])
def test_guard_rejects_coupled_mismatch(coupled):
    bnd, src = _models(coupled)
    with pytest.raises(ValueError, match="coupled"):
        ev.NekmBackend(DOMAIN, bnd, src, LAM_RANGE[coupled], coupled=not coupled)


@pytest.mark.parametrize("coupled", [False, True])
def test_solve_of_the_other_kind_is_refused(coupled):
    backend = _backend(coupled)
    other = backend.solve if coupled else backend.solve_coupled
    F = np.ones((1, DOMAIN.points.shape[0]), float if coupled else complex)
    zero = lambda pts, t: np.zeros(pts.shape[0])  # noqa: E731
    kinds = ("scalar", "coupled") if coupled else ("coupled", "scalar")
    with pytest.raises(ValueError, match=f"{kinds[0]} solve.*{kinds[1]} backend"):
        other(LAM_RANGE[coupled][0], F, zero, 0.0)


@pytest.mark.parametrize("coupled", [False, True])
def test_guard_rejects_boundary_width(coupled):
    _, src = _models(coupled)
    rng = np.random.default_rng(5)
    # a scalar model is half the coupled width; a 2 n_bd model is twice the scalar one
    bnd = nn.BoundaryModel.build(N_BD if coupled else 2 * N_BD, rng, internal=WIDTH)
    with pytest.raises(ValueError, match="width"):
        ev.NekmBackend(DOMAIN, bnd, src, LAM_RANGE[coupled], coupled=coupled)
