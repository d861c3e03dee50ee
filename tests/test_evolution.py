"""Steppers with the classical backend: orders, recursions, Newton, batching;
the learned backend's lambda range."""

import re
from dataclasses import replace

import numpy as np
import pytest

from evokernel import evolution as ev
from evokernel import experiments as ex
from evokernel import nn
from evokernel.fdsolver import lap5
from evokernel.geometry import make_curve, petal_lattice

DOMAIN = ev.SquareLatticeDomain(n=41, n_bd=64)
BACKEND = ev.ClassicalBackend(DOMAIN)


def test_heat_zero_data_stays_zero():
    prob = ev.EvolutionProblem(
        domain=DOMAIN, tau=0.1, n_steps=5,
        u0=lambda pts: np.zeros(pts.shape[0]),
        g=lambda pts, t: np.zeros(pts.shape[0]),
        lap_u0=lambda pts: np.zeros(pts.shape[0]))
    res = ev.run_heat(prob, BACKEND, scheme="cn")
    assert np.max(np.abs(res.final)) == 0.0


def test_heat_orders_be_cn():
    # same-grid final fields for halved tau: differencing cancels the shared
    # spatial discretization error, isolating the time order
    finals_be, finals_cn = [], []
    for tau, n in [(0.1, 10), (0.05, 20), (0.025, 40)]:
        prob = ev.heat_family(DOMAIN, 2**-0.5, 2**-0.5, tau, n)
        finals_be.append(ev.run_heat(prob, BACKEND, "be").final)
        finals_cn.append(ev.run_heat(prob, BACKEND, "cn").final)
    o_be = ev.observed_order(finals_be)
    o_cn = ev.observed_order(finals_cn)
    assert all(abs(o - 1.0) <= 0.15 for o in o_be)
    assert all(abs(o - 2.0) <= 0.2 for o in o_cn)


def test_cn_f_recursion_consistency():
    # recomputing F^n = u^n + lam * Delta u^n from scratch matches the
    # recursive value over 10 steps (classical backend, interior nodes)
    tau = 0.1
    prob = ev.heat_family(DOMAIN, 0.6, 0.8, tau, 10)
    lam = 0.5 * tau
    pts = DOMAIN.points
    u = prob.u0(pts)[0]
    F = u + lam * prob.lap_u0(pts)[0]
    for step in range(1, 11):
        u_new = BACKEND.solve(lam, F, prob.g, step * tau)
        F = 2.0 * u_new - F
        direct = u_new + lam * DOMAIN.lap_full(u_new)
        ii = DOMAIN.interior_idx
        # interior: discrete Laplacian of the solve equals the recursion
        assert np.max(np.abs((F - direct)[ii])) < 1e-10 * max(1.0, np.max(np.abs(F)))
        u = u_new


def test_cn_in_place_recursion_matches_reference_loop():
    """run_heat's in-place F update gives bitwise the fields of F = 2u - F,
    and leaves the arrays that the problem's u0 and lap_u0 return unchanged."""
    dom = ev.SquareLatticeDomain(n=9, n_bd=32)
    backend = ev.ClassicalBackend(dom)
    base = ev.heat_family(dom, [0.6, 0.8], [0.8, 0.6], 0.1, 4)
    u0, lap0 = base.u0(dom.points), base.lap_u0(dom.points)
    u0_before, lap0_before = u0.copy(), lap0.copy()
    prob = replace(base, u0=lambda pts: u0, lap_u0=lambda pts: lap0)
    res = ev.run_heat(prob, backend, scheme="cn", store_fields=True)
    lam = 0.05
    F = u0 + lam * lap0
    ref = {0: u0_before}
    for step in range(1, 5):
        ref[step] = backend.solve(lam, F, prob.g, step * 0.1)
        F = 2.0 * ref[step] - F
    assert list(res.fields) == list(ref)
    for step, u in ref.items():
        assert np.array_equal(res.fields[step], u)
    assert np.array_equal(res.final, ref[4])
    assert np.array_equal(u0, u0_before) and np.array_equal(lap0, lap0_before)


def test_wave_order_and_theta_validation():
    errs = []
    for tau, n in [(0.25, 8), (0.125, 16), (0.0625, 32)]:
        prob = ex.wave_problem(DOMAIN, tau, n)
        errs.append(ev.trajectory_rel_l2(ev.run_wave(prob, BACKEND)))
    orders = ev.order_from_errors(errs)
    assert all(abs(o - 2.0) <= 0.2 for o in orders)
    prob = ex.wave_problem(DOMAIN, 0.1, 2)
    for theta in (1.5, 0.0, -0.5):
        with pytest.raises(ValueError, match=re.escape(f"theta={theta} must lie in (0, 1]")):
            ev.run_wave(prob, _NoSolve(), theta=theta)


class _NoSolve:
    """A backend that fails any solve: a refusal must come before the first."""

    def solve(self, *args):
        raise AssertionError("solved before the arguments were checked")


def test_steppers_refuse_an_unknown_scheme_or_splitting():
    with pytest.raises(ValueError, match="scheme must be 'be' or 'cn'"):
        ev.run_heat(ex.heat_problem(DOMAIN, 0.1, 2), _NoSolve(), scheme="rk4")
    with pytest.raises(ValueError, match="splitting must be 'strang' or 'lie'"):
        ev.run_schrodinger(ex.schrodinger_problem(DOMAIN, 0.1, 2), _NoSolve(),
                           splitting="yoshida")


def test_point_clouds_refuse_the_lattice_only_paths():
    """The finite-difference backend and the theta-scheme's second step need
    the lattice's 5-point stencil, which a point cloud does not have."""
    curve = make_curve("petal", base=0.5, amp=0.15, lobes=4)
    cloud = ev.PointCloudDomain(curve, petal_lattice(curve, 0.1), 32)
    with pytest.raises(ValueError, match="needs a square lattice"):
        ev.ClassicalBackend(cloud)
    with pytest.raises(ValueError, match="startup needs a lattice domain"):
        ev.run_wave(ex.wave_problem(cloud, 0.1, 2), _NoSolve())


def test_trajectory_rel_l2_needs_an_error_trace():
    dom = ev.SquareLatticeDomain(n=9, n_bd=32)
    zero = lambda pts, *t: np.zeros(pts.shape[0])  # noqa: E731
    prob = ev.EvolutionProblem(domain=dom, tau=0.1, n_steps=1, u0=zero, g=zero,
                               lap_u0=zero)
    res = ev.run_heat(prob, ev.ClassicalBackend(dom))
    assert res.error_trace == []
    with pytest.raises(ValueError, match="no exact solution"):
        ev.trajectory_rel_l2(res)


def test_every_problem_refuses_a_negative_w():
    with pytest.raises(ValueError, match="nonnegative"):
        ev.EvolutionProblem(domain=DOMAIN, tau=0.1, n_steps=2, u0=None, g=None,
                            lap_u0=None, w=-0.5)


def test_lambda_mapping_theta_tau():
    for theta, tau, n_steps, lam in ((0.5, 0.25, 4, 1 / 32), (0.5, 1 / 6, 6, 1 / 72),
                                     (0.75, 0.25, 4, 3 / 64), (1.0, 0.25, 4, 1 / 16)):
        res = ev.run_wave(ex.wave_problem(DOMAIN, tau, n_steps), BACKEND, theta=theta)
        assert res.meta["lam"] == pytest.approx(lam)


def test_schrodinger_split_orders():
    errs_s, errs_l = [], []
    for tau, n in [(0.16, 10), (0.08, 20), (0.04, 40)]:
        prob = ex.schrodinger_problem(DOMAIN, tau, n)
        errs_s.append(ev.trajectory_rel_l2(
            ev.run_schrodinger(prob, BACKEND, "strang")))
        errs_l.append(ev.trajectory_rel_l2(
            ev.run_schrodinger(prob, BACKEND, "lie")))
    assert all(abs(o - 2.0) <= 0.25 for o in ev.order_from_errors(errs_s))
    assert all(abs(o - 1.0) <= 0.25 for o in ev.order_from_errors(errs_l))


def test_newton_pointwise_linear_case_and_zero():
    tau, v = 0.1, 0.7
    rhs = 0.3 + 0.2j
    z = complex(ev.newton_nonlinear(v, 0.0, tau, rhs))
    assert z == pytest.approx(rhs / (1 + 0.5j * tau * v), rel=1e-13)
    assert complex(ev.newton_nonlinear(1.0, 1.0, 0.1, 0.0)) == 0.0


def test_newton_pointwise_nonlinear_root_vs_scan():
    # modulus equation: r (1 + c^2 (v + w r^2)^2)^(1/2) = |rhs|; solve the real
    # scalar equation by bisection as an independent oracle for the root
    v, w, tau = 1.0, 1.0, 0.1
    rhs = 1.0 + 0.0j
    c = tau / 2
    z = complex(ev.newton_nonlinear(v, w, tau, rhs))
    resid = z + 1j * c * (v + w * abs(z) ** 2) * z - rhs
    assert abs(resid) <= 1e-12
    def modulus_gap(r):
        return r * np.sqrt(1 + c**2 * (v + w * r**2) ** 2) - abs(rhs)
    lo, hi = 0.0, 2.0
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if modulus_gap(mid) > 0:
            hi = mid
        else:
            lo = mid
    assert abs(z) == pytest.approx(0.5 * (lo + hi), abs=1e-10)


def test_nonlinear_stage_preserves_modulus_when_linearizable():
    # w=0, constant v: |u**| = |u*| exactly
    tau, v = 0.2, 1.3
    rng = np.random.default_rng(0)
    ustar = rng.standard_normal(50) + 1j * rng.standard_normal(50)
    rhs = ustar - 0.5j * tau * v * ustar
    out = ev.newton_nonlinear(np.full(50, v), 0.0, tau, rhs)
    assert np.allclose(np.abs(out), np.abs(ustar), rtol=1e-13)


def test_newton_divergence_reports_index():
    with pytest.raises(ev.NewtonError):
        ev.newton_nonlinear(np.array([1.0]), 1e8, 1e6, np.array([1e8 + 0j]),
                            maxit=3)


def test_newton_converges_at_large_rhs():
    # an absolute 1e-12 residual is below float64 resolution at |rhs| = 1e4
    v, w, tau = np.array([0.0, 1.0]), 1.0, 0.01
    rhs = np.array([1e4 + 0j, 6e3 + 8e3j])
    z = ev.newton_nonlinear(v, w, tau, rhs)
    resid = z + 0.5j * tau * (v + w * np.abs(z) ** 2) * z - rhs
    assert np.all(np.abs(resid) <= 1e-12 * np.abs(rhs) * np.sqrt(2))


def _stage_residual(v, w, tau, rhs, z):
    """max |z + i (tau/2)(v + w |z|^2) z - rhs| relative to max(1, |rhs|)."""
    resid = z + 0.5j * tau * (v + w * np.abs(z) ** 2) * z - rhs
    return float(np.max(np.abs(resid) / np.maximum(np.abs(rhs), 1.0)))


@pytest.mark.parametrize("w", [0.0, 1.0, 1e3])
@pytest.mark.parametrize("tau", [1e-3, 0.1])
def test_newton_exact_start_returns_unchanged(w, tau):
    # |u| from 1e-3 to 1e8 (random-weight learned fields reach 1e8), v of both signs
    rng = np.random.default_rng(13)
    u = 10.0 ** rng.uniform(-3, 8, 2000) * np.exp(2j * np.pi * rng.random(2000))
    v = rng.uniform(-2.0, 2.0, 2000)
    s = v + w * np.abs(u) ** 2
    rhs = u - 0.5j * tau * s * u
    z0 = rhs / (1 + 0.5j * tau * s)
    z = ev.newton_nonlinear(v, w, tau, rhs, z0=z0.copy())
    assert np.array_equal(z.view(np.uint64), z0.view(np.uint64))
    assert np.max(np.abs(np.abs(z) - np.abs(u)) / np.abs(u)) <= 1e-15
    assert _stage_residual(v, w, tau, rhs, z) <= 1e-14


@pytest.mark.parametrize("splitting", ["strang", "lie"])
def test_schrodinger_stages_solved_to_rounding(monkeypatch, splitting):
    residuals = []
    newton = ev.newton_nonlinear

    def recording(v, w, tau, rhs, **kw):
        z = newton(v, w, tau, rhs, **kw)
        residuals.append(_stage_residual(v, w, tau, rhs, z))
        return z

    monkeypatch.setattr(ev, "newton_nonlinear", recording)
    for tau, n in [(0.16, 10), (0.08, 20), (0.04, 40)]:
        ev.run_schrodinger(ex.schrodinger_problem(DOMAIN, tau, n), BACKEND, splitting)
    assert len(residuals) == 70
    assert max(residuals) <= 1e-14


def test_backend_range_error_names_interval():
    # the learned backend refuses any lam outside the range it was trained on
    domain = ev.SquareLatticeDomain(n=9, n_bd=32)
    rng = np.random.default_rng(0)
    backend = ev.NekmBackend(domain, nn.BoundaryModel.build(32, rng, internal=8),
                             nn.SourceModel.build(domain.points, [8], [8], rng), (0.05, 0.1))
    F = np.ones((1, domain.points.shape[0]))
    zero = lambda pts, t: np.zeros(pts.shape[0])  # noqa: E731
    assert np.all(np.isfinite(backend.solve(0.1, F, zero, 0.0)))
    for lam in (0.1 + 1e-11, 0.04):
        with pytest.raises(ev.BackendRangeError, match=re.escape("[0.05, 0.1]")):
            backend.solve(lam, F, zero, 0.0)


@pytest.mark.parametrize("batch", [None, 1, 16, 37])
def test_cn_update_in_row_blocks_is_the_field_expression(batch):
    """run_heat's CN fields equal bitwise the recursion F = 2.0 * u - F over
    whole fields, for one unbatched field and batches around the row block."""
    dom = ev.SquareLatticeDomain(n=9, n_bd=32)
    backend = ev.ClassicalBackend(dom)
    a = np.linspace(0.3, 0.9, batch or 1)
    prob = ev.heat_family(dom, a, np.sqrt(1.0 - a * a), 0.1, 4)
    if batch is None:
        prob = replace(prob, u0=lambda pts: prob.g(pts, 0.0)[0],
                       lap_u0=lambda pts: -prob.g(pts, 0.0)[0])
    res = ev.run_heat(prob, backend, scheme="cn", store_fields=True)
    u = prob.u0(dom.points)
    F = u + 0.05 * prob.lap_u0(dom.points)
    for step in range(1, 5):
        u = backend.solve(0.05, F, prob.g, step * 0.1)
        F = 2.0 * u - F
        assert res.fields[step].shape == u.shape
        assert np.array_equal(res.fields[step], u)


def test_heat_family_callbacks_are_the_closed_form_on_every_point_set():
    """Each callback is bitwise exp(-t) sin(a x) cos(b y), in that order of
    products, on lattice, ring and boundary quadrature points."""
    a = np.array([0.3, 0.6, 0.9])
    b = np.sqrt(1.0 - a * a)
    prob = ev.heat_family(DOMAIN, a, b, 0.1, 3)
    for pts in (DOMAIN.points, DOMAIN.points[DOMAIN.ring_idx], DOMAIN.quad.points):
        x, y = pts[:, 0], pts[:, 1]
        for t in (0.0, 0.3, 1.0):
            ref = np.exp(-t) * np.sin(a[:, None] * x) * np.cos(b[:, None] * y)
            assert np.array_equal(prob.g(pts, t), ref)
            assert np.array_equal(prob.exact(pts, t), ref)
        assert np.array_equal(prob.u0(pts), np.exp(-0.0) * np.sin(a[:, None] * x)
                              * np.cos(b[:, None] * y))


def _lap_full_by_hand(dom, u):
    """lap_full with its ring written out: the 5-point stencil inside, then each
    ring row and column copied from its inner neighbour, rows first."""
    v = dom.reshape(u)
    lap = np.zeros_like(v)
    lap[..., 1:-1, 1:-1] = lap5(v)
    lap[..., 0, :] = lap[..., 1, :]
    lap[..., -1, :] = lap[..., -2, :]
    lap[..., :, 0] = lap[..., :, 1]
    lap[..., :, -1] = lap[..., :, -2]
    return lap.reshape(u.shape)


@pytest.mark.parametrize("n", [3, 9, 41])
@pytest.mark.parametrize("shape", [(), (4,)], ids=["single", "batched"])
def test_lap_full_is_the_hand_copied_ring_bitwise(n, shape):
    dom = ev.SquareLatticeDomain(n=n, n_bd=32)
    u = np.random.default_rng(n).standard_normal(shape + (n * n,))
    lap, ref = dom.lap_full(u), _lap_full_by_hand(dom, u)
    assert lap.shape == ref.shape == u.shape and lap.tobytes() == ref.tobytes()


@pytest.mark.parametrize("n", [3, 9, 41])
def test_ring_is_the_lattice_border_by_index(n):
    """The ring read from the points on x or y in {0, 1} is the border of the
    index lattice."""
    dom = ev.SquareLatticeDomain(n=n, n_bd=32)
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    ring = ((ii == 0) | (ii == n - 1) | (jj == 0) | (jj == n - 1)).ravel()
    assert np.array_equal(dom.ring_idx, np.nonzero(ring)[0])
    assert np.array_equal(dom.interior_idx, np.nonzero(~ring)[0])


@pytest.mark.parametrize("n", [3, 4, 9])
@pytest.mark.parametrize("rows", [None, 5])
def test_set_ring_equals_fancy_index_assignment(n, rows):
    dom = ev.SquareLatticeDomain(n=n, n_bd=32)
    rng = np.random.default_rng(n)
    u = rng.standard_normal(n * n if rows is None else (rows, n * n))
    g = rng.standard_normal(u.shape[:-1] + (dom.ring_idx.size,))
    gfun = lambda pts, t: g + t  # noqa: E731
    ref = u.copy()
    ref[..., dom.ring_idx] = gfun(dom.points[dom.ring_idx], 0.5)
    out = ev._set_ring(u, dom, gfun, 0.5)
    assert out is u and np.array_equal(out, ref)


def test_batched_equals_sequential():
    a_vals = np.array([0.5, 0.6, 0.7, 0.5])
    batched = ev.run_heat(ev.heat_family(DOMAIN, a_vals, np.sqrt(1 - a_vals**2), 0.1, 3),
                          BACKEND, scheme="cn").final
    for a, row in zip(a_vals, batched):
        single = ev.run_heat(ev.heat_family(DOMAIN, a, np.sqrt(1 - a * a), 0.1, 3),
                             BACKEND, scheme="cn")
        assert np.max(np.abs(single.final[0] - row)) <= 1e-12
    # duplicated problems give identical rows
    assert np.array_equal(batched[0], batched[3])


def test_heat_family_rows_are_the_closed_form():
    pts = DOMAIN.points
    a, b, t = 0.6, 0.8, 0.3
    prob = ev.heat_family(DOMAIN, a, b, 0.1, 3)
    u0, exact = prob.u0(pts), prob.exact(pts, t)
    assert u0.shape == exact.shape == prob.lap_u0(pts).shape == (1, pts.shape[0])
    per_point = [np.exp(-t) * np.sin(a * x) * np.cos(b * y) for x, y in pts]
    assert np.array_equal(exact[0], per_point)
    assert np.array_equal(prob.lap_u0(pts), -(a * a + b * b) * u0)
    a_vec = np.array([0.3, 0.6, 0.9])
    family = ev.heat_family(DOMAIN, a_vec, np.sqrt(1 - a_vec**2), 0.1, 3)
    rows = [ev.heat_family(DOMAIN, ai, np.sqrt(1 - ai * ai), 0.1, 3) for ai in a_vec]
    for name, args in (("u0", (pts,)), ("g", (pts, t)), ("lap_u0", (pts,))):
        assert np.array_equal(getattr(family, name)(*args),
                              np.concatenate([getattr(r, name)(*args) for r in rows]))


def test_heat_family_calls_return_fresh_arrays_keyed_by_point_content():
    prob = ev.heat_family(DOMAIN, [0.3, 0.6], [0.9, 0.8], 0.1, 3)
    pts = DOMAIN.points.copy()
    for name, args in (("u0", (pts,)), ("exact", (pts, 0.2)), ("lap_u0", (pts,))):
        first = getattr(prob, name)(*args)
        ref = first.copy()
        first[...] = np.nan
        assert np.array_equal(getattr(prob, name)(*args), ref)
    # the same array with new coordinates is a new point set
    pts[:, 0] += 0.1
    fresh = ev.heat_family(DOMAIN, [0.3, 0.6], [0.9, 0.8], 0.1, 3)
    assert np.array_equal(prob.exact(pts, 0.2), fresh.exact(pts, 0.2))


@pytest.mark.parametrize("points", ["lattice", "quadrature"])
def test_heat_family_lap_u0_scales_an_array_of_its_own(points):
    """lap_u0 scales its shape array in place, so no two of its calls share
    memory with each other or with u0's."""
    pts = DOMAIN.points if points == "lattice" else DOMAIN.quad.points
    prob = ev.heat_family(DOMAIN, [0.3, 0.6], [0.9, 0.8], 0.1, 3)
    u0, first, second = prob.u0(pts), prob.lap_u0(pts), prob.lap_u0(pts)
    for x, y in ((first, second), (first, u0), (second, u0)):
        assert not np.shares_memory(x, y)
    assert np.array_equal(first, second)


def test_classical_solve_coupled_batch_equals_rows():
    rng = np.random.default_rng(2)
    F = rng.standard_normal((3, DOMAIN.points.shape[0])) * (1 + 1j)
    amp = np.array([[1.0], [0.5j], [-2.0]])
    gfun = lambda pts, t: amp * np.exp(1j * (pts[:, 0] + t)) * np.cos(pts[:, 1])
    batched = BACKEND.solve_coupled(0.05, F, gfun, 0.2)
    for i in range(3):
        row = BACKEND.solve_coupled(0.05, F[i], lambda pts, t: gfun(pts, t)[i], 0.2)
        assert np.array_equal(batched[i], row)


def test_operator_normalization_identity():
    # (I - lam Delta) u = F solved through the normalized source form matches
    # an independently assembled (I - lam Delta_h) direct solve
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla
    lam, n = 0.08, 21
    dom = ev.SquareLatticeDomain(n=n, n_bd=32)
    backend = ev.ClassicalBackend(dom)
    rng = np.random.default_rng(1)
    F = rng.standard_normal(n * n)
    gfun = lambda pts, t: np.sin(pts[..., 0]) + 0.2 * pts[..., 1]
    u = backend.solve(lam, F, gfun, 0.0)
    m = n - 2
    h2 = (n - 1.0) ** 2
    main = sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(m, m))
    lap = (sp.kron(sp.identity(m), main) + sp.kron(main, sp.identity(m))) * h2
    A = sp.identity(m * m) - lam * lap
    gr = np.zeros((n, n))
    gr_pts = dom.points[dom.ring_idx]
    gr.ravel()[dom.ring_idx] = gfun(gr_pts, 0.0)
    bc = np.zeros((m, m))
    bc[0, :] += gr[0, 1:-1]; bc[-1, :] += gr[-1, 1:-1]
    bc[:, 0] += gr[1:-1, 0]; bc[:, -1] += gr[1:-1, -1]
    rhs = F.reshape(n, n)[1:-1, 1:-1] + lam * h2 * bc
    u2 = spla.spsolve(A.tocsc(), rhs.ravel())
    assert np.max(np.abs(u.reshape(n, n)[1:-1, 1:-1].ravel() - u2)) < 1e-10


def test_heat_error_trace_regression_gate():
    # terminal error stays within 3x the largest per-step error increment
    prob = ev.heat_family(DOMAIN, 2**-0.5, 2**-0.5, 0.1, 10)
    res = ev.run_heat(prob, BACKEND, "be")
    errs = [e["rel_l2"] for e in res.error_trace]
    increments = np.diff([0.0] + errs)
    assert errs[-1] <= 3.0 * max(increments.max(), errs[0])


@pytest.mark.parametrize("shape", [(1,), (2,), (7, 13), (1000, 41)])
def test_uq_statistics_are_numpys_bitwise(shape):
    """uq_run's mean/std and q95 equal numpy's mean, std and quantile bitwise,
    for q on either side of an interpolation weight 1/2, with ties, and with
    an inf or a NaN in the data."""
    rng = np.random.default_rng(len(shape) + shape[0])
    x = rng.standard_normal(shape) * 1e3
    ties = np.round(np.abs(x) / 100.0)
    for data in (x, np.abs(x), ties):
        assert ev._mean_std(data) == (float(data.mean()), float(data.std()))
        for q in (0.0, 0.3, 0.5, 0.95, 0.999, 1.0):
            got = ev._quantile(data.copy(), q)
            assert got == float(np.quantile(data, q))
    for bad in (np.inf, np.nan):
        data = np.abs(x)
        data.flat[0] = bad
        for q in (0.3, 0.95, 1.0):
            with np.errstate(invalid="ignore"):
                want = float(np.quantile(data, q))
                got = ev._quantile(data.copy(), q)
            assert got == want or (np.isnan(got) and np.isnan(want))


def test_uq_zero_variance_collapses():
    # zero parameter variance: every sample identical, zero spread across them
    stats, hist = ev.uq_run(BACKEND, 8, seed=4, std=0.0, tau=0.25, n_steps=2)
    assert np.all(hist["a"] == hist["a"][0])
    assert float(np.std(hist["probe_pred"])) == 0.0


def test_uq_clipping():
    stats, hist = ev.uq_run(BACKEND, 200, seed=5, std=0.5, clip=(0.2, 0.8),
                            tau=0.25, n_steps=2)
    assert hist["a"].min() >= 0.2 and hist["a"].max() <= 0.8


def test_bilinear_probe_matches_lattice_value():
    vals = DOMAIN.points[:, 0] * 2 + DOMAIN.points[:, 1]
    # exact for a bilinear function
    assert ev.bilinear_probe(DOMAIN, vals, (0.43, 0.2)) == pytest.approx(1.06)


@pytest.mark.parametrize("point", [(-0.5, 0.2), (0.43, 1.01), (np.nan, 0.5)])
def test_bilinear_probe_rejects_points_outside_unit_square(point):
    vals = DOMAIN.points[:, 0] * 2 + DOMAIN.points[:, 1]
    with pytest.raises(ValueError, match="unit square"):
        ev.bilinear_probe(DOMAIN, vals, point)
