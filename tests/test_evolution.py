"""Steppers with the classical backend: orders, recursions, Newton, batching."""

import numpy as np
import pytest

from evokernel import evolution as ev
from evokernel import experiments as ex
from evokernel.fdsolver import lap5

DOMAIN = ev.SquareLatticeDomain(n=41, n_bd=64)
BACKEND = ev.ClassicalBackend(DOMAIN)


def test_heat_zero_data_stays_zero():
    prob = ev.EvolutionProblem(
        equation="heat", domain=DOMAIN, tau=0.1, n_steps=5,
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
        prob = ex.heat_problem(DOMAIN, 2**-0.5, 2**-0.5, tau, n)
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
    prob = ex.heat_problem(DOMAIN, 0.6, 0.8, tau, 10)
    lam = 0.5 * tau
    pts = DOMAIN.points
    u = prob.u0(pts)
    F = u + lam * prob.lap_u0(pts)
    for step in range(1, 11):
        u_new = BACKEND.solve(lam, F, prob.g, step * tau)
        F = 2.0 * u_new - F
        direct = u_new + lam * DOMAIN.lap_full(u_new)
        ii = DOMAIN.interior_idx
        # interior: discrete Laplacian of the solve equals the recursion
        inner = np.setdiff1d(ii, np.nonzero(
            np.min(np.abs(pts - 0.0), axis=1) * 0 == 1)[0])
        assert np.max(np.abs((F - direct)[ii])) < 1e-10 * max(1.0, np.max(np.abs(F)))
        u = u_new


def test_wave_order_and_theta_validation():
    errs = []
    for tau, n in [(0.25, 8), (0.125, 16), (0.0625, 32)]:
        prob = ex.wave_problem(DOMAIN, 0.6, tau, n)
        errs.append(ev.trajectory_rel_l2(ev.run_wave(prob, BACKEND)))
    orders = ev.order_from_errors(errs)
    assert all(abs(o - 2.0) <= 0.2 for o in orders)
    with pytest.raises(ValueError):
        ev.EvolutionProblem(equation="wave", domain=DOMAIN, tau=0.1, n_steps=2,
                            u0=None, g=None, theta=1.5)


def test_lambda_mapping_theta_tau():
    prob = ex.wave_problem(DOMAIN, 0.6, 0.25, 4, theta=0.5)
    res = ev.run_wave(prob, BACKEND)
    assert res.meta["lam"] == pytest.approx(1 / 32)
    prob = ex.wave_problem(DOMAIN, 0.6, 1 / 6, 6, theta=0.5)
    res = ev.run_wave(prob, BACKEND)
    assert res.meta["lam"] == pytest.approx(1 / 72)


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
    z = ev.newton_pointwise(v, 0.0, tau, rhs)
    assert z == pytest.approx(rhs / (1 + 0.5j * tau * v), rel=1e-13)
    assert ev.newton_pointwise(1.0, 1.0, 0.1, 0.0) == 0.0


def test_newton_pointwise_nonlinear_root_vs_scan():
    # modulus equation: r (1 + c^2 (v + w r^2)^2)^(1/2) = |rhs|; solve the real
    # scalar equation by bisection as an independent oracle for the root
    v, w, tau = 1.0, 1.0, 0.1
    rhs = 1.0 + 0.0j
    c = tau / 2
    z = ev.newton_pointwise(v, w, tau, rhs)
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


def test_backend_range_error_names_interval():
    backend = ev.ClassicalBackend(DOMAIN, lam_range=(0.05, 0.1))
    prob = ex.heat_problem(DOMAIN, 0.6, 0.8, 1.0, 1)  # lam = tau = 1.0
    with pytest.raises(ev.BackendRangeError, match="0.05"):
        ev.run_heat(prob, backend, "be")


def test_batched_equals_sequential():
    a_vals = [0.5, 0.6, 0.7, 0.5]
    problems = [ex.heat_problem(DOMAIN, a, np.sqrt(1 - a * a), 0.1, 3)
                for a in a_vals]
    batched = ev.batch_evolve(problems, BACKEND, scheme="cn")
    for prob, bres in zip(problems, batched):
        single = ev.run_heat(prob, BACKEND, scheme="cn")
        assert np.max(np.abs(single.final - bres.final)) <= 1e-12
    # duplicated problems give identical rows
    assert np.array_equal(batched[0].final, batched[3].final)


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
    prob = ex.heat_problem(DOMAIN, 2**-0.5, 2**-0.5, 0.1, 10)
    res = ev.run_heat(prob, BACKEND, "be")
    errs = [e["rel_l2"] for e in res.error_trace]
    increments = np.diff([0.0] + errs)
    assert errs[-1] <= 3.0 * max(increments.max(), errs[0])


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
