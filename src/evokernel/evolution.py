"""Implicit time steppers driven by an elliptic backend.

Every scheme reduces each step to (I - lam Delta) u = F with Dirichlet data
(or u + i lam Delta u = F for the complex splitting stages), so the heat,
wave and Schrodinger drivers only differ in how they build F and lam:

    backward Euler   lam = kappa tau,      F = u^n
    Crank-Nicolson   lam = kappa tau / 2,  F^{n+1} = 2 u^{n+1} - F^n
    theta-scheme     lam = theta tau^2,    F^{n+1} = 2 u^n
                         + ((1 - 2 theta)/theta) (u^n - F^n) - F^{n-1}
    splitting        lam = tau/2 or tau,   F from the pointwise nonlinear
                                           stage; the explicit half step
                                           reuses u* = 2 u^n - u**_{prev}

The recursions re-express every Laplacian of a computed field through
earlier solves, so no field produced by a learned backend is ever
differentiated numerically (only the initial data need a Laplacian, taken
analytically when the problem provides one and by the 5-point stencil
otherwise).

Backends share one contract; swapping the learned backend for the
finite-difference oracle changes errors, never shapes or protocols.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fdsolver import fd_solve_complex, fd_solve_scalar
from .geometry import InteriorGrid, make_curve, sample_quadrature, square_lattice
from .kernels import ScalarKernelSpec, SystemKernelSpec, potential_matrix

__all__ = [
    "SquareLatticeDomain", "PointCloudDomain", "ClassicalBackend", "NekmBackend",
    "EvolutionProblem", "EvolutionResult", "BackendRangeError",
    "run_heat", "run_wave", "run_schrodinger", "batch_evolve", "uq_run",
    "newton_pointwise", "newton_nonlinear", "observed_order",
    "trajectory_rel_l2", "order_from_errors", "heat_family", "bilinear_probe",
    "evolve",
]


class SquareLatticeDomain:
    """Closed n x n lattice on the unit square plus its boundary quadrature."""

    kind = "square-lattice"

    def __init__(self, n=41, n_bd=256):
        self.n = n
        self.grid = square_lattice(n)
        self.points = self.grid.points
        self.curve = make_curve("square")
        self.quad = sample_quadrature(self.curve, n_bd)
        ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        ring = (ii == 0) | (ii == n - 1) | (jj == 0) | (jj == n - 1)
        self.ring_idx = np.nonzero(ring.ravel())[0]
        self.interior_idx = np.nonzero(~ring.ravel())[0]

    def reshape(self, flat):
        return np.asarray(flat).reshape(flat.shape[:-1] + (self.n, self.n))

    def lap_full(self, u):
        """5-point Laplacian on the flattened lattice; ring entries copy their
        nearest interior neighbor (only learned-backend source inputs read them)."""
        n = self.n
        v = self.reshape(u)
        h2 = (n - 1.0) ** 2
        lap = np.zeros_like(v)
        lap[..., 1:-1, 1:-1] = (v[..., :-2, 1:-1] + v[..., 2:, 1:-1]
                                + v[..., 1:-1, :-2] + v[..., 1:-1, 2:]
                                - 4.0 * v[..., 1:-1, 1:-1]) * h2
        lap[..., 0, :] = lap[..., 1, :]
        lap[..., -1, :] = lap[..., -2, :]
        lap[..., :, 0] = lap[..., :, 1]
        lap[..., :, -1] = lap[..., :, -2]
        return lap.reshape(u.shape)


class PointCloudDomain:
    """Scattered strictly-interior points (petal-style domains)."""

    kind = "point-cloud"

    def __init__(self, curve, interior: InteriorGrid, n_bd=256):
        self.curve = curve
        self.grid = interior
        self.points = interior.points
        self.quad = sample_quadrature(curve, n_bd)
        self.interior_idx = np.arange(self.points.shape[0])
        self.ring_idx = np.zeros(0, dtype=int)


class BackendRangeError(ValueError):
    pass


class ClassicalBackend:
    """Finite-difference oracle backend on the square lattice."""

    kind = "classical"

    def __init__(self, domain, lam_range=(0.0, np.inf)):
        if not isinstance(domain, SquareLatticeDomain):
            raise ValueError("the finite-difference backend needs a square lattice")
        self.domain = domain
        self.lam_range = lam_range

    def _check(self, lam):
        lo, hi = self.lam_range
        if not (lo <= lam <= hi):
            raise BackendRangeError(
                f"lam={lam:.6g} outside backend range [{lo:.6g}, {hi:.6g}]")

    def solve(self, lam, F, gfun, t):
        """(I - lam Delta) u = F, u = g(., t) on the boundary ring."""
        self._check(lam)
        n = self.domain.n
        g_full = np.zeros(F.shape)
        gv = gfun(self.domain.points[self.domain.ring_idx], t)
        g_full[..., self.domain.ring_idx] = gv
        F2 = np.atleast_2d(F)
        G2 = np.atleast_2d(g_full)
        out = np.empty_like(F2)
        for i in range(F2.shape[0]):
            sol = fd_solve_scalar(lam, (-F2[i] / lam).reshape(n, n),
                                  G2[i].reshape(n, n))
            out[i] = sol.values.ravel()
        return out.reshape(F.shape)

    def solve_coupled(self, lam, F, gfun, t):
        """u + i lam Delta u = F over complex lattice fields."""
        self._check(lam)
        n = self.domain.n
        g_full = np.zeros(F.shape, dtype=np.complex128)
        gv = gfun(self.domain.points[self.domain.ring_idx], t)
        g_full[..., self.domain.ring_idx] = gv
        F2 = np.atleast_2d(F)
        G2 = np.atleast_2d(g_full)
        out = np.empty_like(F2)
        for i in range(F2.shape[0]):
            sol = fd_solve_complex(lam, F2[i].reshape(n, n), G2[i].reshape(n, n))
            out[i] = sol.values.ravel()
        return out.reshape(F.shape)


class NekmBackend:
    """Learned backend: source model + boundary model + kernel quadrature.

    Solves (I - lam Delta) u = F by normalizing to Delta u - u/lam = -F/lam
    (the trained source-operator form) plus the boundary-driven double-layer
    field from the predicted density.  Refuses lam outside the trained range.
    """

    kind = "nekm"

    def __init__(self, domain, boundary_model, source_model, lam_range,
                 coupled=False):
        self.domain = domain
        self.boundary = boundary_model
        self.source = source_model
        self.lam_range = lam_range
        self.coupled = coupled
        self._pot_cache: dict = {}

    def _check(self, lam):
        lo, hi = self.lam_range
        if not (lo <= lam <= hi + 1e-12):
            raise BackendRangeError(
                f"lam={lam:.6g} outside trained range [{lo:.6g}, {hi:.6g}]")

    def _potential(self, lam):
        key = float(lam)
        P = self._pot_cache.get(key)
        if P is None:
            spec = (SystemKernelSpec(key) if self.coupled else ScalarKernelSpec(key))
            pts = self.domain.points[self.domain.interior_idx]
            P = potential_matrix(spec, self.domain.quad, pts) * self.domain.quad.weight
            self._pot_cache[key] = P
        return P

    def solve(self, lam, F, gfun, t):
        self._check(lam)
        u = self.source.predict(lam, -F / lam)
        gq = gfun(self.domain.quad.points, t)
        phi = self.boundary.predict(lam, gq)
        u_bnd = phi @ self._potential(lam).T
        u[..., self.domain.interior_idx] += u_bnd
        if self.domain.ring_idx.size:
            u[..., self.domain.ring_idx] = gfun(
                self.domain.points[self.domain.ring_idx], t)
        return u

    def solve_coupled(self, lam, F, gfun, t):
        self._check(lam)
        npts = F.shape[-1]
        f_stack = np.concatenate([F.real, F.imag], axis=-1)
        u_stack = self.source.predict(lam, f_stack)
        u = u_stack[..., :npts] + 1j * u_stack[..., npts:]
        gq = gfun(self.domain.quad.points, t)
        g_il = np.empty(gq.shape[:-1] + (2 * gq.shape[-1],))
        g_il[..., 0::2] = gq.real
        g_il[..., 1::2] = gq.imag
        phi = self.boundary.predict(lam, g_il)
        ub = phi @ self._potential(lam).T
        u[..., self.domain.interior_idx] += ub[..., 0::2] + 1j * ub[..., 1::2]
        if self.domain.ring_idx.size:
            u[..., self.domain.ring_idx] = gfun(
                self.domain.points[self.domain.ring_idx], t)
        return u


@dataclass
class EvolutionProblem:
    """Time-dependent problem description over a backend domain.

    Callables receive a point array (m, 2); batched problem families return
    (batch, m) arrays.  exact(points, t) triggers the per-step error trace.
    lap_u0 (and lap_v0 for the wave start) supply analytic Laplacians of the
    initial data; when absent the 5-point stencil fills in.
    """

    equation: str
    domain: object
    tau: float
    n_steps: int
    u0: object
    g: object
    v0: object = None
    kappa_diff: float = 1.0
    theta: float = 0.5
    v_potential: object = None
    w: float = 0.0
    lap_u0: object = None
    exact: object = None

    def __post_init__(self):
        if self.tau <= 0 or self.n_steps <= 0:
            raise ValueError("tau and n_steps must be positive")
        if self.equation == "wave" and not (0.0 <= self.theta <= 1.0):
            raise ValueError("wave theta must lie in [0, 1]")
        if self.equation == "schrodinger" and self.w < 0:
            raise ValueError("nonlinear coefficient w must be nonnegative")


@dataclass
class EvolutionResult:
    times: np.ndarray
    final: np.ndarray
    error_trace: list = field(default_factory=list)
    fields: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)


def _trace_error(prob, pts, u, t, trace):
    if prob.exact is None:
        return
    ref = prob.exact(pts, t)
    diff = np.abs(u - ref)
    ref_l2 = np.sqrt(np.mean(np.abs(ref) ** 2))
    trace.append({
        "t": float(t),
        "abs_l2": float(np.sqrt(np.mean(diff**2))),
        "abs_linf": float(np.max(diff)),
        "rel_l2": float(np.sqrt(np.mean(diff**2)) / ref_l2) if ref_l2 > 0 else np.inf,
        "ref_l2": float(ref_l2),
    })


def _initial_lap(prob, pts):
    if prob.lap_u0 is not None:
        return prob.lap_u0(pts)
    if hasattr(prob.domain, "lap_full"):
        return prob.domain.lap_full(prob.u0(pts))
    raise ValueError("off-lattice domains need an analytic lap_u0 for this scheme")


def run_heat(prob, backend, scheme="be", store_fields=False):
    """Heat equation u_t = kappa Delta u by backward Euler or Crank-Nicolson."""
    if scheme not in ("be", "cn"):
        raise ValueError("scheme must be 'be' or 'cn'")
    pts = prob.domain.points
    tau, kap = prob.tau, prob.kappa_diff
    u = np.asarray(prob.u0(pts), dtype=np.float64)
    trace = []
    fields = {0: u.copy()} if store_fields else {}
    if scheme == "cn":
        lam = 0.5 * kap * tau
        F = u + lam * _initial_lap(prob, pts)
    else:
        lam = kap * tau
    for step in range(1, prob.n_steps + 1):
        t = step * tau
        if scheme == "be":
            u = backend.solve(lam, u, prob.g, t)
        else:
            u = backend.solve(lam, F, prob.g, t)
            F = 2.0 * u - F
        _trace_error(prob, pts, u, t, trace)
        if store_fields:
            fields[step] = u.copy()
    return EvolutionResult(times=tau * np.arange(prob.n_steps + 1), final=u,
                           error_trace=trace, fields=fields,
                           meta={"scheme": scheme, "lam": lam})


def run_wave(prob, backend, store_fields=False):
    """Wave equation u_tt = Delta u by the implicit theta-scheme.

    Startup: u^1 from the second-order Taylor expansion
    u^0 + tau v^0 + (tau^2/2) Delta u^0; F^1 and F^2 are formed directly
    from initial-data Laplacians, after which the two-level recursion runs.
    """
    theta, tau = prob.theta, prob.tau
    if theta <= 0.0:
        raise ValueError("the implicit theta-scheme requires theta > 0")
    pts = prob.domain.points
    lam = theta * tau * tau
    u_prev = np.asarray(prob.u0(pts), dtype=np.float64)
    lap0 = _initial_lap(prob, pts)
    u_cur = u_prev + tau * np.asarray(prob.v0(pts)) + 0.5 * tau * tau * lap0
    trace = []
    fields = {0: u_prev.copy(), 1: u_cur.copy()} if store_fields else {}
    _trace_error(prob, pts, u_cur, tau, trace)
    if prob.n_steps <= 1:
        return EvolutionResult(times=tau * np.arange(prob.n_steps + 1),
                               final=u_cur, error_trace=trace, fields=fields,
                               meta={"lam": lam})
    if not hasattr(prob.domain, "lap_full"):
        raise ValueError("the theta-scheme startup needs a lattice domain "
                         "(Laplacian of the Taylor-started level)")
    lap1 = prob.domain.lap_full(u_cur)
    F_prev = u_cur - lam * lap1                                    # F^1
    F_cur = 2.0 * u_cur - u_prev + tau * tau * ((1.0 - 2.0 * theta) * lap1
                                                + theta * lap0)   # F^2
    ratio = (1.0 - 2.0 * theta) / theta
    for step in range(2, prob.n_steps + 1):
        t = step * tau
        u_next = backend.solve(lam, F_cur, prob.g, t)
        _trace_error(prob, pts, u_next, t, trace)
        if store_fields:
            fields[step] = u_next.copy()
        F_next = 2.0 * u_next + ratio * (u_next - F_cur) - F_prev  # F^{n+1}
        u_cur, F_prev, F_cur = u_next, F_cur, F_next
    return EvolutionResult(times=tau * np.arange(prob.n_steps + 1), final=u_cur,
                           error_trace=trace, fields=fields, meta={"lam": lam})


class NewtonError(RuntimeError):
    pass


def newton_nonlinear(v, w, tau, rhs, tol=1e-12, maxit=50):
    """Solve z + i (tau/2)(v + w |z|^2) z = rhs pointwise (vectorized Newton).

    |z|^2 is not complex-differentiable, so Newton runs on (Re z, Im z) with
    the exact 2x2 Jacobian; initial guess rhs.  Converged when every point's
    residual is at most tol * max(1, |rhs|), which float64 can reach.
    """
    c = 0.5 * tau
    rhs = np.asarray(rhs, dtype=np.complex128)
    p = rhs.real.copy()
    q = rhs.imag.copy()
    rr, ri = rhs.real, rhs.imag
    scale = np.maximum(np.abs(rhs), 1.0)
    for _ in range(maxit):
        s = v + w * (p * p + q * q)
        g1 = p - c * s * q - rr
        g2 = q + c * s * p - ri
        res = np.maximum(np.abs(g1), np.abs(g2)) / scale
        if float(res.max()) <= tol:
            return p + 1j * q
        j11 = 1.0 - 2.0 * c * w * p * q
        j12 = -c * s - 2.0 * c * w * q * q
        j21 = c * s + 2.0 * c * w * p * p
        j22 = 1.0 + 2.0 * c * w * p * q
        det = j11 * j22 - j12 * j21
        p = p - (g1 * j22 - g2 * j12) / det
        q = q - (g2 * j11 - g1 * j21) / det
    bad = int(np.argmax(res))
    raise NewtonError(f"pointwise Newton stalled at index {bad}, "
                      f"residual {res.max():.3e} relative to max(1, |rhs|)")


def newton_pointwise(v, w, tau, rhs):
    """Scalar convenience wrapper around newton_nonlinear."""
    return complex(newton_nonlinear(np.asarray(float(v)), float(w), float(tau),
                                    np.asarray(complex(rhs))))


def run_schrodinger(prob, backend, splitting="strang", store_fields=False):
    """Nonlinear Schrodinger step driver by Strang or Lie-Trotter splitting.

    Strang: explicit half step (via the recursion u* = 2 u^n - u**_{prev}
    after the first step), pointwise nonlinear Crank-Nicolson solve, then
    the implicit linear solve u^{n+1} + i (tau/2) Delta u^{n+1} = u**.
    Lie: nonlinear stage from u^n, then u^{n+1} + i tau Delta u^{n+1} = u*.
    """
    if splitting not in ("strang", "lie"):
        raise ValueError("splitting must be 'strang' or 'lie'")
    pts = prob.domain.points
    tau = prob.tau
    vpot = np.asarray(prob.v_potential(pts), dtype=np.float64)
    u = np.asarray(prob.u0(pts), dtype=np.complex128)
    trace = []
    fields = {0: u.copy()} if store_fields else {}
    ustar_prev = None
    for step in range(1, prob.n_steps + 1):
        t = step * tau
        if splitting == "strang":
            if ustar_prev is None:
                u_star = u - 0.5j * tau * _initial_lap(prob, pts)
            else:
                u_star = 2.0 * u - ustar_prev
            rhs = u_star - 0.5j * tau * (vpot + prob.w * np.abs(u_star) ** 2) * u_star
            u_dd = newton_nonlinear(vpot, prob.w, tau, rhs)
            u = backend.solve_coupled(0.5 * tau, u_dd, prob.g, t)
            ustar_prev = u_dd
        else:
            rhs = u - 0.5j * tau * (vpot + prob.w * np.abs(u) ** 2) * u
            u_star = newton_nonlinear(vpot, prob.w, tau, rhs)
            u = backend.solve_coupled(tau, u_star, prob.g, t)
        _trace_error(prob, pts, u, t, trace)
        if store_fields:
            fields[step] = u.copy()
    return EvolutionResult(times=tau * np.arange(prob.n_steps + 1), final=u,
                           error_trace=trace, fields=fields,
                           meta={"splitting": splitting})


_RUNNERS = {"heat": run_heat, "wave": run_wave, "schrodinger": run_schrodinger}


def evolve(prob, backend, **kw):
    return _RUNNERS[prob.equation](prob, backend, **kw)


def batch_evolve(problems, backend, scheme="cn", store_fields=False):
    """Solve a list of same-domain heat problems in one batched run.

    The batched result equals the problem-by-problem sequential results up
    to matmul rounding (<= 1e-12); shapes and protocols are identical.
    """
    if not problems:
        return []
    base = problems[0]
    for p in problems:
        if p.domain is not base.domain or p.tau != base.tau \
                or p.n_steps != base.n_steps or p.equation != "heat":
            raise ValueError("batch_evolve needs same-domain heat problems "
                             "with one tau and step count")

    def stack(call, *args):
        return np.stack([call(p)(*args) for p in problems])

    family = EvolutionProblem(
        equation="heat", domain=base.domain, tau=base.tau, n_steps=base.n_steps,
        kappa_diff=base.kappa_diff,
        u0=lambda pts: stack(lambda p: p.u0, pts),
        g=lambda pts, t: stack(lambda p: p.g, pts, t),
        lap_u0=(None if base.lap_u0 is None
                else (lambda pts: stack(lambda p: p.lap_u0, pts))),
        exact=None)
    res = run_heat(family, backend, scheme=scheme, store_fields=store_fields)
    out = []
    T = base.tau * base.n_steps
    for i, p in enumerate(problems):
        trace = []
        if p.exact is not None:
            ref = p.exact(base.domain.points, T)
            diff = np.abs(res.final[i] - ref)
            trace.append({"t": T,
                          "abs_l2": float(np.sqrt(np.mean(diff**2))),
                          "abs_linf": float(np.max(diff)),
                          "rel_l2": float(np.sqrt(np.mean(diff**2))
                                          / np.sqrt(np.mean(ref**2)))})
        out.append(EvolutionResult(times=res.times, final=res.final[i],
                                   error_trace=trace,
                                   fields={k: v[i] for k, v in res.fields.items()},
                                   meta=dict(res.meta)))
    return out


def heat_family(domain, a, b, tau, n_steps, kappa=1.0):
    """Batched heat problems u = exp(-t) sin(a x1) cos(b x2), a^2 + b^2 = 1."""
    a = np.atleast_1d(np.asarray(a, dtype=np.float64))[:, None]
    b = np.atleast_1d(np.asarray(b, dtype=np.float64))[:, None]

    def shape(pts, t):
        return np.exp(-t) * np.sin(a * pts[:, 0]) * np.cos(b * pts[:, 1])

    return EvolutionProblem(
        equation="heat", domain=domain, tau=tau, n_steps=n_steps, kappa_diff=kappa,
        u0=lambda pts: shape(pts, 0.0),
        g=shape,
        lap_u0=lambda pts: -(a**2 + b**2) * shape(pts, 0.0),
        exact=shape)


def bilinear_probe(domain, fields, point):
    """Bilinear interpolation of lattice fields (..., n*n) at one point."""
    n = domain.n
    h = 1.0 / (n - 1)
    x, y = point
    i = min(int(x / h), n - 2)
    j = min(int(y / h), n - 2)
    sx = x / h - i
    sy = y / h - j
    v = domain.reshape(fields)
    return ((1 - sx) * (1 - sy) * v[..., i, j] + sx * (1 - sy) * v[..., i + 1, j]
            + (1 - sx) * sy * v[..., i, j + 1] + sx * sy * v[..., i + 1, j + 1])


def uq_run(backend, m_samples, seed, probe=(0.43, 0.2), tau=0.1, n_steps=10,
           mean=0.5, std=0.05, clip=(0.2, 0.8)):
    """Heat-equation uncertainty propagation for a random coefficient a.

    a ~ Normal(mean, std^2) truncated to clip, b = sqrt(1 - a^2); runs the
    Crank-Nicolson stepper for all samples at once and reports global and
    probe-point statistics of prediction vs. exact solution.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0x0A])))
    a = np.clip(rng.normal(mean, std, size=m_samples), *clip)
    b = np.sqrt(1.0 - a * a)
    domain = backend.domain
    prob = heat_family(domain, a, b, tau, n_steps)
    res = run_heat(prob, backend, scheme="cn")
    T = tau * n_steps
    exact = prob.exact(domain.points, T)
    pred = res.final
    err = pred - exact
    probe_pred = bilinear_probe(domain, pred, probe)
    probe_exact = np.exp(-T) * np.sin(a * probe[0]) * np.cos(b * probe[1])
    stats = {
        "samples": int(m_samples),
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
    hist = {"a": a, "probe_exact": probe_exact, "probe_pred": probe_pred,
            "probe_abs_error": np.abs(probe_pred - probe_exact)}
    return stats, hist


def observed_order(final_fields):
    """log2 ratios of successive differences of same-time fields for halved tau."""
    diffs = [np.sqrt(np.mean(np.abs(final_fields[i] - final_fields[i + 1]) ** 2))
             for i in range(len(final_fields) - 1)]
    return [float(np.log2(diffs[i] / diffs[i + 1])) for i in range(len(diffs) - 1)]


def trajectory_rel_l2(result):
    """Combined relative L2 over all recorded steps (all-steps error norm)."""
    if not result.error_trace:
        raise ValueError("run recorded no errors (no exact solution supplied)")
    num = sum(e["abs_l2"] ** 2 for e in result.error_trace)
    den = sum(e["ref_l2"] ** 2 for e in result.error_trace)
    return float(np.sqrt(num / den))


def order_from_errors(errors):
    """log2 ratios of successive error norms for halved tau."""
    return [float(np.log2(errors[i] / errors[i + 1])) for i in range(len(errors) - 1)]
