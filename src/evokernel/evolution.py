"""Implicit time steppers driven by an elliptic backend.

Every scheme reduces each step to (I - lam Delta) u = F with Dirichlet data
(or u + i lam Delta u = F for the complex splitting stages), so the heat,
wave and Schrodinger drivers only differ in how they build F and lam:

    backward Euler   lam = tau,            F = u^n
    Crank-Nicolson   lam = tau / 2,        F^{n+1} = 2 u^{n+1} - F^n
    theta-scheme     lam = theta tau^2,    F^{n+1} = 2 u^n
                         + ((1 - 2 theta)/theta) (u^n - F^n) - F^{n-1}
    splitting        lam = tau/2 or tau,   F from the pointwise nonlinear
                                           stage, whose exact root is closed
                                           form; the explicit half step
                                           reuses u* = 2 u^n - u**_{prev}

The recursions re-express every Laplacian of a computed field through
earlier solves, so no field produced by a learned backend is ever
differentiated numerically; only the initial data need a Laplacian, and
every problem supplies it analytically as lap_u0.

An EvolutionProblem holds the PDE's data.  Each stepper takes its scheme's
parameters, checks them and then only yields (step, u) pairs of its
recursion; one run loop, _march, records the error trace, the stored fields
and the EvolutionResult of every run.

Backends share one contract; swapping the learned backend for the
finite-difference oracle changes errors, never shapes or protocols.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .fdsolver import fd_solve_complex, fd_solve_scalar, lap5
from .geometry import InteriorGrid, make_curve, sample_quadrature, square_lattice
from .kernels import ScalarKernelSpec, SystemKernelSpec, potential_matrix
from .training import error_metrics

__all__ = [
    "SquareLatticeDomain", "PointCloudDomain", "ClassicalBackend", "NekmBackend",
    "EvolutionProblem", "EvolutionResult", "BackendRangeError",
    "run_heat", "run_wave", "run_schrodinger", "uq_run",
    "newton_nonlinear", "observed_order", "trajectory_rel_l2", "order_from_errors",
    "heat_family", "bilinear_probe",
]


class SquareLatticeDomain:
    """Closed n x n lattice on the unit square plus its boundary quadrature."""

    def __init__(self, n, n_bd):
        self.n = n
        self.points = square_lattice(n).points
        self.curve = make_curve("square")
        self.quad = sample_quadrature(self.curve, n_bd)
        ring = np.any((self.points == 0.0) | (self.points == 1.0), axis=1)
        self.ring_idx = np.nonzero(ring)[0]
        self.interior_idx = np.nonzero(~ring)[0]

    def reshape(self, flat):
        return np.asarray(flat).reshape(flat.shape[:-1] + (self.n, self.n))

    def lap_full(self, u):
        """5-point Laplacian on the flattened lattice; ring entries copy their
        nearest interior neighbor (only learned-backend source inputs read them)."""
        lap = lap5(self.reshape(u))
        return np.pad(lap, [(0, 0)] * (lap.ndim - 2) + [(1, 1), (1, 1)],
                      mode="edge").reshape(u.shape)


class PointCloudDomain:
    """Scattered strictly-interior points (petal-style domains)."""

    def __init__(self, curve, interior: InteriorGrid, n_bd):
        self.curve = curve
        self.points = interior.points
        self.quad = sample_quadrature(curve, n_bd)
        self.interior_idx = np.arange(self.points.shape[0])
        self.ring_idx = np.zeros(0, dtype=int)


class BackendRangeError(ValueError):
    pass


def _set_ring(u, domain, gfun, t):
    """u with its boundary-ring entries set to g(., t); point clouds have none."""
    ring = domain.ring_idx
    if ring.size:
        u[..., ring] = gfun(domain.points[ring], t)
    return u


class ClassicalBackend:
    """Finite-difference oracle backend on the square lattice."""

    def __init__(self, domain):
        if not isinstance(domain, SquareLatticeDomain):
            raise ValueError("the finite-difference backend needs a square lattice")
        self.domain = domain

    def solve(self, lam, F, gfun, t):
        """(I - lam Delta) u = F, u = g(., t) on the boundary ring; u is a new
        array that the caller owns."""
        return self._solve(lam, F, gfun, t, coupled=False)

    def solve_coupled(self, lam, F, gfun, t):
        """u + i lam Delta u = F over complex lattice fields; u is the
        caller's, as in solve."""
        return self._solve(lam, F, gfun, t, coupled=True)

    def _solve(self, lam, F, gfun, t, coupled):
        g = _set_ring(np.zeros(F.shape, complex if coupled else float), self.domain, gfun, t)
        f, g = self.domain.reshape(F), self.domain.reshape(g)
        sol = (fd_solve_complex(lam, f, g) if coupled
               else fd_solve_scalar(lam, -f / lam, g))
        return sol.reshape(F.shape)


class NekmBackend:
    """Learned backend: source model + boundary model + kernel quadrature.

    Solves (I - lam Delta) u = F by normalizing to Delta u - u/lam = -F/lam
    (the trained source-operator form) plus the boundary-driven double-layer
    field from the predicted density.  Refuses lam outside the trained range,
    and models whose sample points or widths do not match the domain.

    Each lam gets one step record, built at its first solve: (A, H) are the
    source model's factors, with the scalar normalization's -1/lam folded
    into A, (M, c) the boundary model's affine map g -> g M + c and P the
    weighted double-layer matrix.  The scalar record is (A, R) with
    R = [H | P M^T | P c], and a step is the two products u = X R^T of
    X = [F A | g | 1].  The coupled record is (A, M, c, R) with R = [H | P]
    and u = [F A | g M + c] R^T: its P is complex and M real-linear on
    (re, im) pairs, so folding M in would double P's block, and its steps,
    at batch 1, read the whole record.  The coupled step runs in complex128,
    whose R is a third smaller than a real layout's; that pays at batch 1,
    its only use (run_schrodinger), but a large batch would do a third more
    flops.  The models' parameters are read at that first use, so the models
    must not change after the backend is built.
    """

    def __init__(self, domain, boundary_model, source_model, lam_range,
                 coupled=False):
        if source_model.coupled != coupled:
            raise ValueError(f"source model coupled={source_model.coupled} "
                             f"but backend coupled={coupled}")
        if not np.array_equal(source_model.points, domain.points):
            raise ValueError("source model sample points differ from the domain points")
        width = domain.quad.n * (2 if coupled else 1)
        if boundary_model.nn_g.dims[0] != width:
            raise ValueError(f"boundary model input width {boundary_model.nn_g.dims[0]} "
                             f"!= {width} boundary values")
        self.domain = domain
        self.boundary = boundary_model
        self.source = source_model
        self.lam_range = lam_range
        self.coupled = coupled
        self._ops: dict = {}

    def _check(self, lam):
        lo, hi = self.lam_range
        if not (lo <= lam <= hi + 1e-12):
            raise BackendRangeError(
                f"lam={lam:.6g} outside trained range [{lo:.6g}, {hi:.6g}]")

    def _operator(self, lam):
        """The step record at one lam, built on first use: (A, R) scalar,
        (A, M, c, R) coupled.

        H = R[:, :k] (k = A.shape[1]); the rest of R is the boundary block,
        which is zero on the ring rows: [P M^T | P c] scalar, P coupled, with
        P the weighted double-layer matrix over all domain points.  A coupled
        R is complex like the coupled potential, with H's [real; imaginary]
        halves as R.real and R.imag; A's rows are permuted to the (re, im)
        pairs in which M's already are.
        """
        key = float(lam)
        op = self._ops.get(key)
        if op is None:
            dom = self.domain
            spec = SystemKernelSpec(key) if self.coupled else ScalarKernelSpec(key)
            P_int = potential_matrix(spec, dom.quad, dom.points[dom.interior_idx])
            P_int *= dom.quad.weight
            k = self.source.nn_g.dims[-2] + 1     # last hidden width + bias
            npts, rows = dom.points.shape[0], dom.interior_idx
            if self.coupled:
                # R is allocated after the potential's temporaries are freed and
                # before the source factors exist; other orders raised the peak
                # RSS of a coupled n = 41, n_bd = 256 run by 9-21%
                R = np.zeros((npts, k + dom.quad.n), P_int.dtype)
                R[rows, k:] = P_int
            else:
                M, c = self.boundary.operator(key)
                R = np.zeros((npts, k + dom.quad.n + 1))
                R[rows, k:-1] = P_int @ M.T
                R[rows, -1] = P_int @ c
            del P_int
            A, H = self.source.operator(key)
            R.real[:, :k] = H[:npts]
            if self.coupled:
                R.imag[:, :k] = H[npts:]
                A = A.reshape(2, npts, k).swapaxes(0, 1).reshape(2 * npts, k)
                op = self._ops[key] = (A, *self.boundary.operator(key), R)
            else:
                A *= -1.0 / key
                op = self._ops[key] = (A, R)
        return op

    def solve(self, lam, F, gfun, t):
        """(I - lam Delta) u = F with Dirichlet data g(., t); u is a new array
        that the caller owns."""
        return self._solve(lam, F, gfun, t, coupled=False)

    def solve_coupled(self, lam, F, gfun, t):
        """u + i lam Delta u = F over complex fields; u is the caller's, as
        in solve."""
        return self._solve(lam, F, gfun, t, coupled=True)

    def _solve(self, lam, F, gfun, t, coupled):
        if coupled != self.coupled:
            have, want = ("coupled", "scalar") if self.coupled else ("scalar", "coupled")
            raise ValueError(f"a {want} solve on a {have} backend, whose checkpoints "
                             f"were trained for {have} equations")
        self._check(lam)
        A, *Mc, R = self._operator(lam)
        g = gfun(self.domain.quad.points, t)
        k = A.shape[1]
        X = np.empty(F.shape[:-1] + (R.shape[1],), R.dtype)
        if self.coupled:
            # complex fields as (re, im) pairs; F A is real, phi complex
            M, c = Mc
            F = np.ascontiguousarray(F, np.complex128).view(np.float64)
            g = np.ascontiguousarray(g, np.complex128).view(np.float64)
            X[..., :k] = F @ A
            phi = X[..., k:].view(np.float64)
            np.matmul(g, M, out=phi)
            phi += c
            del phi
        else:
            np.matmul(F, A, out=X[..., :k])
            X[..., k:-1] = g
            X[..., -1] = 1.0
        # only u is live at the ring callback, the step's memory peak
        del g
        u = X @ R.T
        del X
        return _set_ring(u, self.domain, gfun, t)


@dataclass
class EvolutionProblem:
    """A time-dependent PDE's data over a backend domain; the scheme's
    parameters go to the stepper.

    Callables receive a point array (m, 2); batched problem families return
    (batch, m) arrays.  lap_u0 is the initial data's analytic Laplacian;
    exact(points, t) triggers the per-step error trace.
    """

    domain: object
    tau: float
    n_steps: int
    u0: object
    g: object
    lap_u0: object
    v0: object = None
    v_potential: object = None
    w: float = 0.0
    exact: object = None

    def __post_init__(self):
        if self.tau <= 0 or self.n_steps <= 0:
            raise ValueError("tau and n_steps must be positive")
        if self.w < 0:
            raise ValueError("nonlinear coefficient w must be nonnegative")


@dataclass
class EvolutionResult:
    """What _march records of a run: the final field, the error-trace rows
    (t and training.error_metrics' keys), the stored fields by step, meta."""

    final: np.ndarray
    error_trace: list = field(default_factory=list)
    fields: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)


def _march(prob, steps, store_fields, meta):
    """The run loop over a stepper's (step, u), from step 0, the initial field,
    to step n_steps, the final one: a trace row against prob.exact(., step tau)
    for each later step when the problem has one, and a copy of every u when
    store_fields is set."""
    trace, fields = [], {}
    for step, u in steps:
        if step and prob.exact is not None:
            t = step * prob.tau
            trace.append({"t": float(t), **error_metrics(u, prob.exact(prob.domain.points, t))})
        if store_fields:
            fields[step] = u.copy()
        if step == prob.n_steps:
            final = u
        # only the stepper holds a field while it computes the next: one more
        # live batch of fields slowed the 1000-sample CN step by about 10%
        del u
    return EvolutionResult(final=final, error_trace=trace, fields=fields, meta=meta)


def run_heat(prob, backend, scheme="be", store_fields=False):
    """Heat equation u_t = Delta u by backward Euler or Crank-Nicolson.

    Crank-Nicolson holds at most two batch fields of its own: it forms
    F = lam Delta u0 before u0 and adds u0 into F in place (bitwise
    u0 + lam Delta u0, since IEEE products and sums commute), and each step
    drops its u before the solve, which reads only F.  Backward Euler keeps
    its u, the solve's right-hand side.  Neither writes into the arrays
    that u0 and lap_u0 return.
    """
    if scheme not in ("be", "cn"):
        raise ValueError("scheme must be 'be' or 'cn'")
    lam = prob.tau if scheme == "be" else 0.5 * prob.tau

    def steps():
        pts = prob.domain.points
        if scheme == "cn":
            F = lam * prob.lap_u0(pts)
        u = np.asarray(prob.u0(pts), dtype=np.float64)
        if scheme == "cn":
            F += u                               # F is this run's own array
        yield 0, u
        for step in range(1, prob.n_steps + 1):
            if scheme == "be":
                u = backend.solve(lam, u, prob.g, step * prob.tau)
            else:
                del u
                u = backend.solve(lam, F, prob.g, step * prob.tau)
                _cn_update(F, u)
            yield step, u

    return _march(prob, steps(), store_fields, {"scheme": scheme, "lam": lam})


def _cn_update(F, u):
    """F <- 2 u - F in place, bitwise np.subtract(2.0 * u, F, out=F), through
    a buffer of a few rows: with a field-sized 2 u temporary the update of a
    1000-sample step took about twice as long.  F is C-contiguous."""
    rows = 16
    F, u = F.reshape(-1, F.shape[-1]), u.reshape(-1, u.shape[-1])
    buf = np.empty((min(rows, len(F)), F.shape[1]))
    for i in range(0, len(F), rows):
        Fb = F[i:i + rows]
        np.subtract(np.multiply(u[i:i + rows], 2.0, out=buf[:len(Fb)]), Fb, out=Fb)


def run_wave(prob, backend, theta=0.5, store_fields=False):
    """Wave equation u_tt = Delta u by the implicit theta-scheme, 0 < theta <= 1.

    Startup: u^1 from the second-order Taylor expansion
    u^0 + tau v^0 + (tau^2/2) Delta u^0; F^1 and F^2 are formed directly
    from the Laplacians of u^0 (analytic) and of u^1 (the lattice's 5-point
    stencil), after which the two-level recursion runs.
    """
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"theta={theta} must lie in (0, 1]")
    if prob.n_steps > 1 and not hasattr(prob.domain, "lap_full"):
        raise ValueError("the theta-scheme startup needs a lattice domain "
                         "(Laplacian of the Taylor-started level)")
    tau = prob.tau
    lam = theta * tau * tau

    def steps():
        pts = prob.domain.points
        u_prev = np.asarray(prob.u0(pts), dtype=np.float64)
        lap0 = prob.lap_u0(pts)
        u_cur = u_prev + tau * np.asarray(prob.v0(pts)) + 0.5 * tau * tau * lap0
        yield 0, u_prev
        yield 1, u_cur
        if prob.n_steps <= 1:
            return
        lap1 = prob.domain.lap_full(u_cur)
        F_prev = u_cur - lam * lap1                                    # F^1
        F_cur = 2.0 * u_cur - u_prev + tau * tau * ((1.0 - 2.0 * theta) * lap1
                                                    + theta * lap0)   # F^2
        ratio = (1.0 - 2.0 * theta) / theta
        for step in range(2, prob.n_steps + 1):
            u_next = backend.solve(lam, F_cur, prob.g, step * tau)
            yield step, u_next
            F_next = 2.0 * u_next + ratio * (u_next - F_cur) - F_prev  # F^{n+1}
            F_prev, F_cur = F_cur, F_next

    return _march(prob, steps(), store_fields, {"lam": lam})


class NewtonError(RuntimeError):
    pass


def newton_nonlinear(v, w, tau, rhs, tol=1e-12, maxit=50, z0=None):
    """Solve z + i (tau/2)(v + w |z|^2) z = rhs pointwise (vectorized Newton).

    |z|^2 is not complex-differentiable, so Newton runs on (Re z, Im z) with
    the exact 2x2 Jacobian, starting from z0 (default rhs).  Converged when
    every point's residual is at most tol * max(1, |rhs|), which float64 can
    reach; a start that passes the first check is returned unchanged.

    The steppers' start is exact: they build rhs = u - i c s(u) u with
    c = tau/2 and the real s(u) = v + w |u|^2, and z0 = rhs / (1 + i c s(u))
    = u (1 - i c s)/(1 + i c s) has |z0| = |u|, so s(z0) = s(u) and
    z0 (1 + i c s(z0)) = rhs.
    """
    c = 0.5 * tau
    rhs = np.asarray(rhs, dtype=np.complex128)
    start = rhs if z0 is None else np.asarray(z0, dtype=np.complex128)
    p = start.real.copy()
    q = start.imag.copy()
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


def _nonlinear_stage(vpot, w, tau, u):
    """The Crank-Nicolson nonlinear stage from u, started at its exact root."""
    s = vpot + w * np.abs(u) ** 2
    rhs = u - 0.5j * tau * s * u
    return newton_nonlinear(vpot, w, tau, rhs, z0=rhs / (1.0 + 0.5j * tau * s))


def run_schrodinger(prob, backend, splitting="strang", store_fields=False):
    """Nonlinear Schrodinger step driver by Strang or Lie-Trotter splitting.

    Strang: explicit half step (via the recursion u* = 2 u^n - u**_{prev}
    after the first step), pointwise nonlinear Crank-Nicolson solve, then
    the implicit linear solve u^{n+1} + i (tau/2) Delta u^{n+1} = u**.
    Lie: nonlinear stage from u^n, then u^{n+1} + i tau Delta u^{n+1} = u*.

    The nonlinear stage conserves |u| pointwise (the mass-conserving scheme
    of Delfour, Fortin & Payre, 1981), so Newton starts at its closed-form
    root (see newton_nonlinear) and stops at the first check.
    """
    if splitting not in ("strang", "lie"):
        raise ValueError("splitting must be 'strang' or 'lie'")
    tau = prob.tau
    lam = 0.5 * tau if splitting == "strang" else tau

    def steps():
        pts = prob.domain.points
        vpot = np.asarray(prob.v_potential(pts), dtype=np.float64)
        u = np.asarray(prob.u0(pts), dtype=np.complex128)
        yield 0, u
        for step in range(1, prob.n_steps + 1):
            if splitting == "lie":
                u_star = u
            elif step == 1:
                u_star = u - 0.5j * tau * prob.lap_u0(pts)
            else:
                u_star = 2.0 * u - u_dd          # u_dd: the last u**
            u_dd = _nonlinear_stage(vpot, prob.w, tau, u_star)
            u = backend.solve_coupled(lam, u_dd, prob.g, step * tau)
            yield step, u

    return _march(prob, steps(), store_fields, {"splitting": splitting})


def heat_family(domain, a, b, tau, n_steps):
    """Heat problems u = exp(-t) sin(a x1) cos(b x2), a^2 + b^2 = 1, one per
    entry of a and b; every callable returns (batch, m) arrays, so scalar a
    and b give one row."""
    a = np.atleast_1d(np.asarray(a, dtype=np.float64))[:, None]
    b = np.atleast_1d(np.asarray(b, dtype=np.float64))[:, None]
    tables = {}

    def shape(pts, t):
        # lattice and boundary points repeat few coordinate values, so the
        # trigonometry runs once per point set, keyed by its content, on the
        # unique values.  Each call scales the sin table by exp(-t) and
        # multiplies it per point by the cos table: by broadcasting when the
        # points are an x-major tensor grid (the lattice), by gathering
        # otherwise.  Either way each value is (exp(-t) sin(a x)) cos(b y),
        # the products of the closed form in its order.
        key = pts.tobytes()
        if key not in tables:
            x, ix = np.unique(pts[:, 0], return_inverse=True)
            y, iy = np.unique(pts[:, 1], return_inverse=True)
            grid = np.array_equal(ix * y.size + iy, np.arange(len(pts)))
            tables[key] = np.sin(a * x), ix, np.cos(b * y), iy, grid
        sin_x, ix, cos_y, iy, grid = tables[key]
        e_sin = np.exp(-t) * sin_x
        if grid:
            return (e_sin[:, :, None] * cos_y[:, None, :]).reshape(len(a), -1)
        u = e_sin.take(ix, axis=1)
        u *= cos_y.take(iy, axis=1)
        return u

    def lap_u0(pts):
        # each shape call returns a fresh array, scaled here in place:
        # bitwise -(a^2 + b^2) * shape, since IEEE products commute
        lap = shape(pts, 0.0)
        lap *= -(a**2 + b**2)
        return lap

    return EvolutionProblem(
        domain=domain, tau=tau, n_steps=n_steps,
        u0=lambda pts: shape(pts, 0.0),
        g=shape,
        lap_u0=lap_u0,
        exact=shape)


def bilinear_probe(domain, fields, point):
    """Bilinear interpolation of lattice fields (..., n*n) at one point of
    the unit square."""
    x, y = point
    if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
        raise ValueError(f"probe point {tuple(point)} outside the unit square")
    n = domain.n
    h = 1.0 / (n - 1)
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

    After the run, at most two batch fields are live: the final field, from
    which the probe and its statistics are taken before the error overwrites
    it (and |error| then overwrites that, so a backend that keeps the array
    its last solve returned sees |error| there), and exact, whose own buffer
    takes its deviations from the mean and then the error's.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0x0A])))
    a = np.clip(rng.normal(mean, std, size=m_samples), *clip)
    b = np.sqrt(1.0 - a * a)
    domain = backend.domain
    prob = heat_family(domain, a, b, tau, n_steps)
    # only the final time is compared with the exact solution
    pred = run_heat(replace(prob, exact=None), backend, scheme="cn").final
    T = tau * n_steps
    probe_pred = bilinear_probe(domain, pred, probe)
    probe_exact = prob.exact(np.array([probe], dtype=np.float64), T)[:, 0]
    mean_pred, std_pred = _mean_std(pred)
    exact = prob.exact(domain.points, T)
    norm_exact = np.linalg.norm(exact)
    err = np.subtract(pred, exact, out=pred)
    mean_exact, std_exact = _mean_std(exact, scratch=exact)
    mean_err, std_err = _mean_std(err, scratch=exact)
    rel_l2 = float(np.linalg.norm(err) / norm_exact)
    # |err| overwrites err, and the quantile partitions it in place
    abs_err = np.abs(err, out=err)
    stats = {"samples": int(m_samples),
             "mean_exact": mean_exact, "std_exact": std_exact,
             "mean_pred": mean_pred, "std_pred": std_pred,
             "mean_error": mean_err, "std_error": std_err,
             "max_abs_error": float(abs_err.max()),
             "rel_l2_error": rel_l2,
             "q95_abs_error": _quantile(abs_err, 0.95)}
    hist = {"a": a, "probe_exact": probe_exact, "probe_pred": probe_pred,
            "probe_abs_error": np.abs(probe_pred - probe_exact)}
    return stats, hist


def _mean_std(x, scratch=None):
    """(x.mean(), x.std()) bitwise as numpy forms them, from one sum of x
    where numpy takes two.  The deviations from the mean are formed in
    scratch, an array of x's shape (x itself once x is no longer needed),
    or in a new array."""
    mean = x.sum() / x.size
    d = np.subtract(x, mean, out=scratch)
    return float(mean), float(np.sqrt(np.square(d, out=d).sum() / x.size))


def _quantile(x, q):
    """np.quantile(x, q) bitwise, by its default linear rule, from one partition
    of x in place.  A NaN, which sorts last, reaches the result through the
    min as it does through numpy's own NaN check."""
    x = x.reshape(-1)
    v = (x.size - 1) * q
    lo = int(v)
    x.partition(lo)
    a = x[lo]
    b = x[lo + 1:].min() if lo + 1 < x.size else a
    t = v - lo
    d = b - a
    return float(b - d * (1 - t) if t >= 0.5 else a + d * t)


def observed_order(final_fields):
    """log2 ratios of successive RMS differences of same-time fields for halved tau."""
    return order_from_errors([error_metrics(a, b)["abs_l2"]
                              for a, b in zip(final_fields, final_fields[1:])])


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
