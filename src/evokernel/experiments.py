"""Manufactured test cases, the evaluation table and the problem table.

These are the standard verification problems shared by the CLI, the demo
scripts and the tests:

  - scalar boundary-driven: u = exp(-sqrt(1 + 1/kappa) x) sin(y), a
    homogeneous solution of Delta u - u/kappa = 0;
  - scalar source-driven:   u = x(1-x) y(1-y) exp(0.6 x + 0.8 y) with the
    source computed analytically;
  - coupled source-driven:  u1 = sin(pi x) y(1-y), u2 = x(1-x) sin(pi y);
  - coupled boundary-driven: traces of the first fundamental-matrix column
    with source point (1.2, 1.2) outside the domain;
  - heat, wave and Schrodinger evolution problems with exact solutions,
    and EQUATIONS, which maps each equation to its problem builder and its
    stepper (the heat problem is a one-row evolution.heat_family).

A builder takes the PDE's parameters and supplies the analytic lap_u0; a
stepper takes its scheme's (heat's scheme, the wave's theta, Schrodinger's
splitting).  Each default is written once, where it is taken.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from . import bie, evolution, kernels
from .geometry import square_lattice
from .training import error_metrics

__all__ = [
    "scalar_boundary_solution", "scalar_source_case", "system_source_case",
    "system_boundary_case", "EVAL_SUITES", "heat_problem", "wave_problem",
    "schrodinger_problem", "EQUATIONS",
]


def scalar_boundary_solution(kappa):
    """Homogeneous solution of the kappa-operator used for boundary tests."""
    c = np.sqrt(1.0 + 1.0 / kappa)

    def u(pts):
        return np.exp(-c * pts[..., 0]) * np.sin(pts[..., 1])

    return u


def _poly_exp_1d(c):
    """x(1-x) e^{cx} and its second derivative as closed forms."""

    def f(x):
        return x * (1.0 - x) * np.exp(c * x)

    def fpp(x):
        return np.exp(c * x) * (-2.0 + 2.0 * c * (1.0 - 2.0 * x)
                                + c * c * x * (1.0 - x))

    return f, fpp


def scalar_source_case(kappa):
    """(u, f) with u = x(1-x) y(1-y) exp(0.6x + 0.8y), f = Delta u - u/kappa."""
    X, Xpp = _poly_exp_1d(0.6)
    Y, Ypp = _poly_exp_1d(0.8)

    def u(pts):
        return X(pts[..., 0]) * Y(pts[..., 1])

    def f(pts):
        x, y = pts[..., 0], pts[..., 1]
        return Xpp(x) * Y(y) + X(x) * Ypp(y) - u(pts) / kappa

    return u, f


def system_source_case(lam):
    """(u1, u2, f1, f2) for L_lam u = f with homogeneous boundary data."""

    def u1(pts):
        return np.sin(np.pi * pts[..., 0]) * pts[..., 1] * (1.0 - pts[..., 1])

    def u2(pts):
        return pts[..., 0] * (1.0 - pts[..., 0]) * np.sin(np.pi * pts[..., 1])

    def lap_u1(pts):
        x, y = pts[..., 0], pts[..., 1]
        return -np.pi**2 * np.sin(np.pi * x) * y * (1 - y) - 2.0 * np.sin(np.pi * x)

    def lap_u2(pts):
        x, y = pts[..., 0], pts[..., 1]
        return -2.0 * np.sin(np.pi * y) - np.pi**2 * x * (1 - x) * np.sin(np.pi * y)

    def f1(pts):
        return u1(pts) - lam * lap_u2(pts)

    def f2(pts):
        return lam * lap_u1(pts) + u2(pts)

    return u1, u2, f1, f2


def system_boundary_case(lam):
    """(u1, u2): first fundamental-matrix column from the exterior source
    point (1.2, 1.2)."""
    spec = kernels.SystemKernelSpec(lam)
    y0 = np.array([1.2, 1.2])

    def fields(pts):
        G = kernels.system_g0(spec, pts, np.broadcast_to(y0, pts.shape))
        return G[..., 0, 0], G[..., 1, 0]

    return fields


def _rows(name, p, preds, exacts):
    """One error row per field component, labelled name=p (one component)
    or name=p:u1, name=p:u2."""
    tags = [""] if len(exacts) == 1 else [f":u{i + 1}" for i in range(len(exacts))]
    return [{"case": f"{name}={p:.6g}{tag}", **error_metrics(pred, ref)}
            for tag, pred, ref in zip(tags, preds, exacts)]


def _boundary_suite(name, spec_cls, case, model, params, grid, eval_n=16, eval_lo=0.05,
                    eval_hi=0.95):
    """Boundary checkpoint -> density on grid, a grid of the unit square ->
    double-layer field on an interior lattice, against the exact field
    case(p), whose trace is the data; coupled components are node-interleaved."""
    pts = square_lattice(eval_n, eval_lo, eval_hi).points
    rows = []
    for p in params:
        fields = case(p)
        trace = np.atleast_2d(fields(grid.points))
        phi = model.predict(p, trace.T.ravel())
        out = bie.eval_double_layer(spec_cls(float(p)), grid, phi, pts)
        rows += _rows(name, p, out.reshape(-1, len(trace)).T, np.atleast_2d(fields(pts)))
    return rows


def _source_suite(name, case, model, params):
    """Source checkpoint on its own sample points against the closed form;
    case(p) gives the exact components, then as many source components,
    which the model takes stacked in blocks."""
    pts = model.points
    rows = []
    for p in params:
        fns = case(p)
        k = len(fns) // 2
        pred = model.predict(p, np.concatenate([f(pts) for f in fns[k:]]))
        rows += _rows(name, p, np.split(pred, k), [u(pts) for u in fns[:k]])
    return rows


# suite kind -> evaluate(model, params, **options) -> error rows, one per case
# and component; only the boundary suites take options: the boundary grid
# (grid, required) and eval_n, eval_lo, eval_hi
EVAL_SUITES = {
    "scalar-boundary": partial(_boundary_suite, "kappa", kernels.ScalarKernelSpec,
                               scalar_boundary_solution),
    "scalar-source": partial(_source_suite, "kappa", scalar_source_case),
    "system-source": partial(_source_suite, "lam", system_source_case),
    "system-boundary": partial(_boundary_suite, "lam", kernels.SystemKernelSpec,
                               system_boundary_case),
}


def heat_problem(domain, tau, n_steps, a=2**-0.5):
    """heat_family with one row, b = sqrt(1 - a^2): its fields are (1, m) arrays."""
    return evolution.heat_family(domain, a, np.sqrt(1.0 - a * a), tau, n_steps)


def wave_problem(domain, tau, n_steps, a=0.6):
    """Traveling wave u = sin(a x1 + b x2 - t) with b = sqrt(1 - a^2)."""
    b = np.sqrt(1.0 - a * a)

    def sh(pts, t):
        return np.sin(a * pts[..., 0] + b * pts[..., 1] - t)

    return evolution.EvolutionProblem(
        domain=domain, tau=tau, n_steps=n_steps,
        u0=lambda pts: sh(pts, 0.0),
        v0=lambda pts: -np.cos(a * pts[..., 0] + b * pts[..., 1]),
        g=sh, lap_u0=lambda pts: -sh(pts, 0.0), exact=sh)


def schrodinger_problem(domain, tau, n_steps, w=1.0):
    """Exact u = exp(i t) cos(x1) cos(x2) under v = 1 - cos^2 x1 cos^2 x2."""

    def sh(pts, t):
        return np.exp(1j * t) * np.cos(pts[..., 0]) * np.cos(pts[..., 1])

    return evolution.EvolutionProblem(
        domain=domain, tau=tau, n_steps=n_steps, w=w,
        u0=lambda pts: sh(pts, 0.0), g=sh,
        v_potential=lambda pts: 1.0 - np.cos(pts[..., 0])**2 * np.cos(pts[..., 1])**2,
        lap_u0=lambda pts: -2.0 * sh(pts, 0.0), exact=sh)


# equation -> (builder(domain, tau, n_steps, **params), stepper(problem, backend,
# store_fields, **options), the keys of options): the stepper takes the problem
# keys that it names, the builder every other one
EQUATIONS = {
    "heat": (heat_problem, evolution.run_heat, ("scheme",)),
    "wave": (wave_problem, evolution.run_wave, ("theta",)),
    "schrodinger": (schrodinger_problem, evolution.run_schrodinger, ("splitting",)),
}
