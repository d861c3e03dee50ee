"""Lattice solver: manufactured convergence, operator identities, max principle."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from evokernel import fdsolver as fd
from evokernel.experiments import scalar_source_case, system_source_case


def _lattice(n):
    xs = np.linspace(0, 1, n)
    return np.meshgrid(xs, xs, indexing="ij")


def test_boundary_driven_manufactured_order():
    kappa = 0.05
    c = np.sqrt(1 + 1 / kappa)
    errs = []
    for n in (21, 41, 81):
        X, Y = _lattice(n)
        exact = np.exp(-c * X) * np.sin(Y)
        u = fd.fd_solve_scalar(kappa, np.zeros((n, n)), exact)
        errs.append(np.max(np.abs(u - exact)))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(abs(o - 2.0) <= 0.1 for o in orders)


def test_source_driven_manufactured_order():
    kappa = 0.075
    u_exact, f_exact = scalar_source_case(kappa)
    errs = []
    for n in (21, 41, 81):
        X, Y = _lattice(n)
        pts = np.stack([X, Y], axis=-1)
        u = fd.fd_solve_scalar(kappa, f_exact(pts), np.zeros((n, n)))
        errs.append(np.max(np.abs(u - u_exact(pts))))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(abs(o - 2.0) <= 0.1 for o in orders)


def test_system_manufactured_order():
    lam = 0.1
    u1, u2, f1, f2 = system_source_case(lam)
    errs = []
    for n in (21, 41, 81):
        X, Y = _lattice(n)
        pts = np.stack([X, Y], axis=-1)
        f = f1(pts) + 1j * f2(pts)
        sol = fd.fd_solve_complex(lam, f, np.zeros((n, n), dtype=complex))
        errs.append(np.max(np.abs(sol - (u1(pts) + 1j * u2(pts)))))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(abs(o - 2.0) <= 0.1 for o in orders)


def test_linearity():
    rng = np.random.default_rng(0)
    n = 21
    f1, f2 = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    g1, g2 = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    a, b = 1.3, -0.4
    lhs = fd.fd_solve_scalar(0.08, a * f1 + b * f2, a * g1 + b * g2)
    rhs = (a * fd.fd_solve_scalar(0.08, f1, g1)
           + b * fd.fd_solve_scalar(0.08, f2, g2))
    assert np.allclose(lhs, rhs, rtol=1e-11, atol=1e-11)


def test_complex_real_block_equivalence():
    rng = np.random.default_rng(1)
    n = 21
    lam = 0.1
    f1, f2 = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    u = fd.fd_solve_complex(lam, f1 + 1j * f2, np.zeros((n, n), complex))
    u1, u2 = u.real, u.imag
    r1 = u1[1:-1, 1:-1] - lam * fd.lap5(u2) - f1[1:-1, 1:-1]
    r2 = u2[1:-1, 1:-1] + lam * fd.lap5(u1) - f2[1:-1, 1:-1]
    assert np.max(np.abs(r1)) < 1e-12 * np.max(np.abs(f1))
    assert np.max(np.abs(r2)) < 1e-12 * np.max(np.abs(f1))


def test_conjugation_consistency():
    # conjugating f (i <-> -i) conjugates the solution of the lam -> -lam form;
    # equivalently solving with conjugate data through the same operator gives
    # the conjugate of the swapped-component solution
    rng = np.random.default_rng(2)
    n = 17
    lam = 0.07
    f = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    g = np.zeros((n, n), complex)
    u = fd.fd_solve_complex(lam, f, g)
    # conj(u) solves (I - i lam Delta) v = conj(f); verify via residual
    v = np.conj(u)
    res = (v[1:-1, 1:-1] - 1j * lam * fd.lap5(v)) - np.conj(f)[1:-1, 1:-1]
    assert np.max(np.abs(res)) < 1e-11


def test_apply_operator_constant():
    n = 17
    u = np.full((n, n), 3.0)
    out = fd.apply_operator(0.5, u)
    assert np.allclose(out, -6.0, rtol=1e-13)


def test_apply_operator_quadratic_exact():
    n = 17
    X, Y = _lattice(n)
    lap = fd.lap5(X**2 + Y**2)
    assert np.allclose(lap, 4.0, rtol=1e-10)


def test_apply_solve_roundtrip():
    rng = np.random.default_rng(3)
    n = 21
    kappa = 0.09
    u_target = rng.standard_normal((n, n))
    u_target[0, :] = u_target[-1, :] = u_target[:, 0] = u_target[:, -1] = 0.0
    f_full = np.zeros((n, n))
    f_full[1:-1, 1:-1] = fd.apply_operator(kappa, u_target)
    back = fd.fd_solve_scalar(kappa, f_full, np.zeros((n, n)))
    assert np.max(np.abs(back - u_target)) < 1e-10 * np.max(np.abs(u_target))


def test_discrete_maximum_principle():
    rng = np.random.default_rng(4)
    n = 21
    f = -np.abs(rng.standard_normal((n, n)))          # f <= 0
    g = np.abs(rng.standard_normal((n, n)))           # g >= 0
    u = fd.fd_solve_scalar(0.05, f, g)
    assert np.min(u) >= -1e-13


def test_lattice_field_validation():
    with pytest.raises(ValueError, match="square"):
        fd.fd_solve_scalar(0.05, np.zeros((3, 4)), np.zeros((3, 4)))
    with pytest.raises(ValueError, match="square"):
        fd.fd_solve_complex(0.05, np.zeros((5, 5)), np.zeros((4, 4)))


@pytest.mark.parametrize("kind", ["scalar", "complex"])
def test_residual_check_catches_wrong_eigenvalues(kind, monkeypatch):
    # an eigenvalue table 0.1% off must fail the residual check rather than
    # return a wrong field
    n, param = 9, 0.07
    rng = np.random.default_rng(11)
    f = rng.standard_normal((n, n))
    g = np.zeros((n, n))
    good = fd._eigenvalues
    monkeypatch.setattr(fd, "_eigenvalues", lambda *args: 1.001 * good(*args))
    solver = fd.fd_solve_scalar if kind == "scalar" else fd.fd_solve_complex
    with pytest.raises(fd.FdSolverError):
        solver(param, f, g)


def test_importing_the_package_leaves_scipy_sparse_out():
    # every module of the package is imported in a fresh interpreter; none may
    # pull in scipy.sparse, whose import alone costs megabytes of memory
    code = ("import importlib, pkgutil, sys, evokernel, evokernel.cli\n"
            "for m in pkgutil.walk_packages(evokernel.__path__, 'evokernel.'):\n"
            "    importlib.import_module(m.name)\n"
            "assert 'evokernel.fdsolver' in sys.modules\n"
            "print(sorted(k for k in sys.modules if k.startswith('scipy.sparse')))\n")
    paths = [str(Path(fd.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("kind", ["scalar", "complex"])
@pytest.mark.parametrize("n", [1, 2])
def test_lattice_without_interior_is_refused(kind, n):
    solver = fd.fd_solve_scalar if kind == "scalar" else fd.fd_solve_complex
    with pytest.raises(ValueError, match=f"n = {n}"):
        solver(0.05, np.ones((n, n)), np.ones((n, n)))


def _dense_operator(kind, param, n):
    # the (n-2)^2 interior matrix of the 5-point operator, assembled densely
    m = n - 2
    tri = -2.0 * np.eye(m) + np.eye(m, k=1) + np.eye(m, k=-1)
    lap = (np.kron(np.eye(m), tri) + np.kron(tri, np.eye(m))) * (n - 1.0) ** 2
    if kind == "scalar":
        return lap - np.eye(m * m) / param
    return np.eye(m * m) + 1j * param * lap


@pytest.mark.parametrize("kind", ["scalar", "complex"])
@pytest.mark.parametrize("n", [3, 4, 9, 17])
def test_sine_solve_matches_dense_direct_solve(kind, n):
    param = 0.06
    f, g = _batch(kind, (n, n), 20 + n), _batch(kind, (n, n), 40 + n)
    u = (fd.fd_solve_scalar if kind == "scalar" else fd.fd_solve_complex)(param, f, g)
    ring = g.copy()
    ring[1:-1, 1:-1] = 0.0
    rhs = f[1:-1, 1:-1] - fd.apply_operator(param, ring, kind)
    dense = np.linalg.solve(_dense_operator(kind, param, n), rhs.ravel())
    assert np.max(np.abs(u[1:-1, 1:-1].ravel() - dense)) <= 1e-13 * np.max(np.abs(dense))
    ring[1:-1, 1:-1] = u[1:-1, 1:-1]
    assert np.array_equal(u, ring)


@pytest.mark.parametrize("kind", ["scalar", "complex"])
@pytest.mark.parametrize("n", [3, 9, 17])
def test_sine_modes_are_eigenvectors_of_the_operator(kind, n):
    param = 0.06
    X, Y = _lattice(n)
    table = fd._eigenvalues(kind, param, n)
    for i in range(1, n - 1):
        for j in range(1, n - 1):
            mode = np.sin(i * np.pi * X) * np.sin(j * np.pi * Y)
            out = fd.apply_operator(param, mode, kind)
            want = table[i - 1, j - 1] * mode[1:-1, 1:-1]
            assert np.max(np.abs(out - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("kappa", [0.0, -0.05, np.nan, np.inf])
def test_scalar_solve_rejects_non_positive_kappa(kappa):
    zeros = np.zeros((7, 7))
    with pytest.raises(ValueError, match="kappa"):
        fd.fd_solve_scalar(kappa, zeros, zeros)


def _batch(kind, shape, seed):
    rng = np.random.default_rng(seed)
    out = rng.standard_normal(shape)
    return out if kind == "scalar" else out + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("kind", ["scalar", "complex"])
def test_batched_solve_equals_per_field_calls(kind):
    # ring values of g are non-zero, so the boundary correction is exercised
    n, param = 11, 0.06
    f, g = _batch(kind, (2, 3, n, n), 12), _batch(kind, (2, 3, n, n), 13)
    solver = fd.fd_solve_scalar if kind == "scalar" else fd.fd_solve_complex
    batched = solver(param, f, g)
    assert batched.shape == f.shape
    for i in range(2):
        for j in range(3):
            assert np.array_equal(batched[i, j], solver(param, f[i, j], g[i, j]))


@pytest.mark.parametrize("kind", ["scalar", "complex"])
def test_residual_check_catches_one_wrong_field_in_a_batch(kind, monkeypatch):
    n, param = 9, 0.07
    f, g = _batch(kind, (3, n, n), 14), np.zeros((3, n, n))
    good = fd.idstn
    calls = []

    def second_field_wrong(coef, **kw):
        out = good(coef, **kw)
        calls.append(out.shape)
        out[1] *= 1.001
        return out

    monkeypatch.setattr(fd, "idstn", second_field_wrong)
    solver = fd.fd_solve_scalar if kind == "scalar" else fd.fd_solve_complex
    with pytest.raises(fd.FdSolverError):
        solver(param, f, g)
    assert calls == [(3, n - 2, n - 2)]


@pytest.mark.parametrize("kind", ["scalar", "complex"])
def test_apply_operator_batch_equals_per_field_calls(kind):
    u = _batch(kind, (2, 3, 9, 9), 15)
    out = fd.apply_operator(0.08, u, kind)
    assert out.shape == (2, 3, 7, 7)
    for i in range(2):
        for j in range(3):
            assert np.array_equal(out[i, j], fd.apply_operator(0.08, u[i, j], kind))
