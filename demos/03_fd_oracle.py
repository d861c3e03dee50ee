"""Finite-difference reference solves with manufactured solutions.

Shows second-order convergence for the scalar operator and the coupled
(real/imaginary) operator in its complex form.
"""

import numpy as np

from evokernel import fdsolver as fd
from evokernel.experiments import scalar_source_case, system_source_case

kappa = 0.075
u_exact, f_exact = scalar_source_case(kappa)
print("scalar source problem, kappa =", kappa)
prev = None
for n in (21, 41, 81):
    xs = np.linspace(0, 1, n)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    pts = np.stack([X, Y], axis=-1)
    sol = fd.fd_solve_scalar(kappa, f_exact(pts), np.zeros((n, n)))
    err = np.max(np.abs(sol - u_exact(pts)))
    rate = "" if prev is None else f"   order {np.log2(prev / err):.2f}"
    print(f"  n={n:3d}  Linf={err:.3e}{rate}")
    prev = err

lam = 0.1
u1, u2, f1, f2 = system_source_case(lam)
print("coupled problem, lam =", lam)
prev = None
for n in (21, 41, 81):
    xs = np.linspace(0, 1, n)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    pts = np.stack([X, Y], axis=-1)
    sol = fd.fd_solve_complex(lam, f1(pts) + 1j * f2(pts),
                              np.zeros((n, n), complex))
    err = np.max(np.abs(sol - (u1(pts) + 1j * u2(pts))))
    rate = "" if prev is None else f"   order {np.log2(prev / err):.2f}"
    print(f"  n={n:3d}  Linf={err:.3e}{rate}")
    prev = err
