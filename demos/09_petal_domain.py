"""Geometry and classical machinery on the petal-shaped domain.

Shows the parametrization, boundary quadrature convergence, interior point
sampling, and a manufactured boundary-driven solve; learned models for this
domain come from the source-offlattice dataset kind.
"""

import numpy as np

from evokernel import bie, kernels
from evokernel.geometry import make_curve, petal_lattice, sample_quadrature

curve = make_curve("petal")
print("petal boundary: r(theta) = 0.6 (1 + 0.25 sin 6 theta)")
print("gamma(0) =", curve.point(0.0), "  gamma(pi/2) =", curve.point(np.pi / 2))

for n in (64, 128, 256):
    print(f"  n_bd={n:4d}  length estimate {sample_quadrature(curve, n).length_estimate():.12f}")

interior = petal_lattice(curve, spacing=0.03)
print("interior lattice points (spacing 0.03, margin one spacing):", interior.m)

# boundary-driven manufactured solve: trace of a plane-wave-type homogeneous
# solution of the kappa operator
kappa = 0.08
c = np.sqrt(1 + 1 / kappa)
u = lambda p: np.exp(-c * p[..., 0]) * np.sin(p[..., 1])
spec = kernels.ScalarKernelSpec(kappa)
for n in (128, 256):
    grid = sample_quadrature(curve, n)
    km = kernels.boundary_kernel(spec, grid)
    phi = bie.nystrom_solve(km, u(grid.points))
    field = bie.eval_double_layer(spec, grid, phi, interior.points)
    err = np.max(np.abs(field - u(interior.points)))
    print(f"  n_bd={n:4d}  interior Linf error {err:.3e}")
