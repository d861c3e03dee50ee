"""Classical boundary-integral solve on the unit disk.

Takes the trace of a known homogeneous solution, solves the second-kind
integral equation for the density, evaluates the double-layer field inside,
and prints the error decay as the node count doubles.
"""

import numpy as np

from evokernel import bie, kernels
from evokernel.experiments import scalar_boundary_solution
from evokernel.geometry import make_curve, sample_quadrature

kappa = 0.05
curve = make_curve("disk", radius=1.0)
u = scalar_boundary_solution(kappa)
spec = kernels.ScalarKernelSpec(kappa)

rr, th = np.meshgrid(np.linspace(0.1, 0.8, 8),
                     np.linspace(0, 2 * np.pi, 16, endpoint=False))
pts = np.stack([(rr * np.cos(th)).ravel(), (rr * np.sin(th)).ravel()], 1)

print(f"kappa = {kappa}, test solution max inside: {np.abs(u(pts)).max():.2f}")
print(f"{'n_bd':>6} {'abs Linf':>12} {'rel Linf':>12}")
for n in (32, 64, 128, 256, 512):
    grid = sample_quadrature(curve, n)
    km = kernels.boundary_kernel(spec, grid)
    phi = bie.nystrom_solve(km, u(grid.points))
    field = bie.eval_double_layer(spec, grid, phi, pts)
    err = np.max(np.abs(field - u(pts)))
    print(f"{n:>6} {err:>12.3e} {err / np.abs(u(pts)).max():>12.3e}")
print("\nthe parametrized kernel is C^1 at the diagonal (r^2 log r term),")
print("so the plain trapezoid scheme converges at third order: ~8x per row.")
