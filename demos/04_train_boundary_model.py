"""Train a small boundary-density model and compare it to the classical solve.

A reduced run for demonstration (a few minutes); `evokernel train` defaults
to 20000 epochs at n_bd = 256.
"""

import numpy as np

from evokernel import bie, datagen, kernels, training
from evokernel.experiments import scalar_boundary_solution
from evokernel.geometry import make_curve, sample_quadrature, square_lattice

n_bd = 128
kappas = np.linspace(0.05, 0.1, 11)
grid = sample_quadrature(make_curve("square"), n_bd)
print("building boundary dataset (self-supervised: traces only, no labels)")
ds = datagen.build_boundary_dataset(kappas, 400, grid, seed=11,
                                    length_scales=(0.1, 0.2, 0.4, 0.8))
kmats = [kernels.boundary_kernel(kernels.ScalarKernelSpec(float(k)), grid)
         for k in kappas]

cfg = training.TrainConfig(epochs=4000, batch_size=128, seed=1)
model, info = training.train_boundary_model(cfg, ds, kmats)
print(f"trained in {info['train_seconds']:.0f}s, final residual loss "
      f"{info['final_loss']:.2e}")

kap = 0.067  # not in the training set
spec = kernels.ScalarKernelSpec(kap)
km = kernels.boundary_kernel(spec, grid)
u = scalar_boundary_solution(kap)
g = u(grid.points)
phi_model = model.predict(kap, g)
phi_oracle = bie.nystrom_solve(km, g)
print("density rel L2 vs classical solve:",
      np.linalg.norm(phi_model - phi_oracle) / np.linalg.norm(phi_oracle))

egrid = square_lattice(16, 0.05, 0.95)
field = bie.eval_double_layer(spec, grid, phi_model, egrid.points)
ref = u(egrid.points)
print("interior rel L2 vs exact solution:",
      np.linalg.norm(field - ref) / np.linalg.norm(ref))
