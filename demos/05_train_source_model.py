"""Train a small source-operator model against solver labels.

Reduced sizes for a quick demonstration; the output is exactly linear in the
source field by construction, so amplitude scaling is exact and only the
shape of the source matters.
"""

import numpy as np

from evokernel import datagen, training
from evokernel.experiments import EVAL_SUITES
from evokernel.geometry import square_lattice

n = 21
kappas = np.linspace(0.05, 0.1, 11)
print("building supervised dataset (lattice solver labels)")
ds = datagen.build_source_dataset(kappas, 300, n, seed=13)
pts = square_lattice(n).points

cfg = training.TrainConfig(epochs=4000, batch_size=64, seed=2,
                           hidden_k=(96, 96), hidden_g=(96, 96))
model, info = training.train_source_model(cfg, ds, pts)
print(f"trained in {info['train_seconds']:.0f}s, final MSE "
      f"{info['final_loss']:.2e}")

for row in EVAL_SUITES["scalar-source"](model, [0.055, 0.075, 0.095]):
    print(f"  {row['case']}: rel L2 {row['rel_l2']:.4f}")

f = np.random.default_rng(0).standard_normal((2, n * n))
lhs = model.predict(0.07, 3.0 * f[0] - 2.0 * f[1])
rhs = 3.0 * model.predict(0.07, f[0]) - 2.0 * model.predict(0.07, f[1])
print("exact linearity in f (max abs gap):", np.max(np.abs(lhs - rhs)))
