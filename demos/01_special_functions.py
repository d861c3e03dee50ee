"""Evaluate the thin scipy.special wrappers for the Bessel/Kelvin functions.

The fundamental solutions of both elliptic operators in this toolkit are
built from K0, K1 and the Kelvin functions; this script prints a few pinned
values and writes a decay plot.
"""

import numpy as np

from evokernel import specfun as sf
from evokernel.plotting import svg_line

print("K0(1)  =", sf.k0(1.0))
print("K1(1)  =", sf.k1(1.0))
print("ker0(1) =", sf.ker(0, 1.0), "  kei0(1) =", sf.kei(0, 1.0))
print("kei0(0+) =", sf.kei(0, 0.0), " (limit -pi/4 =", -np.pi / 4, ")")

xs = np.linspace(0.05, 12.0, 400)
print("\nmax |d ker0/dx - finite difference| on [0.05, 12]:",
      np.max(np.abs(sf.dker0(xs) - (sf.ker(0, xs + 1e-6)
                                    - sf.ker(0, xs - 1e-6)) / 2e-6)))

svg_line("demo_k0_decay.svg", xs, sf.k0(xs), title="K0 decay", logy=True)
print("wrote demo_k0_decay.svg")
