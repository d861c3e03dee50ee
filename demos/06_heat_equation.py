"""Heat equation stepped by the elliptic backend.

The classical backend demonstrates the stepper protocol and its orders;
swap in a learned backend (trained as in demos 04/05) through the same
interface.
"""

import numpy as np

from evokernel import evolution as ev

domain = ev.SquareLatticeDomain(n=41, n_bd=64)
backend = ev.ClassicalBackend(domain)
a = b = 1 / np.sqrt(2)

print("backward Euler, T = 1:")
finals = []
for tau in (0.1, 0.05, 0.025):
    prob = ev.heat_family(domain, a, b, tau, int(round(1.0 / tau)))
    res = ev.run_heat(prob, backend, scheme="be")
    finals.append(res.final[0])
    print(f"  tau={tau:<6} rel L2 at T: {res.error_trace[-1]['rel_l2']:.4e}")
print("  observed order:", [f"{o:.2f}" for o in ev.observed_order(finals)])

print("Crank-Nicolson, T = 1:")
finals = []
for tau in (0.1, 0.05, 0.025):
    prob = ev.heat_family(domain, a, b, tau, int(round(1.0 / tau)))
    res = ev.run_heat(prob, backend, scheme="cn")
    finals.append(res.final[0])
    print(f"  tau={tau:<6} rel L2 at T: {res.error_trace[-1]['rel_l2']:.4e}")
print("  observed order:", [f"{o:.2f}" for o in ev.observed_order(finals)])

print("\nper-step error growth (BE, tau=0.1):")
prob = ev.heat_family(domain, a, b, 0.1, 10)
res = ev.run_heat(prob, backend, scheme="be")
for e in res.error_trace:
    print(f"  t={e['t']:.1f}  rel L2 {e['rel_l2']:.3e}")
