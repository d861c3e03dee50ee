"""Wave equation (implicit theta-scheme) and nonlinear Schrodinger (splitting).

Both reduce each time step to the same elliptic solve contract the heat
equation uses; the Schrodinger splitting adds a pointwise nonlinear
Crank-Nicolson stage, solved in closed form and checked by Newton, and a
coupled (complex) linear solve.
"""

from evokernel import evolution as ev
from evokernel.experiments import schrodinger_problem, wave_problem

domain = ev.SquareLatticeDomain(n=41, n_bd=64)
backend = ev.ClassicalBackend(domain)

print("wave, theta = 1/2, a = 0.6, T = 4:")
errs = []
for tau_inv in (4, 8, 16):
    prob = wave_problem(domain, 1.0 / tau_inv, 4 * tau_inv, a=0.6)
    res = ev.run_wave(prob, backend)
    errs.append(ev.trajectory_rel_l2(res))
    print(f"  tau=1/{tau_inv:<3} trajectory rel L2: {errs[-1]:.4e}")
print("  observed order:", [f"{o:.2f}" for o in ev.order_from_errors(errs)])

print("Schrodinger, v = 1 - cos^2 x1 cos^2 x2, w = 1:")
for splitting, taus in (("strang", (0.16, 0.08, 0.04)),
                        ("lie", (0.12, 0.06, 0.03))):
    errs = []
    for tau in taus:
        prob = schrodinger_problem(domain, tau, int(round(1.2 / tau)))
        res = ev.run_schrodinger(prob, backend, splitting=splitting)
        errs.append(ev.trajectory_rel_l2(res))
    orders = [f"{o:.2f}" for o in ev.order_from_errors(errs)]
    print(f"  {splitting:>6}: errors "
          + " ".join(f"{e:.3e}" for e in errs) + f"  orders {orders}")
