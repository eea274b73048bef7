"""Why the coupled system is stable although only two of its four fields
are damped: the rank test.

Dissipation acts on the velocity (viscosity) and the heat flux (damping);
density and temperature only feel it through the transport coupling.  D is
the dissipative part of the symbol, -(M(w) + M(-w))/2, and A its transport
part; the controllability-style rank of [D; DA; DA^2; ...] says whether
every direction eventually feels the dissipation.  Removing the temperature
gradient from the flux law (kappa = 0) hides the combination
gamma * density - temperature from the dissipation; bulk viscosity alone
(mu = 0) leaves the two transverse velocities undamped; removing everything
drops the rank to zero.
"""

import numpy as np

from nsclab.model import ModelSpec, kalman_rank

rng = np.random.default_rng(0)
spec = ModelSpec(kind="nsc", d=3, eps=0.1)

print("healthy system (alpha, kappa, mu > 0):")
for _ in range(5):
    w = rng.standard_normal(3)
    rep = kalman_rank(spec, w / np.linalg.norm(w))
    print(f"  direction {np.round(w/np.linalg.norm(w), 3)}: rank {rep.rank}/8 full={rep.full}")

no_kappa = ModelSpec(kind="nsc", d=3, eps=0.1, kappa=0.0)
rep = kalman_rank(no_kappa, np.array([1.0, 0.0, 0.0]))
print(f"\nkappa = 0: rank {rep.rank}/8, full={rep.full}")
w = rep.witness_direction
print(f"  hidden direction (a, v, theta, q components): {np.round(w, 4)}")
print("  -> the combination gamma*a - theta is invisible to the dissipation,")
print("     matching the conserved quantity of the kappa-free linear flow.")

bulk = ModelSpec(kind="nsc", d=3, eps=0.1, visc_mu=0.0, visc_lam=1.0)
rep = kalman_rank(bulk, np.array([0.0, 0.0, 1.0]))
print(f"\nbulk viscosity only (mu = 0): rank {rep.rank}/8, full={rep.full}")
print("  -> grad div damps the longitudinal velocity alone; the transverse")
print("     velocity is neither damped nor coupled to anything that is.")

dead = ModelSpec(kind="nsc", d=3, eps=0.1, alpha=0.0, visc_mu=0.0, visc_lam=0.0)
rep = kalman_rank(dead, np.array([1.0, 0.0, 0.0]))
print(f"\nall dissipation removed: rank {rep.rank}/8 (no damped directions at all)")
