"""Strong convergence to the instantaneous Fourier-law limit.

The relaxing system and its limit are evolved from the same density,
velocity and temperature data; the heat flux starts ill-prepared (fixed
energy eps*q0, so the damped mode starts at size 1/eps).  The error
functional -- low-frequency sup/L1 norms of the difference plus the
time-integrated damped mode -- scales linearly in eps, even though the
flux data is as hostile as the energy norm allows.  Well-prepared flux
data does strictly better at every eps.

Writes demos/output/relax.dat with (eps, xtilde, xtilde_well_prepared).
"""

from pathlib import Path

import numpy as np

from nsclab.model import ModelSpec
from nsclab.spectral import Grid, State, random_field
from nsclab.studies import fit_loglog, relax_sweep

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

rng = np.random.default_rng(2)
grid = Grid(d=2, n=32)
mk = lambda: random_field(grid, rng, 1e-2, 3.0)
base = State(a=mk(), v=(mk(), mk()), theta=mk(), q=(mk(), mk()))

eps_list = [1e-1, 3e-2, 1e-2, 3e-3]
rep = relax_sweep(base, ModelSpec(kind="nsc", d=2), eps_list, T=4.0)

print("eps        error functional   well-prepared")
for eps, x, w in zip(rep.eps_values, rep.xtilde_values, rep.well_prepared_values):
    print(f"{eps:8.3g}   {x:14.6e}   {w:14.6e}")
print(f"\nfitted slope of the error vs eps: {rep.slope_fitted:.4f}  (linear rate)")
wp_slope, _, _ = fit_loglog(rep.eps_values, rep.well_prepared_values)
print(f"well-prepared slope: {wp_slope:.3f}  (the layer is absent, the rate improves)")

with open(OUT / "relax.dat", "w") as fh:
    fh.write("# eps xtilde xtilde_well_prepared\n")
    for eps, x, w in zip(rep.eps_values, rep.xtilde_values, rep.well_prepared_values):
        fh.write(f"{eps:.17g} {x:.17g} {w:.17g}\n")
print(f"series written to {OUT/'relax.dat'}")
