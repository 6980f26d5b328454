"""The uniformized process: its SDE coefficients and its transition law.

The pointwise probability integral transform U_t = F_t(X_t) of a diffusion is
again an Ito diffusion on (0, 1) with uniform marginals; its transition
density IS the copula density of the original process.  This script

  * evaluates the uniformized drift and diffusion coefficient of a stationary
    Ornstein-Uhlenbeck process (closed form) and of a square-root process,
  * simulates the uniformized process exactly (exact kernel draws pushed
    through the marginal CDF, never an Euler scheme on the degenerate SDE),
  * compares the empirical copula of simulated pairs against the analytic
    surface, and
  * checks the backward-equation residual of the analytic conditional law,
    including the independence density as a negative control.
"""

import numpy as np

from diffcop import (gaussian_closed_form, independence_surface, make_model,
                     cell_masses, empirical_copula, kolmogorov_copula_residual,
                     ks_statistic, ou_closed_form, simulate_uniformized,
                     stationary_uniformized_coefficients, uniformized_coefficients)

# coefficients ---------------------------------------------------------------
ou = make_model("ou", {"alpha": 1.0, "beta": 0.0, "sigma": np.sqrt(2.0)}, x0=0.5)
print("stationary OU (standard-normal law), uniformized coefficients:")
us = np.array([0.1, 0.3, 0.5, 0.7, 0.9])
for u, mu, sg in zip(us, *stationary_uniformized_coefficients(ou, us)):
    print(f"  u={u:.1f}: drift {mu:+.4f}, diffusion {sg:.4f}")

cir = make_model("cir", {"alpha": 1.0, "beta": 1.0, "sigma": 0.8}, x0=1.2)
mu, sg = uniformized_coefficients(cir, 0.5, 1.0)
print(f"square-root process at (u=0.5, s=1): drift {mu:+.4f}, diffusion {sg:.4f}")

# exact simulation and the empirical copula ----------------------------------
model = make_model("ou", {"alpha": 1.0, "beta": 0.5, "sigma": 0.9}, x0=0.2)
s, t = 0.5, 1.0
ens = simulate_uniformized(model, [s, t], 200_000, seed=11)
for i, time in enumerate(ens.times):
    ks = ks_statistic(ens.paths[:, i], lambda x: x)
    print(f"uniform marginal at t={time}: KS = {ks:.4f}")

surface = ou_closed_form(1.0, s, t)
ec = empirical_copula(ens.paths[:, 0], ens.paths[:, 1])
emp = ec.binned_density(10)
exact = cell_masses(surface, 10) * 100.0
print(f"binned density vs analytic copula (10x10): "
      f"mean abs cell error = {np.mean(np.abs(emp - exact)):.4f}")

# backward-equation residual ---------------------------------------------------
bm = make_model("bm", x0=0.0)
surf = gaussian_closed_form(1.0, 2.0)
good = kolmogorov_copula_residual(surf, bm)
bad = kolmogorov_copula_residual(independence_surface((1.0, 2.0)), bm)
print(f"\nbackward-equation residual, Brownian conditional: {good:.2e}")
print(f"backward-equation residual, independence density:  {bad:.3f} "
      "(negative control, correctly rejected)")
