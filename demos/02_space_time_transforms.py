"""Space-time transformations and what they do to the copula.

Three experiments:

1. Monotone transformations preserve the copula up to the time change.  The
   chain mapping an Ornstein-Uhlenbeck process into Brownian motion is applied
   and the two copula densities are compared at time-changed pairs, together
   with the square-root chains cir -> rayleigh -> bessel.

2. The drift/diffusion condition for transformability into Brownian motion is
   evaluated: the OU process satisfies it with constant c1 = -alpha,
   c2 = beta/sigma, while the general square-root process fails for every
   constant pair: even the pair fitted by least squares leaves a residual (it
   is transformable into a cir, not into a Wiener process).

3. A non-monotone transformation, |x| applied to Brownian motion, yields the
   reflected process; its copula is assembled from the weighted preimage sum
   and shown to match the closed-form mixture of Gaussian copula kernels.
"""

import math

import numpy as np

from diffcop import (absolute_value, builtin_chain, from_transition, make_model,
                     nonmonotone_copula, preimage_weights, rbm_closed_form,
                     wiener_transformability_check)
from diffcop.stt import search_constant_c1_c2

# 1. monotone chains: same copula after the time change ----------------------
ou_params = {"alpha": 0.8, "beta": 0.5, "sigma": 0.7}
ou = make_model("ou", ou_params, x0=0.3)
chain = builtin_chain("ou_to_bm", **ou_params)
bm = make_model("bm", x0=float(chain.psi(0.0, ou.x0)))

s, t = 0.7, 1.4
c_ou = from_transition(ou, s, t)
c_bm = from_transition(bm, float(chain.phi(s)), float(chain.phi(t)))
grid = np.linspace(0.1, 0.9, 9)
gap = max(abs(float(c_ou.density(u, v)) - float(c_bm.density(u, v)))
          for u in grid for v in grid)
print(f"ou copula vs time-changed Brownian copula: max |difference| = {gap:.2e}")

cir_params = {"alpha": 1.0, "beta": 1.0, "sigma": 0.8}
gamma = 4.0 * cir_params["beta"] / cir_params["sigma"] ** 2
cir = make_model("cir", cir_params, x0=1.2)
to_bessel = builtin_chain("cir_to_bessel", alpha=cir_params["alpha"],
                          sigma=cir_params["sigma"])
bessel = make_model("bessel", {"delta": (gamma - 1.0) / 2.0},
                    x0=2.0 * math.sqrt(1.2) / cir_params["sigma"])
c_cir = from_transition(cir, s, t)
c_bes = from_transition(bessel, float(to_bessel.phi(s)), float(to_bessel.phi(t)))
gap = max(abs(float(c_cir.density(u, v)) - float(c_bes.density(u, v)))
          for u in grid for v in grid)
print(f"cir copula vs time-changed Bessel copula:  max |difference| = {gap:.2e}")

# 2. transformability into Brownian motion -----------------------------------
ok, resid = wiener_transformability_check(
    ou.spec, -ou_params["alpha"], ou_params["beta"] / ou_params["sigma"],
    np.linspace(-2.0, 2.0, 7), np.linspace(0.2, 1.5, 4))
print(f"\nou Brownian-transformability condition: pass={ok}, residual={resid:.2e}")

c1, c2, best = search_constant_c1_c2(cir.spec, np.linspace(0.3, 2.5, 6), [0.5, 1.0])
print(f"cir condition, best constant pair (c1={c1:.2f}, c2={c2:.2f}): "
      f"residual={best:.3f}  -> not Brownian-transformable")

# 3. non-monotone: |BM| -------------------------------------------------------
bm0 = make_model("bm", x0=0.0)
points, weights = preimage_weights(bm0, absolute_value(), 1.0, 0.7)
print(f"\npreimages of q=0.7 under |x| at time 1: {points} with weights {weights}")

reflected = nonmonotone_copula(bm0, absolute_value(), 1.0, 2.0)
closed = rbm_closed_form(1.0, 2.0)
gap = max(abs(float(reflected.density(u, v)) - float(closed.density(u, v)))
          for u in grid for v in grid)
print(f"|BM| copula via weighted preimage sum vs closed form: "
      f"max |difference| = {gap:.2e}")
print(f"reflected-BM copula at (0.5, 0.5): {closed.density(0.5, 0.5):.6f} "
      "(a mixture of two Gaussian copula kernels)")
