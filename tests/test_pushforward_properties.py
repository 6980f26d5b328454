"""Property tests of the monotone pushforward over the cir parameter domain.

The catalog rayleigh and bessel kernels (the sqrt map of a cir-family kernel)
must equal the pushforwards of a cir kernel through the catalog chains.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from diffcop import models, stt  # noqa: E402

PS = np.array([1e-6, 1e-3, 0.1, 0.5, 0.9, 1.0 - 1e-3, 1.0 - 1e-6])


def assert_same_kernel(pushed, catalog, s, y, t):
    """pdf/cdf at the pushed quantiles to 1e-10 and the quantiles to 1e-9, relative."""
    x = pushed.quantile(s, y, t, PS)
    np.testing.assert_allclose(catalog.quantile(s, y, t, PS), x, rtol=1e-9, atol=0.0)
    for method in ("pdf", "cdf"):
        np.testing.assert_allclose(getattr(catalog, method)(s, y, t, x),
                                   getattr(pushed, method)(s, y, t, x), rtol=1e-10, atol=0.0)


def cir_model(alpha, gamma, sigma, x0):
    return models.make_model("cir", {"alpha": alpha, "beta": gamma * sigma ** 2 / 4.0,
                                     "sigma": sigma}, x0=x0)


# gamma = 4 beta/sigma^2 is the dimension of the squared process
domain = dict(alpha=st.floats(0.05, 3.0), sigma=st.floats(0.2, 2.0), x0=st.floats(0.05, 5.0),
              s=st.floats(0.05, 2.0), lag=st.floats(0.05, 3.0))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(gamma=st.floats(0.1, 12.0), **domain)
def test_rayleigh_is_the_pushed_cir(alpha, gamma, sigma, x0, s, lag):
    # Y = 2 sqrt(X)/sigma solves dY = (a/Y + b Y) dt + dB, a = (gamma - 1)/2, b = -alpha/2
    pushed = stt.push_transition(cir_model(alpha, gamma, sigma, x0),
                                 stt.builtin_chain("cir_to_rayleigh", sigma=sigma))
    rayleigh = models.make_model("rayleigh", {"a": (gamma - 1.0) / 2.0, "b": -alpha / 2.0},
                                 x0=pushed.x0)
    assert_same_kernel(pushed.kernel, rayleigh.kernel, s, pushed.x0, s + lag)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(gamma=st.floats(1.05, 12.0), **domain)
def test_bessel_is_the_pushed_cir(alpha, gamma, sigma, x0, s, lag):
    # the chain runs on tau = (e^{alpha t} - 1)/alpha, with Bessel drift delta = (gamma - 1)/2
    chain = stt.builtin_chain("cir_to_bessel", alpha=alpha, sigma=sigma)
    pushed = stt.push_transition(cir_model(alpha, gamma, sigma, x0), chain)
    bessel = models.make_model("bessel", {"delta": (gamma - 1.0) / 2.0}, x0=pushed.x0)
    y = float(chain.psi(s, 1.1 * x0))
    assert_same_kernel(pushed.kernel, bessel.kernel, chain.phi(s), y, chain.phi(s + lag))
