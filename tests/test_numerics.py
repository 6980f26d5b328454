"""The shared Gauss-Legendre engine, `_numerics.integrate`: ends, singularities, failures."""

import math

import numpy as np
import pytest

from diffcop import special
from diffcop._numerics import integrate
from diffcop.errors import DomainError, NumericsError


@pytest.mark.parametrize("f, exact", [
    (lambda y, _: y ** -0.5, 2.0 * math.sqrt(2.0)),
    (lambda y, _: special.chi2nc_pdf(y, 1.0, 0.0), math.erf(1.0)),   # P(chi2_1 <= 2)
], ids=["inverse_sqrt", "chi2_nu1"])
def test_integrable_singularity_at_an_end_converges(f, exact):
    # both integrands grow like y^(-1/2) at 0, which takes about 125 bisections toward it
    assert float(integrate(f, 0.0, 2.0, 0.0)) == pytest.approx(exact, rel=1e-10, abs=0)


@pytest.mark.parametrize("nu, lam", [(1.0, 0.0), (4.0, 10.0), (25.0, 100.0)])
def test_upper_tail_by_the_half_infinite_map(nu, lam):
    mid = nu + lam
    tail = integrate(lambda z, _: special.chi2nc_pdf(z, nu, lam), mid, np.inf, mid)
    assert float(tail) == pytest.approx(1.0 - special.chi2nc_cdf(mid, nu, lam), rel=1e-10, abs=0)


def test_lower_infinite_end():
    half = integrate(lambda z, _: special.norm_pdf(z), -np.inf, 0.0, -1.0)
    assert float(half) == pytest.approx(0.5, rel=1e-12, abs=0)


def test_reversed_bounds_negate():
    f = lambda y, _: np.exp(-y) * (1.0 + y * y)
    ends = np.array([2.0, 0.5, np.inf])
    forward = integrate(f, 0.0, ends, 0.0)
    np.testing.assert_array_equal(integrate(f, ends, 0.0, 0.0), -forward)
    assert forward[2] == pytest.approx(3.0, rel=1e-11, abs=0)


def test_nonintegrable_singularity_raises():
    with pytest.raises(NumericsError):
        integrate(lambda y, _: 1.0 / y, 0.0, 1.0, 0.0)


def test_two_infinite_ends_are_rejected():
    with pytest.raises(DomainError):
        integrate(lambda y, _: special.norm_pdf(y), -np.inf, np.inf, 0.0)
