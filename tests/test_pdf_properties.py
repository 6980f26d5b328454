"""Property test of the noncentral chi-square density against mpmath.

`special.chi2nc_pdf` takes the scaled Bessel form above lam = 50 and Boost's
density below (see `special._pdf`); the form's Bessel factor is scipy's ``ive``
below the order ``_DEBYE_MIN_ORDER`` and the uniform expansion from it on.
Over nu up to the form's bound and lam up to 1e5, from mean + 8 sd down to
z = 1e-8, it must agree with mpmath to 1e-12 relative wherever the true
density is a normal double.  On an outer mesh `special._pdf` sums the Poisson
mixture as one matrix product (`special._mesh_pdf`); that route must agree with
the per-element ones to 1e-12, or with mpmath where they are off.
"""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from diffcop import special  # noqa: E402
from test_special import mp_chi2nc_pdf  # noqa: E402

NU_MAX = special._BESSEL_MAX_NU
NU_DEBYE = 2.0 * (special._DEBYE_MIN_ORDER + 1.0)      # the order a = nu/2 - 1 meets the threshold
TINY = np.finfo(float).tiny


def spread(nu, lam, bulk, tail):
    """z at mean + k sd for k in ``bulk``, and log-uniform from 1e-8 up to mean - 8 sd."""
    mean, sd = nu + lam, math.sqrt(2.0 * nu + 4.0 * lam)
    lo = max(mean - 8.0 * sd, 2e-8)
    z = [max(mean + k * sd, 1e-8) for k in bulk] + [1e-8 * (lo / 1e-8) ** u for u in tail]
    return np.array(z)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(nu=st.floats(0.3, NU_MAX),
       lam=st.one_of(st.just(0.0), st.just(50.0), st.floats(-3.0, 5.0).map(lambda e: 10.0 ** e)),
       bulk=st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=4),
       tail=st.lists(st.floats(0.0, 1.0), max_size=4))
def test_pdf_matches_mpmath(nu, lam, bulk, tail):
    z = spread(nu, lam, bulk, tail)
    got = special.chi2nc_pdf(z, nu, lam)
    with mp.workdps(30):
        ref = np.array([float(mp_chi2nc_pdf(zi, nu, lam)) for zi in z])
    normal = (ref >= TINY) & np.isfinite(ref)
    np.testing.assert_allclose(got[normal], ref[normal], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("nu", [0.3, 1.0, 2.0, 6.25, 25.0, 100.0, 625.0, NU_MAX])
def test_routes_meet_at_lam_50(nu):
    # Boost at lam = 50, the Bessel form just above.  Within 1 sd of the mean the
    # density itself moves by at most 3.6e-12 between the two (mpmath).
    z = spread(nu, 50.0, np.linspace(-1.0, 1.0, 9), [])
    below = special.chi2nc_pdf(z, nu, 50.0)
    above = special.chi2nc_pdf(z, nu, 50.0 * (1.0 + 1e-12))
    np.testing.assert_allclose(above, below, rtol=1e-11, atol=0.0)


@pytest.mark.parametrize("nu, lam", [(5000.0, 60.0), (2e4, 1e4), (1.0, 1e6), (NU_MAX, 51.0)])
def test_no_warnings_where_ive_underflows(nu, lam):
    # ive underflows at a large order and a small argument; the scaled form
    # must hand those elements to Boost without a floating-point warning
    z = np.concatenate([[0.0], spread(nu, lam, np.linspace(-8.0, 8.0, 33),
                                      np.linspace(0.0, 1.0, 9))])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f = special.chi2nc_pdf(z, nu, lam)
        df = special._chi2nc_pdf_dz(z, nu, lam)
    assert np.all(np.isfinite(f[1:]) & (f[1:] >= 0.0)) and np.all(np.isfinite(df[1:]))


@pytest.mark.parametrize("nu", [np.nextafter(NU_DEBYE, 0.0), NU_DEBYE, 1.05 * NU_DEBYE])
@pytest.mark.parametrize("lam", [60.0, 1e3, 1e5])
def test_pdf_matches_mpmath_at_the_debye_order(nu, lam):
    # ive one ulp of nu below the threshold, the uniform expansion at and above it;
    # sqrt(lam z) from 1e-5, where ive underflows, to 1e5 (lam z = 1e10), and the bulk
    z = np.concatenate([np.geomspace(1e-5, 1e5, 41) ** 2 / lam,
                        spread(nu, lam, np.linspace(-8.0, 8.0, 9), [])])
    got = special.chi2nc_pdf(z, nu, lam)
    with mp.workdps(30):
        ref = np.array([float(mp_chi2nc_pdf(zi, nu, lam)) for zi in z])
    normal = ref >= TINY
    assert normal.sum() >= 10
    np.testing.assert_allclose(got[normal], ref[normal], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("lam", [50.0 * (1.0 + 1e-12), 300.0, 1e3, 1e5])
def test_routes_meet_at_the_debye_order(lam):
    # ive one ulp of nu below the order threshold, the uniform expansion at it.  From
    # z = 1e-8 to mean + 8 sd the density moves by at most 8.2e-14 between the two
    # (mpmath), and the routes differed by at most 2.3e-13.
    below = np.nextafter(NU_DEBYE, 0.0)
    assert 0.5 * below - 1.0 < special._DEBYE_MIN_ORDER == 0.5 * NU_DEBYE - 1.0
    z = spread(NU_DEBYE, lam, np.linspace(-8.0, 8.0, 17), np.linspace(0.0, 1.0, 9))
    at, under = special.chi2nc_pdf(z, NU_DEBYE, lam), special.chi2nc_pdf(z, below, lam)
    normal = under >= TINY
    np.testing.assert_allclose(at[normal], under[normal], rtol=1e-12, atol=0.0)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(nu=st.floats(0.3, 1000.0), lam_hi=st.floats(-2.0, 3.3),
       lam_decades=st.floats(0.0, 3.0), z_sd=st.floats(-8.0, 8.0),
       z_decades=st.floats(0.01, 6.0))
def test_mesh_matches_elements(nu, lam_hi, lam_decades, z_sd, z_decades):
    # the mesh route of `special._pdf` against the per-element routes on 19 x 17 meshes:
    # lam up to 2000, and up to 50 where larger lam takes the Debye route; z from its top,
    # mean + z_sd sd of the largest lam, down z_decades decades (not below 1e-8)
    top = 10.0 ** lam_hi
    if nu >= 2.0 * (special._DEBYE_MIN_ORDER + 1.0):
        top = min(top, special._BESSEL_MIN_LAM)
    lam = np.geomspace(top * 10.0 ** -lam_decades, top, 17)[None, :]
    z_top = max(nu + top + z_sd * math.sqrt(2.0 * nu + 4.0 * top), 1e-6)
    z = np.geomspace(max(z_top * 10.0 ** -z_decades, 1e-8), z_top, 19)[:, None]
    route = special._mesh_pdf(z, nu, lam)
    assume(route is not None)                    # every q above the route's
    mesh, redo = route
    each = special._pdf_elements(z, nu, lam)
    np.testing.assert_array_equal(special._pdf(z, nu, lam)[redo], each[redo])
    with np.errstate(divide="ignore", invalid="ignore"):
        apart = ~redo & ~(np.abs(mesh / each - 1.0) <= 1e-12)
    # where the per-element route is itself off (up to 1.1e-12 at nu near 1000, far in
    # the left tail), the mesh must be right
    with mp.workdps(30):
        for i, j in zip(*np.nonzero(apart)):
            ref = float(mp_chi2nc_pdf(z[i, 0], nu, lam[0, j]))
            assert mesh[i, j] == pytest.approx(ref, rel=1e-12, abs=0)

