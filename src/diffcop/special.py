"""Special-function kernels: Gaussian law, modified Bessel I_a, noncentral chi-square.

The noncentral chi-square cdf and quantile are validated wrappers over
scipy's compiled ``scipy.special.chndtr`` and ``scipy.special.chndtrix``.
The density, `chi2nc_pdf`, takes one of two routes per element (`_pdf`):

* lam <= 50: the Boost density behind ``scipy.stats.ncx2``,
  ``scipy.special._ufuncs._ncx2_pdf``, at 0.03-1.3 us per element.  That
  private symbol is reached directly because importing ``scipy.stats`` would
  add about half to the time and 15 MB to the memory of ``import diffcop``.
* lam > 50 and nu <= 1000: the Bessel form of the density,

      f(z; nu, lam) = 1/2 exp(-(z+lam)/2) (z/lam)^{(nu-2)/4} I_{(nu-2)/2}(sqrt(lam z)),

  evaluated in logs with scipy's exponentially scaled Amos routine ``ive``
  (Amos, ACM TOMS 12, 1986), at 0.2-0.6 us per element whatever lam is.
  Boost sums the Poisson mixture outward from its mode there (Benton &
  Krishnamoorthy, Comput. Stat. Data Anal. 43, 2003), at 0.6-1 us per element
  at lam = 60, 3 us at 1e4 and 26 us at 1e6.  Where ``ive`` underflows (a
  large order at a small argument), the form is summed as a 0F1 series in logs.

Far in the left tail Boost's series starts from a term that underflows: it
returned exactly 0 for normal doubles such as 9.6e-23 at (nu, lam, z) =
(2, 100, 1e-5) and 4.7e-205 at (1, 1000, 1), and nonzero values below 1e-140
off by up to 66% at lam <= 50.  Its values below 1e-100 are therefore taken from
the Bessel form, so the left tail no longer underflows to 0.  For nu <= 1000,
lam <= 1e5 and z from 1e-8 to mean + 8 sd the density is within 1e-12
relative of mpmath wherever it is a normal double (worst seen 4.6e-13); above
nu = 1000 every element is Boost's.

The same Bessel form summed in linear arithmetic by `bessel_i`
(`chi2nc_pdf_bessel_form`) is kept as an independent route, and the
validation suite cross-checks the two at lam up to 200.

`chi2nc_quantile` has one fixed-law path for many probabilities of one law
(scalar ``lam``, at least ``_FIXED_LAW_MIN_SIZE`` points): the fast numerical
inversion of Hoermann & Leydold (ACM TOMACS 13, 2003), the idea behind
scipy's PINV, which lives under ``scipy.stats``.  It tabulates log x against
z = Phi^{-1}(p) at nodes ``_FIXED_LAW_DZ`` apart across the request's z range,
solving each node with ``chndtrix`` and taking its slope phi(z) / (f(x) x)
from the density.  Each point then takes the cubic Hermite value of that
table and one Newton step, with one ``chndtr`` call and the interpolant's own
slope.  One more ``chndtr`` call checks the root: it is kept only when
|F(x) - p| <= 1e-12 min(p, 1 - p) and the step that residual implies (or one
ulp of p, if larger) is at most 1e-13 x.  Every other root, such as one in
the far upper tail where F is flat in double precision, comes from
``chndtrix``, and so does the whole call when the table is not strictly
increasing.  Array ``lam`` and smaller requests always use ``chndtrix``.

All functions accept scalars or ndarrays in their principal argument and are
pure; the noncentral chi-square functions also broadcast an array ``lam``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import chndtr, chndtrix, erfc, gammaln, ive, ndtr, ndtri
from scipy.special._ufuncs import _ncx2_pdf

from .errors import DomainError, NumericsError

__all__ = [
    "norm_pdf", "norm_cdf", "norm_quantile",
    "bessel_i",
    "chi2nc_pdf", "chi2nc_cdf", "chi2nc_quantile", "chi2nc_pdf_bessel_form",
]

_SQRT2 = math.sqrt(2.0)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_SERIES_REL_TOL = 1e-14           # the Bessel series stops at a term this small against its sum
_SERIES_MAX_TERMS = 200


def _principal(z, name: str, allow_inf: bool = False):
    """Validate the principal argument; returns (array, was_scalar)."""
    arr = np.asarray(z, dtype=float)
    scalar = arr.ndim == 0
    if not allow_inf and not np.isfinite(arr).all():      # the method skips np.all's dispatch
        raise DomainError(f"{name} must be finite")
    return np.atleast_1d(arr), scalar


def _unwrap(out: np.ndarray, scalar: bool):
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# Gaussian law
# ---------------------------------------------------------------------------

def norm_pdf(z):
    """Standard normal density (2*pi)^(-1/2) exp(-z^2/2)."""
    arr, scalar = _principal(z, "z")
    return _unwrap(np.exp(-0.5 * arr * arr - _LOG_SQRT_2PI), scalar)


def norm_cdf(z):
    """Standard normal distribution function, accurate to machine precision."""
    arr, scalar = _principal(z, "z")
    return _unwrap(0.5 * erfc(-arr / _SQRT2), scalar)


def norm_quantile(p):
    """Inverse of `norm_cdf` on (0, 1), exact to machine precision.

    Backed by the machine-accurate erf inverse (``scipy.special.ndtri``) over
    the whole open interval, tails included; the test suite validates it
    against plain bisection on `norm_cdf`.
    """
    arr, scalar = _principal(p, "p")
    if (arr <= 0.0).any() or (arr >= 1.0).any():        # the methods skip np.any's dispatch
        raise DomainError("p must lie in the open interval (0, 1)")
    return _unwrap(ndtri(arr), scalar)


# ---------------------------------------------------------------------------
# Modified Bessel function of the first kind
# ---------------------------------------------------------------------------

def bessel_i(a: float, z):
    """Modified Bessel function I_a(z) by direct series summation.

        I_a(z) = sum_m (1 / (m! Gamma(m+a+1))) (z/2)^(2m+a)

    Terms are accumulated with the ratio recurrence and the series stops once
    a term falls below 1e-14 times the partial sum; `NumericsError` if that
    takes over 200 terms.  Orders a >= -1 are supported (I_{-1} = I_1);
    arguments must satisfy z >= 0.
    """
    if a < -1.0:
        raise DomainError("order a must satisfy a >= -1")
    if a == -1.0:
        return bessel_i(1.0, z)
    arr, scalar = _principal(z, "z")
    if np.any(arr < 0.0):
        raise DomainError("z must be nonnegative")

    out = np.empty_like(arr)
    zero = arr == 0.0
    if np.any(zero):
        out[zero] = 1.0 if a == 0.0 else (0.0 if a > 0.0 else np.inf)
    pos = ~zero
    if np.any(pos):
        zp = arr[pos]
        with np.errstate(divide="ignore"):
            lead = np.exp(a * np.log(zp / 2.0) - gammaln(a + 1.0))
        out[pos] = lead * _hyp0f1(a + 1.0, zp * zp / 4.0, _SERIES_REL_TOL)
    return _unwrap(out, scalar)


def _hyp0f1(b: float, q: np.ndarray, rel_tol: float) -> np.ndarray:
    """sum_m q^m / (m! (b)_m) for b > 0, q >= 0, by the term ratio q / (m (b + m - 1)).

    Stops once every term falls below ``rel_tol`` times its partial sum;
    `NumericsError` if that takes over 200 terms.
    """
    term = np.ones_like(q)
    total = term.copy()
    for m in range(1, _SERIES_MAX_TERMS + 1):
        term = term * q / (m * (b + m - 1.0))
        total += term
        if np.all(term <= rel_tol * total):
            return total
    raise NumericsError("Bessel series did not converge; argument too large")


# ---------------------------------------------------------------------------
# Noncentral chi-square family
# ---------------------------------------------------------------------------

def _validate_nu_lambda(nu: float, lam) -> np.ndarray:
    """Check nu > 0 and every lam >= 0; returns lam as an array."""
    if not (np.isfinite(nu) and nu > 0.0):
        raise DomainError("degrees of freedom nu must be positive")
    lam = np.asarray(lam, dtype=float)
    if not np.all(np.isfinite(lam) & (lam >= 0.0)):
        raise DomainError("noncentrality lambda must be nonnegative")
    return lam


# `_pdf` takes the Bessel form for lam above this.  Boost leaves its own Bessel
# form for its Poisson series there, and its cost jumps.  Per element, 2-vCPU
# x86-64, scipy 1.17.1, 2e4 points across mean +- 5 sd, best of 7, two runs,
# nu = 1, 6.25, 625:
#   lam = 20:   Boost 0.27-0.78 us, scaled form 0.37-0.56 us;
#   lam = 50:   Boost 0.34-1.31 us, scaled form 0.28-0.55 us;
#   lam = 60:   Boost 0.64-0.96 us, scaled form 0.25-0.58 us;
#   lam = 1e4:  Boost 2.9-3.2 us,   scaled form 0.23-0.46 us;
#   lam = 1e6:  Boost 26-27 us,     scaled form 0.17-0.32 us.
# Below lam = 50 the form costs up to 9x Boost's time: 0.47 against 0.05 us at
# nu = 2, lam = 5, and 1.5 against 0.5 us at nu = 100, lam = 20.
_BESSEL_MIN_LAM = 50.0
# ...and for nu up to this.  Worst relative error of the scaled form against
# mpmath at 25 points from z = 1e-8 to mean + 8 sd, lam from 50 to 1e5: 1.9e-13
# up to nu = 625, 2.9e-13 at 1000, 2.3e-13 at 2000, 6.2e-13 at 3000.  From
# nu = 2000 on, ive underflows across the bulk for lam up to 100, so the form
# would only add its cost to Boost's.  Above this bound every element is Boost's.
# (Random sweeps of `chi2nc_pdf`, 6300 points with nu in [0.3, 1000], lam in
# [0, 1e5]: worst 4.6e-13 where the density is a normal double.)
_BESSEL_MAX_NU = 1000.0
# Boost's values below this are recomputed by the Bessel form.  Far in the left
# tail its Poisson series starts from a term that underflows, or its Bessel branch
# multiplies by an I_a that does.  Of 4683 points at lam <= 50, nu <= 1000, z from
# 1e-8 to the mean, 129 were off by more than 1e-12 (106 of them exactly 0), all
# below 5e-147.
_BOOST_MIN_PDF = 1e-100
_TINY = np.finfo(float).tiny


def _bessel_form(z, nu: float, lam):
    """The density from its Bessel form in logs; NaN where it is not finite and positive.

    With a = nu/2 - 1 and the exponentially scaled ``ive``,

        f = 1/2 exp(a/2 log(z/lam) - (sqrt z - sqrt lam)^2 / 2) ive(a, sqrt(lam z)),

    sqrt z - sqrt lam taken as (z - lam)/(sqrt z + sqrt lam).  Where ``ive`` is not
    a normal double (a large order at a small argument) or that is not finite,
    the same density is summed as

        f = 1/2 exp(a log(z/2) - (z + lam)/2 - ln Gamma(a + 1)) 0F1(; a + 1; lam z / 4),

    whose series needs few terms there and is the central law at lam = 0.
    """
    a = 0.5 * nu - 1.0
    with np.errstate(all="ignore"):
        # in place where it can be: at most two arrays of the broadcast size live at once
        rz, rl = np.sqrt(z), np.sqrt(lam)
        out = np.asarray(np.add(rz, rl))
        np.divide(np.subtract(z, lam), out, out=out)
        out *= out
        out *= -0.5
        t = np.asarray(np.divide(z, lam))
        np.log(t, out=t)
        t *= 0.5 * a
        out += t
        ive(a, np.multiply(rz, rl, out=t), out=t)
        low = ~(t >= _TINY)
        out += np.log(t, out=t)
        del t
        np.exp(out, out=out)
        out *= 0.5
        low |= ~(out < np.inf)
        if low.any():
            zl, ll = (np.broadcast_to(v, out.shape)[low] for v in (z, lam))
            out[low] = 0.5 * np.exp(a * np.log(0.5 * zl) - 0.5 * (zl + ll) - gammaln(a + 1.0)
                                    + np.log(_hyp0f1(a + 1.0, 0.25 * ll * zl, 1e-16)))
        out[~((out > 0.0) & (out < np.inf))] = np.nan
    return out


def _pdf(z, nu: float, lam):
    """The noncentral chi-square density at z >= 0, broadcasting ``lam``.

    Up to nu = ``_BESSEL_MAX_NU``, elements with lam > ``_BESSEL_MIN_LAM`` take
    `_bessel_form` and the others Boost's ``_ncx2_pdf``.  Boost's values below
    ``_BOOST_MIN_PDF`` are replaced by the form's where that is finite and
    positive, and the form's NaNs by Boost's values.  Nothing is copied when
    every element takes one route and no value needs the other.
    """
    z, lam = np.asarray(z, dtype=float), np.asarray(lam, dtype=float)
    if nu > _BESSEL_MAX_NU:
        return _ncx2_pdf(z, nu, lam)
    bessel = lam > _BESSEL_MIN_LAM
    if not bessel.any():
        out = np.asarray(_ncx2_pdf(z, nu, lam))
        redo = out < _BOOST_MIN_PDF
    elif bessel.all():
        out = _bessel_form(z, nu, lam)
        redo = np.isnan(out)
    else:
        zb, lb = np.broadcast_arrays(z, lam)
        bessel = np.broadcast_to(bessel, zb.shape)
        out = np.empty(zb.shape)
        out[bessel] = _bessel_form(zb[bessel], nu, lb[bessel])
        out[~bessel] = _ncx2_pdf(zb[~bessel], nu, lb[~bessel])
        redo = np.where(bessel, np.isnan(out), out < _BOOST_MIN_PDF)
    if redo.any():
        zb, lb = np.broadcast_arrays(z, lam)
        zr, lr, br = zb[redo], lb[redo], np.broadcast_to(bessel, zb.shape)[redo]
        alt = np.where(br, _ncx2_pdf(zr, nu, lr), _bessel_form(zr, nu, lr))
        out[redo] = np.where(np.isnan(alt), out[redo], alt)
    return out


def chi2nc_pdf(z, nu: float, lam):
    """Noncentral chi-square density with ``nu`` d.o.f. and noncentrality ``lam``.

    ``lam`` may be an array broadcasting against ``z``.  Elements with
    lam <= 50 (or nu > 1000) take Boost's density, the others the scaled
    Bessel form, and Boost's values below 1e-100 come from the form too (see
    the module docstring): within 1e-12 relative for nu <= 1000 into the far
    left tail.  At z = 0 the density diverges for nu < 2 (returns ``inf``),
    equals ``exp(-lam/2)/2`` for nu = 2 and vanishes for nu > 2.
    """
    lam = _validate_nu_lambda(nu, lam)
    arr, scalar = _principal(z, "z")
    if np.any(arr < 0.0):
        raise DomainError("z must be nonnegative")
    out = _pdf(arr, nu, lam)
    zero = arr == 0.0
    if np.any(zero):
        # Boost returns 0 at the origin whenever lam > 0, whatever nu is
        at_zero = np.inf if nu < 2.0 else (0.5 * np.exp(-lam / 2.0) if nu == 2.0 else 0.0)
        out = np.where(zero, at_zero, out)
    return _unwrap(out, scalar and lam.ndim == 0)


def _chi2nc_pdf_dz(z, nu: float, lam):
    """d/dz of `chi2nc_pdf` (z >= 0), from the degree-raising recurrence

        f'(z; nu, lam) = 1/2 [(lam/z) f(z; nu+2, lam) + ((nu-2)/z - 1) f(z; nu, lam)].

    At z = 0 it returns the right-hand limit, set by the j = 0 and j = 1 terms
    w_j z^{nu/2+j-1} e^{-z/2} of the Poisson mixture: -inf for nu < 2,
    e^{-lam/2} (lam/2 - 1)/4 at nu = 2, +inf for 2 < nu < 4, e^{-lam/2}/4 at
    nu = 4 and 0 above.
    """
    z = np.asarray(z, dtype=float)
    lam = np.asarray(lam, dtype=float)
    zero = z == 0.0
    zp = np.where(zero, 1.0, z)
    out = 0.5 * (lam / zp * _pdf(zp, nu + 2.0, lam)
                 + ((nu - 2.0) / zp - 1.0) * _pdf(zp, nu, lam))
    if np.any(zero):
        e = np.exp(-lam / 2.0)
        at_zero = (-np.inf if nu < 2.0 else 0.25 * e * (0.5 * lam - 1.0) if nu == 2.0
                   else np.inf if nu < 4.0 else 0.25 * e if nu == 4.0 else 0.0)
        out = np.where(zero, at_zero, out)
    return float(out) if out.ndim == 0 else out


def chi2nc_cdf(z, nu: float, lam):
    """Noncentral chi-square distribution function; ``lam`` may be an array."""
    lam = _validate_nu_lambda(nu, lam)
    arr, scalar = _principal(z, "z", allow_inf=True)
    if np.any(arr < 0.0):
        raise DomainError("z must be nonnegative")
    return _unwrap(chndtr(arr, nu, lam), scalar and lam.ndim == 0)


# The fixed-law path of `chi2nc_quantile` (see the module docstring) runs from this
# many points of one law.  Its table costs a chndtrix and a density call per node,
# 50-65 nodes for 256-1000 uniform p, so small requests are cheaper through chndtrix.
# Time against chndtrix for uniform p, best of 7, two runs, 2-vCPU x86-64, scipy 1.17.1:
#   (nu, lam) = (625, 12):  1.32-1.37x at n = 101, 0.68-0.73x at 256, 0.44x at 1000;
#   (6.25, 100):            0.98-1.02x at 101, 0.69-0.72x at 256, 0.41-0.42x at 1000;
#   (1, 0), where chndtrix is cheapest (0.9 us a point): 1.14-1.56x at 256, 0.53-0.79x
#   at 1000;  (0.5, 3), where most roots fail the check: 1.35-1.45x at 256, 0.95-1.04x
#   at 1000, 0.83-0.90x at 1e4.
_FIXED_LAW_MIN_SIZE = 256
# Node spacing in z.  At 0.15 and 0.2 the table is too coarse for most roots of
# the (1, 0) law to pass the check, and the call costs more than chndtrix alone.
_FIXED_LAW_DZ = 0.1


def chi2nc_quantile(p, nu: float, lam):
    """Quantile of the noncentral chi-square law; ``lam`` may be an array.

    Many probabilities of one law (scalar ``lam``, at least
    ``_FIXED_LAW_MIN_SIZE`` points) take the checked fixed-law path of the
    module docstring; the rest are ``chndtrix``.
    """
    lam = _validate_nu_lambda(nu, lam)
    arr, scalar = _principal(p, "p")
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise DomainError("p must lie in the open interval (0, 1)")
    if lam.ndim == 0 and arr.size >= _FIXED_LAW_MIN_SIZE:
        return _fixed_law_quantile(arr.ravel(), nu, float(lam)).reshape(arr.shape)
    return _unwrap(chndtrix(arr, nu, lam), scalar and lam.ndim == 0)


def _fixed_law_quantile(p: np.ndarray, nu: float, lam: float) -> np.ndarray:
    """``chndtrix(p, nu, lam)`` for 1-d ``p`` by a checked Hermite table in z."""
    z = ndtri(p)
    lo, hi = z.min(), z.max()
    zk = np.linspace(lo, hi, max(2, math.ceil((hi - lo) / _FIXED_LAW_DZ) + 1))
    h = zk[1] - zk[0]
    with np.errstate(all="ignore"):
        xk = chndtrix(ndtr(zk), nu, lam)
        yk = np.log(xk)
        dk = h * norm_pdf(zk) / (_pdf(xk, nu, lam) * xk)      # dy/dt, t = (z - zk)/h
        if not (np.all(np.diff(yk) > 0.0) and np.all(np.isfinite(dk) & (dk > 0.0))):
            return chndtrix(p, nu, lam)
        s = (z - lo) / h
        k = np.minimum(s.astype(np.intp), zk.size - 2)
        t = s - k
        y0, d0, d1 = yk[k], dk[k], dk[k + 1]
        dy = yk[k + 1] - y0
        c2, c3 = 3.0 * dy - 2.0 * d0 - d1, d0 + d1 - 2.0 * dy
        x0 = np.exp(y0 + t * (d0 + t * (c2 + t * c3)))
        # d log x / dp from the interpolant's slope: 1 / (x f~)
        g = (d0 + t * (2.0 * c2 + 3.0 * t * c3)) / (h * norm_pdf(z))
        x = x0 * (1.0 - (chndtr(x0, nu, lam) - p) * g)
        r = chndtr(x, nu, lam) - p
        step = np.maximum(np.abs(r), np.spacing(p)) * g
        ok = (np.abs(r) <= 1e-12 * np.minimum(p, 1.0 - p)) & (step > 0.0) & (step <= 1e-13)
    redo = ~ok
    if np.any(redo):
        x[redo] = chndtrix(p[redo], nu, lam)
    return x


def chi2nc_pdf_bessel_form(z, nu: float, lam: float):
    """Noncentral chi-square density in its Bessel-series form.

    Sums I_a in linear arithmetic by `bessel_i`, independent of Boost and of
    the ``ive`` route behind `chi2nc_pdf`; requires z > 0 and lam > 0
    (the form degenerates otherwise).  Intended for cross-validation on
    moderate arguments (the series is summed in linear arithmetic).
    """
    _validate_nu_lambda(nu, lam)
    if lam == 0.0:
        raise DomainError("the Bessel form requires lam > 0; use chi2nc_pdf")
    arr, scalar = _principal(z, "z")
    if np.any(arr <= 0.0):
        raise DomainError("the Bessel form requires z > 0")
    a = (nu - 2.0) / 2.0
    bess = np.atleast_1d(bessel_i(a, np.sqrt(lam * arr)))
    out = 0.5 * np.exp(-(arr + lam) / 2.0) * (arr / lam) ** ((nu - 2.0) / 4.0) * bess
    return _unwrap(out, scalar)
