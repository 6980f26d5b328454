"""Special-function kernels: Gaussian law, modified Bessel I_a, noncentral chi-square.

The noncentral chi-square pdf, cdf and quantile are thin validated wrappers
over scipy's compiled routines ``scipy.special.chndtr``,
``scipy.special.chndtrix`` and the Boost density behind ``scipy.stats.ncx2``,
``scipy.special._ufuncs._ncx2_pdf``.  That private symbol is reached directly
because importing ``scipy.stats`` would add about half to the time and 15 MB
to the memory of ``import diffcop``.  The routines sum the Poisson mixture
outward from its mode and stop on a relative criterion (Benton &
Krishnamoorthy, Comput. Stat. Data Anal. 43, 2003), so the tails
keep their relative accuracy.  The Bessel-series form of the same density,

    f(z; nu, lam) = 1/2 exp(-(z+lam)/2) (z/lam)^{(nu-2)/4} I_{(nu-2)/2}(sqrt(lam z)),

summed here by `bessel_i`, is kept as an independent route
(`chi2nc_pdf_bessel_form`) and the two are cross-checked in the validation
suite.

All functions accept scalars or ndarrays in their principal argument and are
pure; the noncentral chi-square functions also broadcast an array ``lam``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import chndtr, chndtrix, erfc, gammaln, ndtri
from scipy.special._ufuncs import _ncx2_pdf

from .errors import DomainError, NumericsError

__all__ = [
    "Tolerance", "DEFAULT_TOLERANCE",
    "norm_pdf", "norm_cdf", "norm_quantile",
    "bessel_i",
    "chi2nc_pdf", "chi2nc_cdf", "chi2nc_quantile", "chi2nc_pdf_bessel_form",
]

_SQRT2 = math.sqrt(2.0)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


@dataclass(frozen=True)
class Tolerance:
    """Convergence policy for series and iterative inversions."""

    rel_tol: float = 1e-14
    max_iter: int = 200

    def __post_init__(self):
        if not (self.rel_tol > 0 and self.max_iter >= 1):
            raise DomainError("Tolerance requires rel_tol > 0, max_iter >= 1")


DEFAULT_TOLERANCE = Tolerance()


def _principal(z, name: str, allow_inf: bool = False):
    """Validate the principal argument; returns (array, was_scalar)."""
    arr = np.asarray(z, dtype=float)
    scalar = arr.ndim == 0
    if not allow_inf and not np.all(np.isfinite(arr)):
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
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise DomainError("p must lie in the open interval (0, 1)")
    return _unwrap(ndtri(arr), scalar)


# ---------------------------------------------------------------------------
# Modified Bessel function of the first kind
# ---------------------------------------------------------------------------

def bessel_i(a: float, z, tol: Tolerance = DEFAULT_TOLERANCE):
    """Modified Bessel function I_a(z) by direct series summation.

        I_a(z) = sum_m (1 / (m! Gamma(m+a+1))) (z/2)^(2m+a)

    Terms are accumulated with the ratio recurrence and the series stops once
    a term falls below ``tol.rel_tol`` times the partial sum.  Orders a >= -1
    are supported (I_{-1} = I_1); arguments must satisfy z >= 0.
    """
    if a < -1.0:
        raise DomainError("order a must satisfy a >= -1")
    if a == -1.0:
        return bessel_i(1.0, z, tol)
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
            term = np.exp(a * np.log(zp / 2.0) - gammaln(a + 1.0))
        total = term.copy()
        q = zp * zp / 4.0
        converged = False
        for m in range(1, max(tol.max_iter, 60) + 1):
            term = term * q / (m * (m + a))
            total += term
            if np.all(term <= tol.rel_tol * total):
                converged = True
                break
        if not converged:
            raise NumericsError("Bessel series did not converge; argument too large")
        out[pos] = total
    return _unwrap(out, scalar)


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


def chi2nc_pdf(z, nu: float, lam):
    """Noncentral chi-square density with ``nu`` d.o.f. and noncentrality ``lam``.

    ``lam`` may be an array broadcasting against ``z``.  At z = 0 the density
    diverges for nu < 2 (returns ``inf``), equals ``exp(-lam/2)/2`` for nu = 2
    and vanishes for nu > 2.
    """
    lam = _validate_nu_lambda(nu, lam)
    arr, scalar = _principal(z, "z")
    if np.any(arr < 0.0):
        raise DomainError("z must be nonnegative")
    out = _ncx2_pdf(arr, nu, lam)
    zero = arr == 0.0
    if np.any(zero):
        # Boost returns 0 at the origin whenever lam > 0, whatever nu is
        at_zero = np.inf if nu < 2.0 else (0.5 * np.exp(-lam / 2.0) if nu == 2.0 else 0.0)
        out = np.where(zero, at_zero, out)
    return _unwrap(out, scalar and lam.ndim == 0)


def _chi2nc_pdf_dz(z, nu: float, lam):
    """d/dz of `chi2nc_pdf` (z > 0), from the degree-raising recurrence

        f'(z; nu, lam) = 1/2 [(lam/z) f(z; nu+2, lam) + ((nu-2)/z - 1) f(z; nu, lam)].
    """
    z = np.asarray(z, dtype=float)
    lam = np.asarray(lam, dtype=float)
    out = 0.5 * (lam / z * _ncx2_pdf(z, nu + 2.0, lam)
                 + ((nu - 2.0) / z - 1.0) * _ncx2_pdf(z, nu, lam))
    return float(out) if out.ndim == 0 else out


def chi2nc_cdf(z, nu: float, lam):
    """Noncentral chi-square distribution function; ``lam`` may be an array."""
    lam = _validate_nu_lambda(nu, lam)
    arr, scalar = _principal(z, "z", allow_inf=True)
    if np.any(arr < 0.0):
        raise DomainError("z must be nonnegative")
    return _unwrap(chndtr(arr, nu, lam), scalar and lam.ndim == 0)


def chi2nc_quantile(p, nu: float, lam):
    """Quantile of the noncentral chi-square law; ``lam`` may be an array."""
    lam = _validate_nu_lambda(nu, lam)
    arr, scalar = _principal(p, "p")
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise DomainError("p must lie in the open interval (0, 1)")
    return _unwrap(chndtrix(arr, nu, lam), scalar and lam.ndim == 0)


def chi2nc_pdf_bessel_form(z, nu: float, lam: float, tol: Tolerance = DEFAULT_TOLERANCE):
    """Noncentral chi-square density in its Bessel-series form.

    Independent of the scipy route behind `chi2nc_pdf`; requires z > 0 and lam > 0
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
    bess = np.atleast_1d(bessel_i(a, np.sqrt(lam * arr), tol))
    out = 0.5 * np.exp(-(arr + lam) / 2.0) * (arr / lam) ** ((nu - 2.0) / 4.0) * bess
    return _unwrap(out, scalar)
