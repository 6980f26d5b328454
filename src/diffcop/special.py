"""Special-function kernels: Gaussian law, modified Bessel I_a, noncentral chi-square.

The noncentral chi-square cdf and quantile are validated wrappers over
scipy's compiled ``scipy.special.chndtr`` and ``scipy.special.chndtrix``.
The density, `chi2nc_pdf`, sums the cells of an outer mesh as one matrix
product, and takes one of three routes per element otherwise (`_pdf`).

* An outer mesh: z of shape (n, 1) against lam of shape (1, m), or the
  transpose, as the cir-family copula numerators pass (a scalar copula call
  passes a 1 x 1 mesh).  There the Poisson mixture
  f(z; nu, lam) = sum_k Pois(k; lam/2) chi2_{nu+2k}(z) is the product of an
  n x K matrix of chi-square densities and a K x m matrix of Poisson weights
  (`_mesh_pdf`), 2 n K exponentials and one BLAS product in place of n m
  density evaluations: 0.04-0.13 us per cell on the benchmark's meshes, where
  the routes below took 0.17-0.6 us.  For nu <= 1000 it takes every cell with
  0 < q = lam z / 4 <= ``_MESH_MAX_Q`` that is not on the Debye route below
  (0.03-0.08 us per element); the rest stay per element.  K is read from the
  0F1 terms of the largest such q, where the sum stops 40 e-folds below its
  largest term.  The route of a cell depends on the cell alone, so a grid and a
  scalar call at one of its cells take the same route and agree to round-off
  (1e-14; on the benchmark's meshes the per-element routes are up to 6e-14
  from it).  Each factor
  is exp(x log(mu/x) - mu - c(x)) with Stirling's series in c, which keeps its
  rounding near eps |x log(mu/x)|: the mesh is within 2e-14 of mpmath on the
  benchmark's meshes and 1e-13 at nu near 1000.  Cells below 1e-290, z = 0
  rows and lam = 0 columns are redone per element.

* lam <= 50: the Boost density behind ``scipy.stats.ncx2``,
  ``scipy.special._ufuncs._ncx2_pdf``, at 0.03-1.3 us per element.  That
  private symbol is reached directly because importing ``scipy.stats`` would
  add about half to the time and 15 MB to the memory of ``import diffcop``.
* lam > 50 and nu <= 1000: the Bessel form of the density,

      f(z; nu, lam) = 1/2 exp(-(z+lam)/2) (z/lam)^{(nu-2)/4} I_{(nu-2)/2}(sqrt(lam z)),

  evaluated in logs (`_bessel_form`).  Boost sums the Poisson mixture outward
  from its mode there (Benton & Krishnamoorthy, Comput. Stat. Data Anal. 43,
  2003), at 0.6-1 us per element at lam = 60, 3 us at 1e4 and 26 us at 1e6.
  The Bessel factor I_a(x) e^{-x}, a = nu/2 - 1, takes one of two routes:

  - a < 50: scipy's exponentially scaled Amos routine ``ive`` (Amos, ACM
    TOMS 12, 1986), at 0.2-1.4 us per element whatever lam is.  Where
    ``ive`` underflows (a large order at a small argument), the form is
    summed as a 0F1 series in logs.
  - a >= 50: its log from the uniform asymptotic expansion of I_a (DLMF
    10.41.3) with the Debye polynomials u_1..u_6 (`_add_log_ive`), at
    0.03-0.05 us per element, 7-28 times less than ``ive`` at the same
    points.  In logs it does not underflow.

Far in the left tail Boost's series starts from a term that underflows: it
returned exactly 0 for normal doubles such as 9.6e-23 at (nu, lam, z) =
(2, 100, 1e-5) and 4.7e-205 at (1, 1000, 1), and nonzero values below 1e-140
off by up to 66% at lam <= 50.  Its values below 1e-100 are therefore taken from
the Bessel form, so the left tail no longer underflows to 0.  For nu <= 1000,
lam <= 1e5 and z from 1e-8 to mean + 8 sd the density is within 1e-12
relative of mpmath wherever it is a normal double (worst seen 6.5e-13); above
nu = 1000 every element is Boost's.

``chndtr`` has the same defect far in the left tail (0 for 7.0e-69 at
(5, 300, 0.1)), so `chi2nc_cdf` takes its values below 1e-30 from the
integral of the density (`_chi2nc_cdf`), and `chi2nc_quantile` solves
probabilities below 1e-30 against that cdf.

The same Bessel form summed in linear arithmetic by `bessel_i`
(`chi2nc_pdf_bessel_form`) is kept as an independent route, and the
validation suite cross-checks the two at lam up to 200 and nu up to 120, and
the mesh route against it on one 20 x 20 mesh at nu = 25.

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

Each public function checks its arguments and then calls a private core that
checks nothing: `_norm_pdf`, `_norm_cdf`, `_norm_quantile` (scipy's ``ndtri``),
`_chi2nc_pdf`, `_chi2nc_cdf` and `_chi2nc_quantile`.  A core takes float64
arrays of any shape, ``lam`` broadcasting against the principal argument, and
returns values of the broadcast shape (a NumPy scalar or a 0-d array for 0-d
input).  Callers that have checked their input
already, or that made it themselves, call the cores: the kernels' bound laws of
`models`, the copula cores and quadrature of `copula`, the start tables of
`stt`, and the fixed-law quantile and the cdf's integral here.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import chndtr, chndtrix, erfc, gammaln, ive, ndtr, ndtri
from scipy.special._ufuncs import _ncx2_pdf

from ._numerics import any_true, integrate, invert_monotone_cdf
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

def _norm_pdf(z):
    return np.exp(-0.5 * z * z - _LOG_SQRT_2PI)


def _norm_cdf(z):
    return 0.5 * erfc(-z / _SQRT2)


_norm_quantile = ndtri


def norm_pdf(z):
    """Standard normal density (2*pi)^(-1/2) exp(-z^2/2)."""
    arr, scalar = _principal(z, "z")
    return _unwrap(_norm_pdf(arr), scalar)


def norm_cdf(z):
    """Standard normal distribution function, accurate to machine precision."""
    arr, scalar = _principal(z, "z")
    return _unwrap(_norm_cdf(arr), scalar)


def norm_quantile(p):
    """Inverse of `norm_cdf` on (0, 1), exact to machine precision.

    Backed by the machine-accurate erf inverse (``scipy.special.ndtri``) over
    the whole open interval, tails included; the test suite validates it
    against plain bisection on `norm_cdf`.
    """
    arr, scalar = _principal(p, "p")
    if (arr <= 0.0).any() or (arr >= 1.0).any():        # the methods skip np.any's dispatch
        raise DomainError("p must lie in the open interval (0, 1)")
    return _unwrap(_norm_quantile(arr), scalar)


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
# ...and for nu up to this.  Worst relative error of the form against mpmath at 25
# points per law from z = 1e-8 to mean + 8 sd, lam from 50 to 1e5, with the uniform
# expansion from order 50 on: 1.3e-13 at nu = 625, 2.5e-13 at 1000, 4.6e-13 at 2000,
# 6.2e-13 at 3000, 2.2e-12 at 5000, 2.9e-12 at 7000, 3.5e-12 at 1e4.  The error grows
# about as a times the rounding of the exponent's terms, each of order a (a/2 log(z/lam)
# and a asinh(a/x) cancel), so above some nu between 3000 and 5000 the form misses
# 1e-12.  Above this bound every element is Boost's.  (Three random sweeps of
# `chi2nc_pdf`, 6300 points each with nu in [0.3, 1000], lam in [0, 1e5]: worst 4.8e-13,
# 5.4e-13 and 6.5e-13 where the density is a normal double, the last at lam = 0 on
# the 0F1 series; the form with ive alone read 6.4e-13, 5.2e-13 and 6.5e-13.)
_BESSEL_MAX_NU = 1000.0
# Boost's values below this are recomputed by the Bessel form.  Far in the left
# tail its Poisson series starts from a term that underflows, or its Bessel branch
# multiplies by an I_a that does.  Of 4683 points at lam <= 50, nu <= 1000, z from
# 1e-8 to the mean, 129 were off by more than 1e-12 (106 of them exactly 0), all
# below 5e-147.
_BOOST_MIN_PDF = 1e-100
# `_bessel_form` takes the Bessel factor's log from the uniform expansion from this
# order a = nu/2 - 1 on, and scipy's ive below it.  The expansion's first omitted term
# is at most max|u_7| / a^7 = 0.065 / a^7: 8.5e-14 at a = 50.  Worst absolute error in
# log(I_a(x) e^{-x}) against mpmath, x from 1e-2 to 1e5 where ive is a normal double,
# expansion against ive: 5.1e-11 / 5.7e-14 at a = 20, 3.0e-12 / 5.7e-14 at 30,
# 4.0e-13 / 5.7e-14 at 40, 1.1e-13 / 1.1e-13 at 50 and 60, 1.1e-13 / 1.1e-13 at 300.
# Worst relative error of the density against mpmath (25 points per law, lam from 50
# to 1e5), expansion against ive: 3.9e-13 / 2.1e-13 at nu = 82, 1.5e-13 / 1.2e-13 at
# 102, 9.2e-14 / 1.3e-13 at 162.  Per element on 40401 points across mean +- 5 sd,
# best of 7, 2-vCPU x86-64, scipy 1.17.1: 40 against 1105 ns at (nu, lam) = (102, 100),
# 46 against 313 ns at (102, 1e4), 41 against 418 ns at (625, 12000).
_DEBYE_MIN_ORDER = 50.0
# The Debye polynomials u_1..u_6 of DLMF 10.41.10: u_k(p) = sum_i _DEBYE_U[k-1][i] p^(k+2i).
_DEBYE_U = (
    (1/8, -5/24),
    (9/128, -77/192, 385/1152),
    (75/1024, -4563/5120, 17017/9216, -85085/82944),
    (3675/32768, -96833/40960, 144001/16384, -7436429/663552, 37182145/7962624),
    (59535/262144, -67608983/9175040, 250881631/5898240, -108313205/1179648,
     5391411025/63700992, -5391411025/191102976),
    (2401245/4194304, -388895895/14680064, 1441372804469/6606028800, -33010308331/47185920,
     4445922195/4194304, -1169936192425/1528823808, 5849680962125/27518828544),
)
_TINY = np.finfo(float).tiny


def _bessel_form(z, nu: float, lam):
    """The density from its Bessel form in logs; NaN where it is not finite and positive.

    With a = nu/2 - 1 and the exponentially scaled I_a(x) e^{-x}, x = sqrt(lam z),

        f = 1/2 exp(a/2 log(z/lam) - (sqrt z - sqrt lam)^2 / 2) I_a(x) e^{-x},

    sqrt z - sqrt lam taken as (z - lam)/(sqrt z + sqrt lam).  Below the order
    ``_DEBYE_MIN_ORDER`` the Bessel factor is scipy's ``ive``, and from it on its
    log is `_add_log_ive`'s uniform expansion.  Where ``ive`` is not a normal
    double (a large order at a small argument) or the form is not finite, the
    same density is summed as

        f = 1/2 exp(a log(z/2) - (z + lam)/2 - ln Gamma(a + 1)) 0F1(; a + 1; lam z / 4),

    whose series needs few terms there and is the central law at lam = 0.
    """
    a = 0.5 * nu - 1.0
    with np.errstate(all="ignore"):
        # in place where it can be: at most three arrays of the broadcast size live at once
        rz, rl = np.sqrt(z), np.sqrt(lam)
        out = np.asarray(np.add(rz, rl))
        np.divide(np.subtract(z, lam), out, out=out)
        out *= out
        out *= -0.5
        t = np.asarray(np.divide(z, lam))
        np.log(t, out=t)
        t *= 0.5 * a
        out += t
        np.multiply(rz, rl, out=t)
        del rz, rl
        if a < _DEBYE_MIN_ORDER:
            ive(a, t, out=t)
            low = ~(t >= _TINY)
            out += np.log(t, out=t)
        else:
            _add_log_ive(out, t, a)
            low = False
        del t
        np.exp(out, out=out)
        out *= 0.5
        low |= ~(out < np.inf)
        if any_true(low):
            zl, ll = (np.broadcast_to(v, out.shape)[low] for v in (z, lam))
            out[low] = 0.5 * np.exp(a * np.log(0.5 * zl) - 0.5 * (zl + ll) - gammaln(a + 1.0)
                                    + np.log(_hyp0f1(a + 1.0, 0.25 * ll * zl, 1e-16)))
        out[~((out > 0.0) & (out < np.inf))] = np.nan
    return out


def _add_log_ive(out: np.ndarray, x: np.ndarray, a: float) -> None:
    """out += log(I_a(x) e^{-x}) by the uniform asymptotic expansion; overwrites x.

    With w = x/a, r = sqrt(1 + w^2) and p = 1/r (DLMF 10.41.3, 10.41.9),

        log(I_a(x) e^{-x}) = a (1/(r + w) - asinh(1/w)) - 1/2 log(2 pi a) + 1/2 log p
                             + log(1 + sum_{k=1..6} u_k(p) / a^k),

    asinh(1/w) being log((1 + r)/w) without its cancellation at large w.  The
    sum is folded into one polynomial in p for this a and taken by Horner's
    scheme, in place: one more array of x's size is made.
    """
    c = [1.0] + [0.0] * (3 * len(_DEBYE_U))
    for k, u in enumerate(_DEBYE_U, 1):
        ak = a ** -k
        for i, coef in enumerate(u):
            c[k + 2 * i] += coef * ak
    x /= a
    v = np.empty_like(x)
    np.reciprocal(x, out=v)
    np.arcsinh(v, out=v)
    v *= a
    out -= v
    np.multiply(x, x, out=v)
    v += 1.0
    np.sqrt(v, out=v)
    x += v
    np.divide(a, x, out=x)
    out += x
    np.reciprocal(v, out=v)
    np.multiply(v, c[-1], out=x)
    for cj in c[-2:0:-1]:
        x += cj
        x *= v
    x += 1.0
    out += np.log(x, out=x)
    np.log(v, out=v)
    v *= 0.5
    out += v
    out -= 0.5 * math.log(2.0 * math.pi * a)


def _pdf(z, nu: float, lam):
    """The noncentral chi-square density at z >= 0, broadcasting ``lam``.

    Up to nu = ``_BESSEL_MAX_NU``, an outer mesh of z and lam takes `_mesh_pdf`,
    and the cells it leaves go to `_pdf_elements` one by one; every other call is
    `_pdf_elements`.
    """
    z, lam = np.asarray(z, dtype=float), np.asarray(lam, dtype=float)
    if nu > _BESSEL_MAX_NU:
        return _ncx2_pdf(z, nu, lam)
    mesh = _mesh_pdf(z, nu, lam)
    if mesh is None:
        return _pdf_elements(z, nu, lam)
    out, redo = mesh
    if any_true(redo):
        zb, lb = np.broadcast_arrays(z, lam)
        out[redo] = _pdf_elements(zb[redo], nu, lb[redo])
    return out


# `_mesh_pdf` sums the Poisson mixture to the term K where the 0F1 terms of the cell with
# the largest q = lam z / 4 have fallen this many e-folds below their largest: the rest
# are below 1e-17 of the sum in every cell, since a smaller q only shortens the tail.
_MESH_EFOLDS = 40.0
# `_mesh_pdf` leaves the cells with q = lam z / 4 above this to the per-element routes.  Its
# cost per cell grows with K, while theirs is the same at any K, and K reaches 680-703 at
# q = 3e5 for nu <= 100 (611 at nu = 400, 501 at nu = 1000).  Per element, best of 15, two
# runs, 2-vCPU shared x86-64 host, scipy 1.17.1 with its OpenBLAS, n x n meshes at
# n = 51 / 101 / 201:
#   mesh at K = 50:     45-76 / 20-28 / 9-13 ns;
#   mesh at K = 100:    70-109 / 29-40 / 13-19 ns;
#   mesh at K = 400:    187-293 / 102-121 / 62-68 ns;
#   mesh at K = 600:    479-576 / 246-266 / 152-177 ns;
#   mesh at K = 800:    705-1014 / 485-584 / 302-403 ns;
#   Boost (lam <= 50):  416-470 / 394-409 / 375-404 ns;
#   ive (nu = 25):      218-377 / 213-218 / 206-212 ns;
#   Debye (nu = 300):   52-77 / 38-42 / 34-46 ns.
# On the benchmark's gamma = 25 meshes (n = 101, ive, q up to 2.5e5, K = 546-637) the mesh
# took 2.1-2.2 against 3.2-3.5 ms.  Cells on the Debye route stay there whatever their q:
# the benchmark's need K = 99-112 at n = 51, where the mesh took 0.19-0.31 against 0.14-0.24
# ms, and K = 1881 and 7759.  Worst relative error against mpmath at 11 cells per mesh, the
# smallest included: 9.6e-15 at K = 601, 4.4e-15 at K = 247.
_MESH_MAX_Q = 3e5
# Mesh values below this (times the cell's first factor G[i, 0], where that is above 1)
# are redone per element.  `_poisson_terms` raises factors below exp(-708) to it, and this
# keeps what that can add, at most K 3.3e-308 max(1, G[i, 0]), below 3e-15 of the value.
_MESH_MIN_PDF = 1e-290
# `_poisson_terms` raises exponents below this to it: exp(-708) = 3.3e-308 is a normal double,
# and no subnormal factor slows the exponentials or the product.
_LOG_FLOOR = -708.0


def _mesh_pdf(z, nu: float, lam):
    """`_pdf` on an outer mesh as one matrix product, or None where it does not apply.

    The mesh is z of shape (n, 1) against lam of shape (1, m), or z of shape (1, m)
    against lam of shape (n, 1); a 1 x 1 mesh is one cell of a grid.  On it the
    Poisson mixture f(z; nu, lam) = sum_k Pois(k; lam/2) chi2_{nu+2k}(z) is G W^T / 2,
    with G[i, k] = 2 chi2_{nu+2k}(z_i) = Pois(nu/2 - 1 + k; z_i/2) and
    W[j, k] = Pois(k; lam_j/2) (`_poisson_terms`): 2 n K exponentials and one BLAS
    product in place of n m density evaluations.  K is set by the largest
    q = lam z / 4 the route takes, where the 0F1 terms q^k / (k! (nu/2)_k) of the same
    sum fall slowest.  Which cells the route gives depends on the cell alone, so a grid
    and a call at one of its cells take the same route and agree to round-off.
    Returns the values and the mask of those to redo per element: cells on the Debye
    route, cells with q above ``_MESH_MAX_Q``, and values not finite or below
    ``_MESH_MIN_PDF`` (z = 0 rows and lam = 0 columns come out NaN, infinite or below it).
    """
    if z.ndim != 2 or lam.ndim != 2 or z.size == 0 or lam.size == 0:
        return None
    if z.shape[1] == lam.shape[0] == 1:
        flip = False
    elif z.shape[0] == lam.shape[1] == 1:
        flip = True
    else:
        return None
    z, lam = z.reshape(-1, 1), lam.reshape(1, -1)
    b = 0.5 * nu
    debye = (lam > _BESSEL_MIN_LAM) & (b - 1.0 >= _DEBYE_MIN_ORDER)
    if debye.all():
        return None
    kept = lam[~debye]
    q = 0.25 * z.max() * kept.max()
    if not q > 0.0 or 0.25 * z.min() * kept.min() > _MESH_MAX_Q:    # also NaN
        return None
    capped, q = q > _MESH_MAX_Q, min(q, _MESH_MAX_Q)
    # the terms rise while k (b + k - 1) <= q and fall after, each by the ratio
    # q / (k (b + k - 1)); the sum ends before the first term past the largest that lies
    # ``_MESH_EFOLDS`` below it
    n_terms = max(int(0.5 * (math.sqrt((b - 1.0) ** 2 + 4.0 * q) - (b - 1.0))), 0)
    fall = 0.0
    while fall >= -_MESH_EFOLDS:
        n_terms += 1
        fall += math.log(q / (n_terms * (b - 1.0 + n_terms)))
    k = np.arange(n_terms, dtype=float)
    with np.errstate(all="ignore"):
        g = _poisson_terms(k + (b - 1.0), 0.5 * z)
        w = _poisson_terms(k, 0.5 * lam.reshape(-1, 1))
        out = g @ w.T
        redo = ~((out >= _MESH_MIN_PDF * np.maximum(g[:, :1], 1.0)) & (out < np.inf))
    redo |= debye
    if capped:
        redo |= z * lam > 4.0 * _MESH_MAX_Q
    out *= 0.5
    return (out.T, redo.T) if flip else (out, redo)


def _poisson_terms(x, mu):
    """mu^x e^{-mu} / Gamma(x + 1) for a column ``mu`` and an increasing row ``x`` > -1,
    as an array of their broadcast shape, no factor below exp(``_LOG_FLOOR``).

    The exponent is taken as x log(mu/x) - mu - c(x), c(x) = ln Gamma(x + 1) - x log x,
    whose rounding stays near eps (x |log(mu/x)| + mu) where x log mu - mu -
    ln Gamma(x + 1) rounds by about eps (x log mu + ln Gamma(x + 1)).  On the benchmark's
    gamma = 25 mesh (K = 601) the plain form put the density 2.5e-13 off mpmath, this
    one 9.6e-15.  From x = 15 on c(x) = log(2 pi x)/2 - x + stirlerr(x) by Stirling's
    series (Loader, "Fast and accurate computation of binomial probabilities", 2000),
    whose first omitted term is below 3e-16 there.  A first x <= 0 takes the plain form.
    """
    lx = np.log(x)
    r = 1.0 / (x * x)
    c = np.where(x < 15.0, gammaln(x + 1.0) - x * lx, _LOG_SQRT_2PI + 0.5 * lx - x
                 + (1/12 - (1/360 - (1/1260 - (1/1680 - r/1188) * r) * r) * r) / x)
    out = mu / x                                    # in place from here: temporaries of
    np.log(out, out=out)                            # this size cost page faults
    out *= x
    out -= mu
    out -= c
    if x[0] <= 0.0:
        out[:, 0] = (x[0] * np.log(mu) - mu - gammaln(x[0] + 1.0))[:, 0]
    np.maximum(out, _LOG_FLOOR, out=out)
    return np.exp(out, out=out)


def _pdf_elements(z, nu: float, lam):
    """`_pdf` element by element, for nu <= ``_BESSEL_MAX_NU``.

    Elements with lam > ``_BESSEL_MIN_LAM`` take `_bessel_form` and the others
    Boost's ``_ncx2_pdf``.  Boost's values below ``_BOOST_MIN_PDF`` are replaced by
    the form's where that is finite and positive, and the form's NaNs by Boost's
    values.  Nothing is copied when every element takes one route and no value
    needs the other.
    """
    bessel = lam > _BESSEL_MIN_LAM
    if not any_true(bessel):
        out = np.asarray(_ncx2_pdf(z, nu, lam))
        redo = out < _BOOST_MIN_PDF
    elif not any_true(~bessel):
        out = _bessel_form(z, nu, lam)
        redo = np.isnan(out)
    else:
        zb, lb = np.broadcast_arrays(z, lam)
        bessel = np.broadcast_to(bessel, zb.shape)
        out = np.empty(zb.shape)
        out[bessel] = _bessel_form(zb[bessel], nu, lb[bessel])
        out[~bessel] = _ncx2_pdf(zb[~bessel], nu, lb[~bessel])
        redo = np.where(bessel, np.isnan(out), out < _BOOST_MIN_PDF)
    if any_true(redo):
        zb, lb = np.broadcast_arrays(z, lam)
        zr, lr, br = zb[redo], lb[redo], np.broadcast_to(bessel, zb.shape)[redo]
        alt = np.where(br, _ncx2_pdf(zr, nu, lr), _bessel_form(zr, nu, lr))
        out[redo] = np.where(np.isnan(alt), out[redo], alt)
    return out


def chi2nc_pdf(z, nu: float, lam):
    """Noncentral chi-square density with ``nu`` d.o.f. and noncentrality ``lam``.

    ``lam`` may be an array broadcasting against ``z``.  On an outer mesh, z
    of shape (n, 1) against lam of shape (1, m) or the transpose, the cells
    with nu <= 1000, 0 < lam z / 4 <= 3e5 and not on the Debye route
    (nu/2 - 1 >= 50 and lam > 50) are summed as one Poisson-mixture matrix
    product: 0.04-0.13 us per cell, within 1e-13 of mpmath, and the same value
    as a 1 x 1 mesh of the cell to round-off.
    Other elements with lam <= 50 (or nu > 1000) take Boost's density, the
    others the scaled Bessel form, and Boost's values below 1e-100 come from
    the form too (see the module docstring): within 1e-12 relative for
    nu <= 1000 into the far left tail.  At z = 0 the density diverges for
    nu < 2 (returns ``inf``), equals ``exp(-lam/2)/2`` for nu = 2 and vanishes
    for nu > 2.
    """
    lam = _validate_nu_lambda(nu, lam)
    arr, scalar = _principal(z, "z")
    if np.any(arr < 0.0):
        raise DomainError("z must be nonnegative")
    return _unwrap(_chi2nc_pdf(arr, nu, lam), scalar and lam.ndim == 0)


def _chi2nc_pdf(z, nu: float, lam):
    """`chi2nc_pdf`'s core: `_pdf`, and the density's limit at z = 0."""
    z, lam = np.asarray(z, dtype=float), np.asarray(lam, dtype=float)
    out = _pdf(z, nu, lam)
    zero = z == 0.0
    if any_true(zero):
        # Boost returns 0 at the origin whenever lam > 0, whatever nu is
        at_zero = np.inf if nu < 2.0 else (0.5 * np.exp(-lam / 2.0) if nu == 2.0 else 0.0)
        out = np.where(zero, at_zero, out)
    return out


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
    if any_true(zero):
        e = np.exp(-lam / 2.0)
        at_zero = (-np.inf if nu < 2.0 else 0.25 * e * (0.5 * lam - 1.0) if nu == 2.0
                   else np.inf if nu < 4.0 else 0.25 * e if nu == 4.0 else 0.0)
        out = np.where(zero, at_zero, out)
    return out


# `chi2nc_cdf` takes chndtr's values below this from the integral of the density.
# Far in the left tail Boost's sum starts from terms that underflow: it returns 0
# for 7.0e-69 at (nu, lam, z) = (5, 300, 0.1) and for 7.1e-239 at (625, 1e4, 5000).
# Against that integral, at 80 points per law from z = 1e-8 to mean - 3 sd, nu from
# 0.3 to 1000: 4258 of 11415 values at lam from 20 to 1e5 and 60 lam from 150 to 400
# were off by more than 1e-12, all below 8.6e-44 (most near lam = 200; none at
# lam <= 100 or >= 1e4).  The integral is within 1.7e-13 of mpmath at 8 points.
_CHNDTR_MIN_CDF = 1e-30


def _chi2nc_cdf(z, nu: float, lam):
    """`chi2nc_cdf`'s core: ``chndtr`` at z >= 0, its values below ``_CHNDTR_MIN_CDF``
    redone as the integral of `_pdf` from 0, where the density is exact."""
    out = np.asarray(chndtr(z, nu, lam))
    redo = out < _CHNDTR_MIN_CDF
    if any_true(redo):
        zb, lb = np.broadcast_arrays(z, lam)
        # the integral runs in s with z = s^e: the integrand e s^(e-1) f(s^e) is bounded at
        # s = 0, where f's z^(nu/2-1) end is not at nu < 2, so the quadrature need not bisect
        # toward 0.  At nu >= 2, e = 1 and it is the integral in z
        e = max(2.0 / nu, 1.0)
        # `at` carries each integral's lam to the density; the split it also sets is
        # clipped into [0, z^(1/e)], so any value serves
        out[redo] = integrate(lambda s, ls: e * s ** (e - 1.0) * _pdf(s ** e, nu, ls),
                              0.0, zb[redo] ** (1.0 / e), lb[redo], abs_tol=0.0, rel_tol=1e-13)
    return out


def chi2nc_cdf(z, nu: float, lam):
    """Noncentral chi-square distribution function; ``lam`` may be an array.

    scipy's ``chndtr``, except that its values below 1e-30 come from the
    integral of `chi2nc_pdf` (see `_chi2nc_cdf`): within 1e-12 relative of mpmath
    into the far left tail, where ``chndtr`` returns 0.  z = +inf gives 1.
    """
    lam = _validate_nu_lambda(nu, lam)
    arr, scalar = _principal(z, "z", allow_inf=True)
    if not (arr >= 0.0).all():                           # NaN fails the comparison too
        raise DomainError("z must not be NaN" if np.isnan(arr).any() else "z must be nonnegative")
    return _unwrap(_chi2nc_cdf(arr, nu, lam), scalar and lam.ndim == 0)


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
    module docstring; the rest are ``chndtrix``.  Probabilities below
    ``_CHNDTR_MIN_CDF``, where ``chndtr`` is not exact, are then solved
    against `chi2nc_cdf` by `invert_monotone_cdf`, from a bracket whose
    upper end is that first root.
    """
    lam = _validate_nu_lambda(nu, lam)
    arr, scalar = _principal(p, "p")
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise DomainError("p must lie in the open interval (0, 1)")
    return _unwrap(_chi2nc_quantile(arr, nu, lam), scalar and lam.ndim == 0)


def _chi2nc_quantile(p, nu: float, lam):
    """`chi2nc_quantile`'s core, for p in (0, 1)."""
    p, lam = np.asarray(p, dtype=float), np.asarray(lam, dtype=float)
    if lam.ndim == 0 and p.size >= _FIXED_LAW_MIN_SIZE:
        out = _fixed_law_quantile(p.ravel(), nu, float(lam)).reshape(p.shape)
    else:
        out = np.asarray(chndtrix(p, nu, lam))
    if p.min(initial=1.0) < _CHNDTR_MIN_CDF:             # also for an empty p
        tail = np.broadcast_to(p < _CHNDTR_MIN_CDF, out.shape)
        pt, lt = (np.broadcast_to(v, out.shape)[tail] for v in (p, lam))
        law = lambda x: (_chi2nc_cdf(x, nu, lt), _pdf(x, nu, lt))
        # chndtr reads low there, so its root lies above the true one; the solver
        # grows the bracket where it does not
        hi = np.where(out[tail] > 0.0, out[tail], 1.0)
        out[tail] = invert_monotone_cdf(law, pt, 0.0, hi, bounds=(0.0, np.inf))
    return out


def _fixed_law_quantile(p: np.ndarray, nu: float, lam: float) -> np.ndarray:
    """``chndtrix(p, nu, lam)`` for 1-d ``p`` by a checked Hermite table in z."""
    z = ndtri(p)
    lo, hi = z.min(), z.max()
    zk = np.linspace(lo, hi, max(2, math.ceil((hi - lo) / _FIXED_LAW_DZ) + 1))
    h = zk[1] - zk[0]
    with np.errstate(all="ignore"):
        xk = chndtrix(ndtr(zk), nu, lam)
        yk = np.log(xk)
        dk = h * _norm_pdf(zk) / (_pdf(xk, nu, lam) * xk)      # dy/dt, t = (z - zk)/h
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
        g = (d0 + t * (2.0 * c2 + 3.0 * t * c3)) / (h * _norm_pdf(z))
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
