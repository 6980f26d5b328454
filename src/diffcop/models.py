"""Catalog of diffusion models with exact transition kernels.

Every catalog entry carries closed-form transition pdf/cdf/quantile and an
exact transition sampler:

====================  =======================================================
``bm``                standard Brownian motion, Gaussian kernel
``bm_drift``          W_t = mu*t + sigma*B_t, Gaussian kernel
``gbm``               exp(mu*t + sigma*B_t), lognormal kernel
``ou``                dX = (-alpha X + beta) dt + sigma dB, Gaussian kernel
``rbm``               |B_t|, folded-Gaussian (reflected heat) kernel
``cir``               dX = (-alpha X + beta) dt + sigma sqrt(X) dB,
                      scaled noncentral chi-square kernel
``cir_special``       cir with beta = sigma^2/4 (gamma = 1)
``rayleigh``          dY = (a/Y + b Y) dt + dB, sqrt-pushforward of a cir
``bessel``            dZ = (delta/Z) dt + dB, rayleigh with a = delta, b = 0
====================  =======================================================

Every catalog kernel comes from two laws and three maps.  The laws read their
lag r = t - s on the exponential clock phi_a(r) = (e^{a r} - 1)/a of
`_numerics.clock` (phi_0(r) = r), so alpha = 0 needs no branch:

* the Ornstein-Uhlenbeck law `GaussianKernel(alpha, beta, sigma)`, with mean
  y e^{-alpha r} + beta phi_{-alpha}(r) and variance sigma^2 phi_{-2 alpha}(r):
  bm (0, 0, 1), bm_drift (0, mu, sigma) and ou (alpha, beta, sigma);
* the scaled noncentral chi-square law `Ncx2Kernel`, parametrized against a
  Monte-Carlo oracle:  with c_r = 2 / (sigma^2 phi_{-alpha}(r)),

    2 c_{t-s} X_t | X_s = y   ~   chi2nc(4 beta/sigma^2,  2 c_{t-s} e^{-alpha(t-s)} y),

  cir and cir_special.

The maps are exp (gbm, over the Gaussian law (0, mu, sigma)), the fold at 0
(rbm, `FoldedGaussianKernel` over the Gaussian law (0, 0, 1)) and sqrt (rayleigh
and bessel, over the cir-family law).  A monotone map of a kernel is a kernel:
`MappedKernel` holds the pushforward f^Y = f^X / |d psi/dx| of exp and sqrt, and
`stt.push_transition` and the recombined process build theirs from it too.

A stationary law is the transition law at an infinite lag: `Model.stationary`
is ``model.marginal(math.inf)`` for ou with alpha > 0, cir, cir_special and
rayleigh with b < 0, and None for the other models.

``kernel.bind(s, y, t)`` computes a law's constants for one (s, y, t) once:
mean and sd, 2c and lam, or the base law bound at the mapped times.  The
marginals (`Model.marginal(t)` is ``kernel.bind(t0, x0, t)``) and the kernel
methods read that bound law, whose methods check their argument and call the
unchecked cores of `special`.  Every catalog marginal has an analytic
``pdf_dx`` and ``cdf_dt``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Mapping, Protocol, runtime_checkable

import numpy as np

from ._numerics import any_true, clock, invert_monotone_cdf, require
from .errors import DomainError
from .special import (_chi2nc_cdf, _chi2nc_pdf, _chi2nc_pdf_dz, _chi2nc_quantile, _norm_cdf,
                      _norm_pdf, _norm_quantile, _validate_nu_lambda)

__all__ = [
    "DiffusionSpec", "Marginal", "Kernel", "MappedKernel", "Model",
    "PathEnsemble", "make_model", "catalog_ids", "marginal", "sample_transition",
    "simulate_paths", "euler_maruyama",
]

_CATALOG_IDS = ("bm", "bm_drift", "gbm", "ou", "rbm", "cir", "cir_special",
                "rayleigh", "bessel")


def catalog_ids() -> tuple[str, ...]:
    return _CATALOG_IDS


@dataclass(frozen=True)
class DiffusionSpec:
    """Coefficients and state-space metadata of a one-dimensional diffusion."""

    name: str
    params: Mapping[str, float]
    interval: tuple[float, float]
    boundaries: tuple[str, str]          # per-endpoint Feller tag
    drift: Callable | None               # mu(x, t)
    diffusion: Callable | None           # sigma(x, t) > 0 on the interior


@dataclass(frozen=True)
class Marginal:
    """Law of X_t for one start, as `Kernel.bind` returns it; t = inf is the stationary law."""

    t: float
    pdf: Callable
    cdf: Callable
    quantile: Callable
    pdf_dx: Callable | None = None       # d pdf / dx, analytic when registered
    cdf_dt: Callable | None = None       # d cdf / dt, analytic when registered


def _check_order(s: float, t: float) -> None:
    if not t > s:        # the message is formatted only on failure: every kernel call checks
        raise DomainError(f"time ordering violated: need s < t, got s={s}, t={t}")


def _check_nan(a, name: str) -> None:
    if any_true(a != a):
        raise DomainError(f"{name} must not be NaN")


def _check_p(p) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if any_true(~((p > 0.0) & (p < 1.0))):                # NaN fails the comparisons too
        raise DomainError("p must lie in the open interval (0, 1)")
    return p


def _masked(out, miss, fill):
    """``out`` with ``fill`` where ``miss``; ``miss`` None masks nothing."""
    return (out if miss is None else np.where(miss, fill, out))[()]


# ---------------------------------------------------------------------------
# Transition kernels
# ---------------------------------------------------------------------------

@runtime_checkable
class Kernel(Protocol):
    """Law of X_t given X_s = y for s < t, on broadcast arguments.

    ``bind(s, y, t)`` returns that law as a `Marginal` whose methods take x or p
    alone.  It computes the law's constants for (s, y, t) once; each method
    then checks its argument (NaN raises `DomainError`, and so does a p outside
    (0, 1)) and calls the unchecked cores of `special`.  ``pdf(s, y, t, x)`` and
    the other methods read the same bound law, so every formula is written
    once.  ``pdf_dx`` (d pdf/dx) and ``cdf_dt`` (d cdf/dt) take the arguments
    of ``pdf``; each is an analytic method, or None where the kernel has none.
    At x = -inf and +inf the pdf is 0 and the cdf 0 and 1.  Scalar arguments
    give a float (an ndarray exit ends in ``[()]``, which unwraps 0-d arrays).
    """

    pdf_dx: Callable | None
    cdf_dt: Callable | None

    def bind(self, s, y, t) -> Marginal: ...
    def pdf(self, s, y, t, x): ...
    def cdf(self, s, y, t, x): ...
    def quantile(self, s, y, t, p): ...
    def sample(self, s, y, t, rng, size=None): ...


class _LawKernel:
    """The kernel methods of a class whose ``_law(s, y, t)`` is its law bound at (s, y, t)."""

    def bind(self, s, y, t) -> Marginal:
        law = self._law(s, y, t)
        return Marginal(t, law.pdf, law.cdf, law.quantile,
                        None if self.pdf_dx is None else law.pdf_dx,
                        None if self.cdf_dt is None else law.cdf_dt)

    def pdf(self, s, y, t, x):
        return self._law(s, y, t).pdf(x)

    def cdf(self, s, y, t, x):
        return self._law(s, y, t).cdf(x)

    def quantile(self, s, y, t, p):
        return self._law(s, y, t).quantile(p)

    def sample(self, s, y, t, rng, size=None):
        return self._law(s, y, t).sample(rng, size)

    def pdf_dx(self, s, y, t, x):
        return self._law(s, y, t).pdf_dx(x)

    def cdf_dt(self, s, y, t, x):
        return self._law(s, y, t).cdf_dt(x)


class GaussianKernel(_LawKernel):
    """Ornstein-Uhlenbeck kernel of dX = (-alpha X + beta) dt + sigma dB:
    X_t | X_s = y  ~  Normal(mean(s,t,y), var(s,t)).

    alpha = 0 is Brownian motion with drift beta; for alpha > 0 the lag
    t - s = inf gives the stationary law Normal(beta/alpha, sigma^2/(2 alpha)).
    """

    def __init__(self, alpha: float, beta: float, sigma: float):
        self.alpha, self.beta, self.sigma = alpha, beta, sigma

    def _law(self, s, y, t):
        return _NormalLaw(self, s, y, t)


class _NormalLaw:
    """`GaussianKernel` bound at (s, y, t): its mean, variance and sd."""

    def __init__(self, k: GaussianKernel, s, y, t):
        _check_order(s, t)
        self.k, self.d, self.y = k, t - s, np.asarray(y, dtype=float)
        # first: at alpha < 0 this clock overflows (`DomainError`) before the mean's e^{-alpha d}
        self.var = k.sigma ** 2 * clock(-2.0 * k.alpha, self.d)
        self.sd = math.sqrt(self.var)
        # y e^{-alpha d} + beta clock(-alpha, d): no cancellation at small alpha, where
        # beta/alpha + (y - beta/alpha) e^{-alpha d} loses ulp(beta/alpha)
        self.mean = self.y * math.exp(-k.alpha * self.d) + k.beta * clock(-k.alpha, self.d)

    def _z(self, x):
        # beyond |z| = 40 the pdf is 0 and the cdf 0 or 1 in double precision, so the
        # clip changes no value and gives x = +-inf those limits (minimum/maximum cost
        # about half of np.clip on scalars)
        z = (np.asarray(x, dtype=float) - self.mean) / self.sd
        z = np.minimum(np.maximum(z, -40.0), 40.0)
        _check_nan(z, "x and y")
        return z

    def pdf(self, x):
        return (_norm_pdf(self._z(x)) / self.sd)[()]

    def cdf(self, x):
        return _norm_cdf(self._z(x))[()]

    def quantile(self, p):
        p = np.asarray(p, dtype=float)
        out = self.mean + self.sd * _norm_quantile(p)
        # one check for both arguments: Phi^-1 is infinite or NaN at p outside (0, 1)
        if any_true(~np.isfinite(out)):
            _check_p(p)
            raise DomainError("y must be finite")
        return out[()]

    def sample(self, rng, size=None):
        return self.mean + self.sd * rng.standard_normal(np.shape(self.y) if size is None
                                                         else size)

    def pdf_dx(self, x):
        z = self._z(x)
        return (-z * _norm_pdf(z) / self.var)[()]

    def cdf_dt(self, x):
        k = self.k
        z = self._z(x)
        dmean = (k.beta - k.alpha * self.y) * math.exp(-k.alpha * self.d)
        dsd = k.sigma ** 2 * math.exp(-2.0 * k.alpha * self.d) / (2.0 * self.sd)
        return (-_norm_pdf(z) * (dmean + z * dsd) / self.sd)[()]


class FoldedGaussianKernel(_LawKernel):
    """|B_t|, the reflected heat kernel on (0, infinity): the fold at 0 of the standard
    Brownian kernel B = GaussianKernel(0, 0, 1).

    The pdf is B's at x plus B's at -x; the cdf, pdf_dx and cdf_dt are B's at x minus
    B's at -x; a sample is |B's sample|, from the same draws.  Every method is 0 at x < 0.
    """

    _bm = GaussianKernel(0.0, 0.0, 1.0)

    def _law(self, s, y, t):
        return _FoldedLaw(self._bm._law(s, y, t))


class _FoldedLaw:
    """`FoldedGaussianKernel` bound at (s, y, t): the fold of B's law bound there."""

    # below this h (1 + |c|) the cdf is summed as a series instead of differenced
    _SERIES_BELOW = 0.03

    def __init__(self, bm: _NormalLaw):
        self.bm = bm

    def _fold(self, law, combine, x):
        x = np.asarray(x, dtype=float)
        return np.where(x < 0.0, 0.0, combine(law(x), law(-x)))[()]

    def pdf(self, x):
        return self._fold(self.bm.pdf, np.add, x)

    def cdf(self, x):
        """Phi(c + h) - Phi(c - h) with c = -y/sd, h = x/sd.

        The difference cancels for small h; there the odd Taylor series
        2 phi(c) [h + He2(c) h^3/3! + He4(c) h^5/5! + He6(c) h^7/7!]
        (He_n the Hermite polynomials) is used instead.
        """
        out = self._fold(self.bm.cdf, np.subtract, x)
        sd = self.bm.sd
        h, c = np.maximum(x, 0.0) / sd, -self.bm.y / sd
        small = h * (1.0 + np.abs(c)) < self._SERIES_BELOW
        h = np.where(small, h, 0.0)
        c2, h2 = c * c, h * h
        he2, he4, he6 = c2 - 1.0, (c2 - 6.0) * c2 + 3.0, ((c2 - 15.0) * c2 + 45.0) * c2 - 15.0
        series = 2.0 * _norm_pdf(c) * h * (
            1.0 + h2 * (he2 / 6.0 + h2 * (he4 / 120.0 + h2 * he6 / 5040.0)))
        return np.clip(np.where(small, series, out), 0.0, 1.0)

    def quantile(self, p):
        p, y = np.broadcast_arrays(_check_p(p), self.bm.y)
        return invert_monotone_cdf(lambda x: (self.cdf(x), self.pdf(x)), p,
                                   0.0, np.abs(y) + 12.0 * self.bm.sd, bounds=(0.0, np.inf),
                                   f_tol=1e-13, x_rel_tol=1e-14)

    def sample(self, rng, size=None):
        return np.abs(self.bm.sample(rng, size))

    def pdf_dx(self, x):
        return self._fold(self.bm.pdf_dx, np.subtract, x)

    def cdf_dt(self, x):
        return self._fold(self.bm.cdf_dt, np.subtract, x)


class Ncx2Kernel(_LawKernel):
    """cir-family kernel:  2 c_{t-s} X_t | X_s = y  ~  chi2nc(df, 2 c_{t-s} e^{-alpha(t-s)} y)."""

    def __init__(self, df: float, alpha: float, sigma: float):
        self.df, self.alpha, self.sigma = df, alpha, sigma

    def _twoc(self, dt: float) -> float:
        # 2 c_r = 4 / (sigma^2 clock(-alpha, r)); alpha -> 0 limit 4/(sigma^2 r)
        return 4.0 / (self.sigma ** 2 * clock(-self.alpha, dt))

    def _law(self, s, y, t):
        return _Ncx2Law(self, s, y, t)


class _Ncx2Law:
    """`Ncx2Kernel` bound at (s, y, t): 2c and lam = 2c e^{-alpha (t - s)} y."""

    def __init__(self, k: Ncx2Kernel, s, y, t):
        _check_order(s, t)
        self.k, self.d, self.y = k, t - s, np.asarray(y, dtype=float)
        self.twoc = k._twoc(self.d)
        self.raw_lam = self.twoc * math.exp(-k.alpha * self.d) * self.y

    @cached_property
    def lam(self):
        # checked once per bound law, by its first evaluation: the draws check nothing, so
        # a path step of 1000 states does not pay the check's reductions
        return _validate_nu_lambda(self.k.df, self.raw_lam)

    def _inside(self, x, fill):
        """The misses x < 0 and x = inf, and x with ``fill`` in their place."""
        x = np.asarray(x, dtype=float)
        _check_nan(x, "x")
        miss = (x < 0.0) | (x == np.inf)
        return miss, np.where(miss, fill, x)

    def pdf(self, x):
        miss, x = self._inside(x, 0.0)
        out = self.twoc * _chi2nc_pdf(self.twoc * x, self.k.df, self.lam)
        return np.where(miss, 0.0, out)[()]

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        _check_nan(x, "x")
        out = _chi2nc_cdf(self.twoc * np.maximum(x, 0.0), self.k.df, self.lam)
        return np.where(x < 0.0, 0.0, out)[()]

    def quantile(self, p):
        return (_chi2nc_quantile(_check_p(p), self.k.df, self.lam) / self.twoc)[()]

    def sample(self, rng, size=None):
        lam = np.broadcast_to(self.raw_lam, np.shape(self.y) if size is None else size)
        mix = rng.poisson(lam / 2.0)
        return 2.0 * rng.standard_gamma(self.k.df / 2.0 + mix) / self.twoc

    def pdf_dx(self, x):
        """d pdf/dx; at x = 0 the right-hand limit (see `special._chi2nc_pdf_dz`)."""
        miss, x = self._inside(x, 1.0)
        out = self.twoc ** 2 * _chi2nc_pdf_dz(self.twoc * x, self.k.df, self.lam)
        return np.where(miss, 0.0, out)[()]

    def cdf_dt(self, x):
        """d cdf/dt of F = P(chi2nc(df, lam) <= 2c x), with r = t - s:

            dF/dt = f(2c x; df, lam) x d(2c)/dr - f(2c x; df + 2, lam) dlam/dr,

        since a noncentral chi-square is a Poisson mixture of central ones, so
        dF/dlam = -f(z; df + 2, lam).  From d clock(-alpha, r)/dr = e^{-alpha r},
        d(2c)/dr = -2c e^{-alpha r} / clock(-alpha, r) and
        dlam/dr = y e^{-alpha r} (d(2c)/dr - alpha 2c); alpha = 0 needs no branch.
        0 where F is constant in t: x <= 0 and x = inf.
        """
        k, twoc = self.k, self.twoc
        x = np.asarray(x, dtype=float)
        _check_nan(x, "x")
        miss = (x <= 0.0) | (x == np.inf)
        xin = np.where(miss, 1.0, x)
        decay = math.exp(-k.alpha * self.d)
        dtwoc = -twoc * decay / clock(-k.alpha, self.d)
        dlam = self.y * decay * (dtwoc - k.alpha * twoc)
        z = twoc * xin
        out = (_chi2nc_pdf(z, k.df, self.lam) * xin * dtwoc
               - _chi2nc_pdf(z, k.df + 2.0, self.lam) * dlam)
        return np.where(miss, 0.0, out)[()]


class MappedKernel(_LawKernel):
    """Kernel of psi(t, X_t) for a map psi(t, .) strictly monotone on the states of X.

    A call at (s, y, t, x) reads the base kernel bound at (s, inverse(s, y), t)
    at u = inverse(t, x): the pdf is the base pdf over |J|, J = jacobian(t, u, x)
    = d psi/du, and the cdf the base cdf, or 1 minus it for a decreasing map.
    States x outside the open ``image`` get pdf 0 and cdf 0 or 1 and never
    reach the base law; when no x lies outside, no mask is applied.  With
    ``phi_inv`` the base kernel is read at times phi_inv(s), phi_inv(t).
    ``djac_dx`` (dJ/du at (t, u, x)) gives the analytic ``pdf_dx``; a
    ``static`` map, one that does not depend on time, keeps the base ``cdf_dt``.
    """

    def __init__(self, base: Kernel, psi: Callable, inverse: Callable, jacobian: Callable,
                 image: tuple[float, float], *, increasing: bool = True,
                 phi_inv: Callable | None = None, djac_dx: Callable | None = None,
                 static: bool = False):
        self.base, self.psi, self.inverse, self.jacobian = base, psi, inverse, jacobian
        self.image, self.increasing = image, increasing
        self._phi_inv, self._djac_dx = phi_inv, djac_dx
        step = min(1.0, 0.25 * (image[1] - image[0]))
        self._inner = min(max(0.0, image[0] + step), image[1] - step)   # stands in for misses
        if djac_dx is None or base.pdf_dx is None:
            self.pdf_dx = None
        if not static or base.cdf_dt is None:
            self.cdf_dt = None

    def _times(self, s, t):
        if self._phi_inv is None:
            return s, t
        ts, tt = float(self._phi_inv(s)), float(self._phi_inv(t))
        require(ts < tt, "time map is not increasing over the requested pair")
        return ts, tt

    def _law(self, s, y, t):
        return _MappedLaw(self, s, y, t)

    def sample(self, s, y, t, rng, size=None):
        ts, tt = self._times(s, t)
        xs = self.inverse(ts, np.asarray(y, dtype=float))
        return self.psi(tt, self.base.sample(ts, xs, tt, rng, size))


class _MappedLaw:
    """`MappedKernel` bound at (s, y, t): the base law bound at the mapped times and start."""

    def __init__(self, k: MappedKernel, s, y, t):
        ts, self.tt = k._times(s, t)
        self.k, self.base = k, k.base.bind(ts, k.inverse(ts, y), self.tt)

    def _source(self, x):
        """(x, u, miss, above): x with the image misses replaced, u = inverse(t, x), the
        misses and the misses above the image; miss and above are None without misses."""
        k = self.k
        x = np.asarray(x, dtype=float)
        above = x >= k.image[1]
        miss = above | (x <= k.image[0])
        if not any_true(miss):
            return x, k.inverse(self.tt, x), None, None
        x = np.where(miss, k._inner, x)
        return x, k.inverse(self.tt, x), miss, above

    def pdf(self, x):
        x, u, miss, _ = self._source(x)
        return _masked(self.base.pdf(u) / np.abs(self.k.jacobian(self.tt, u, x)), miss, 0.0)

    def cdf(self, x):
        _, u, miss, above = self._source(x)
        out = self.base.cdf(u)
        return _masked(out if self.k.increasing else 1.0 - out, miss, above)

    def quantile(self, p):
        p = np.asarray(p, dtype=float)
        return self.k.psi(self.tt, self.base.quantile(p if self.k.increasing else 1.0 - p))

    def pdf_dx(self, x):
        # d/dx [f(u) / |J(u)|] = (f'(u) - f(u) J'(u) / J(u)) / (J |J|), u = inverse(t, x)
        x, u, miss, _ = self._source(x)
        jac = self.k.jacobian(self.tt, u, x)
        f, fp = self.base.pdf(u), self.base.pdf_dx(u)
        out = (fp - f * self.k._djac_dx(self.tt, u, x) / jac) / (jac * np.abs(jac))
        return _masked(out, miss, 0.0)

    def cdf_dt(self, x):
        _, u, miss, _ = self._source(x)
        out = self.base.cdf_dt(u)
        return _masked(out if self.k.increasing else -out, miss, 0.0)


# ---------------------------------------------------------------------------
# Model container
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Model:
    """A catalog diffusion bound to an initial condition (t0, x0)."""

    spec: DiffusionSpec
    kernel: Kernel
    x0: float
    t0: float
    stationary: Marginal | None = None   # marginal(inf), where the model is ergodic

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def interval(self) -> tuple[float, float]:
        return self.spec.interval

    def marginal(self, t: float) -> Marginal:
        """The law of X_t, the kernel bound at (t0, x0, t); requires t > t0."""
        require(t > self.t0, f"marginal requires t > t0 = {self.t0}, got t = {t}")
        return self.kernel.bind(self.t0, self.x0, t)


def marginal(model: Model, t: float) -> Marginal:
    return model.marginal(t)


def sample_transition(model: Model, s: float, y, t: float, rng, size=None):
    """Exact draw of X_t given X_s = y (reproducible under the supplied rng)."""
    return model.kernel.sample(s, y, t, rng, size)


# ---------------------------------------------------------------------------
# Catalog builders
# ---------------------------------------------------------------------------

def _take(params: Mapping[str, float] | None, name: str, **spec_kw) -> dict:
    params = dict(params or {})
    out = {}
    for key, validator in spec_kw.items():
        if key not in params:
            raise DomainError(f"model '{name}' requires parameter '{key}'")
        val = float(params.pop(key))
        validator(val)
        out[key] = val
    if params:
        raise DomainError(f"model '{name}' got unknown parameters {sorted(params)}")
    return out


def _positive(label):
    def check(v):
        require(v > 0.0, f"{label} must be positive")
    return check


def _any(_label):
    def check(v):
        require(np.isfinite(v), f"{_label} must be finite")
    return check


def _check_x0(x0: float, interval, name: str, allow_lower: bool = False) -> None:
    lo, hi = interval
    if allow_lower and x0 == lo:
        return
    require(lo < x0 < hi,
            f"x0 = {x0} must lie in the interior of {interval} for model '{name}'")


def _with_stationary(model: Model, ergodic: bool) -> Model:
    """The model with its stationary law, the marginal at an infinite lag, when ``ergodic``."""
    return replace(model, stationary=model.marginal(math.inf)) if ergodic else model


def _ou_family(name, params, al, be, sg, x0, t0):
    spec = DiffusionSpec(name, params, (-np.inf, np.inf), ("natural", "natural"),
                         drift=lambda x, t: -al * np.asarray(x, float) + be,
                         diffusion=lambda x, t: np.full_like(np.asarray(x, float), sg)[()])
    return _with_stationary(Model(spec, GaussianKernel(al, be, sg), x0, t0), al > 0.0)


def _build_bm(params, x0, t0):
    return _ou_family("bm", _take(params, "bm"), 0.0, 0.0, 1.0, x0, t0)


def _build_bm_drift(params, x0, t0):
    p = _take(params, "bm_drift", mu=_any("mu"), sigma=_positive("sigma"))
    return _ou_family("bm_drift", p, 0.0, p["mu"], p["sigma"], x0, t0)


def _build_gbm(params, x0, t0):
    p = _take(params, "gbm", mu=_any("mu"), sigma=_positive("sigma"))
    mu, sg = p["mu"], p["sigma"]
    _check_x0(x0, (0.0, np.inf), "gbm")
    spec = DiffusionSpec("gbm", p, (0.0, np.inf), ("natural", "natural"),
                         drift=lambda x, t: (mu + 0.5 * sg ** 2) * np.asarray(x, float),
                         diffusion=lambda x, t: sg * np.asarray(x, float))
    kern = MappedKernel(GaussianKernel(0.0, mu, sg), lambda t, x: np.exp(x),
                        lambda t, y: np.log(y), lambda t, x, y: y, (0.0, np.inf),
                        djac_dx=lambda t, x, y: y, static=True)
    return Model(spec, kern, x0, t0)


def _build_ou(params, x0, t0):
    p = _take(params, "ou", alpha=_any("alpha"), beta=_any("beta"), sigma=_positive("sigma"))
    return _ou_family("ou", p, p["alpha"], p["beta"], p["sigma"], x0, t0)


def _build_rbm(params, x0, t0):
    _take(params, "rbm")
    _check_x0(x0, (0.0, np.inf), "rbm", allow_lower=True)
    spec = DiffusionSpec("rbm", {}, (0.0, np.inf), ("regular-reflecting", "natural"),
                         drift=lambda x, t: 0.0 * np.asarray(x, float),
                         diffusion=lambda x, t: np.ones_like(np.asarray(x, float))[()])
    return Model(spec, FoldedGaussianKernel(), x0, t0)


def _cir_family(name, al, be, sg, x0, t0, params):
    gamma = 4.0 * be / sg ** 2
    lower = "entrance" if be >= sg ** 2 / 2.0 else "regular-reflecting"
    spec = DiffusionSpec(name, params, (0.0, np.inf), (lower, "natural"),
                         drift=lambda x, t: -al * np.asarray(x, float) + be,
                         diffusion=lambda x, t: sg * np.sqrt(np.asarray(x, float)))
    return _with_stationary(Model(spec, Ncx2Kernel(gamma, al, sg), x0, t0), al > 0.0)


def _build_cir(params, x0, t0):
    p = _take(params, "cir", alpha=_positive("alpha"), beta=_positive("beta"),
              sigma=_positive("sigma"))
    _check_x0(x0, (0.0, np.inf), "cir")
    return _cir_family("cir", p["alpha"], p["beta"], p["sigma"], x0, t0, p)


def _build_cir_special(params, x0, t0):
    p = _take(params, "cir_special", alpha=_positive("alpha"), sigma=_positive("sigma"))
    _check_x0(x0, (0.0, np.inf), "cir_special")
    return _cir_family("cir_special", p["alpha"], p["sigma"] ** 2 / 4.0, p["sigma"], x0, t0, p)


def _sqrt_family(name, params, a, b, x0, t0):
    """dY = (a/Y + b Y) dt + dB: Y = sqrt(X) for the cir with alpha = -2b, sigma = 2,
    gamma = 2a + 1."""
    _check_x0(x0, (0.0, np.inf), name)
    lower = "entrance" if a >= 0.5 else "regular-reflecting"
    spec = DiffusionSpec(name, params, (0.0, np.inf), (lower, "natural"),
                         drift=lambda x, t: a / np.asarray(x, float) + b * np.asarray(x, float),
                         diffusion=lambda x, t: np.ones_like(np.asarray(x, float))[()])
    kern = MappedKernel(Ncx2Kernel(2.0 * a + 1.0, -2.0 * b, 2.0), lambda t, x: np.sqrt(x),
                        lambda t, y: y * y, lambda t, x, y: 0.5 / y, (0.0, np.inf),
                        djac_dx=lambda t, x, y: -0.25 / (x * y), static=True)
    return _with_stationary(Model(spec, kern, x0, t0), b < 0.0)


def _build_rayleigh(params, x0, t0):
    p = _take(params, "rayleigh", a=_any("a"), b=_any("b"))
    require(p["a"] > -0.5, "rayleigh requires a > -1/2")
    return _sqrt_family("rayleigh", p, p["a"], p["b"], x0, t0)


def _build_bessel(params, x0, t0):
    p = _take(params, "bessel", delta=_positive("delta"))
    return _sqrt_family("bessel", p, p["delta"], 0.0, x0, t0)


_BUILDERS = {
    "bm": _build_bm,
    "bm_drift": _build_bm_drift,
    "gbm": _build_gbm,
    "ou": _build_ou,
    "rbm": _build_rbm,
    "cir": _build_cir,
    "cir_special": _build_cir_special,
    "rayleigh": _build_rayleigh,
    "bessel": _build_bessel,
}


def make_model(name: str, params: Mapping[str, float] | None = None, *,
               x0: float, t0: float = 0.0) -> Model:
    """Construct a catalog model bound to the initial condition (t0, x0).

    Raises `DomainError` for unknown catalog ids, invalid parameters, or an
    x0 on the boundary (rbm may start at its reflecting boundary 0).
    """
    if name not in _BUILDERS:
        raise DomainError(f"unknown catalog id '{name}'; known: {', '.join(_CATALOG_IDS)}")
    require(np.isfinite(x0), "x0 must be finite")
    require(np.isfinite(t0) and t0 >= 0.0, "t0 must be finite and nonnegative")
    return _BUILDERS[name](params, float(x0), float(t0))


# ---------------------------------------------------------------------------
# Path simulation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PathEnsemble:
    """Discretely sampled trajectories with provenance metadata."""

    times: np.ndarray                    # (k,)
    paths: np.ndarray                    # (n_paths, k)
    seed: int | None
    meta: Mapping[str, object] = field(default_factory=dict)

    @property
    def n_paths(self) -> int:
        return self.paths.shape[0]

    def to_csv(self, path) -> None:
        """Write `# paths=<n>,seed=<s>` then rows `time,p1,...,pn`."""
        row = ",".join(["%.17g"] * (self.n_paths + 1)) + "\n"
        with open(path, "w") as fh:
            fh.write(f"# paths={self.n_paths},seed={self.seed}\n")
            for t, column in zip(self.times, self.paths.T):
                fh.write(row % (t, *column.tolist()))

    @classmethod
    def from_csv(cls, path) -> "PathEnsemble":
        with open(path) as fh:
            header = fh.readline().strip()
            if not header.startswith("# paths="):
                raise DomainError(f"not a path-ensemble CSV: {path}")
            fields = dict(item.split("=") for item in header[2:].split(","))
            seed = None if fields["seed"] == "None" else int(fields["seed"])
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        return cls(times=data[:, 0], paths=data[:, 1:].T, seed=seed)


def _resolve_rng(rng=None, seed=None):
    if rng is not None:
        return rng, seed
    return np.random.default_rng(seed), seed


def simulate_paths(model: Model, times, n_paths: int, rng=None, seed=None) -> PathEnsemble:
    """Exact path sampling of the model on the given strictly increasing grid.

    `DomainError` names the first time whose states are not all finite, as an
    explosive model's (ou with alpha < 0) overflow at a long horizon.
    """
    times = np.asarray(times, dtype=float)
    require(times.ndim == 1 and times.size >= 1, "times must be a 1-d grid")
    require(np.all(np.diff(times) > 0), "times must be strictly increasing")
    require(times[0] > model.t0, f"times must start after t0 = {model.t0}")
    require(n_paths >= 1, "n_paths must be positive")
    rng, seed = _resolve_rng(rng, seed)

    paths = np.empty((n_paths, times.size))
    state = np.full(n_paths, model.x0, dtype=float)
    prev = model.t0
    # an overflow leaves states that are not finite, which the check below reports; one check
    # of the whole array costs a tenth of one per time on 1000 paths x 100 times
    with np.errstate(over="ignore", invalid="ignore"):
        for i, t in enumerate(times):
            state = np.asarray(model.kernel.sample(prev, state, float(t), rng), dtype=float)
            paths[:, i] = state
            prev = float(t)
    if not np.isfinite(paths).all():
        t = times[np.argmin(np.isfinite(paths).all(axis=0))]
        raise DomainError(f"model '{model.name}' has states that are not finite at "
                          f"t = {t:.17g}: its paths overflow double precision")
    meta = {"model": model.name, "params": dict(model.spec.params),
            "x0": model.x0, "t0": model.t0}
    return PathEnsemble(times=times, paths=paths, seed=seed, meta=meta)


def euler_maruyama(drift, diffusion, x0: float, t0: float, t_end: float, dt: float,
                   n_paths: int, rng, clip_floor: float | None = None) -> np.ndarray:
    """Euler-Maruyama terminal states; the reference oracle for kernel checks.

    With ``clip_floor`` the scheme is full truncation: drift and diffusion are
    evaluated at max(x, floor), keeping sqrt coefficients real.
    """
    require(dt > 0 and t_end > t0, "need dt > 0 and t_end > t0")
    n_steps = int(round((t_end - t0) / dt))
    x = np.full(n_paths, x0, dtype=float)
    sq = math.sqrt(dt)
    t = t0
    for _ in range(n_steps):
        xe = x if clip_floor is None else np.maximum(x, clip_floor)
        x = x + drift(xe, t) * dt + diffusion(xe, t) * sq * rng.standard_normal(n_paths)
        t += dt
    return x
