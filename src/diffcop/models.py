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
``bessel``            dZ = (delta/Z) dt + dB, the b -> 0 limit of rayleigh
====================  =======================================================

Both kernel families read their lag r = t - s on the exponential clock
phi_a(r) = (e^{a r} - 1)/a of `_numerics.clock` (phi_0(r) = r), so alpha = 0
needs no branch.  One Gaussian kernel, the Ornstein-Uhlenbeck law
`GaussianKernel(alpha, beta, sigma)` with mean y e^{-alpha r} + beta
phi_{-alpha}(r) and variance sigma^2 phi_{-2 alpha}(r), serves bm (0, 0, 1),
bm_drift (0, mu, sigma), gbm's log kernel (0, mu, sigma) and ou (alpha, beta,
sigma).  The cir-family kernel uses the parametrization fixed against a
Monte-Carlo oracle:  with c_r = 2 / (sigma^2 phi_{-alpha}(r)),

    2 c_{t-s} X_t | X_s = y   ~   chi2nc(4 beta/sigma^2,  2 c_{t-s} e^{-alpha(t-s)} y).

A monotone map of a kernel is a kernel: `MappedKernel` holds the pushforward
f^Y = f^X / |d psi/dx|.  gbm is the exp map of a log-Gaussian kernel, Rayleigh
and Bessel the sqrt map of a cir-family kernel; `stt.push_transition` and the
recombined process build theirs from it too.

A stationary law is the transition law at an infinite lag: `Model.stationary`
is ``model.marginal(math.inf)`` for ou with alpha > 0, cir, cir_special and
rayleigh with b < 0, and None for the other models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Protocol, runtime_checkable

import numpy as np

from . import special
from ._numerics import clock, invert_monotone_cdf, require
from .errors import DomainError

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
    """Time-t marginal of a model started at (t0, x0); t = inf is the stationary law."""

    t: float
    pdf: Callable
    cdf: Callable
    quantile: Callable
    pdf_dx: Callable | None = None       # d pdf / dx, analytic when registered
    cdf_dt: Callable | None = None       # d cdf / dt, analytic when registered


def _check_order(s: float, t: float) -> None:
    if not t > s:        # the message is formatted only on failure: every kernel call checks
        raise DomainError(f"time ordering violated: need s < t, got s={s}, t={t}")


# ---------------------------------------------------------------------------
# Transition kernels
# ---------------------------------------------------------------------------

@runtime_checkable
class Kernel(Protocol):
    """Law of X_t given X_s = y for s < t, on broadcast arguments.

    ``pdf_dx`` (d pdf/dx) and ``cdf_dt`` (d cdf/dt) take the arguments of
    ``pdf``; each is an analytic method, or None where the kernel has none.
    At x = -inf and +inf the pdf is 0 and the cdf 0 and 1.
    """

    pdf_dx: Callable | None
    cdf_dt: Callable | None

    def pdf(self, s, y, t, x): ...
    def cdf(self, s, y, t, x): ...
    def quantile(self, s, y, t, p): ...
    def sample(self, s, y, t, rng, size=None): ...


class GaussianKernel:
    """Ornstein-Uhlenbeck kernel of dX = (-alpha X + beta) dt + sigma dB:
    X_t | X_s = y  ~  Normal(mean(s,t,y), var(s,t)).

    alpha = 0 is Brownian motion with drift beta; for alpha > 0 the lag
    t - s = inf gives the stationary law Normal(beta/alpha, sigma^2/(2 alpha)).
    """

    def __init__(self, alpha: float, beta: float, sigma: float):
        self.alpha, self.beta, self.sigma = alpha, beta, sigma

    def _mean(self, s, t, y):
        # y e^{-alpha d} + beta clock(-alpha, d): no cancellation at small alpha, where
        # beta/alpha + (y - beta/alpha) e^{-alpha d} loses ulp(beta/alpha)
        d = t - s
        return np.asarray(y, float) * math.exp(-self.alpha * d) + self.beta * clock(-self.alpha, d)

    def _var(self, s, t):
        return self.sigma ** 2 * clock(-2.0 * self.alpha, t - s)

    def _dmean_dt(self, s, t, y):
        return (self.beta - self.alpha * np.asarray(y, float)) * math.exp(-self.alpha * (t - s))

    def _dvar_dt(self, s, t):
        return self.sigma ** 2 * math.exp(-2.0 * self.alpha * (t - s))

    def _z(self, s, y, t, x, sd):
        # beyond |z| = 40 the pdf is 0 and the cdf 0 or 1 in double precision, so the
        # clip changes no value and gives x = +-inf those limits (minimum/maximum cost
        # about half of np.clip on scalars)
        z = (np.asarray(x, dtype=float) - self._mean(s, t, y)) / sd
        return np.minimum(np.maximum(z, -40.0), 40.0)

    def pdf(self, s, y, t, x):
        _check_order(s, t)
        sd = math.sqrt(self._var(s, t))
        return special.norm_pdf(self._z(s, y, t, x, sd)) / sd

    def cdf(self, s, y, t, x):
        _check_order(s, t)
        sd = math.sqrt(self._var(s, t))
        return special.norm_cdf(self._z(s, y, t, x, sd))

    def quantile(self, s, y, t, p):
        _check_order(s, t)
        sd = math.sqrt(self._var(s, t))
        return self._mean(s, t, y) + sd * special.norm_quantile(p)

    def sample(self, s, y, t, rng, size=None):
        _check_order(s, t)
        sd = math.sqrt(self._var(s, t))
        shape = np.shape(y) if size is None else size
        return self._mean(s, t, y) + sd * rng.standard_normal(shape)

    def pdf_dx(self, s, y, t, x):
        _check_order(s, t)
        v = self._var(s, t)
        z = self._z(s, y, t, x, math.sqrt(v))
        return -z * special.norm_pdf(z) / v

    def cdf_dt(self, s, y, t, x):
        _check_order(s, t)
        sd = math.sqrt(self._var(s, t))
        z = self._z(s, y, t, x, sd)
        dsd = self._dvar_dt(s, t) / (2.0 * sd)
        return -special.norm_pdf(z) * (self._dmean_dt(s, t, y) + z * dsd) / sd


class FoldedGaussianKernel:
    """|y + sqrt(var) Z|: the reflected heat kernel on (0, infinity)."""

    # below this h (1 + |c|) the cdf is summed as a series instead of differenced
    _SERIES_BELOW = 0.03

    @staticmethod
    def _clip(x, y, sd):
        # x = -inf takes the x < 0 branch; past |y| + 40 sd both folds have pdf 0 and
        # cdf 1 in double precision, so the clip changes no value and gives x = +inf those
        return np.minimum(np.maximum(np.asarray(x, dtype=float), -1.0), np.abs(y) + 40.0 * sd)

    def pdf(self, s, y, t, x):
        _check_order(s, t)
        sd = math.sqrt(t - s)
        x = self._clip(x, y, sd)
        out = (special.norm_pdf((x - y) / sd) + special.norm_pdf((x + y) / sd)) / sd
        return np.where(x < 0.0, 0.0, out)

    def cdf(self, s, y, t, x):
        """Phi(c + h) - Phi(c - h) with c = -y/sd, h = x/sd.

        The difference cancels for small h; there the odd Taylor series
        2 phi(c) [h + He2(c) h^3/3! + He4(c) h^5/5! + He6(c) h^7/7!]
        (He_n the Hermite polynomials) is used instead.
        """
        _check_order(s, t)
        sd = math.sqrt(t - s)
        x = self._clip(x, y, sd)
        out = special.norm_cdf((x - y) / sd) - special.norm_cdf((-x - y) / sd)
        h, c = x / sd, -np.asarray(y, dtype=float) / sd
        small = h * (1.0 + np.abs(c)) < self._SERIES_BELOW
        h = np.where(small, h, 0.0)
        c2, h2 = c * c, h * h
        he2, he4, he6 = c2 - 1.0, (c2 - 6.0) * c2 + 3.0, ((c2 - 15.0) * c2 + 45.0) * c2 - 15.0
        series = 2.0 * special.norm_pdf(c) * h * (
            1.0 + h2 * (he2 / 6.0 + h2 * (he4 / 120.0 + h2 * he6 / 5040.0)))
        out = np.where(small, series, out)
        return np.clip(np.where(x < 0.0, 0.0, out), 0.0, 1.0)

    def quantile(self, s, y, t, p):
        _check_order(s, t)
        sd = math.sqrt(t - s)
        p, y = np.broadcast_arrays(np.asarray(p, dtype=float), np.asarray(y, dtype=float))
        return invert_monotone_cdf(lambda x: (self.cdf(s, y, t, x), self.pdf(s, y, t, x)), p,
                                   0.0, np.abs(y) + 12.0 * sd, bounds=(0.0, np.inf),
                                   f_tol=1e-13, x_rel_tol=1e-14)

    def sample(self, s, y, t, rng, size=None):
        _check_order(s, t)
        sd = math.sqrt(t - s)
        shape = np.shape(y) if size is None else size
        return np.abs(np.asarray(y, dtype=float) + sd * rng.standard_normal(shape))

    def pdf_dx(self, s, y, t, x):
        _check_order(s, t)
        v = t - s
        sd = math.sqrt(v)
        x = self._clip(x, y, sd)
        a, b = (x - y) / sd, (x + y) / sd
        return np.where(x < 0.0, 0.0, (-a * special.norm_pdf(a) - b * special.norm_pdf(b)) / v)

    def cdf_dt(self, s, y, t, x):
        _check_order(s, t)
        d = t - s
        x = self._clip(x, y, math.sqrt(d))
        a, b = (x - y) / math.sqrt(d), (x + y) / math.sqrt(d)
        out = (-(x - y) * special.norm_pdf(a) - (x + y) * special.norm_pdf(b)) / (2.0 * d ** 1.5)
        return np.where(x < 0.0, 0.0, out)


class Ncx2Kernel:
    """cir-family kernel:  2 c_{t-s} X_t | X_s = y  ~  chi2nc(df, 2 c_{t-s} e^{-alpha(t-s)} y)."""

    def __init__(self, df: float, alpha: float, sigma: float):
        self.df, self.alpha, self.sigma = df, alpha, sigma
        self.cdf_dt = None

    def _twoc(self, dt: float) -> float:
        # 2 c_r = 4 / (sigma^2 clock(-alpha, r)); alpha -> 0 limit 4/(sigma^2 r)
        return 4.0 / (self.sigma ** 2 * clock(-self.alpha, dt))

    def _lam(self, dt: float, y):
        return self._twoc(dt) * math.exp(-self.alpha * dt) * np.asarray(y, dtype=float)

    def pdf(self, s, y, t, x):
        _check_order(s, t)
        twoc = self._twoc(t - s)
        x = np.asarray(x, dtype=float)
        miss = (x < 0.0) | (x == np.inf)
        out = twoc * special.chi2nc_pdf(twoc * np.where(miss, 0.0, x), self.df,
                                        self._lam(t - s, y))
        return np.where(miss, 0.0, out)

    def cdf(self, s, y, t, x):
        _check_order(s, t)
        twoc = self._twoc(t - s)
        x = np.asarray(x, dtype=float)
        pos = np.clip(x, 0.0, None)
        out = special.chi2nc_cdf(twoc * pos, self.df, self._lam(t - s, y))
        return np.where(x < 0.0, 0.0, out)

    def quantile(self, s, y, t, p):
        _check_order(s, t)
        twoc = self._twoc(t - s)
        return special.chi2nc_quantile(p, self.df, self._lam(t - s, y)) / twoc

    def sample(self, s, y, t, rng, size=None):
        _check_order(s, t)
        twoc = self._twoc(t - s)
        lam = np.broadcast_to(self._lam(t - s, y), np.shape(y) if size is None else size)
        mix = rng.poisson(lam / 2.0)
        return 2.0 * rng.standard_gamma(self.df / 2.0 + mix) / twoc

    def pdf_dx(self, s, y, t, x):
        """d pdf/dx; at x = 0 the right-hand limit (see `special._chi2nc_pdf_dz`)."""
        _check_order(s, t)
        twoc = self._twoc(t - s)
        x = np.asarray(x, dtype=float)
        miss = (x < 0.0) | (x == np.inf)
        z = twoc * np.where(miss, 1.0, x)
        out = twoc ** 2 * special._chi2nc_pdf_dz(z, self.df, self._lam(t - s, y))
        return np.where(miss, 0.0, out)


class MappedKernel:
    """Kernel of psi(t, X_t) for a map psi(t, .) strictly monotone on the states of X.

    A call at (s, y, t, x) reads the base kernel at (s, inverse(s, y), t, u),
    u = inverse(t, x): the pdf is the base pdf over |J|, J = jacobian(t, u, x)
    = d psi/du, and the cdf the base cdf, or 1 minus it for a decreasing map.
    States x outside the open ``image`` get pdf 0 and cdf 0 or 1 and never
    reach the base kernel.  With ``phi_inv`` the base kernel is read at times
    phi_inv(s), phi_inv(t).  ``djac_dx`` (dJ/du at (t, u, x)) gives the
    analytic ``pdf_dx``; a ``static`` map, one that does not depend on time,
    keeps the base ``cdf_dt``.
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
        self.pdf_dx = self._pdf_dx if djac_dx is not None and base.pdf_dx is not None else None
        self.cdf_dt = self._cdf_dt if static and base.cdf_dt is not None else None

    def _times(self, s, t):
        if self._phi_inv is None:
            return s, t
        ts, tt = float(self._phi_inv(s)), float(self._phi_inv(t))
        require(ts < tt, "time map is not increasing over the requested pair")
        return ts, tt

    def _source(self, s, y, t, x):
        # (ts, xs, tt, xt) for the base kernel, x with the image misses replaced, the misses,
        # and the misses above the image
        ts, tt = self._times(s, t)
        x = np.asarray(x, dtype=float)
        above = x >= self.image[1]
        miss = above | (x <= self.image[0])
        x = np.where(miss, self._inner, x)
        return ts, self.inverse(ts, y), tt, self.inverse(tt, x), x, miss, above

    def pdf(self, s, y, t, x):
        ts, xs, tt, xt, x, miss, _ = self._source(s, y, t, x)
        out = self.base.pdf(ts, xs, tt, xt) / np.abs(self.jacobian(tt, xt, x))
        return np.where(miss, 0.0, out)

    def cdf(self, s, y, t, x):
        ts, xs, tt, xt, x, miss, above = self._source(s, y, t, x)
        out = self.base.cdf(ts, xs, tt, xt)
        return np.where(miss, above, out if self.increasing else 1.0 - out)

    def quantile(self, s, y, t, p):
        ts, tt = self._times(s, t)
        p = np.asarray(p, dtype=float)
        x = self.base.quantile(ts, self.inverse(ts, y), tt, p if self.increasing else 1.0 - p)
        return self.psi(tt, x)

    def sample(self, s, y, t, rng, size=None):
        ts, tt = self._times(s, t)
        xs = self.inverse(ts, np.asarray(y, dtype=float))
        return self.psi(tt, self.base.sample(ts, xs, tt, rng, size))

    def _pdf_dx(self, s, y, t, x):
        # d/dx [f(u) / |J(u)|] = (f'(u) - f(u) J'(u) / J(u)) / (J |J|), u = inverse(t, x)
        ts, xs, tt, xt, x, miss, _ = self._source(s, y, t, x)
        jac = self.jacobian(tt, xt, x)
        f, fp = self.base.pdf(ts, xs, tt, xt), self.base.pdf_dx(ts, xs, tt, xt)
        out = (fp - f * self._djac_dx(tt, xt, x) / jac) / (jac * np.abs(jac))
        return np.where(miss, 0.0, out)

    def _cdf_dt(self, s, y, t, x):
        ts, xs, tt, xt, x, miss, _ = self._source(s, y, t, x)
        out = self.base.cdf_dt(ts, xs, tt, xt)
        return np.where(miss, 0.0, out if self.increasing else -out)


def _sqrt_map(core: Ncx2Kernel) -> MappedKernel:
    """Y = sqrt(X) over a cir-family kernel: the rayleigh and bessel kernels."""
    return MappedKernel(core, lambda t, x: np.sqrt(x), lambda t, y: y * y,
                        lambda t, x, y: 0.5 / y, (0.0, np.inf),
                        djac_dx=lambda t, x, y: -0.25 / (x * y), static=True)


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
        """Distribution of X_t given the initial condition; requires t > t0."""
        require(t > self.t0, f"marginal requires t > t0 = {self.t0}, got t = {t}")
        k, x0, t0 = self.kernel, self.x0, self.t0
        return Marginal(
            t=t,
            pdf=lambda x: k.pdf(t0, x0, t, x),
            cdf=lambda x: k.cdf(t0, x0, t, x),
            quantile=lambda p: k.quantile(t0, x0, t, p),
            pdf_dx=None if k.pdf_dx is None else (lambda x: k.pdf_dx(t0, x0, t, x)),
            cdf_dt=None if k.cdf_dt is None else (lambda x: k.cdf_dt(t0, x0, t, x)),
        )


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
                         diffusion=lambda x, t: np.full_like(np.asarray(x, float), sg))
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
    require(x0 >= 0.0, "rbm requires x0 >= 0")
    spec = DiffusionSpec("rbm", {}, (0.0, np.inf), ("regular-reflecting", "natural"),
                         drift=lambda x, t: 0.0 * np.asarray(x, float),
                         diffusion=lambda x, t: np.ones_like(np.asarray(x, float)))
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


def _build_rayleigh(params, x0, t0):
    p = _take(params, "rayleigh", a=_any("a"), b=_any("b"))
    a, b = p["a"], p["b"]
    require(a > -0.5, "rayleigh requires a > -1/2")
    _check_x0(x0, (0.0, np.inf), "rayleigh")
    lower = "entrance" if a >= 0.5 else "regular-reflecting"
    spec = DiffusionSpec("rayleigh", p, (0.0, np.inf), (lower, "natural"),
                         drift=lambda x, t: a / np.asarray(x, float) + b * np.asarray(x, float),
                         diffusion=lambda x, t: np.ones_like(np.asarray(x, float)))
    # Y = sqrt(X) for a cir with alpha=-2b, sigma=2, beta=2a+1 (gamma = 2a+1)
    kern = _sqrt_map(Ncx2Kernel(2.0 * a + 1.0, -2.0 * b, 2.0))
    return _with_stationary(Model(spec, kern, x0, t0), b < 0.0)


def _build_bessel(params, x0, t0):
    p = _take(params, "bessel", delta=_positive("delta"))
    delta = p["delta"]
    _check_x0(x0, (0.0, np.inf), "bessel")
    lower = "entrance" if delta >= 0.5 else "regular-reflecting"
    spec = DiffusionSpec("bessel", p, (0.0, np.inf), (lower, "natural"),
                         drift=lambda x, t: delta / np.asarray(x, float),
                         diffusion=lambda x, t: np.ones_like(np.asarray(x, float)))
    return Model(spec, _sqrt_map(Ncx2Kernel(2.0 * delta + 1.0, 0.0, 2.0)), x0, t0)


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
    """Exact path sampling of the model on the given strictly increasing grid."""
    times = np.asarray(times, dtype=float)
    require(times.ndim == 1 and times.size >= 1, "times must be a 1-d grid")
    require(np.all(np.diff(times) > 0), "times must be strictly increasing")
    require(times[0] > model.t0, f"times must start after t0 = {model.t0}")
    require(n_paths >= 1, "n_paths must be positive")
    rng, seed = _resolve_rng(rng, seed)

    paths = np.empty((n_paths, times.size))
    state = np.full(n_paths, model.x0, dtype=float)
    prev = model.t0
    for i, t in enumerate(times):
        state = np.asarray(model.kernel.sample(prev, state, float(t), rng), dtype=float)
        paths[:, i] = state
        prev = float(t)
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
