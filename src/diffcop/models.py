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

The cir-family kernel uses the parametrization fixed against a Monte-Carlo
oracle:  with  c_r = 2*alpha / (sigma^2 (1 - e^{-alpha r})),

    2 c_{t-s} X_t | X_s = y   ~   chi2nc(4 beta/sigma^2,  2 c_{t-s} e^{-alpha(t-s)} y).

Rayleigh and Bessel kernels are the exact monotone pushforwards of that law
through Y = 2 sqrt(X)/sigma (algebraically simplified: the squared state is a
scaled noncentral chi-square).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np
from scipy.special import gammainc, gammaincinv, gammaln

from . import special
from ._numerics import grow_bracket, invert_monotone_cdf, require
from .errors import DomainError

__all__ = [
    "DiffusionSpec", "StationaryLaw", "Marginal", "Model", "PathEnsemble",
    "make_model", "catalog_ids", "marginal", "sample_transition",
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
class StationaryLaw:
    pdf: Callable
    cdf: Callable
    quantile: Callable
    pdf_dx: Callable


@dataclass(frozen=True)
class Marginal:
    """Time-t marginal of a model started at (t0, x0)."""

    t: float
    pdf: Callable
    cdf: Callable
    quantile: Callable
    pdf_dx: Callable | None = None       # d pdf / dx, analytic when registered
    cdf_dt: Callable | None = None       # d cdf / dt, analytic when registered


def _check_order(s: float, t: float) -> None:
    require(t > s, f"time ordering violated: need s < t, got s={s}, t={t}")


# ---------------------------------------------------------------------------
# Transition kernels
# ---------------------------------------------------------------------------

class GaussianKernel:
    """X_t | X_s = y  ~  Normal(mean(s,t,y), var(s,t))."""

    def __init__(self, mean, var, dmean_dt=None, dvar_dt=None):
        self._mean, self._var = mean, var
        self._dmean_dt, self._dvar_dt = dmean_dt, dvar_dt

    def pdf(self, s, y, t, x):
        _check_order(s, t)
        sd = math.sqrt(self._var(s, t))
        z = (np.asarray(x, dtype=float) - self._mean(s, t, y)) / sd
        return special.norm_pdf(z) / sd

    def cdf(self, s, y, t, x):
        _check_order(s, t)
        sd = math.sqrt(self._var(s, t))
        return special.norm_cdf((np.asarray(x, dtype=float) - self._mean(s, t, y)) / sd)

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
        v = self._var(s, t)
        z = (np.asarray(x, dtype=float) - self._mean(s, t, y)) / math.sqrt(v)
        return -z * special.norm_pdf(z) / v

    def cdf_dt(self, s, y, t, x):
        if self._dmean_dt is None or self._dvar_dt is None:
            return None
        sd = math.sqrt(self._var(s, t))
        z = (np.asarray(x, dtype=float) - self._mean(s, t, y)) / sd
        dsd = self._dvar_dt(s, t) / (2.0 * sd)
        return -special.norm_pdf(z) * (self._dmean_dt(s, t, y) + z * dsd) / sd


class LognormalKernel:
    """exp of a Gaussian kernel acting on the log-state."""

    def __init__(self, gaussian: GaussianKernel):
        self._g = gaussian

    def pdf(self, s, y, t, x):
        x = np.asarray(x, dtype=float)
        return self._g.pdf(s, np.log(y), t, np.log(x)) / x

    def cdf(self, s, y, t, x):
        return self._g.cdf(s, np.log(y), t, np.log(np.asarray(x, dtype=float)))

    def quantile(self, s, y, t, p):
        return np.exp(self._g.quantile(s, np.log(y), t, p))

    def sample(self, s, y, t, rng, size=None):
        return np.exp(self._g.sample(s, np.log(np.asarray(y, dtype=float)), t, rng, size))

    def pdf_dx(self, s, y, t, x):
        x = np.asarray(x, dtype=float)
        sd = math.sqrt(self._g._var(s, t))
        z = (np.log(x) - self._g._mean(s, t, np.log(y))) / sd
        f = special.norm_pdf(z) / (sd * x)
        return -f * (z / sd + 1.0) / x

    def cdf_dt(self, s, y, t, x):
        return self._g.cdf_dt(s, np.log(y), t, np.log(np.asarray(x, dtype=float)))


class FoldedGaussianKernel:
    """|y + sqrt(var) Z|: the reflected heat kernel on (0, infinity)."""

    # below this h (1 + |c|) the cdf is summed as a series instead of differenced
    _SERIES_BELOW = 0.03

    def __init__(self, var):
        self._var = var

    def pdf(self, s, y, t, x):
        _check_order(s, t)
        x = np.asarray(x, dtype=float)
        sd = math.sqrt(self._var(s, t))
        out = (special.norm_pdf((x - y) / sd) + special.norm_pdf((x + y) / sd)) / sd
        return np.where(x < 0.0, 0.0, out)

    def cdf(self, s, y, t, x):
        """Phi(c + h) - Phi(c - h) with c = -y/sd, h = x/sd.

        The difference cancels for small h; there the odd Taylor series
        2 phi(c) [h + He2(c) h^3/3! + He4(c) h^5/5! + He6(c) h^7/7!]
        (He_n the Hermite polynomials) is used instead.
        """
        _check_order(s, t)
        x = np.asarray(x, dtype=float)
        sd = math.sqrt(self._var(s, t))
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
        sd = math.sqrt(self._var(s, t))
        p_b, y_b = np.broadcast_arrays(np.asarray(p, dtype=float), np.asarray(y, dtype=float))
        p_arr, y_arr = np.atleast_1d(p_b), np.atleast_1d(y_b)
        cdf = lambda x: self.cdf(s, y_arr, t, x)
        lo, hi = grow_bracket(cdf, p_arr, np.zeros_like(p_arr), np.abs(y_arr) + 12.0 * sd)
        out = invert_monotone_cdf(cdf, p_arr, lo, hi, pdf=lambda x: self.pdf(s, y_arr, t, x),
                                  f_tol=1e-13, x_rel_tol=1e-14)
        return float(out[0]) if p_b.ndim == 0 else out.reshape(p_b.shape)

    def sample(self, s, y, t, rng, size=None):
        _check_order(s, t)
        sd = math.sqrt(self._var(s, t))
        shape = np.shape(y) if size is None else size
        return np.abs(np.asarray(y, dtype=float) + sd * rng.standard_normal(shape))

    def pdf_dx(self, s, y, t, x):
        x = np.asarray(x, dtype=float)
        v = self._var(s, t)
        sd = math.sqrt(v)
        a, b = (x - y) / sd, (x + y) / sd
        return (-a * special.norm_pdf(a) - b * special.norm_pdf(b)) / v

    def cdf_dt(self, s, y, t, x):
        x = np.asarray(x, dtype=float)
        d = t - s
        a, b = (x - y) / math.sqrt(d), (x + y) / math.sqrt(d)
        return (-(x - y) * special.norm_pdf(a) - (x + y) * special.norm_pdf(b)) / (2.0 * d ** 1.5)


class Ncx2Kernel:
    """cir-family kernel:  2 c_{t-s} X_t | X_s = y  ~  chi2nc(df, 2 c_{t-s} e^{-alpha(t-s)} y)."""

    def __init__(self, df: float, alpha: float, sigma: float):
        self.df, self.alpha, self.sigma = df, alpha, sigma

    def _twoc(self, dt: float) -> float:
        # 2 * c_r with c_r = 2 alpha / (sigma^2 (1 - e^{-alpha r})); alpha -> 0 limit 4/(sigma^2 r)
        if self.alpha == 0.0:
            return 4.0 / (self.sigma ** 2 * dt)
        return 4.0 * self.alpha / (self.sigma ** 2 * (-math.expm1(-self.alpha * dt)))

    def _lam(self, dt: float, y):
        return self._twoc(dt) * math.exp(-self.alpha * dt) * np.asarray(y, dtype=float)

    def pdf(self, s, y, t, x):
        _check_order(s, t)
        twoc = self._twoc(t - s)
        x = np.asarray(x, dtype=float)
        pos = np.clip(x, 0.0, None)
        out = twoc * special.chi2nc_pdf(twoc * pos, self.df, self._lam(t - s, y))
        return np.where(x < 0.0, 0.0, out)

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
        twoc = self._twoc(t - s)
        z = twoc * np.asarray(x, dtype=float)
        return twoc ** 2 * special._chi2nc_pdf_dz(z, self.df, self._lam(t - s, y))


class SqrtNcx2Kernel:
    """Monotone sqrt-pushforward of an `Ncx2Kernel` (rayleigh / bessel state)."""

    def __init__(self, core: Ncx2Kernel):
        self.core = core

    def pdf(self, s, y, t, x):
        x = np.asarray(x, dtype=float)
        pos = np.clip(x, 0.0, None)
        return np.where(x <= 0.0, 0.0, self.core.pdf(s, y * y, t, pos * pos) * 2.0 * pos)

    def cdf(self, s, y, t, x):
        x = np.asarray(x, dtype=float)
        pos = np.clip(x, 0.0, None)
        return self.core.cdf(s, y * y, t, pos * pos)

    def quantile(self, s, y, t, p):
        return np.sqrt(self.core.quantile(s, y * y, t, p))

    def sample(self, s, y, t, rng, size=None):
        return np.sqrt(self.core.sample(s, np.asarray(y, dtype=float) ** 2, t, rng, size))

    def pdf_dx(self, s, y, t, x):
        x = np.asarray(x, dtype=float)
        g = self.core.pdf(s, y * y, t, x * x)
        gp = self.core.pdf_dx(s, y * y, t, x * x)
        return 2.0 * g + 4.0 * x * x * gp


# ---------------------------------------------------------------------------
# Model container
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Model:
    """A catalog diffusion bound to an initial condition (t0, x0)."""

    spec: DiffusionSpec
    kernel: object
    x0: float
    t0: float
    stationary: StationaryLaw | None = None

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
        pdf_dx = (lambda x: k.pdf_dx(t0, x0, t, x)) if hasattr(k, "pdf_dx") else None
        cdf_dt = None
        if hasattr(k, "cdf_dt"):
            probe = k.cdf_dt(t0, x0, t, 0.5 * (x0 + 1.0) if np.isfinite(x0) else 1.0)
            if probe is not None:
                cdf_dt = lambda x, _t=t: k.cdf_dt(t0, x0, _t, x)
        return Marginal(
            t=t,
            pdf=lambda x: k.pdf(t0, x0, t, x),
            cdf=lambda x: k.cdf(t0, x0, t, x),
            quantile=lambda p: k.quantile(t0, x0, t, p),
            pdf_dx=pdf_dx,
            cdf_dt=cdf_dt,
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


def _normal_law(mean: float, var: float) -> StationaryLaw:
    sd = math.sqrt(var)
    return StationaryLaw(
        pdf=lambda x: special.norm_pdf((np.asarray(x, float) - mean) / sd) / sd,
        cdf=lambda x: special.norm_cdf((np.asarray(x, float) - mean) / sd),
        quantile=lambda p: mean + sd * special.norm_quantile(p),
        pdf_dx=lambda x: -(np.asarray(x, float) - mean) / var
        * special.norm_pdf((np.asarray(x, float) - mean) / sd) / sd,
    )


def _gamma_law(shape: float, scale: float) -> StationaryLaw:
    def pdf(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            out = np.exp((shape - 1.0) * np.log(x) - x / scale
                         - gammaln(shape) - shape * math.log(scale))
        return np.where(x <= 0.0, 0.0, out)

    return StationaryLaw(
        pdf=pdf,
        cdf=lambda x: gammainc(shape, np.clip(np.asarray(x, float), 0.0, None) / scale),
        quantile=lambda p: scale * gammaincinv(shape, p),
        pdf_dx=lambda x: pdf(x) * ((shape - 1.0) / np.asarray(x, float) - 1.0 / scale),
    )


def _sqrt_gamma_law(shape: float, scale: float) -> StationaryLaw:
    """Law of sqrt(G) for G ~ Gamma(shape, scale)."""
    g = _gamma_law(shape, scale)
    return StationaryLaw(
        pdf=lambda y: 2.0 * np.asarray(y, float) * g.pdf(np.asarray(y, float) ** 2),
        cdf=lambda y: g.cdf(np.asarray(y, float) ** 2),
        quantile=lambda p: np.sqrt(g.quantile(p)),
        pdf_dx=lambda y: 2.0 * g.pdf(np.asarray(y, float) ** 2)
        + 4.0 * np.asarray(y, float) ** 2 * g.pdf_dx(np.asarray(y, float) ** 2),
    )


def _build_bm(params, x0, t0):
    _take(params, "bm")
    spec = DiffusionSpec("bm", {}, (-np.inf, np.inf), ("natural", "natural"),
                         drift=lambda x, t: 0.0 * np.asarray(x, float),
                         diffusion=lambda x, t: np.ones_like(np.asarray(x, float)))
    kern = GaussianKernel(mean=lambda s, t, y: np.asarray(y, float),
                          var=lambda s, t: t - s,
                          dmean_dt=lambda s, t, y: 0.0,
                          dvar_dt=lambda s, t: 1.0)
    return Model(spec, kern, x0, t0)


def _build_bm_drift(params, x0, t0):
    p = _take(params, "bm_drift", mu=_any("mu"), sigma=_positive("sigma"))
    mu, sg = p["mu"], p["sigma"]
    spec = DiffusionSpec("bm_drift", p, (-np.inf, np.inf), ("natural", "natural"),
                         drift=lambda x, t: mu + 0.0 * np.asarray(x, float),
                         diffusion=lambda x, t: sg + 0.0 * np.asarray(x, float))
    kern = GaussianKernel(mean=lambda s, t, y: np.asarray(y, float) + mu * (t - s),
                          var=lambda s, t: sg ** 2 * (t - s),
                          dmean_dt=lambda s, t, y: mu,
                          dvar_dt=lambda s, t: sg ** 2)
    return Model(spec, kern, x0, t0)


def _build_gbm(params, x0, t0):
    p = _take(params, "gbm", mu=_any("mu"), sigma=_positive("sigma"))
    mu, sg = p["mu"], p["sigma"]
    _check_x0(x0, (0.0, np.inf), "gbm")
    spec = DiffusionSpec("gbm", p, (0.0, np.inf), ("natural", "natural"),
                         drift=lambda x, t: (mu + 0.5 * sg ** 2) * np.asarray(x, float),
                         diffusion=lambda x, t: sg * np.asarray(x, float))
    log_kern = GaussianKernel(mean=lambda s, t, y: np.asarray(y, float) + mu * (t - s),
                              var=lambda s, t: sg ** 2 * (t - s),
                              dmean_dt=lambda s, t, y: mu,
                              dvar_dt=lambda s, t: sg ** 2)
    return Model(spec, LognormalKernel(log_kern), x0, t0)


def _build_ou(params, x0, t0):
    p = _take(params, "ou", alpha=_any("alpha"), beta=_any("beta"), sigma=_positive("sigma"))
    al, be, sg = p["alpha"], p["beta"], p["sigma"]

    if al == 0.0:
        mean = lambda s, t, y: np.asarray(y, float) + be * (t - s)
        var = lambda s, t: sg ** 2 * (t - s)
        dmean = lambda s, t, y: be
        dvar = lambda s, t: sg ** 2
    else:
        def mean(s, t, y):
            e = math.exp(-al * (t - s))
            return be / al + (np.asarray(y, float) - be / al) * e

        def var(s, t):
            return sg ** 2 * (-math.expm1(-2.0 * al * (t - s))) / (2.0 * al)

        def dmean(s, t, y):
            return -al * (np.asarray(y, float) - be / al) * math.exp(-al * (t - s))

        def dvar(s, t):
            return sg ** 2 * math.exp(-2.0 * al * (t - s))

    spec = DiffusionSpec("ou", p, (-np.inf, np.inf), ("natural", "natural"),
                         drift=lambda x, t: -al * np.asarray(x, float) + be,
                         diffusion=lambda x, t: sg + 0.0 * np.asarray(x, float))
    kern = GaussianKernel(mean, var, dmean, dvar)
    stat = _normal_law(be / al, sg ** 2 / (2.0 * al)) if al > 0.0 else None
    return Model(spec, kern, x0, t0, stationary=stat)


def _build_rbm(params, x0, t0):
    _take(params, "rbm")
    require(x0 >= 0.0, "rbm requires x0 >= 0")
    spec = DiffusionSpec("rbm", {}, (0.0, np.inf), ("regular-reflecting", "natural"),
                         drift=lambda x, t: 0.0 * np.asarray(x, float),
                         diffusion=lambda x, t: np.ones_like(np.asarray(x, float)))
    return Model(spec, FoldedGaussianKernel(var=lambda s, t: t - s), x0, t0)


def _cir_family(name, al, be, sg, x0, t0, params):
    gamma = 4.0 * be / sg ** 2
    lower = "entrance" if be >= sg ** 2 / 2.0 else "regular-reflecting"
    spec = DiffusionSpec(name, params, (0.0, np.inf), (lower, "natural"),
                         drift=lambda x, t: -al * np.asarray(x, float) + be,
                         diffusion=lambda x, t: sg * np.sqrt(np.asarray(x, float)))
    kern = Ncx2Kernel(gamma, al, sg)
    stat = _gamma_law(gamma / 2.0, sg ** 2 / (2.0 * al)) if al > 0.0 else None
    return Model(spec, kern, x0, t0, stationary=stat)


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
    core = Ncx2Kernel(2.0 * a + 1.0, -2.0 * b, 2.0)
    stat = _sqrt_gamma_law(a + 0.5, 1.0 / (-b)) if b < 0.0 else None
    return Model(spec, SqrtNcx2Kernel(core), x0, t0, stationary=stat)


def _build_bessel(params, x0, t0):
    p = _take(params, "bessel", delta=_positive("delta"))
    delta = p["delta"]
    _check_x0(x0, (0.0, np.inf), "bessel")
    lower = "entrance" if delta >= 0.5 else "regular-reflecting"
    spec = DiffusionSpec("bessel", p, (0.0, np.inf), (lower, "natural"),
                         drift=lambda x, t: delta / np.asarray(x, float),
                         diffusion=lambda x, t: np.ones_like(np.asarray(x, float)))
    core = Ncx2Kernel(2.0 * delta + 1.0, 0.0, 2.0)
    return Model(spec, SqrtNcx2Kernel(core), x0, t0)


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
        with open(path, "w") as fh:
            fh.write(f"# paths={self.n_paths},seed={self.seed}\n")
            for i, t in enumerate(self.times):
                row = ",".join(f"{v:.17g}" for v in self.paths[:, i])
                fh.write(f"{t:.17g},{row}\n")

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
