"""Space-time transformation engine.

A space-time transformation (STT) is a pair (phi, psi): tau = phi(t) rescales
time and y = psi(t, x) rescales state, with Jacobian J(t, x) = d psi / d x.
Monotone STTs (psi(t, .) strictly monotone) map diffusions to diffusions and
preserve the copula up to the time change; `push_transition` builds the exact
transformed kernel.

Piecewise-monotone psi loses invertibility; the transformed process still has
a copula density, the double weighted sum over preimages

    c^Y(u, v) = sum_{z, x} w(s, z, q_u) w(t, x, q_v) c^X(F_s(z), F_t(x)),

    w(s, z, q) = (f_s(z)/|J_s(z)|) / sum_{a: psi(s,a)=q} (f_s(a)/|J_s(a)|),

implemented by `nonmonotone_copula` together with the pushforward marginal
mixture needed for the Y quantiles.

The module also ships the catalog transformation chains and the
drift/diffusion condition for transformability into Brownian motion,

    mu/sigma = sigma_x/2 + int sigma_t/sigma^2 dx + c1(t) int dx/sigma + c2(t),

with its constructive transformation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._numerics import (central_diff, grow_bracket, integrate,
                        invert_monotone_cdf, rel_step, require)
from .copula import CopulaSurface
from .errors import DomainError
from .models import DiffusionSpec, Marginal, Model

__all__ = [
    "MonotonePiece", "SpaceTimeTransform",
    "identity_transform", "absolute_value", "builtin_chain", "compose",
    "push_transition", "pushforward_marginal", "preimage_weights",
    "nonmonotone_copula",
    "wiener_transformability_check", "wiener_stt", "search_constant_c1_c2",
]

_BUILTIN_CHAINS = ("ou_to_bm", "bm_to_special_cir", "cir_to_rayleigh",
                   "rayleigh_to_bessel", "cir_to_bessel")


@dataclass(frozen=True)
class MonotonePiece:
    """Maximal x-interval on which psi(t, .) is strictly monotone."""

    lo: float
    hi: float
    inverse: Callable      # x = inverse(t, y) on this piece
    increasing: bool


@dataclass(frozen=True)
class SpaceTimeTransform:
    phi: Callable                       # time map, nondecreasing
    phi_inv: Callable
    psi: Callable                       # psi(t, x)
    jacobian: Callable                  # d psi / d x
    pieces: tuple[MonotonePiece, ...]
    name: str = ""
    dphi: Callable | None = None


# ---------------------------------------------------------------------------
# Piece bookkeeping
# ---------------------------------------------------------------------------

def _clip_pieces(transform: SpaceTimeTransform, interval) -> list[MonotonePiece]:
    lo_i, hi_i = interval
    out = []
    for piece in transform.pieces:
        lo, hi = max(piece.lo, lo_i), min(piece.hi, hi_i)
        if lo < hi:
            out.append(MonotonePiece(lo, hi, piece.inverse, piece.increasing))
    if not out:
        raise DomainError("transform has no monotone piece overlapping the diffusion interval")
    return out


def _piece_range(transform: SpaceTimeTransform, piece: MonotonePiece, t: float):
    va = float(transform.psi(t, piece.lo))
    vb = float(transform.psi(t, piece.hi))
    return (va, vb) if va <= vb else (vb, va)


def _cdf_limits(cdf: Callable, interval, x):
    lo, hi = interval
    if x <= lo:
        return 0.0
    if x >= hi:
        return 1.0
    return cdf(x)


def _piece_inverses(transform, pieces, t: float, q: np.ndarray) -> np.ndarray:
    """Inverse of each level of ``q`` on every piece whose open range holds it.

    Returns shape ``(len(pieces),) + q.shape``, NaN where a level lies outside
    a piece's range.
    """
    flat = np.ravel(q)
    out = np.full((len(pieces), flat.size), np.nan)
    for k, piece in enumerate(pieces):
        lo_v, hi_v = _piece_range(transform, piece, t)
        inside = (lo_v < flat) & (flat < hi_v)
        if np.any(inside):
            out[k, inside] = piece.inverse(t, flat[inside])
    return out.reshape((len(pieces),) + np.shape(q))


def _preimages(transform, pieces, t: float, q: np.ndarray) -> np.ndarray:
    """`_piece_inverses` restricted to points strictly inside their piece."""
    x = _piece_inverses(transform, pieces, t, q)
    lo = np.reshape([p.lo for p in pieces], (-1,) + (1,) * np.ndim(q))
    hi = np.reshape([p.hi for p in pieces], (-1,) + (1,) * np.ndim(q))
    return np.where((lo < x) & (x < hi), x, np.nan)


def _preimage_densities(marg: Marginal, transform, pieces, t: float, q: np.ndarray):
    """Preimages of the levels ``q`` and their densities f_t(x)/|J_t(x)|.

    Both arrays have shape ``(len(pieces),) + q.shape``; where a piece holds
    no preimage of a level the point is NaN and the density 0.  A preimage on
    a zero of the Jacobian raises `DomainError`, naming the point.
    """
    points = _preimages(transform, pieces, t, q)
    found = ~np.isnan(points)
    x = points[found]
    jac = np.abs(np.asarray(transform.jacobian(t, x), dtype=float))
    vanish = ~np.isfinite(jac) | (jac < 1e-300)
    if np.any(vanish):
        raise DomainError(f"Jacobian vanishes at preimage x={x[vanish][0]:.6g} (time {t})")
    raw = np.zeros(points.shape)
    raw[found] = marg.pdf(x) / jac
    return points, raw


def _decompose(marg: Marginal, transform, pieces, t: float, q: np.ndarray):
    """Preimages of the levels ``q`` and their normalized density weights.

    Both arrays have shape ``(len(pieces),) + q.shape``; where a piece holds
    no preimage of a level the point is NaN and the weight 0.
    """
    points, raw = _preimage_densities(marg, transform, pieces, t, q)
    missing = np.all(np.isnan(points), axis=0)
    if np.any(missing):
        raise DomainError(f"value q={np.ravel(q)[np.ravel(missing)][0]} has no preimage "
                          f"under the transform at time {t}")
    return points, raw / raw.sum(axis=0)


def preimage_weights(model: Model, transform: SpaceTimeTransform, t: float, q: float):
    """Preimage points of q under psi(t, .) and their normalized density weights.

    Raises `DomainError` (naming the point) when a preimage falls on a zero of
    the Jacobian.
    """
    pieces = _clip_pieces(transform, model.interval)
    points, weights = _decompose(model.marginal(t), transform, pieces, t, float(q))
    found = ~np.isnan(points)
    return points[found], weights[found]


# ---------------------------------------------------------------------------
# Monotone pushforward of a transition kernel
# ---------------------------------------------------------------------------

class _PushforwardKernel:
    """Exact kernel of Y_{phi(t)} = psi(t, X_t) for a monotone transform."""

    def __init__(self, model: Model, transform: SpaceTimeTransform, piece: MonotonePiece):
        self._model = model
        self._T = transform
        self._piece = piece

    def _source_times(self, s: float, t: float) -> tuple[float, float]:
        ts, tt = float(self._T.phi_inv(s)), float(self._T.phi_inv(t))
        require(ts < tt, "time map is not increasing over the requested pair")
        return ts, tt

    def pdf(self, s, y, t, x):
        ts, tt = self._source_times(s, t)
        xs = self._piece.inverse(ts, y)
        xt = self._piece.inverse(tt, np.asarray(x, dtype=float))
        jac = np.abs(self._T.jacobian(tt, xt))
        return self._model.kernel.pdf(ts, xs, tt, xt) / jac

    def cdf(self, s, y, t, x):
        ts, tt = self._source_times(s, t)
        xs = self._piece.inverse(ts, y)
        xt = self._piece.inverse(tt, np.asarray(x, dtype=float))
        base = self._model.kernel.cdf(ts, xs, tt, xt)
        return base if self._piece.increasing else 1.0 - base

    def quantile(self, s, y, t, p):
        ts, tt = self._source_times(s, t)
        xs = self._piece.inverse(ts, y)
        p = np.asarray(p, dtype=float)
        q = self._model.kernel.quantile(ts, xs, tt, p if self._piece.increasing else 1.0 - p)
        return self._T.psi(tt, q)

    def sample(self, s, y, t, rng, size=None):
        ts, tt = self._source_times(s, t)
        xs = self._piece.inverse(ts, np.asarray(y, dtype=float))
        draw = self._model.kernel.sample(ts, xs, tt, rng, size)
        return self._T.psi(tt, draw)


def push_transition(model: Model, transform: SpaceTimeTransform) -> Model:
    """Model of Y_{phi(t)} = psi(t, X_t); requires psi monotone on the interval."""
    pieces = _clip_pieces(transform, model.interval)
    if len(pieces) != 1:
        raise DomainError("transform is piecewise monotone on the interval; "
                          "use nonmonotone_copula for the copula of the image process")
    piece = pieces[0]

    t_ref = model.t0 + 1.0
    lo_v, hi_v = _piece_range(transform, piece, t_ref)
    bounds = ("natural", "natural")
    if model.spec.boundaries != bounds:
        bounds = model.spec.boundaries if piece.increasing else model.spec.boundaries[::-1]
    spec = DiffusionSpec(
        name=f"push({model.name},{transform.name or 'stt'})",
        params=dict(model.spec.params), interval=(lo_v, hi_v),
        boundaries=bounds, drift=None, diffusion=None)
    y0 = float(transform.psi(model.t0, model.x0))
    return Model(spec=spec, kernel=_PushforwardKernel(model, transform, piece),
                 x0=y0, t0=float(transform.phi(model.t0)))


def pushforward_marginal(model: Model, transform: SpaceTimeTransform, t: float) -> Marginal:
    """Marginal of Y_{phi(t)} = psi(t, X_t); a mixture over monotone pieces."""
    pieces = _clip_pieces(transform, model.interval)
    marg = model.marginal(t)
    ranges = [_piece_range(transform, piece, t) for piece in pieces]
    ends = [(_cdf_limits(marg.cdf, model.interval, piece.lo),
             _cdf_limits(marg.cdf, model.interval, piece.hi)) for piece in pieces]

    def cdf(q):
        q = np.asarray(q, dtype=float)
        x = _piece_inverses(transform, pieces, t, q)
        inside = ~np.isnan(x)
        f = np.zeros(x.shape)
        f[inside] = marg.cdf(x[inside])      # only states of the process reach marg.cdf
        total = 0.0
        for piece, (lo_v, hi_v), (f_lo, f_hi), f_q in zip(pieces, ranges, ends, f):
            part = (f_q - f_lo) if piece.increasing else (f_hi - f_q)
            total = total + np.where(q <= lo_v, 0.0, np.where(q >= hi_v, f_hi - f_lo, part))
        out = np.clip(total, 0.0, 1.0)
        return float(out) if out.ndim == 0 else out

    def pdf(q):
        out = _preimage_densities(marg, transform, pieces, t, q)[1].sum(axis=0)
        return float(out) if out.ndim == 0 else out

    center = float(transform.psi(t, marg.quantile(0.5)))

    def quantile(p):
        p_arr = np.atleast_1d(np.asarray(p, dtype=float))
        lo, hi = grow_bracket(cdf, p_arr, center - 1.0, center + 1.0)
        out = invert_monotone_cdf(cdf, p_arr, lo, hi, pdf=pdf, f_tol=1e-13, x_rel_tol=1e-14)
        return float(out[0]) if np.ndim(p) == 0 else out.reshape(np.shape(p))

    return Marginal(t=float(transform.phi(t)), pdf=pdf, cdf=cdf, quantile=quantile)


# ---------------------------------------------------------------------------
# Non-monotone copula (finitely many pieces)
# ---------------------------------------------------------------------------

def nonmonotone_copula(model: Model, transform: SpaceTimeTransform,
                       s: float, t: float) -> CopulaSurface:
    """Copula surface of Y_{phi(.)} = psi(., X_.) between source times s < t.

    Evaluates the double weighted preimage sum; a monotone transform collapses
    it to a single term with unit weight (the time-changed source copula).
    The returned surface lives at the transformed times (phi(s), phi(t)).
    """
    require(t > s > model.t0, f"need t0 < s < t, got t0={model.t0}, s={s}, t={t}")
    pieces = _clip_pieces(transform, model.interval)
    marg_s, marg_t = model.marginal(s), model.marginal(t)
    push_s = pushforward_marginal(model, transform, s)
    push_t = pushforward_marginal(model, transform, t)
    kernel = model.kernel

    def filled(x):
        # a piece without a preimage of some level borrows another piece's
        # (with weight 0 there), so the kernel only sees states of the process
        return np.where(np.isnan(x), np.nanmax(x, axis=0), x)

    def source_terms(u):
        zs, ws = _decompose(marg_s, transform, pieces, s, np.asarray(push_s.quantile(u)))
        return filled(zs), ws

    def dens(u, v):
        zs, ws = source_terms(u)
        xs, wt = _decompose(marg_t, transform, pieces, t, np.asarray(push_t.quantile(v)))
        xs = filled(xs)
        acc = 0.0
        for z, wz in zip(zs, ws):
            for x, wx in zip(xs, wt):
                acc = acc + wz * wx * kernel.pdf(s, z, t, x) / marg_t.pdf(x)
        return acc

    def cond(u, v):
        zs, ws = source_terms(u)
        q_v = np.asarray(push_t.quantile(v))
        xq = filled(_piece_inverses(transform, pieces, t, q_v))
        acc = 0.0
        for z, wz in zip(zs, ws):
            mass = 0.0
            kernel_cdf = lambda x: kernel.cdf(s, z, t, x)
            for piece, x_q in zip(pieces, xq):
                lo_v, hi_v = _piece_range(transform, piece, t)
                lo_c = _cdf_limits(kernel_cdf, model.interval, piece.lo)
                hi_c = _cdf_limits(kernel_cdf, model.interval, piece.hi)
                val = kernel_cdf(x_q)
                part = (val - lo_c) if piece.increasing else (hi_c - val)
                mass = mass + np.where(q_v <= lo_v, 0.0,
                                       np.where(q_v >= hi_v, hi_c - lo_c, part))
            acc = acc + wz * mass
        return np.clip(acc, 0.0, 1.0)

    params = {"model": model.name, "transform": transform.name or "stt",
              **dict(model.spec.params), "x0": model.x0, "t0": model.t0}
    return CopulaSurface(dens, cond,
                         time_pair=(float(transform.phi(s)), float(transform.phi(t))),
                         provenance="nonmonotone", params=params)


# ---------------------------------------------------------------------------
# Catalog transformation chains
# ---------------------------------------------------------------------------

def identity_transform() -> SpaceTimeTransform:
    return SpaceTimeTransform(
        phi=lambda t: t, phi_inv=lambda tau: tau,
        psi=lambda t, x: np.asarray(x, dtype=float),
        jacobian=lambda t, x: np.ones_like(np.asarray(x, dtype=float)),
        pieces=(MonotonePiece(-np.inf, np.inf, lambda t, y: np.asarray(y, dtype=float), True),),
        name="identity", dphi=lambda t: 1.0)


def absolute_value() -> SpaceTimeTransform:
    return SpaceTimeTransform(
        phi=lambda t: t, phi_inv=lambda tau: tau,
        psi=lambda t, x: np.abs(np.asarray(x, dtype=float)),
        jacobian=lambda t, x: np.sign(np.asarray(x, dtype=float)),
        pieces=(MonotonePiece(-np.inf, 0.0, lambda t, y: -np.asarray(y, dtype=float), False),
                MonotonePiece(0.0, np.inf, lambda t, y: np.asarray(y, dtype=float), True)),
        name="absolute_value", dphi=lambda t: 1.0)


def compose(outer: SpaceTimeTransform, inner: SpaceTimeTransform) -> SpaceTimeTransform:
    """Transform of the composition: first apply ``inner``, then ``outer``.

    ``outer`` must be monotone (a single piece) on the image of ``inner``.
    """
    if len(outer.pieces) != 1:
        raise DomainError("composition requires a monotone outer transform")
    op = outer.pieces[0]

    def psi(t, x):
        return outer.psi(inner.phi(t), inner.psi(t, x))

    def jac(t, x):
        y = inner.psi(t, x)
        return outer.jacobian(inner.phi(t), y) * inner.jacobian(t, x)

    pieces = tuple(
        MonotonePiece(p.lo, p.hi,
                      (lambda p_: lambda t, z: p_.inverse(t, op.inverse(inner.phi(t), z)))(p),
                      p.increasing == op.increasing)
        for p in inner.pieces)
    dphi = None
    if outer.dphi is not None and inner.dphi is not None:
        dphi = lambda t: outer.dphi(inner.phi(t)) * inner.dphi(t)
    return SpaceTimeTransform(
        phi=lambda t: outer.phi(inner.phi(t)),
        phi_inv=lambda tau: inner.phi_inv(outer.phi_inv(tau)),
        psi=psi, jacobian=jac, pieces=pieces,
        name=f"{outer.name}o{inner.name}", dphi=dphi)


def _chain_ou_to_bm(alpha: float, beta: float, sigma: float) -> SpaceTimeTransform:
    require(sigma > 0.0, "sigma must be positive")
    if alpha == 0.0:
        return SpaceTimeTransform(
            phi=lambda t: t, phi_inv=lambda tau: tau,
            psi=lambda t, x: (np.asarray(x, dtype=float) - beta * t) / sigma,
            jacobian=lambda t, x: np.full_like(np.asarray(x, dtype=float), 1.0 / sigma),
            pieces=(MonotonePiece(-np.inf, np.inf,
                                  lambda t, y: sigma * np.asarray(y, dtype=float) + beta * t,
                                  True),),
            name="ou_to_bm", dphi=lambda t: 1.0)

    mean_level = beta / alpha

    def phi(t):
        return math.expm1(2.0 * alpha * t) / (2.0 * alpha)

    def phi_inv(tau):
        arg = 2.0 * alpha * tau
        require(arg > -1.0, "time map not invertible at the requested time")
        return math.log1p(arg) / (2.0 * alpha)

    return SpaceTimeTransform(
        phi=phi, phi_inv=phi_inv,
        psi=lambda t, x: math.exp(alpha * t) / sigma * (np.asarray(x, dtype=float) - mean_level),
        jacobian=lambda t, x: np.full_like(np.asarray(x, dtype=float),
                                           math.exp(alpha * t) / sigma),
        pieces=(MonotonePiece(-np.inf, np.inf,
                              lambda t, y: mean_level
                              + sigma * math.exp(-alpha * t) * np.asarray(y, dtype=float),
                              True),),
        name="ou_to_bm", dphi=lambda t: math.exp(2.0 * alpha * t))


def _chain_bm_to_special_cir(alpha: float, sigma: float) -> SpaceTimeTransform:
    require(sigma > 0.0, "sigma must be positive")
    require(alpha >= 0.0, "alpha must be nonnegative")

    def scale(t):
        return alpha * t + 1.0

    phi = (lambda t: t) if alpha == 0.0 else (lambda t: math.log1p(alpha * t) / alpha)
    phi_inv = (lambda tau: tau) if alpha == 0.0 else (lambda tau: math.expm1(alpha * tau) / alpha)

    def psi(t, x):
        x = np.asarray(x, dtype=float)
        return sigma ** 2 * x * x / (4.0 * scale(t))

    def inv_pos(t, y):
        return 2.0 * np.sqrt(np.asarray(y, dtype=float) * scale(t)) / sigma

    return SpaceTimeTransform(
        phi=phi, phi_inv=phi_inv, psi=psi,
        jacobian=lambda t, x: sigma ** 2 * np.asarray(x, dtype=float) / (2.0 * scale(t)),
        pieces=(MonotonePiece(-np.inf, 0.0, lambda t, y: -inv_pos(t, y), False),
                MonotonePiece(0.0, np.inf, inv_pos, True)),
        name="bm_to_special_cir",
        dphi=(lambda t: 1.0) if alpha == 0.0 else (lambda t: 1.0 / scale(t)))


def _chain_cir_to_rayleigh(sigma: float) -> SpaceTimeTransform:
    require(sigma > 0.0, "sigma must be positive")
    return SpaceTimeTransform(
        phi=lambda t: t, phi_inv=lambda tau: tau,
        psi=lambda t, x: 2.0 * np.sqrt(np.asarray(x, dtype=float)) / sigma,
        jacobian=lambda t, x: 1.0 / (sigma * np.sqrt(np.asarray(x, dtype=float))),
        pieces=(MonotonePiece(0.0, np.inf,
                              lambda t, y: (sigma * np.asarray(y, dtype=float) / 2.0) ** 2,
                              True),),
        name="cir_to_rayleigh", dphi=lambda t: 1.0)


def _chain_rayleigh_to_bessel(b: float) -> SpaceTimeTransform:
    if b == 0.0:
        ident = identity_transform()
        return SpaceTimeTransform(ident.phi, ident.phi_inv, ident.psi, ident.jacobian,
                                  (MonotonePiece(0.0, np.inf,
                                                 lambda t, y: np.asarray(y, dtype=float), True),),
                                  name="rayleigh_to_bessel", dphi=ident.dphi)

    def phi(t):
        return -math.expm1(-2.0 * b * t) / (2.0 * b)

    def phi_inv(tau):
        arg = -2.0 * b * tau
        require(arg > -1.0, "time map not invertible at the requested time "
                            "(horizon tau < 1/(2b) for b > 0)")
        return -math.log1p(arg) / (2.0 * b)

    return SpaceTimeTransform(
        phi=phi, phi_inv=phi_inv,
        psi=lambda t, x: np.asarray(x, dtype=float) * math.exp(-b * t),
        jacobian=lambda t, x: np.full_like(np.asarray(x, dtype=float), math.exp(-b * t)),
        pieces=(MonotonePiece(0.0, np.inf,
                              lambda t, y: np.asarray(y, dtype=float) * math.exp(b * t), True),),
        name="rayleigh_to_bessel", dphi=lambda t: math.exp(-2.0 * b * t))


def builtin_chain(name: str, **params) -> SpaceTimeTransform:
    """Catalog transformation chains.

    ``ou_to_bm(alpha, beta, sigma)``, ``bm_to_special_cir(alpha, sigma)``,
    ``cir_to_rayleigh(sigma)``, ``rayleigh_to_bessel(b)`` and their composition
    ``cir_to_bessel(alpha, sigma)`` (Bessel drift delta = (4 beta/sigma^2 - 1)/2).
    """
    if name == "ou_to_bm":
        return _chain_ou_to_bm(**params)
    if name == "bm_to_special_cir":
        return _chain_bm_to_special_cir(**params)
    if name == "cir_to_rayleigh":
        return _chain_cir_to_rayleigh(**params)
    if name == "rayleigh_to_bessel":
        return _chain_rayleigh_to_bessel(**params)
    if name == "cir_to_bessel":
        alpha = float(params.pop("alpha"))
        sigma = float(params.pop("sigma"))
        require(not params, f"unknown parameters {sorted(params)} for cir_to_bessel")
        chain = compose(_chain_rayleigh_to_bessel(-alpha / 2.0), _chain_cir_to_rayleigh(sigma))
        return SpaceTimeTransform(chain.phi, chain.phi_inv, chain.psi, chain.jacobian,
                                  chain.pieces, name="cir_to_bessel", dphi=chain.dphi)
    raise DomainError(f"unknown chain '{name}'; known: {', '.join(_BUILTIN_CHAINS)}")


# ---------------------------------------------------------------------------
# Transformability into Brownian motion
# ---------------------------------------------------------------------------

def _as_time_fn(c) -> Callable:
    return c if callable(c) else (lambda t, _c=float(c): _c)


def _condition_parts(spec: DiffusionSpec, x: float, t: float, x_ref: float,
                     deriv_rel: float = 1e-5) -> tuple[float, float]:
    """Returns (base, I2) with base = mu/sigma - sigma_x/2 - int sigma_t/sigma^2."""
    sig = lambda xx, tt: float(spec.diffusion(xx, tt))
    s_val = sig(x, t)
    require(s_val > 0.0, f"diffusion coefficient vanishes at x={x}")
    sigma_x = central_diff(lambda xx: sig(xx, t), x, rel_step(x, deriv_rel))
    time_sens = lambda xx: central_diff(lambda tt: sig(xx, tt), t, rel_step(t, deriv_rel))
    i1 = integrate(lambda y: time_sens(y) / sig(y, t) ** 2, x_ref, x,
                   abs_tol=1e-10, rel_tol=1e-10)
    i2 = integrate(lambda y: 1.0 / sig(y, t), x_ref, x, abs_tol=1e-12, rel_tol=1e-12)
    mu = float(spec.drift(x, t))
    return mu / s_val - sigma_x / 2.0 - i1, i2


def wiener_transformability_check(spec: DiffusionSpec, c1, c2, x_grid, t_grid,
                                  x_ref: float = 0.0, tol: float = 1e-6):
    """Check the Brownian-transformability condition on an (x, t) grid.

    Antiderivatives are taken from ``x_ref``; the supplied ``c1``/``c2``
    (constants or functions of t) must follow the same convention.  Returns
    ``(passed, max_residual)``.
    """
    c1f, c2f = _as_time_fn(c1), _as_time_fn(c2)
    worst = 0.0
    for t in np.atleast_1d(np.asarray(t_grid, dtype=float)):
        for x in np.atleast_1d(np.asarray(x_grid, dtype=float)):
            base, i2 = _condition_parts(spec, float(x), float(t), x_ref)
            worst = max(worst, abs(base - c1f(t) * i2 - c2f(t)))
    return worst <= tol, worst


def search_constant_c1_c2(spec: DiffusionSpec, x_grid, t_grid,
                          c1_range=(-10.0, 10.0), c2_range=(-10.0, 10.0),
                          n: int = 41, x_ref: float = 0.0):
    """Coarse grid search for constant (c1, c2); returns (c1, c2, residual).

    The condition is linear in (c1, c2), so the residual surface is evaluated
    from precomputed condition parts.
    """
    pts = [(float(x), float(t)) for t in np.atleast_1d(t_grid) for x in np.atleast_1d(x_grid)]
    parts = np.array([_condition_parts(spec, x, t, x_ref) for (x, t) in pts])
    base, i2 = parts[:, 0], parts[:, 1]
    best = (math.nan, math.nan, math.inf)
    for c1 in np.linspace(*c1_range, n):
        resid_vec = base - c1 * i2
        for c2 in np.linspace(*c2_range, n):
            worst = np.max(np.abs(resid_vec - c2))
            if worst < best[2]:
                best = (float(c1), float(c2), float(worst))
    return best


def wiener_stt(spec: DiffusionSpec, c1, c2, x_ref: float = 0.0,
               t_ref: float = 0.0) -> SpaceTimeTransform:
    """Constructive transformation into Brownian motion once the condition holds.

        phi(t)    = int_{t_ref}^t exp(-2 int_{t_ref}^r c1) dr
        psi(t, x) = sqrt(phi'(t)) int_{x_ref}^x dy/sigma(y, t)
                    - int_{t_ref}^t c2(r) sqrt(phi'(r)) dr

    (the time-level term enters with a minus sign: with it the Ito drift of
    psi(t, X_t) cancels identically, which is verified by the test suite).
    """
    c1f, c2f = _as_time_fn(c1), _as_time_fn(c2)
    sig = lambda x, t: float(spec.diffusion(x, t))

    def dphi(t):
        inner = integrate(c1f, t_ref, t, abs_tol=1e-12, rel_tol=1e-12)
        return math.exp(-2.0 * inner)

    def phi(t):
        return integrate(dphi, t_ref, t, abs_tol=1e-11, rel_tol=1e-11)

    def phi_inv(tau):
        lo, hi = grow_bracket(lambda x: np.array([phi(float(x[0]))]),
                              np.array([tau]), np.array([t_ref]), np.array([t_ref + 1.0]))
        out = invert_monotone_cdf(lambda x: np.array([phi(float(x[0]))]), np.array([tau]),
                                  lo, hi, pdf=lambda x: np.array([dphi(float(x[0]))]),
                                  f_tol=1e-12, x_rel_tol=1e-13)
        return float(np.atleast_1d(out)[0])

    def level(t):
        return integrate(lambda r: c2f(r) * math.sqrt(dphi(r)), t_ref, t,
                         abs_tol=1e-11, rel_tol=1e-11)

    def psi_scalar(t, x):
        return (math.sqrt(dphi(t)) * integrate(lambda y: 1.0 / sig(y, t), x_ref, x,
                                               abs_tol=1e-11, rel_tol=1e-11)
                - level(t))

    def psi(t, x):
        arr = np.asarray(x, dtype=float)
        if arr.ndim == 0:
            return psi_scalar(t, float(arr))
        return np.array([psi_scalar(t, float(v)) for v in arr.ravel()]).reshape(arr.shape)

    def jacobian(t, x):
        arr = np.asarray(x, dtype=float)
        return math.sqrt(dphi(t)) / np.asarray(spec.diffusion(arr, t), dtype=float)

    lo_i, hi_i = spec.interval

    def _bracket_inside(t, y):
        # expand toward the interval bounds without crossing them
        if lo_i < x_ref < hi_i:
            seed = x_ref
        elif np.isfinite(lo_i):
            seed = lo_i + 1.0 if not np.isfinite(hi_i) else 0.5 * (lo_i + hi_i)
        else:
            seed = hi_i - 1.0
        lo = hi = seed
        step = 1.0
        for _ in range(300):
            if psi_scalar(t, hi) >= y:
                break
            hi = hi + step if not np.isfinite(hi_i) else hi + 0.5 * (hi_i - hi)
            step *= 2.0
        step = 1.0
        for _ in range(300):
            if psi_scalar(t, lo) <= y:
                break
            lo = lo - step if not np.isfinite(lo_i) else lo - 0.5 * (lo - lo_i)
            step *= 2.0
        return lo, hi

    def inverse(t, y):
        y_arr = np.atleast_1d(np.asarray(y, dtype=float))
        out = np.empty_like(y_arr)
        fn = lambda x: np.array([psi_scalar(t, float(v)) for v in np.atleast_1d(x)])
        for i, y_val in enumerate(y_arr):
            lo, hi = _bracket_inside(t, float(y_val))
            out[i] = invert_monotone_cdf(fn, np.array([y_val]), np.array([lo]),
                                         np.array([hi]), f_tol=1e-11, x_rel_tol=1e-12)[0]
        return float(out[0]) if np.ndim(y) == 0 else out.reshape(np.shape(y))

    return SpaceTimeTransform(
        phi=phi, phi_inv=phi_inv, psi=psi, jacobian=jacobian,
        pieces=(MonotonePiece(lo_i, hi_i, inverse, True),),
        name="wiener_stt", dphi=dphi)
