"""Space-time transformation engine.

A space-time transformation (STT) is a pair (phi, psi): tau = phi(t) rescales
time and y = psi(t, x) rescales state, with Jacobian J(t, x) = d psi / d x.
Monotone STTs (psi(t, .) strictly monotone) map diffusions to diffusions and
preserve the copula up to the time change; `push_transition` builds the exact
transformed kernel, a `models.MappedKernel` on the mapped times.

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
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from ._numerics import central_diff, integrate, invert_monotone_cdf, rel_step, require
from .copula import CopulaSurface
from .errors import DomainError, NumericsError
from .models import DiffusionSpec, MappedKernel, Marginal, Model

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


def _piece_ranges(transform: SpaceTimeTransform, pieces, t: float) -> list[tuple[float, float]]:
    """The open range of psi(t, .) on each piece; callers reuse them for a fixed t."""
    return [_piece_range(transform, piece, t) for piece in pieces]


def _cdf_limits(cdf: Callable, interval, x):
    lo, hi = interval
    if x <= lo:
        return 0.0
    if x >= hi:
        return 1.0
    return cdf(x)


def _piece_inverses(pieces, ranges, t: float, q: np.ndarray) -> np.ndarray:
    """Inverse of each level of ``q`` on every piece whose open range (from
    `_piece_ranges` at ``t``) holds it.

    Returns shape ``(len(pieces),) + q.shape``, NaN where a level lies outside
    a piece's range.
    """
    flat = np.ravel(q)
    out = np.full((len(pieces), flat.size), np.nan)
    for k, (piece, (lo_v, hi_v)) in enumerate(zip(pieces, ranges)):
        inside = (lo_v < flat) & (flat < hi_v)
        if np.any(inside):
            out[k, inside] = piece.inverse(t, flat[inside])
    return out.reshape((len(pieces),) + np.shape(q))


def _preimages(pieces, ranges, t: float, q: np.ndarray) -> np.ndarray:
    """`_piece_inverses` restricted to points strictly inside their piece."""
    x = _piece_inverses(pieces, ranges, t, q)
    lo = np.reshape([p.lo for p in pieces], (-1,) + (1,) * np.ndim(q))
    hi = np.reshape([p.hi for p in pieces], (-1,) + (1,) * np.ndim(q))
    return np.where((lo < x) & (x < hi), x, np.nan)


def _preimage_densities(marg: Marginal, transform, pieces, ranges, t: float, q: np.ndarray):
    """Preimages of the levels ``q`` and their densities f_t(x)/|J_t(x)|.

    Both arrays have shape ``(len(pieces),) + q.shape``; where a piece holds
    no preimage of a level the point is NaN and the density 0.  A preimage on
    a zero of the Jacobian raises `DomainError`, naming the point.
    """
    points = _preimages(pieces, ranges, t, q)
    found = ~np.isnan(points)
    x = points[found]
    jac = np.abs(np.asarray(transform.jacobian(t, x), dtype=float))
    vanish = ~np.isfinite(jac) | (jac < 1e-300)
    if np.any(vanish):
        raise DomainError(f"Jacobian vanishes at preimage x={x[vanish][0]:.6g} (time {t})")
    raw = np.zeros(points.shape)
    raw[found] = marg.pdf(x) / jac
    return points, raw


def _decompose(marg: Marginal, transform, pieces, ranges, t: float, q: np.ndarray):
    """Preimages of the levels ``q`` and their normalized density weights.

    Both arrays have shape ``(len(pieces),) + q.shape``; where a piece holds
    no preimage of a level the point is NaN and the weight 0.
    """
    points, raw = _preimage_densities(marg, transform, pieces, ranges, t, q)
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
    points, weights = _decompose(model.marginal(t), transform, pieces,
                                 _piece_ranges(transform, pieces, t), t, float(q))
    found = ~np.isnan(points)
    return points[found], weights[found]


# ---------------------------------------------------------------------------
# Monotone pushforward of a transition kernel
# ---------------------------------------------------------------------------

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
    kernel = MappedKernel(model.kernel, transform.psi, piece.inverse,
                          lambda t, x, y: transform.jacobian(t, x), (lo_v, hi_v),
                          increasing=piece.increasing, phi_inv=transform.phi_inv)
    return Model(spec=spec, kernel=kernel, x0=float(transform.psi(model.t0, model.x0)),
                 t0=float(transform.phi(model.t0)))


def pushforward_marginal(model: Model, transform: SpaceTimeTransform, t: float) -> Marginal:
    """Marginal of Y_{phi(t)} = psi(t, X_t); a mixture over monotone pieces."""
    pieces = _clip_pieces(transform, model.interval)
    marg = model.marginal(t)
    ranges = _piece_ranges(transform, pieces, t)
    ends = [(_cdf_limits(marg.cdf, model.interval, piece.lo),
             _cdf_limits(marg.cdf, model.interval, piece.hi)) for piece in pieces]

    def cdf(q):
        q = np.asarray(q, dtype=float)
        x = _piece_inverses(pieces, ranges, t, q)
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
        out = _preimage_densities(marg, transform, pieces, ranges, t, q)[1].sum(axis=0)
        return float(out) if out.ndim == 0 else out

    center = float(transform.psi(t, marg.quantile(0.5)))

    def quantile(p):
        return invert_monotone_cdf(cdf, p, center - 1.0, center + 1.0, pdf=pdf,
                                   f_tol=1e-13, x_rel_tol=1e-14)

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
    ranges_s, ranges_t = _piece_ranges(transform, pieces, s), _piece_ranges(transform, pieces, t)
    kernel = model.kernel

    def filled(x):
        # a piece without a preimage of some level borrows another piece's
        # (with weight 0 there), so the kernel only sees states of the process
        return np.where(np.isnan(x), np.nanmax(x, axis=0), x)

    def source_terms(u):
        zs, ws = _decompose(marg_s, transform, pieces, ranges_s, s, np.asarray(push_s.quantile(u)))
        return filled(zs), ws

    def dens(u, v):
        zs, ws = source_terms(u)
        xs, wt = _decompose(marg_t, transform, pieces, ranges_t, t,
                            np.asarray(push_t.quantile(v)))
        xs = filled(xs)
        acc = 0.0
        for z, wz in zip(zs, ws):
            for x, wx in zip(xs, wt):
                acc = acc + wz * wx * kernel.pdf(s, z, t, x) / marg_t.pdf(x)
        return acc

    def cond(u, v):
        zs, ws = source_terms(u)
        q_v = np.asarray(push_t.quantile(v))
        xq = filled(_piece_inverses(pieces, ranges_t, t, q_v))
        acc = 0.0
        for z, wz in zip(zs, ws):
            mass = 0.0
            kernel_cdf = lambda x: kernel.cdf(s, z, t, x)
            for piece, (lo_v, hi_v), x_q in zip(pieces, ranges_t, xq):
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
        name="identity")


def absolute_value() -> SpaceTimeTransform:
    return SpaceTimeTransform(
        phi=lambda t: t, phi_inv=lambda tau: tau,
        psi=lambda t, x: np.abs(np.asarray(x, dtype=float)),
        jacobian=lambda t, x: np.sign(np.asarray(x, dtype=float)),
        pieces=(MonotonePiece(-np.inf, 0.0, lambda t, y: -np.asarray(y, dtype=float), False),
                MonotonePiece(0.0, np.inf, lambda t, y: np.asarray(y, dtype=float), True)),
        name="absolute_value")


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
    return SpaceTimeTransform(
        phi=lambda t: outer.phi(inner.phi(t)),
        phi_inv=lambda tau: inner.phi_inv(outer.phi_inv(tau)),
        psi=psi, jacobian=jac, pieces=pieces, name=f"{outer.name}o{inner.name}")


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
            name="ou_to_bm")

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
        name="ou_to_bm")


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
        name="bm_to_special_cir")


def _chain_cir_to_rayleigh(sigma: float) -> SpaceTimeTransform:
    require(sigma > 0.0, "sigma must be positive")
    return SpaceTimeTransform(
        phi=lambda t: t, phi_inv=lambda tau: tau,
        psi=lambda t, x: 2.0 * np.sqrt(np.asarray(x, dtype=float)) / sigma,
        jacobian=lambda t, x: 1.0 / (sigma * np.sqrt(np.asarray(x, dtype=float))),
        pieces=(MonotonePiece(0.0, np.inf,
                              lambda t, y: (sigma * np.asarray(y, dtype=float) / 2.0) ** 2,
                              True),),
        name="cir_to_rayleigh")


def _chain_rayleigh_to_bessel(b: float) -> SpaceTimeTransform:
    if b == 0.0:
        piece = MonotonePiece(0.0, np.inf, lambda t, y: np.asarray(y, dtype=float), True)
        return replace(identity_transform(), pieces=(piece,), name="rayleigh_to_bessel")

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
        name="rayleigh_to_bessel")


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
        return replace(chain, name="cir_to_bessel")
    raise DomainError(f"unknown chain '{name}'; known: {', '.join(_BUILTIN_CHAINS)}")


# ---------------------------------------------------------------------------
# Transformability into Brownian motion
# ---------------------------------------------------------------------------

def _as_time_fn(c) -> Callable:
    return c if callable(c) else (lambda t, _c=float(c): np.full(np.shape(t), _c))


def _sigma(spec: DiffusionSpec) -> Callable:
    """sigma(x, t) as an array of the shape of x."""
    return lambda x, t: np.broadcast_to(np.asarray(spec.diffusion(x, t), dtype=float),
                                        np.shape(x))


def _condition_parts(spec: DiffusionSpec, x: np.ndarray, t: float, x_ref: float,
                     deriv_rel: float = 1e-5) -> tuple[np.ndarray, np.ndarray]:
    """Returns (base, I2) at the states x, with base = mu/sigma - sigma_x/2 - int sigma_t/sigma^2.

    Each integral over [x_ref, x] is one `integrate` call for all of x.
    """
    sig = _sigma(spec)
    s_val = sig(x, t)
    vanish = ~(s_val > 0.0)
    if np.any(vanish):
        raise DomainError(f"diffusion coefficient vanishes at x={x[vanish][0]}")
    sigma_x = central_diff(lambda xx: sig(xx, t), x, deriv_rel * np.maximum(np.abs(x), 1.0))
    h_t = rel_step(t, deriv_rel)
    i1 = integrate(lambda y, _: central_diff(lambda tt: sig(y, tt), t, h_t) / sig(y, t) ** 2,
                   x_ref, x, x_ref, abs_tol=1e-10, rel_tol=1e-10)
    i2 = integrate(lambda y, _: 1.0 / sig(y, t), x_ref, x, x_ref, abs_tol=1e-12, rel_tol=1e-12)
    mu = np.asarray(spec.drift(x, t), dtype=float)
    return mu / s_val - sigma_x / 2.0 - i1, i2


def wiener_transformability_check(spec: DiffusionSpec, c1, c2, x_grid, t_grid,
                                  x_ref: float = 0.0, tol: float = 1e-6):
    """Check the Brownian-transformability condition on an (x, t) grid.

    Antiderivatives are taken from ``x_ref``; the supplied ``c1``/``c2``
    (constants or functions of t) must follow the same convention.  Returns
    ``(passed, max_residual)``.
    """
    c1f, c2f = _as_time_fn(c1), _as_time_fn(c2)
    xs = np.atleast_1d(np.asarray(x_grid, dtype=float))
    worst = 0.0
    for t in np.atleast_1d(np.asarray(t_grid, dtype=float)):
        base, i2 = _condition_parts(spec, xs, float(t), x_ref)
        worst = max(worst, float(np.max(np.abs(base - c1f(t) * i2 - c2f(t)))))
    return worst <= tol, worst


def search_constant_c1_c2(spec: DiffusionSpec, x_grid, t_grid,
                          c1_range=(-10.0, 10.0), c2_range=(-10.0, 10.0),
                          n: int = 41, x_ref: float = 0.0):
    """Coarse grid search for constant (c1, c2); returns (c1, c2, residual).

    The condition is linear in (c1, c2), so the residual surface is evaluated
    from precomputed condition parts.
    """
    xs = np.atleast_1d(np.asarray(x_grid, dtype=float))
    parts = [_condition_parts(spec, xs, float(t), x_ref) for t in np.atleast_1d(t_grid)]
    base = np.concatenate([p[0] for p in parts])
    i2 = np.concatenate([p[1] for p in parts])
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
    ``c1`` and ``c2`` are constants or functions of t that take arrays.  An
    infinite end of the interval where the space integral diverges maps to
    -inf or +inf.
    """
    c1f, c2f = _as_time_fn(c1), _as_time_fn(c2)
    sig = _sigma(spec)

    def dphi(t):
        return np.exp(-2.0 * integrate(lambda r, _: c1f(r), t_ref, t, t_ref,
                                       abs_tol=1e-12, rel_tol=1e-12))

    def phi(t):
        out = integrate(lambda r, _: dphi(r), t_ref, t, t_ref, abs_tol=1e-11, rel_tol=1e-11)
        return float(out) if out.ndim == 0 else out

    def phi_inv(tau):
        return invert_monotone_cdf(phi, tau, t_ref, t_ref + 1.0, pdf=dphi,
                                   f_tol=1e-12, x_rel_tol=1e-13)

    def level(t):
        return integrate(lambda r, _: c2f(r) * np.sqrt(dphi(r)), t_ref, t, t_ref,
                         abs_tol=1e-11, rel_tol=1e-11)

    def space(t, x):
        return integrate(lambda y, _: 1.0 / sig(y, t), x_ref, x, x_ref,
                         abs_tol=1e-11, rel_tol=1e-11)

    def psi(t, x):
        x = np.asarray(x, dtype=float)
        try:
            s = space(t, x)
        except NumericsError:
            if not np.all(np.isinf(x)):
                raise
            s = np.copysign(np.inf, x)          # the improper integral diverges
        out = np.sqrt(dphi(t)) * s - level(t)
        return float(out) if out.ndim == 0 else out

    def jacobian(t, x):
        arr = np.asarray(x, dtype=float)
        return np.sqrt(dphi(t)) / np.asarray(spec.diffusion(arr, t), dtype=float)

    lo_i, hi_i = spec.interval
    if lo_i < x_ref < hi_i:
        start = x_ref
    elif np.isfinite(lo_i):
        start = lo_i + 1.0 if not np.isfinite(hi_i) else 0.5 * (lo_i + hi_i)
    else:
        start = hi_i - 1.0

    def inverse(t, y):
        # psi(t, x) = y  <=>  space(t, x) = (y + level(t)) / sqrt(phi'(t)), d space/dx = 1/sigma
        target = (np.asarray(y, dtype=float) + level(t)) / np.sqrt(dphi(t))
        return invert_monotone_cdf(lambda x: space(t, x), target, start, start,
                                   pdf=lambda x: 1.0 / sig(x, t), bounds=spec.interval,
                                   f_tol=0.0, x_rel_tol=1e-12)

    return SpaceTimeTransform(
        phi=phi, phi_inv=phi_inv, psi=psi, jacobian=jacobian,
        pieces=(MonotonePiece(lo_i, hi_i, inverse, True),),
        name="wiener_stt")
