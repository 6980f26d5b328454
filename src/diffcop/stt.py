"""Space-time transformation engine.

A space-time transformation (STT) is a pair (phi, psi): tau = phi(t) rescales
time and y = psi(t, x) rescales state, with Jacobian J(t, x) = d psi / d x.
Monotone STTs (psi(t, .) strictly monotone) map diffusions to diffusions and
preserve the copula up to the time change; `push_transition` builds the exact
transformed kernel, a `models.MappedKernel` on the mapped times.

Piecewise-monotone psi loses invertibility.  One pushforward serves every law
there: `_piece_inverses` finds the preimages x of a level on every piece, the
density sums f(x)/|J_t(x)| over them (`_terms`) and the cdf the masses of the
pieces' parts mapped below the level (`_pushed_cdf`).  A pushed marginal
(`_PushedMarginal`, behind `pushforward_marginal`) takes its mass and density
from one pass, one call each of X's cdf and density; where a mass difference
cancels in a tail, the part is integrated from the density instead, and above
the median it solves on the survival side.  Each quantile solve starts inside
its cell of a table of the law at psi of X's quantiles, by the cubic Hermite
interpolant of `_numerics` in the probit of the side's mass, so a few Newton
steps finish it.  Pushed marginals give the Y
quantiles and the weights

    w(s, z, q) = (f_s(z)/|J_s(z)|) / sum_{a: psi(s,a)=q} (f_s(a)/|J_s(a)|);

the pushed kernel at the weighted source preimages z gives the copula density
(`nonmonotone_copula`), the double weighted sum over preimages

    c^Y(u, v) = sum_{z, x} w(s, z, q_u) w(t, x, q_v) c^X(F_s(z), F_t(x)).

The catalog transformation chains (`builtin_chain`) change time on one
exponential clock, `_numerics.clock`.  The module also ships the
drift/diffusion condition for transformability into Brownian motion,

    mu/sigma = sigma_x/2 + int sigma_t/sigma^2 dx + c1 int dx/sigma + c2,

with constants c1, c2 fitted by least squares, and its constructive
transformation on the same clock.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable

import numpy as np

from ._numerics import (central_diff, clock, clock_inv, hermite_eval, hermite_table, integrate,
                        invert_monotone_cdf, rel_step, require)
from .copula import CopulaSurface
from .errors import DomainError, NumericsError
from .models import DiffusionSpec, MappedKernel, Marginal, Model
from .special import _norm_cdf, _norm_pdf, _norm_quantile

__all__ = [
    "MonotonePiece", "SpaceTimeTransform",
    "identity_transform", "absolute_value", "builtin_chain", "compose",
    "push_transition", "pushforward_marginal", "preimage_weights",
    "nonmonotone_copula",
    "wiener_transformability_check", "wiener_stt", "search_constant_c1_c2",
]

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
# The piecewise pushforward
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


class _Split:
    """psi(t, .) at one time t, cut into its monotone pieces on the diffusion interval.

    The ranges (``lo_v``, ``hi_v``), ``increasing``, ``states`` and their levels
    have shape ``(pieces, 1)``, to broadcast against levels on one axis.
    """

    def __init__(self, transform: SpaceTimeTransform, interval, t: float):
        self.transform, self.t = transform, t
        self.pieces = tuple(_clip_pieces(transform, interval))
        ranges = np.array([_piece_range(transform, p, t) for p in self.pieces])  # open ranges
        self.lo_v, self.hi_v = ranges[:, :1], ranges[:, 1:]
        self.support = (float(ranges[:, 0].min()), float(ranges[:, 1].max()))
        self.bounds = np.array([(p.lo, p.hi) for p in self.pieces])
        self.inner = (interval[0] < self.bounds) & (self.bounds < interval[1])
        self.increasing = np.array([[p.increasing] for p in self.pieces])
        # one state inside each piece, read in place of a missing preimage, and its level
        self.states = np.array([[0.5 * (lo + hi) if math.isfinite(lo) and math.isfinite(hi)
                                 else min(max(0.0, lo + 1.0), hi - 1.0)]
                                for lo, hi in self.bounds.tolist()])
        self.state_levels = np.asarray(transform.psi(t, self.states), dtype=float)


def _piece_inverses(split: _Split, q):
    """``(x, found, hit)`` of shape ``(pieces,) + q.shape``: ``hit`` marks the levels
    inside each piece's open range, ``x`` is their inverse there and the piece's
    fixed state elsewhere, and ``found`` marks the inverses strictly inside their
    piece."""
    flat = np.reshape(q, (1, -1))
    hit = (split.lo_v < flat) & (flat < split.hi_v)
    y = np.where(hit, flat, split.state_levels)
    x = np.empty(y.shape)
    for k, piece in enumerate(split.pieces):
        x[k] = piece.inverse(split.t, y[k])
    x = np.where(hit, x, split.states)
    found = hit & (split.bounds[:, :1] < x) & (x < split.bounds[:, 1:])
    shape = (len(split.pieces),) + np.shape(q)
    return x.reshape(shape), found.reshape(shape), hit.reshape(shape)


def _jacobian(split: _Split, x, found):
    """``(xf, jac)``: the preimages ``x``, with each not ``found`` (an inverse that
    rounds onto its piece's end is no preimage) read at its piece's state, and |J_t|
    there.  A preimage on a zero of the Jacobian raises `DomainError`, naming the
    point."""
    xf = np.where(found, x, split.states.reshape((-1,) + (1,) * (np.ndim(x) - 1)))
    jac = np.abs(np.asarray(split.transform.jacobian(split.t, xf), dtype=float))
    if not (jac.min(initial=np.inf, where=found) >= 1e-300
            and jac.max(initial=0.0, where=found) < np.inf):
        vanish = found & ~((jac >= 1e-300) & (jac < np.inf))
        raise DomainError(f"Jacobian vanishes at preimage x={xf[vanish][0]:.6g} (time {split.t})")
    return xf, jac


def _terms(f, jac, found):
    """The pushed density's terms f(x)/|J_t(x)| per piece, 0 on a piece without a
    preimage; ``f`` is X's density at `_jacobian`'s states, of any shape they
    broadcast to."""
    return np.divide(f, jac, out=np.zeros(np.shape(f)), where=found)


def _piece_ends(cdf: Callable, split: _Split, ndim: int = 0):
    """``cdf`` at both ends of every piece in one call, shape ``(pieces, 2) +`` its
    shape, for a ``cdf`` whose own arguments have ``ndim`` axes.  The ends of the
    diffusion interval read 0 and 1 without a call."""
    # only a piece's lower end can be the interval's lower end
    edge = np.array([0.0, 1.0]).reshape((2,) + (1,) * ndim)
    shape = split.inner.shape + (1,) * ndim
    if not split.inner.any():
        return np.broadcast_to(edge, shape)
    probe = np.where(split.inner, split.bounds, split.states).reshape(shape)
    return np.where(split.inner.reshape(shape), cdf(probe), edge)


def _piece_parts(F, ends, split: _Split, upper=False):
    """X's mass on the part of each piece that psi(t, .) maps to at most a level, or
    above it where ``upper``, as a difference of ``F`` (X's cdf at the level's
    preimage) and ``ends`` (`_piece_ends`).  Returns the masses, the larger term of
    each difference and the marks of the parts below the preimage; they hold where
    the level lies inside the piece's range."""
    left = split.increasing.reshape((-1,) + (1,) * (np.ndim(F) - 1)) != upper
    big = np.where(left, F, ends[:, 1])
    return big - np.where(left, ends[:, 0], F), big, left


def _sum_parts(part, whole, split: _Split, q, hit, upper=False):
    """Sum over the pieces of ``part`` where the level ``q`` lies inside the piece's
    range, else of the whole piece's mass ``whole`` or nothing, as the range lies
    below (above where ``upper``) the level or not."""
    over = q >= split.hi_v.reshape((-1,) + (1,) * np.ndim(q))
    return np.where(hit, part, np.where(over != upper, whole, 0.0)).sum(axis=0)


def _pushed_cdf(cdf: Callable, ends, split: _Split, q):
    """P(psi(t, X) <= q), unclipped.  ``cdf`` is X's cdf at states, broadcast
    against its own arguments (the kernel F(. | z) at source states z); ``ends``
    are its `_piece_ends`.  Exact to the absolute rounding of ``cdf``."""
    x, _, hit = _piece_inverses(split, q)
    return _sum_parts(_piece_parts(cdf(x), ends, split)[0], ends[:, 1] - ends[:, 0], split, q, hit)


# A cdf difference below this share of its larger term has lost more than 8 bits;
# where such parts decide a pushed mass, they are integrated from the density.
_CANCELLED = 1.0 / 256
# X's quantiles at these probabilities place the start table's levels: a probit
# grid, out to where a monotone map's levels fall below the table's floor of
# `_CANCELLED` per piece.
_TABLE_U = _norm_cdf(np.linspace(-3.0, 3.0, 25))


@dataclass(frozen=True)
class _StartTable:
    """Levels ``y`` (ascending) at which a pushed law is exact, their probits
    ``zeta`` and slopes ``d_zeta`` = dy/dzeta, and per cell between two levels the
    coefficients of the cubic Hermite interpolant of y in zeta
    (`_numerics.hermite_table`).  Per support end, the mass between it and the end
    level (``end_mass``) and the exponent ``kappa`` of the power law of that mass
    which meets the end level's density."""

    y: np.ndarray
    zeta: np.ndarray
    d_zeta: np.ndarray
    cubic: np.ndarray
    kappa: tuple[float, float]
    end_mass: tuple[float, float]


class _PushedMarginal:
    """The law of Y = psi(t, X_t): cdf, survival and density in one pass over the
    pieces, and quantiles from a start table.

    Masses are exact in the tails: where a cdf difference has cancelled and its
    part decides the sum, the part is the integral of X's density over it.
    """

    def __init__(self, marg: Marginal, split: _Split):
        self.marg, self.split = marg, split
        self.ends = _piece_ends(marg.cdf, split, 1)
        lo, hi = self.ends[:, 0], self.ends[:, 1]
        whole = hi - lo
        self.whole = self._integrated(whole, whole < _CANCELLED * hi,
                                      split.bounds[:, :1], split.bounds[:, 1:])

    def _integrated(self, mass, redo, a, b):
        """``mass`` with its ``redo`` elements replaced by the integrals of X's density
        over (a, b)."""
        if not redo.any():
            return mass
        mass = mass.copy()
        mass[redo] = integrate(lambda x, _: self.marg.pdf(x), a[redo], b[redo], a[redo],
                               abs_tol=0.0, rel_tol=1e-14)
        return mass

    def _side(self, F, hit, q, upper):
        """P(Y <= q), or P(Y > q) where ``upper``, for levels ``q`` on one axis, as
        differences of X's cdf ``F`` at their preimages; with `_piece_parts`."""
        part, big, left = _piece_parts(F, self.ends, self.split, upper)
        return _sum_parts(part, self.whole, self.split, q, hit, upper), part, big, left

    def _mass(self, F, x, hit, q, upper):
        """`_side`'s mass, exact: a part whose difference cancelled below `_CANCELLED`
        of its larger term, where the rounding of that term is more than `_CANCELLED`
        of the mass, is the integral of X's density over the part instead."""
        mass, part, big, left = self._side(F, hit, q, upper)
        if not (mass < _CANCELLED * len(self.split.pieces)).any():   # each term is <= 1
            return mass
        cancelled = (hit & (part < _CANCELLED * big)
                     & (mass < _CANCELLED * np.where(hit, big, 0.0).sum(axis=0)))
        if not cancelled.any():
            return mass
        bounds = self.split.bounds
        part = self._integrated(part, cancelled, np.where(left, bounds[:, :1], x),
                                np.where(left, x, bounds[:, 1:]))
        return _sum_parts(part, self.whole, self.split, q, hit, upper)

    def _density(self, x, found):
        xf, jac = _jacobian(self.split, x, found)
        return _terms(self.marg.pdf(xf), jac, found).sum(axis=0)

    def law(self, q, upper):
        """``(mass, density)`` at levels ``q`` on one axis from one call each of X's
        cdf and density: the mass is P(Y <= q), or P(Y > q) where ``upper``."""
        x, found, hit = _piece_inverses(self.split, q)
        return self._mass(self.marg.cdf(x), x, hit, q, upper), self._density(x, found)

    def cdf(self, q):
        q = np.asarray(q, dtype=float)
        flat = q.reshape(-1)
        x, _, hit = _piece_inverses(self.split, flat)
        out = np.clip(self._mass(self.marg.cdf(x), x, hit, flat, False), 0.0, 1.0)
        return float(out[0]) if q.ndim == 0 else out.reshape(q.shape)

    def pdf(self, q):
        q = np.asarray(q, dtype=float)
        out = self._density(*_piece_inverses(self.split, q.reshape(-1))[:2])
        return float(out[0]) if q.ndim == 0 else out.reshape(q.shape)

    @cached_property
    def _table(self) -> _StartTable:
        """psi of X's quantiles at `_TABLE_U`, the levels kept where the mass on
        the level's side is at least `_CANCELLED` per piece, so exact as a
        difference, the density is positive and zeta rises.  zeta is Phi^-1 of the
        mass below a level up to the median, and -Phi^-1 of the mass above it
        beyond; every cell interpolates y in zeta."""
        split, marg = self.split, self.marg
        y = np.sort(np.asarray(split.transform.psi(split.t, marg.quantile(_TABLE_U)),
                               dtype=float))
        x, found, hit = _piece_inverses(split, y)
        g = self._density(x, found)
        below = self._side(marg.cdf(x), hit, y, False)[0]
        upper = below > 0.5
        c = np.where(upper, 1.0 - below, below)
        ok = (c >= _CANCELLED * len(split.pieces)) & (g > 0.0) & (g < np.inf)
        zeta = np.where(upper, -1.0, 1.0) * _norm_quantile(np.where(ok, c, 0.5))
        rise = np.maximum.accumulate(np.where(ok, zeta, -np.inf))
        keep = ok & (zeta > np.concatenate(([-np.inf], rise[:-1])))
        if np.count_nonzero(keep) < 2:
            raise NumericsError(f"fewer than two levels of the start table carry mass "
                                f"at time {split.t}")
        y, c, g, upper, zeta = y[keep], c[keep], g[keep], upper[keep], zeta[keep]
        d_zeta = _norm_pdf(zeta) / g
        (y_lo, c_lo, g_lo, up_lo), (y_hi, c_hi, g_hi, up_hi) = (
            (float(y[i]), float(c[i]), float(g[i]), bool(upper[i])) for i in (0, -1))
        mass = (1.0 - c_lo if up_lo else c_lo, c_hi if up_hi else 1.0 - c_hi)
        lo, hi = split.support
        return _StartTable(y, zeta, d_zeta, hermite_table(zeta, y, d_zeta),
                           (g_lo * (y_lo - lo) / mass[0], g_hi * (hi - y_hi) / mass[1]), mass)

    def _start(self, p, tail, upper):
        """Each target's cell of the table in y, ``(lo, hi, start, (lo_bound,
        hi_bound))``.

        Inside the table the cell lies between two levels, its bounds, and the
        start is the cell's cubic, kept inside it.  Beyond an end level the cell
        reaches to the support's end.  Toward a finite end the start follows the
        power law of the mass that meets the end level's mass and density; toward
        an infinite end it follows the end level's slope in zeta, the end is a
        bound, and the bracket reaches twice as far out.
        """
        tab = self._table
        y = tab.y
        z = np.where(upper, -1.0, 1.0) * _norm_quantile(tail)
        k = np.searchsorted(tab.zeta, z)
        j = np.clip(k - 1, 0, y.size - 2)
        lo, hi = y[j], y[j + 1]
        t = (z - tab.zeta[j]) / (tab.zeta[j + 1] - tab.zeta[j])
        start = np.minimum(np.maximum(hermite_eval(tab.cubic, j, t)[0], lo), hi)
        lo_bound, hi_bound = lo.copy(), hi.copy()
        for out, n, end, mass in ((k == 0, 0, self.split.support[0], p),
                                  (k == y.size, -1, self.split.support[1], 1.0 - p)):
            if not out.any():
                continue
            if math.isinf(end):
                x0 = y[n] + (z[out] - tab.zeta[n]) * tab.d_zeta[n]
                reach = y[n] + 2.0 * (x0 - y[n])
            else:
                x0 = end + (y[n] - end) * (mass[out] / tab.end_mass[n]) ** (1.0 / tab.kappa[n])
                reach = end
            near, near_b, far, far_b = ((hi, hi_bound, lo, lo_bound) if n == 0
                                        else (lo, lo_bound, hi, hi_bound))
            near[out] = near_b[out] = y[n]
            far[out], far_b[out] = reach, end
            start[out] = x0
        return lo, hi, start, (lo_bound, hi_bound)

    def quantile(self, p):
        """Solves P(Y <= y) = p up to the median, and P(Y > y) = 1 - p above it (for
        -y, so that the solver's cdf increases)."""
        p = np.asarray(p, dtype=float)
        require(bool(((p > 0.0) & (p < 1.0)).all()), "p must lie in the open interval (0, 1)")
        flat = p.reshape(-1)
        upper = flat > 0.5
        tail = np.where(upper, 1.0 - flat, flat)          # 1 - p is exact above 1/2
        sign = np.where(upper, -1.0, 1.0)
        lo, hi, start, (a, b) = self._start(flat, tail, upper)
        lo, hi = np.where(upper, -hi, lo), np.where(upper, -lo, hi)
        bounds = (np.where(upper, -b, a), np.where(upper, -a, b))
        w = invert_monotone_cdf(lambda w: self.law(sign * w, upper), tail, lo, hi,
                                sign * start, bounds=bounds, f_tol=1e-13, x_rel_tol=1e-14)
        out = sign * w
        return float(out[0]) if p.ndim == 0 else out.reshape(p.shape)


def _decompose(marg: Marginal, split: _Split, q):
    """The pushed density's terms of the marginal at the levels ``q``, normalized
    to the preimage weights: ``(x, found, weights)``.  A level without any
    preimage raises `DomainError`."""
    x, found, _ = _piece_inverses(split, q)
    xf, jac = _jacobian(split, x, found)
    terms = _terms(marg.pdf(xf), jac, found)
    missing = ~found.any(axis=0)
    if missing.any():
        raise DomainError(f"value q={np.ravel(q)[np.ravel(missing)][0]} has no preimage "
                          f"under the transform at time {split.t}")
    return xf, found, terms / terms.sum(axis=0)


def preimage_weights(model: Model, transform: SpaceTimeTransform, t: float, q: float):
    """Preimage points of the scalar level q under psi(t, .) and their normalized
    density weights.

    Raises `DomainError` for an array q, and (naming the point) when a
    preimage falls on a zero of the Jacobian.
    """
    require(np.ndim(q) == 0, f"q must be a scalar level, got an array of shape {np.shape(q)}")
    x, found, weights = _decompose(model.marginal(t), _Split(transform, model.interval, t),
                                   float(q))
    return x[found], weights[found]


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
    """Marginal of Y_{phi(t)} = psi(t, X_t): the law of X_t pushed through every piece."""
    law = _PushedMarginal(model.marginal(t), _Split(transform, model.interval, t))
    return Marginal(t=float(transform.phi(t)), pdf=law.pdf, cdf=law.cdf, quantile=law.quantile)


# ---------------------------------------------------------------------------
# Non-monotone copula (finitely many pieces)
# ---------------------------------------------------------------------------

def nonmonotone_copula(model: Model, transform: SpaceTimeTransform,
                       s: float, t: float) -> CopulaSurface:
    """Copula surface of Y_{phi(.)} = psi(., X_.) between source times s < t.

    Over the preimages z of q_u with weights w(s, z, q_u), the density is
    sum_z w f^Y(q_v | z) / f^Y_t(q_v) and the conditional sum_z w F^Y(q_v | z),
    with the kernel pushed like the marginal.  A monotone transform collapses
    it to one term of unit weight (the time-changed source copula).  The
    surface lives at the transformed times (phi(s), phi(t)).
    """
    require(t > s > model.t0, f"need t0 < s < t, got t0={model.t0}, s={s}, t={t}")
    push_s, push_t = (_PushedMarginal(model.marginal(r), _Split(transform, model.interval, r))
                      for r in (s, t))
    split_t, kernel = push_t.split, model.kernel

    def levels(u, v):
        # u and v get one ndim, so that the pieces axis put before q_v stays apart from z's
        nd = max(np.ndim(u), np.ndim(v))
        lift = lambda q: np.asarray(q).reshape((1,) * (nd - np.ndim(q)) + np.shape(q))
        z, _, w = _decompose(push_s.marg, push_s.split, lift(push_s.quantile(u)))
        return z, w, lift(push_t.quantile(v))

    def dens(u, v):
        z, w, q_v = levels(u, v)
        x, found, _ = _piece_inverses(split_t, q_v)
        xf, jac = _jacobian(split_t, x, found)
        pushed = _terms(kernel.pdf(s, z, t, xf[:, None]), jac[:, None], found[:, None])
        marginal = _terms(push_t.marg.pdf(xf), jac, found).sum(axis=0)
        return (w * pushed.sum(axis=0)).sum(axis=0) / marginal

    def cond(u, v):
        z, w, q_v = levels(u, v)
        law = lambda x: kernel.cdf(s, z, t, x)
        mass = _pushed_cdf(law, _piece_ends(law, split_t, z.ndim), split_t, q_v[None])
        return np.clip((w * mass).sum(axis=0), 0.0, 1.0)

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
        psi=lambda t, x: np.asarray(x, dtype=float)[()],
        jacobian=lambda t, x: np.ones_like(np.asarray(x, dtype=float))[()],
        pieces=(MonotonePiece(-np.inf, np.inf, lambda t, y: np.asarray(y, dtype=float)[()],
                              True),),
        name="identity")


def absolute_value() -> SpaceTimeTransform:
    return SpaceTimeTransform(
        phi=lambda t: t, phi_inv=lambda tau: tau,
        psi=lambda t, x: np.abs(np.asarray(x, dtype=float)),
        jacobian=lambda t, x: np.sign(np.asarray(x, dtype=float)),
        pieces=(MonotonePiece(-np.inf, 0.0, lambda t, y: -np.asarray(y, dtype=float), False),
                MonotonePiece(0.0, np.inf, lambda t, y: np.asarray(y, dtype=float)[()], True)),
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


def _time_map(fn: Callable, a: float) -> Callable:
    """The time map t -> fn(a, t) of `clock` or `clock_inv`: a float for a scalar time,
    elementwise through the same call over an array of times."""
    def mapped(t):
        if np.ndim(t) == 0:
            return fn(a, float(t))
        return np.reshape([fn(a, r) for r in np.ravel(t).tolist()], np.shape(t))
    return mapped


def _ou_chain(alpha: float, beta: float, sigma: float, name: str) -> SpaceTimeTransform:
    require(sigma > 0.0, "sigma must be positive")
    return SpaceTimeTransform(
        phi=_time_map(clock, 2.0 * alpha), phi_inv=_time_map(clock_inv, 2.0 * alpha),
        psi=lambda t, x: (math.exp(alpha * t) * np.asarray(x, dtype=float)
                          - beta * clock(alpha, t)) / sigma,
        jacobian=lambda t, x: np.full_like(np.asarray(x, dtype=float),
                                           math.exp(alpha * t) / sigma)[()],
        pieces=(MonotonePiece(-np.inf, np.inf,
                              lambda t, y: sigma * math.exp(-alpha * t) * np.asarray(y, dtype=float)
                              + beta * clock(-alpha, t),
                              True),),
        name=name)


def _chain_bm_to_special_cir(alpha: float, sigma: float) -> SpaceTimeTransform:
    require(sigma > 0.0, "sigma must be positive")
    require(alpha >= 0.0, "alpha must be nonnegative")

    def scale(t):
        return alpha * t + 1.0

    def psi(t, x):
        x = np.asarray(x, dtype=float)
        return sigma ** 2 * x * x / (4.0 * scale(t))

    def inv_pos(t, y):
        return 2.0 * np.sqrt(np.asarray(y, dtype=float) * scale(t)) / sigma

    return SpaceTimeTransform(
        phi=_time_map(clock_inv, alpha), phi_inv=_time_map(clock, alpha), psi=psi,
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


_BUILTIN_CHAINS = {
    "ou_to_bm": (("alpha", "beta", "sigma"),
                 lambda alpha, beta, sigma: _ou_chain(alpha, beta, sigma, "ou_to_bm")),
    "bm_to_special_cir": (("alpha", "sigma"), _chain_bm_to_special_cir),
    "cir_to_rayleigh": (("sigma",), _chain_cir_to_rayleigh),
    "rayleigh_to_bessel": (("b",), lambda b: _ou_chain(-b, 0.0, 1.0, "rayleigh_to_bessel")),
    "cir_to_bessel": (("alpha", "sigma"), lambda alpha, sigma: replace(compose(
        _ou_chain(alpha / 2.0, 0.0, 1.0, "rayleigh_to_bessel"), _chain_cir_to_rayleigh(sigma)),
        name="cir_to_bessel")),
}


def builtin_chain(name: str, **params) -> SpaceTimeTransform:
    """Catalog transformation chains.

    ``ou_to_bm(alpha, beta, sigma)``, ``bm_to_special_cir(alpha, sigma)``,
    ``cir_to_rayleigh(sigma)``, ``rayleigh_to_bessel(b)`` and their composition
    ``cir_to_bessel(alpha, sigma)`` (Bessel drift delta = (4 beta/sigma^2 - 1)/2).
    On the clock phi_a(t) = (e^{a t} - 1)/a, phi_0(t) = t, ou_to_bm maps (t, x) to
    (phi_{2 alpha}(t), (e^{alpha t} x - beta phi_alpha(t))/sigma), with inverse
    x = sigma e^{-alpha t} y + beta phi_{-alpha}(t); bm_to_special_cir runs on
    phi_alpha^{-1}.  rayleigh_to_bessel(b) is ou_to_bm(-b, 0, 1), whose clock's
    horizon 1/(2b) bounds the Bessel time for b > 0.  A missing or unknown
    parameter name raises `DomainError`.
    """
    if name not in _BUILTIN_CHAINS:
        raise DomainError(f"unknown chain '{name}'; known: {', '.join(_BUILTIN_CHAINS)}")
    names, build = _BUILTIN_CHAINS[name]
    missing, unknown = sorted(set(names) - set(params)), sorted(set(params) - set(names))
    if missing or unknown:
        raise DomainError(f"chain '{name}' takes parameters {', '.join(names)}: "
                          f"missing {missing}, unknown {unknown}")
    return build(**params)


# ---------------------------------------------------------------------------
# Transformability into Brownian motion
# ---------------------------------------------------------------------------

_DERIV_REL = 1e-5    # relative step of the sigma_x and sigma_t differences


def _sigma(diffusion: Callable) -> Callable:
    """sigma(x, t) as an array of the shape of x."""
    return lambda x, t: np.broadcast_to(np.asarray(diffusion(x, t), dtype=float), np.shape(x))


def _condition_parts(spec: DiffusionSpec, x: np.ndarray, t: float,
                     x_ref: float) -> tuple[np.ndarray, np.ndarray]:
    """Returns (base, I2) at the states x, with base = mu/sigma - sigma_x/2 - int sigma_t/sigma^2.

    Each integral over [x_ref, x] is one `integrate` call for all of x.
    """
    drift, diffusion = spec.coefficients()
    sig = _sigma(diffusion)
    s_val = sig(x, t)
    vanish = ~(s_val > 0.0)
    if np.any(vanish):
        raise DomainError(f"diffusion coefficient vanishes at x={x[vanish][0]}")
    sigma_x = central_diff(lambda xx: sig(xx, t), x, rel_step(x, _DERIV_REL))
    h_t = rel_step(t, _DERIV_REL)
    i1 = integrate(lambda y, _: central_diff(lambda tt: sig(y, tt), t, h_t) / sig(y, t) ** 2,
                   x_ref, x, x_ref, abs_tol=1e-10, rel_tol=1e-10)
    i2 = integrate(lambda y, _: 1.0 / sig(y, t), x_ref, x, x_ref, abs_tol=1e-12, rel_tol=1e-12)
    mu = np.asarray(drift(x, t), dtype=float)
    return mu / s_val - sigma_x / 2.0 - i1, i2


def _constant(name: str, c) -> float:
    """``c`` as a float; a callable, non-real or non-finite ``c`` raises `DomainError`."""
    require(isinstance(c, numbers.Real) and math.isfinite(c),
            f"{name} must be a finite constant, got {c!r}")
    return float(c)


def wiener_transformability_check(spec: DiffusionSpec, c1, c2, x_grid, t_grid,
                                  x_ref: float = 0.0, tol: float = 1e-6):
    """Check the Brownian-transformability condition on an (x, t) grid.

    Antiderivatives are taken from ``x_ref``; the constants ``c1`` and ``c2``
    must follow the same convention, and a callable or non-finite one raises
    `DomainError`.  Returns ``(passed, max_residual)``.
    """
    c1, c2 = _constant("c1", c1), _constant("c2", c2)
    xs = np.atleast_1d(np.asarray(x_grid, dtype=float))
    worst = 0.0
    for t in np.atleast_1d(np.asarray(t_grid, dtype=float)):
        base, i2 = _condition_parts(spec, xs, float(t), x_ref)
        worst = max(worst, float(np.max(np.abs(base - c1 * i2 - c2))))
    return worst <= tol, worst


def search_constant_c1_c2(spec: DiffusionSpec, x_grid, t_grid, x_ref: float = 0.0):
    """Constant (c1, c2) by one least-squares solve of the linear condition
    base = c1 I2 + c2 on the (x, t) grid; returns ``(c1, c2, residual)``, the
    residual being their worst |base - c1 I2 - c2|, as
    `wiener_transformability_check` reads it.
    """
    xs = np.atleast_1d(np.asarray(x_grid, dtype=float))
    parts = [_condition_parts(spec, xs, float(t), x_ref) for t in np.atleast_1d(t_grid)]
    base = np.concatenate([p[0] for p in parts])
    i2 = np.concatenate([p[1] for p in parts])
    fit = np.linalg.lstsq(np.column_stack((i2, np.ones_like(i2))), base, rcond=None)[0]
    c1, c2 = float(fit[0]), float(fit[1])
    return c1, c2, float(np.max(np.abs(base - c1 * i2 - c2)))


def wiener_stt(spec: DiffusionSpec, c1, c2, x_ref: float = 0.0) -> SpaceTimeTransform:
    """Constructive transformation into Brownian motion once the condition holds
    with constants ``c1`` and ``c2``: the ``ou_to_bm`` chain of unit sigma (alpha =
    -c1, beta = c2) after the space map S(t, x) = int_{x_ref}^x dy/sigma(y, t),

        phi(t) = clock(-2 c1, t),   psi(t, x) = e^{-c1 t} S(t, x) - c2 clock(-c1, t),

    phi^{-1} = clock_inv(-2 c1, .) and J = e^{-c1 t}/sigma (the level term's minus
    sign cancels the Ito drift of psi(t, X_t), which the test suite verifies).  A
    callable or non-finite c1 or c2 raises `DomainError`.  An infinite end of the
    interval where S diverges maps to -inf or +inf.
    """
    c1, c2 = _constant("c1", c1), _constant("c2", c2)
    sig = _sigma(spec.coefficients()[1])

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
        level = c2 * clock(-c1, t)              # DomainError where e^{-c1 t} overflows
        out = math.exp(-c1 * t) * s - level
        return float(out) if out.ndim == 0 else out

    def jacobian(t, x):
        return math.exp(-c1 * t) / sig(np.asarray(x, dtype=float), t)

    lo_i, hi_i = spec.interval
    if lo_i < x_ref < hi_i:
        start = x_ref
    elif np.isfinite(lo_i):
        start = lo_i + 1.0 if not np.isfinite(hi_i) else 0.5 * (lo_i + hi_i)
    else:
        start = hi_i - 1.0

    def inverse(t, y):
        # psi(t, x) = y  <=>  S(t, x) = (y + c2 clock(-c1, t)) / e^{-c1 t}, dS/dx = 1/sigma
        target = (np.asarray(y, dtype=float) + c2 * clock(-c1, t)) / math.exp(-c1 * t)
        return invert_monotone_cdf(lambda x: (space(t, x), 1.0 / sig(x, t)), target, start,
                                   start, bounds=spec.interval, f_tol=0.0, x_rel_tol=1e-12)

    return SpaceTimeTransform(
        phi=_time_map(clock, -2.0 * c1), phi_inv=_time_map(clock_inv, -2.0 * c1),
        psi=psi, jacobian=jacobian, pieces=(MonotonePiece(lo_i, hi_i, inverse, True),),
        name="wiener_stt")
