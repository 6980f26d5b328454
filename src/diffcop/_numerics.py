"""Shared numerical kernels: the exponential clock, monotone-CDF inversion, the Hermite
table of quantile starts, quadrature.

Every OU-type time change runs on one clock, ``clock(a, t) = (e^{a t} - 1)/a``
(t at a = 0), and ``clock_inv``: the kernels of `models`, the chains and the
Wiener transformation of `stt`, and the OU and cir copulas.

Every inversion of the package but the noncentral chi-square quantile
(``chndtrix`` and the fixed-law table of `special`) goes through
`invert_monotone_cdf`, one safeguarded Newton/bisection solver that first
grows its bracket inside the state space: the reflected-BM kernel, pushed and
tabulated marginals, that law's far left tail and the Wiener space map.

Every quantile table is one Hermite interpolant (Hoermann & Leydold, ACM TOMACS
13, 2003): `hermite_table` builds per-cell coefficients from values and slopes
(cubic), plus second derivatives (quintic), and `hermite_eval` reads value and
slope at (cell, t).  `special`'s fixed-law quantile holds a quintic of log x in
the probit, `stt`'s pushed marginals a cubic of their levels in the probit of
the mass.

Every integral of the package goes through `integrate`, one vectorized
adaptive Gauss-Legendre engine: the copula CDFs and conditionals, the
Brownian-transformability integrals and the Wiener space map of `stt`, the
far left tail of the noncentral chi-square cdf, and the acceptance checks of
`validation`.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import DomainError, NumericsError

_TINY = 1e-300
_MAX_MOVES = 200                                   # bracket moves per side

_GL20, _GL10 = np.polynomial.legendre.leggauss(20), np.polynomial.legendre.leggauss(10)
_GL_NODES = np.concatenate((_GL20[0], _GL10[0]))   # ascending per rule: 0 and 19 are outermost
_GL_MAX_PANELS = 200                               # open panels per integral
_NORMAL_MIN = np.finfo(float).tiny
_CLOCK_LINEAR = 2.0 ** -54                         # |a t| below which the clock is t


def clock(a: float, t: float) -> float:
    """phi_a(t) = (e^{a t} - 1)/a; t at a = 0, and -1/a at t = inf for a < 0.

    Below |a t| = 2^-54, where a t may be subnormal, (e^{a t} - 1)/(a t) rounds to 1.
    Past a t = log(max float), about 709.78, `DomainError`: the clock overflows.
    """
    if a == 0.0 or abs(a * t) < _CLOCK_LINEAR:
        return t
    try:
        return math.expm1(a * t) / a
    except OverflowError:
        raise DomainError(f"the exponential clock overflows at a t = {a * t}") from None


def clock_inv(a: float, tau: float) -> float:
    """The inverse clock log(1 + a tau)/a; tau at a = 0, `DomainError` where 1 + a tau <= 0."""
    if a == 0.0 or abs(a * tau) < _CLOCK_LINEAR:
        return tau
    require(a * tau > -1.0, f"time {tau} is beyond the clock's horizon -1/a = {-1.0 / a}")
    return math.log1p(a * tau) / a


def invert_monotone_cdf(law: Callable, p, lo, hi, start=None,
                        bounds=(-np.inf, np.inf), f_tol: float = 1e-12,
                        x_rel_tol: float = 1e-14, max_iter: int = 200):
    """Solve ``cdf(x) = p`` for nondecreasing ``cdf`` on the open interval ``bounds``.

    ``law(x)`` returns ``(cdf(x), pdf(x))`` from one evaluation, with ``pdf``
    None where the law has no density to offer.

    The start bracket [lo, hi] need not hold the root.  While ``cdf(hi) < p``
    the upper end moves out by the bracket width (at least 1) when the upper
    bound is infinite, or halfway to it when it is finite; then the lower end
    likewise while ``cdf(lo) > p``.  So ``cdf`` is never evaluated outside the
    open ``bounds``, and an end that starts on a bound holds without being
    evaluated.  A side that still misses after 200 moves, or whose end would
    land on its bound, raises `NumericsError`: the target is out of reach.

    Inside the bracket, vectorized safeguarded Newton as in rtsafe from
    ``start``: a Newton step is taken when ``law`` gives a density, the step
    stays strictly inside the current bracket and it is at most half the step
    before last; otherwise the bracket is bisected.  So a flat or quantized
    ``cdf``, on which Newton would creep, costs at most about two iterations
    per halving of the bracket.  Once every root has met a stopping test, each
    takes the Newton step of its last evaluation where that step stays
    strictly inside its bracket: it costs no evaluation and leaves the root
    far closer than ``f_tol``.

    Parameters
    ----------
    law : callable accepting an ndarray of the shape of ``p`` and returning
        the pair of ndarrays (or the cdf and None) at those points.
    p : target probabilities (scalar or array).
    lo, hi : start bracket, broadcast to the shape of ``p``, inside [bounds].
    start : the first iterate, strictly inside [lo, hi]; default the midpoint
        of the grown bracket.
    bounds : the state-space interval, ends may be infinite; each end a scalar
        or an array broadcast to the shape of ``p``.
    f_tol : stop where ``|cdf(x) - p| <= f_tol * min(p, 1 - p)``, relative to
        the smaller tail probability (0 disables).  For targets outside
        (0, 1), met when a monotone map that is not a CDF is inverted, only
        the bracket-width test applies.
    x_rel_tol : stop where the bracket is this small relative to ``|x|``.
    max_iter : raise `NumericsError` if some root has not converged after
        this many iterations.

    Returns
    -------
    float for a scalar ``p``, else an ndarray of its shape with the roots.
    """
    p_arr = np.atleast_1d(np.asarray(p, dtype=float))

    def full(a):
        a = np.asarray(a, dtype=float)
        return a if a.shape == p_arr.shape else np.broadcast_to(a, p_arr.shape)

    ends = [full(lo), full(hi)]
    for k, sign in ((1, 1.0), (0, -1.0)):                 # the upper end first
        edge = full(bounds[k])
        free = ends[k] != edge                            # an end that starts on its bound holds
        for moves in range(_MAX_MOVES if free.any() else 0):
            end = ends[k]
            probe = np.where(free, end, 0.5 * (ends[0] + ends[1]))
            miss = free & (sign * (law(probe)[0] - p_arr) < 0.0)
            if not miss.any():
                break
            step = np.where(np.isinf(edge), sign * np.maximum(ends[1] - ends[0], 1.0),
                            0.5 * (edge - end))
            ends[k] = np.where(miss, end + step, end)
            if moves == _MAX_MOVES - 1 or np.any(miss & (ends[k] == edge)):
                raise NumericsError(f"bracket growth failed on the {('lower', 'upper')[k]} side")
    lo, hi = ends
    x = 0.5 * (lo + hi) if start is None else full(start)

    f_scale = f_tol * np.minimum(p_arr, 1.0 - p_arr)
    step_old = step = hi - lo
    for _ in range(max_iter):
        cdf, d = law(x)
        f = cdf - p_arr
        lo = np.where(f <= 0.0, x, lo)
        hi = np.where(f > 0.0, x, hi)
        done = (np.abs(f) <= f_scale) | (hi - lo <= x_rel_tol * (np.abs(x) + 1e-30))
        if d is not None:
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                newton = f / d
            x_newton = x - newton
            # the bracket test also rejects a step to inf or nan
            ok = (x_newton > lo) & (x_newton < hi) & (d > _TINY)
        if done.all():
            if d is not None:                 # the last evaluation's Newton step, for free
                x = np.where(ok, x_newton, x)
            break
        if d is not None:
            ok &= np.abs(newton) <= 0.5 * step_old
        else:
            x_newton = x
            ok = np.zeros_like(x, dtype=bool)
        x_next = np.where(ok, x_newton, 0.5 * (lo + hi))
        step_old, step = step, np.abs(x_next - x)
        x = np.where(done, x, x_next)
    else:
        raise NumericsError(f"monotone inversion did not converge in {max_iter} iterations "
                            f"({int(np.sum(~done))} of {done.size} roots open)")
    return float(x[0]) if np.ndim(p) == 0 else x.reshape(np.shape(p))


# The upper coefficients of the Hermite interpolant on [0, 1], by its degree, from y1 - y0 and
# the end derivatives scaled to the cell, h y'_0, h y'_1 (and h^2 y''_0, h^2 y''_1); the lower
# ones, c0 = y0, c1 = h y'_0 (and c2 = h^2 y''_0 / 2), are the left node's own
_HERMITE_UPPER = {3: np.array([[3.0, -2.0, -1.0],
                               [-2.0, 1.0, 1.0]]),
                  5: np.array([[10.0, -6.0, -4.0, -1.5, 0.5],
                               [-15.0, 8.0, 7.0, 1.5, -1.0],
                               [6.0, -3.0, -3.0, -0.5, 0.5]])}


def hermite_table(x, y, d1, d2=None) -> np.ndarray:
    """Rows c0..cn, one column per cell between the ascending nodes ``x``, of the Hermite
    interpolant y = sum_j c_j t^j, t = (x' - x_k) / (x_{k+1} - x_k), that matches ``y`` and
    its slope ``d1`` at both nodes: the cubic (n = 3), or with the second derivatives
    ``d2`` the quintic (n = 5)."""
    h = x[1:] - x[:-1]
    v = [y[1:] - y[:-1], h * d1[:-1], h * d1[1:]]
    low = [y[:-1], v[1]]
    if d2 is not None:
        h2 = h * h
        v += [h2 * d2[:-1], h2 * d2[1:]]
        low.append(0.5 * v[3])
    return np.vstack(low + [_HERMITE_UPPER[len(v)] @ np.array(v)])


def hermite_eval(table: np.ndarray, k, t):
    """`hermite_table`'s interpolant in the cells ``k`` at ``t``, and its slope dy/dt, by
    Horner's scheme."""
    c = table[:, k]
    n = c.shape[0] - 1
    y, g = c[n] * t, n * c[n]
    for j in range(n - 1, 0, -1):
        y += c[j]
        y *= t
        g *= t
        g += j * c[j]
    y += c[0]
    return y, g


def integrate(f: Callable, lo, hi, at, *, abs_tol: float = 1e-13,
              rel_tol: float = 1e-11) -> np.ndarray:
    """Integrals of x -> f(x, at) over [lo, hi], one per element of the broadcast inputs.

    Each integral starts as the panels [lo, at] and [at, hi], with ``at``
    clipped into the interval: copula integrands concentrate near that
    diagonal at short lags.  Each round passes the 30 nodes of all open panels
    to ``f`` in one call, as (panels, 30) and (panels, 1) arrays, and ``f``
    returns the (panels, 30) values.  A panel's value is its 20-point rule, its
    error the distance to the 10-point one.  Until an integral's errors sum to
    at most max(abs_tol, rel_tol |I|), its panels whose error exceeds an equal
    share of the budget left are bisected.  Each value owns its panels, so it
    does not depend on the batch.

    Reversed bounds (hi < lo) give the negated integral.  An integral with one
    infinite end runs in s in [0, 1), x = c +- s/(1 - s) from its finite end c;
    ``f`` still receives x.  An integrable singularity at an end converges by
    bisection toward it.

    Raises `DomainError` when both ends are infinite, and `NumericsError` on a
    non-finite integrand, on more than 200 open panels for one integral, or
    when a panel can no longer be halved in double precision: the nodes of its
    halves would lie less than the smallest normal double from their ends.
    """
    lo, hi, at = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (lo, hi, at)))
    shape, n = lo.shape, lo.size
    lo, hi, at = lo.ravel(), hi.ravel(), at.ravel()
    flip = hi < lo
    if flip.any():
        lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
    cut = np.clip(at, lo, hi)
    has_map = bool(np.isinf(lo).any() or np.isinf(hi).any())
    if has_map:
        require(not np.any(np.isinf(lo) & np.isinf(hi)), "quadrature needs a finite end")
        mapped = np.isinf(lo) | np.isinf(hi)
        end = np.where(np.isinf(hi), lo, hi)
        toward = np.where(np.isinf(hi), 1.0, -1.0)
        cut = np.where(mapped, 1.0 - 1.0 / (1.0 + np.abs(cut - end)), cut)
        lo, hi = np.where(mapped, 0.0, lo), np.where(mapped, 1.0, hi)
    a, b, owner = np.concatenate((lo, cut)), np.concatenate((cut, hi)), np.tile(np.arange(n), 2)
    a, b, owner = a[b > a], b[b > a], owner[b > a]
    value, err_kept = np.zeros(n), np.zeros(n)
    half = 0.5 * (b - a)
    # halves at least `wide` keep every node dozens of ulps inside their panel, and after r
    # rounds every half is at least 2^-r of the narrowest first one: until then no test is due
    wide = max(2.0 ** -40 * float(np.abs((a, b)).max(initial=0.0)), 2.0 ** 20 * _NORMAL_MIN)
    untested = int(np.log2(max(float(half.min()), wide) / wide)) if half.size else 0
    rounds = 0
    while owner.size:
        rounds += 1
        x = (a + half)[:, None] + half[:, None] * _GL_NODES
        if has_map:
            m = mapped[owner][:, None]
            s = np.where(m, x, 0.0)
            x = np.where(m, end[owner][:, None] + toward[owner][:, None] * s / (1.0 - s), x)
            fx = np.asarray(f(x, at[owner][:, None])) * np.where(m, 1.0 / (1.0 - s) ** 2, 1.0)
        else:
            fx = np.asarray(f(x, at[owner][:, None]))
        if not np.all(np.isfinite(fx)):
            raise NumericsError("quadrature integrand is not finite")
        g20 = half * (fx[:, :20] * _GL20[1]).sum(axis=1)
        err = np.abs(g20 - half * (fx[:, 20:] * _GL10[1]).sum(axis=1))
        tol = np.maximum(abs_tol, rel_tol * np.abs(value + np.bincount(owner, g20, n)))
        done = err_kept + np.bincount(owner, err, n) <= tol
        share = (tol - err_kept) / np.maximum(np.bincount(owner, minlength=n), 1)
        keep = done[owner] | (err <= share[owner])
        value += np.bincount(owner[keep], g20[keep], n)
        err_kept += np.bincount(owner[keep], err[keep], n)
        a, b, owner, half = a[~keep], b[~keep], owner[~keep], half[~keep]
        a, b, owner = np.concatenate((a, a + half)), np.concatenate((a + half, b)), np.tile(owner, 2)
        half = 0.5 * (b - a)
        if owner.size == 0:
            break
        if np.bincount(owner).max() > _GL_MAX_PANELS:
            raise NumericsError(f"quadrature needs over {_GL_MAX_PANELS} panels for one integral")
        if rounds > untested and (np.any(a + half + half * _GL_NODES[0] - a < _NORMAL_MIN)
                                  or np.any(b - (a + half + half * _GL_NODES[19]) < _NORMAL_MIN)):
            raise NumericsError("quadrature cannot halve a panel further in double precision")
    return np.where(flip, -value, value).reshape(shape)


def any_true(mask) -> bool:
    """``mask.any()``, reading a NumPy bool directly: a ufunc gives one for 0-d operands,
    and its ``.any()`` costs about 2 us, as an array's does."""
    return bool(mask.any()) if isinstance(mask, np.ndarray) else bool(mask)


def rel_step(x, rel: float):
    """Step sizes for central differences at a relative scale, per element of x."""
    return rel * np.maximum(np.abs(x), 1.0)


def central_diff(f: Callable, x: float, h: float) -> float:
    return (f(x + h) - f(x - h)) / (2.0 * h)


def require(condition: bool, message: str) -> None:
    """Raise `DomainError` unless ``condition`` holds."""
    if not condition:
        raise DomainError(message)
