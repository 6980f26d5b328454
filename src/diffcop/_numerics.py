"""Shared numerical kernels: monotone-CDF inversion, quadrature, finite differences.

Quantiles that scipy does not provide (the reflected-BM kernel, pushed-forward
marginals) and the inverses of other monotone maps (the Wiener time change and
space map) go through the same safeguarded Newton/bisection engine operating
inside a bracket, with geometric bracket growth when no finite bound is known
a priori.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from scipy.integrate import quad

from .errors import DomainError, NumericsError

_TINY = 1e-300


def grow_bracket(cdf: Callable, p: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                 factor: float = 2.0, max_grow: int = 200) -> tuple[np.ndarray, np.ndarray]:
    """Expand ``hi`` geometrically (and ``lo`` downward) until the bracket holds.

    On return ``cdf(lo) <= p <= cdf(hi)`` elementwise.
    """
    lo = np.array(lo, dtype=float, copy=True)
    hi = np.array(hi, dtype=float, copy=True)
    p = np.asarray(p, dtype=float)
    for _ in range(max_grow):
        bad_hi = cdf(hi) < p
        if not np.any(bad_hi):
            break
        width = np.maximum(hi - lo, 1.0)
        hi = np.where(bad_hi, hi + (factor - 1.0) * width, hi)
    else:
        raise NumericsError("bracket growth failed on the upper side")
    for _ in range(max_grow):
        bad_lo = cdf(lo) > p
        if not np.any(bad_lo):
            break
        width = np.maximum(hi - lo, 1.0)
        lo = np.where(bad_lo, lo - (factor - 1.0) * width, lo)
    else:
        raise NumericsError("bracket growth failed on the lower side")
    return lo, hi


def invert_monotone_cdf(cdf: Callable, p, lo, hi, pdf: Callable | None = None,
                        x0=None, f_tol: float = 1e-12, x_rel_tol: float = 1e-14,
                        max_iter: int = 200):
    """Solve ``cdf(x) = p`` for nondecreasing ``cdf`` inside the bracket [lo, hi].

    Vectorized safeguarded Newton, as in rtsafe: a Newton step is taken when
    ``pdf`` is supplied, the step stays strictly inside the current bracket and
    it is at most half the step before last; otherwise the bracket is bisected.
    So a flat or quantized ``cdf``, on which Newton would creep, costs at most
    about two iterations per halving of the bracket.

    Parameters
    ----------
    cdf, pdf : callables accepting/returning ndarrays.
    p : target probabilities (scalar or array).
    lo, hi : initial bracket, already valid (see `grow_bracket`).
    x0 : optional starting guess, clipped into the bracket.
    f_tol : stop where ``|cdf(x) - p| <= f_tol * min(p, 1 - p)``, relative to
        the smaller tail probability (0 disables).  For targets outside
        (0, 1), met when a monotone map that is not a CDF is inverted, only
        the bracket-width test applies.
    x_rel_tol : stop where the bracket is this small relative to ``|x|``.
    max_iter : raise `NumericsError` if some root has not converged after
        this many iterations.

    Returns
    -------
    ndarray (or float for scalar input) with the roots.
    """
    p_arr = np.atleast_1d(np.asarray(p, dtype=float))
    scalar = np.isscalar(p) or (hasattr(p, "ndim") and getattr(p, "ndim") == 0)
    lo = np.broadcast_to(np.asarray(lo, dtype=float), p_arr.shape).astype(float).copy()
    hi = np.broadcast_to(np.asarray(hi, dtype=float), p_arr.shape).astype(float).copy()
    if x0 is None:
        x = 0.5 * (lo + hi)
    else:
        x = np.clip(np.broadcast_to(np.asarray(x0, dtype=float), p_arr.shape), lo, hi).astype(float).copy()

    f_scale = f_tol * np.minimum(p_arr, 1.0 - p_arr)
    step_old = step = hi - lo
    for _ in range(max_iter):
        f = cdf(x) - p_arr
        lo = np.where(f <= 0.0, x, lo)
        hi = np.where(f > 0.0, x, hi)
        width = hi - lo
        done = (np.abs(f) <= f_scale) | (width <= x_rel_tol * (np.abs(x) + 1e-30))
        if np.all(done):
            break
        if pdf is not None:
            d = pdf(x)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                x_newton = x - f / d
            ok = (np.isfinite(x_newton) & (x_newton > lo) & (x_newton < hi) & (d > _TINY)
                  & (np.abs(x_newton - x) <= 0.5 * step_old))
        else:
            x_newton = x
            ok = np.zeros_like(x, dtype=bool)
        x_next = np.where(ok, x_newton, 0.5 * (lo + hi))
        step_old, step = step, np.abs(x_next - x)
        x = np.where(done, x, x_next)
    else:
        raise NumericsError(f"monotone inversion did not converge in {max_iter} iterations "
                            f"({int(np.sum(~done))} of {done.size} roots open)")
    return float(x[0]) if scalar else x.reshape(np.shape(p))


def integrate(f: Callable, a: float, b: float, abs_tol: float = 1e-8,
              rel_tol: float = 1e-8, points=None, limit: int = 200) -> float:
    """Adaptive quadrature of ``f`` on (a, b); raises `NumericsError` on failure."""
    kwargs = dict(epsabs=abs_tol, epsrel=rel_tol, limit=limit, full_output=1)
    if points is not None and np.isfinite(a) and np.isfinite(b):
        pts = [x for x in points if a < x < b]
        if pts:
            kwargs["points"] = pts
    result = quad(f, a, b, **kwargs)
    value, abserr = result[0], result[1]
    if len(result) > 3:  # message present => ier != 0
        achieved = max(abserr, 0.0)
        if achieved > max(abs_tol, rel_tol * abs(value)) * 50:
            raise NumericsError(
                f"quadrature did not converge: achieved tolerance {achieved:.3e}")
    return value


def rel_step(x: float, rel: float) -> float:
    """Step size for central differences at a relative scale."""
    return rel * max(abs(x), 1.0)


def central_diff(f: Callable, x: float, h: float) -> float:
    return (f(x + h) - f(x - h)) / (2.0 * h)


def require(condition: bool, message: str) -> None:
    """Raise `DomainError` unless ``condition`` holds."""
    if not condition:
        raise DomainError(message)
