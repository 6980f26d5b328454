"""Uniformized diffusion processes.

The uniformized process of a diffusion X started at (t0, x0) is the pointwise
probability integral transform U_t = F_t(X_t).  It is itself an Ito diffusion
with coefficients (all quantities evaluated at x = F_s^{-1}(u))

    mu~(u, s)    = dF_s/ds + mu(x, s) f_s(x) + 1/2 sigma^2(x, s) f_s'(x),
    sigma~(u, s) = sigma(x, s) f_s(x),

and its transition distribution is the conditional copula C_{t|s}(v|u), the
unique solution of the backward equation

    d_s C + mu~ d_u C + 1/2 sigma~^2 d_uu C = 0,     C -> 1[v >= u] as s -> t.

`kolmogorov_copula_residual` probes a proposed surface against that equation:
the time derivative is taken along the model's own conditional family (so a
wrong surface such as the independence density is detected), the u
derivatives against the supplied surface.

Simulation is exact: paths are drawn from the closed-form transition kernels
and pushed through the marginal CDF; the degenerate uniformized SDE is never
discretized.
"""

from __future__ import annotations

import numpy as np

from ._numerics import central_diff, rel_step, require
from .copula import CopulaSurface
from .errors import DomainError
from .models import Model, PathEnsemble, simulate_paths

__all__ = [
    "uniformized_coefficients",
    "stationary_uniformized_coefficients",
    "kolmogorov_copula_residual", "conditional_du",
    "simulate_uniformized", "EmpiricalCopula", "empirical_copula",
    "pseudo_observations", "ks_statistic",
]

_DERIV_REL = 1e-5    # relative step for coefficient derivatives


def _coefficients(model: Model, law, u, s: float, dF_ds):
    """(drift, diffusion) of the uniformized process at x = law.quantile(u), time s.

    ``law`` has ``quantile``, ``pdf`` and ``pdf_dx``; a ``pdf_dx`` of None is
    replaced by central differences at relative step 1e-5 per element.
    ``dF_ds`` maps x to dF_s/ds, or is None in the stationary regime.  A scalar
    u runs on Python floats and returns floats, an array u returns arrays of
    its shape.
    """
    # isinstance first: np.ndim of a float goes through a caught AttributeError
    scalar = isinstance(u, float) or np.ndim(u) == 0
    val = float if scalar else (lambda a: np.asarray(a, dtype=float))
    u = val(u)
    lo, hi = (u, u) if scalar else (u.min(initial=0.5), u.max(initial=0.5))  # empty u passes
    require(0.0 < lo and hi < 1.0, f"u = {lo if not 0.0 < lo else hi} lies outside (0, 1)")
    x = val(law.quantile(u))
    f = val(law.pdf(x))
    fp = val(law.pdf_dx(x) if law.pdf_dx is not None
             else central_diff(law.pdf, x, rel_step(x, _DERIV_REL)))
    mu_x = val(model.spec.drift(x, s))
    sg_x = val(model.spec.diffusion(x, s))
    drift = mu_x * f if dF_ds is None else val(dF_ds(x)) + mu_x * f
    return drift + 0.5 * (sg_x * sg_x) * fp, sg_x * f


def uniformized_coefficients(model: Model, u, s: float):
    """Drift and diffusion coefficient of the uniformized process at (u, s).

    u is a scalar or an array in (0, 1) and s a scalar time after t0; returns
    ``(drift, diffusion)`` as floats or as arrays of the shape of u.  Marginal
    derivatives are the analytic ``pdf_dx`` and ``cdf_dt`` of the bound marginal,
    which every catalog model has; a kernel without them gets central
    differences at relative step 1e-5.
    """
    require(s > model.t0, f"need s > t0 = {model.t0}")
    marg = model.marginal(s)
    dF_ds = marg.cdf_dt
    if dF_ds is None:
        h = float(rel_step(s, _DERIV_REL))        # a float keeps the kernel's scalar math
        require(s - h > model.t0, "s too close to t0 for the time derivative")
        dF_ds = lambda x: central_diff(lambda r: model.marginal(r).cdf(x), s, h)
    return _coefficients(model, marg, u, s, dF_ds)


def stationary_uniformized_coefficients(model: Model, u):
    """Time-homogeneous coefficients in the stationary regime.

        mu~(u)    = mu(x) g(x) + 1/2 sigma^2(x) g'(x),
        sigma~(u) = sigma(x) g(x),          x = G^{-1}(u),

    for a scalar or an array u in (0, 1), as in `uniformized_coefficients`.
    G is ``model.stationary``, the marginal at an infinite lag; models without
    one raise `DomainError`.
    """
    if model.stationary is None:
        raise DomainError(f"model '{model.name}' admits no stationary law")
    return _coefficients(model, model.stationary, u, 0.0, None)


# ---------------------------------------------------------------------------
# Backward-equation residual
# ---------------------------------------------------------------------------

def kolmogorov_copula_residual(surface: CopulaSurface, model: Model,
                               us=None, vs=None, h_u: float = 1e-3,
                               h_s: float = 1e-4) -> float:
    """Max backward-equation residual of the surface's conditional on a grid.

    Central differences: d_u and d_uu probe the supplied surface at step
    ``h_u``; d_s is taken along the model's own conditional family at step
    ``h_s``.  Each quantity is one call on the (u, v) mesh.  The grid must stay
    away from the boundaries of (0, 1).
    """
    us = np.asarray(us if us is not None else np.linspace(0.1, 0.9, 9), dtype=float)
    vs = np.asarray(vs if vs is not None else np.linspace(0.1, 0.9, 9), dtype=float)
    if us.min() - 2.0 * h_u <= 0.0 or us.max() + 2.0 * h_u >= 1.0 \
            or vs.min() <= 0.0 or vs.max() >= 1.0:
        raise DomainError("residual grid touches the boundary of the unit square")
    s, t = surface.time_pair
    require(s - h_s > model.t0 and s + h_s < t, "time pair too tight for the s-derivative")

    mu_c, sg_c = (c[:, None] for c in uniformized_coefficients(model, us, s))
    uu, vv = us[:, None], vs[None, :]                  # rows u, columns v
    c_mid = np.asarray(surface.conditional(uu, vv), dtype=float)
    c_up = np.asarray(surface.conditional(uu + h_u, vv), dtype=float)
    c_dn = np.asarray(surface.conditional(uu - h_u, vv), dtype=float)
    du1 = (c_up - c_dn) / (2.0 * h_u)
    du2 = (c_up - 2.0 * c_mid + c_dn) / (h_u * h_u)

    xv = np.asarray(model.marginal(t).quantile(vv), dtype=float)
    xu_p = np.asarray(model.marginal(s + h_s).quantile(uu), dtype=float)
    xu_m = np.asarray(model.marginal(s - h_s).quantile(uu), dtype=float)
    ds = (np.asarray(model.kernel.cdf(s + h_s, xu_p, t, xv), dtype=float)
          - np.asarray(model.kernel.cdf(s - h_s, xu_m, t, xv), dtype=float)) / (2.0 * h_s)

    resid = ds + mu_c * du1 + 0.5 * (sg_c * sg_c) * du2
    return float(np.max(np.abs(resid)))


def conditional_du(surface: CopulaSurface, u, v, h: float = 1e-4):
    """Central difference d/du of the conditional at broadcast arrays u and v;
    used for reflection checks."""
    return (np.asarray(surface.conditional(u + h, v))
            - np.asarray(surface.conditional(u - h, v))) / (2.0 * h)


# ---------------------------------------------------------------------------
# Exact simulation and empirical copulas
# ---------------------------------------------------------------------------

def simulate_uniformized(model: Model, times, n_paths: int, rng=None,
                         seed=None) -> PathEnsemble:
    """Exact uniformized paths: sample X exactly, then map through F_t.

    The grid must start strictly after t0 (the marginal at t0 is degenerate).
    """
    ens = simulate_paths(model, times, n_paths, rng=rng, seed=seed)
    u_paths = np.empty_like(ens.paths)
    for i, t in enumerate(ens.times):
        marg = model.marginal(float(t))
        u_paths[:, i] = np.asarray(marg.cdf(ens.paths[:, i]), dtype=float)
    meta = dict(ens.meta)
    meta["uniformized"] = True
    return PathEnsemble(times=ens.times, paths=u_paths, seed=ens.seed, meta=meta)


class EmpiricalCopula:
    """Empirical CDF and binned density of pseudo-observations on [0, 1]^2."""

    def __init__(self, u, v):
        u = np.asarray(u, dtype=float).ravel()
        v = np.asarray(v, dtype=float).ravel()
        require(u.size == v.size and u.size > 0, "need a nonempty set of (u, v) pairs")
        if np.any((u < 0) | (u > 1) | (v < 0) | (v > 1)):
            raise DomainError("pairs must lie in the unit square")
        self.u, self.v = u, v

    @property
    def n(self) -> int:
        return self.u.size

    def cdf(self, u, v):
        """(1/N) sum 1[u_i <= u, v_i <= v]; broadcasts over array queries."""
        u_b, v_b = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
        scalar = u_b.ndim == 0
        out = np.empty(np.atleast_1d(u_b).size)
        for i, (uq, vq) in enumerate(zip(np.atleast_1d(u_b).ravel(),
                                         np.atleast_1d(v_b).ravel())):
            out[i] = np.mean((self.u <= uq) & (self.v <= vq))
        return float(out[0]) if scalar else out.reshape(u_b.shape)

    def cdf_grid(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Values of the empirical CDF on the (k+1)x(k+1) uniform edge lattice.

        Returns (edges, C) with C[i, j] ~= Chat(edges[i], edges[j]); counting
        is via a 2-d histogram, exact up to samples landing exactly on edges.
        """
        edges = np.linspace(0.0, 1.0, k + 1)
        hist, _, _ = np.histogram2d(self.u, self.v, bins=[edges, edges])
        c = np.zeros((k + 1, k + 1))
        c[1:, 1:] = hist.cumsum(axis=0).cumsum(axis=1) / self.n
        return edges, c

    def binned_density(self, m: int = 20) -> np.ndarray:
        """m x m histogram density (rows index v, columns index u); integrates to 1."""
        edges = np.linspace(0.0, 1.0, m + 1)
        hist, _, _ = np.histogram2d(self.u, self.v, bins=[edges, edges])
        return hist.T * (m * m) / self.n


def empirical_copula(u, v) -> EmpiricalCopula:
    return EmpiricalCopula(u, v)


def pseudo_observations(x) -> np.ndarray:
    """Rank-based pseudo-observations (rank - 1/2)/n on (0, 1)."""
    x = np.asarray(x, dtype=float).ravel()
    ranks = np.argsort(np.argsort(x))
    return (ranks + 0.5) / x.size


def ks_statistic(sample, cdf) -> float:
    """Kolmogorov-Smirnov sup distance between a sample and a CDF callable."""
    x = np.sort(np.asarray(sample, dtype=float).ravel())
    require(x.size > 0, "empty sample")
    f = np.asarray(cdf(x), dtype=float)
    n = x.size
    grid_hi = np.arange(1, n + 1) / n
    grid_lo = np.arange(0, n) / n
    return float(max(np.max(grid_hi - f), np.max(f - grid_lo)))
