"""Copula surfaces of diffusions.

The copula density between observations at times s < t of a diffusion with
transition density f and marginals F is the quotient

    c_{s,t}(u, v) = f_{t|s}(F_t^{-1}(v) | F_s^{-1}(u)) / f_t(F_t^{-1}(v)),

and the conditional (the transition distribution of the uniformized process)

    C_{t|s}(v | u) = F_{t|s}(F_t^{-1}(v) | F_s^{-1}(u)).

Closed forms are provided for the Brownian family (a Gaussian copula with
rho = sqrt(s/t)), the Ornstein-Uhlenbeck family (the same copula under the
time change phi(t) = (e^{2 alpha t} - 1)/(2 alpha)), reflected Brownian
motion (a two-term mixture of Gaussian copula kernels in half-normal
quantiles), and the square-root mean-reverting (cir) family in noncentral
chi-square form.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from . import special
from ._numerics import require
from .errors import DomainError, NumericsError
from .models import Model

__all__ = [
    "CopulaSurface", "from_transition", "gaussian_closed_form", "ou_closed_form",
    "rbm_closed_form", "cir_closed_form", "independence_surface",
    "conditional", "cdf", "grid_eval", "cdf_on_grid", "cell_masses",
    "write_grid_csv", "read_grid_csv",
]

_CLAMP = 1e-12   # corner clamp before quantile evaluation

_GL20, _GL10 = np.polynomial.legendre.leggauss(20), np.polynomial.legendre.leggauss(10)
_GL_NODES = np.concatenate((_GL20[0], _GL10[0]))
_GL_ABS_TOL, _GL_REL_TOL = 1e-13, 1e-11   # per integral
_GL_MAX_ROUNDS, _GL_MAX_PANELS = 60, 200  # bisection depth; open panels per integral


def _unit(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > 1.0) or not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must lie in [0, 1]")
    return arr


def _clamped(x, name: str) -> np.ndarray:
    return np.clip(_unit(x, name), _CLAMP, 1.0 - _CLAMP)


def _gauss_legendre(f: Callable, lo, hi, at) -> np.ndarray:
    """Integrals of x -> f(x, at) over [lo, hi], one per element of the broadcast inputs.

    Each integral starts as the panels [lo, at] and [at, hi]: copula integrands
    concentrate near that diagonal at short lags.  Each round passes the 30
    nodes of all open panels to ``f`` in one call, as (panels, 30) and
    (panels, 1) arrays.  A panel's value is its 20-point rule, its error the
    distance to the 10-point one.  Until an integral's errors sum to at most
    max(abs_tol, rel_tol |I|), its panels whose error exceeds an equal share of
    the budget left are bisected.  Each value owns its panels, so it does not
    depend on the batch.  Raises `NumericsError` on a non-finite integrand or
    a bisection too deep or too wide.
    """
    lo, hi, at = np.broadcast_arrays(lo, hi, at)
    shape, n = lo.shape, lo.size
    lo, hi, at = lo.ravel(), hi.ravel(), at.ravel()
    cut = np.clip(at, lo, hi)
    a, b, owner = np.concatenate((lo, cut)), np.concatenate((cut, hi)), np.tile(np.arange(n), 2)
    a, b, owner = a[b > a], b[b > a], owner[b > a]
    value, err_kept = np.zeros(n), np.zeros(n)
    for _ in range(_GL_MAX_ROUNDS):
        if owner.size == 0:
            return value.reshape(shape)
        half = 0.5 * (b - a)
        fx = np.asarray(f((a + half)[:, None] + half[:, None] * _GL_NODES, at[owner][:, None]))
        if not np.all(np.isfinite(fx)):
            raise NumericsError("quadrature integrand is not finite")
        g20 = half * (fx[:, :20] * _GL20[1]).sum(axis=1)
        err = np.abs(g20 - half * (fx[:, 20:] * _GL10[1]).sum(axis=1))
        tol = np.maximum(_GL_ABS_TOL, _GL_REL_TOL * np.abs(value + np.bincount(owner, g20, n)))
        done = err_kept + np.bincount(owner, err, n) <= tol
        share = (tol - err_kept) / np.maximum(np.bincount(owner, minlength=n), 1)
        keep = done[owner] | (err <= share[owner])
        value += np.bincount(owner[keep], g20[keep], n)
        err_kept += np.bincount(owner[keep], err[keep], n)
        a, b, owner, half = a[~keep], b[~keep], owner[~keep], half[~keep]
        a, b, owner = np.concatenate((a, a + half)), np.concatenate((a + half, b)), np.tile(owner, 2)
        if owner.size and np.bincount(owner).max() > _GL_MAX_PANELS:
            raise NumericsError(f"quadrature needs over {_GL_MAX_PANELS} panels for one integral")
    raise NumericsError(f"quadrature did not converge in {_GL_MAX_ROUNDS} bisections")


class CopulaSurface:
    """Evaluable copula: density c(u,v), conditional C(v|u), CDF C(u,v).

    A core callable ``core(u, v)`` receives two arrays that broadcast against
    each other and returns their broadcast shape.  It applies the quantile
    transform of each argument at that argument's own shape and evaluates the
    kernel on the broadcast mesh, so ``core(u[None, :], v[:, None])`` solves
    len(u) + len(v) quantiles for the whole grid.  The public methods clamp
    the unit square corners at 1e-12 and return a float for scalar arguments.
    The CDF integrates the conditional over u and, without a conditional
    core, the conditional integrates the density over v, both by adaptive
    Gauss-Legendre rounds that pass the nodes of every point to one core call.
    """

    def __init__(self, density_core: Callable, conditional_core: Callable | None = None,
                 *, time_pair: tuple[float, float], provenance: str,
                 params: dict | None = None):
        require(time_pair[1] > time_pair[0] > 0.0 or provenance == "independence",
                f"need 0 < s < t, got {time_pair}")
        self._density_core = density_core
        self._conditional_core = conditional_core
        self.time_pair = (float(time_pair[0]), float(time_pair[1]))
        self.provenance = provenance
        self.params = dict(params or {})

    def _eval(self, core: Callable, u, v):
        out = core(u, v)
        return float(out) if np.ndim(out) == 0 else out

    def density(self, u, v):
        return self._eval(self._density_core, _clamped(u, "u"), _clamped(v, "v"))

    def conditional(self, u, v):
        uc, vc = _clamped(u, "u"), _clamped(v, "v")
        if self._conditional_core is not None:
            return self._eval(self._conditional_core, uc, vc)
        return self._eval(lambda u, v: _gauss_legendre(
            lambda z, u: self._density_core(u, z), 0.0, v, u), uc, vc)

    def cdf(self, u, v):
        u, v = _unit(u, "u"), _unit(v, "v")
        return self._eval(lambda u, v: _gauss_legendre(
            self.conditional, 0.0, np.where(v > 0.0, u, 0.0), v), u, v)


def conditional(surface: CopulaSurface, u, v):
    """C_{t|s}(v|u), the uniformized transition distribution of the surface."""
    return surface.conditional(u, v)


def cdf(surface: CopulaSurface, u, v):
    """The copula CDF C_{s,t}(u, v), by Gauss-Legendre rounds over C_{t|s}(v|w) on [0, u]."""
    return surface.cdf(u, v)


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def from_transition(model: Model, s: float, t: float) -> CopulaSurface:
    """Copula surface of (X_s, X_t) straight from the model's exact kernel."""
    require(t > s > model.t0, f"need t0 < s < t, got t0={model.t0}, s={s}, t={t}")
    marg_s, marg_t = model.marginal(s), model.marginal(t)
    kernel = model.kernel

    def dens(u, v):
        xu, xv = marg_s.quantile(u), marg_t.quantile(v)
        return kernel.pdf(s, xu, t, xv) / marg_t.pdf(xv)

    def cond(u, v):
        return kernel.cdf(s, marg_s.quantile(u), t, marg_t.quantile(v))

    params = {"model": model.name, **dict(model.spec.params),
              "x0": model.x0, "t0": model.t0}
    return CopulaSurface(dens, cond, time_pair=(s, t),
                         provenance="from_transition", params=params)


def _gaussian_rho_surface(rho: float, time_pair, provenance, params) -> CopulaSurface:
    require(0.0 <= rho < 1.0, f"correlation out of range: {rho}")
    w = math.sqrt(1.0 - rho * rho)

    def dens(u, v):
        zu, zv = special.norm_quantile(u), special.norm_quantile(v)
        return special.norm_pdf((zv - rho * zu) / w) / (w * special.norm_pdf(zv))

    def cond(u, v):
        zu, zv = special.norm_quantile(u), special.norm_quantile(v)
        return special.norm_cdf((zv - rho * zu) / w)

    return CopulaSurface(dens, cond, time_pair=time_pair,
                         provenance=provenance, params=params)


def gaussian_closed_form(s: float, t: float) -> CopulaSurface:
    """Brownian-family copula: the Gaussian copula with rho = sqrt(s/t).

    Shared by standard Brownian motion, Brownian motion with drift and
    geometric Brownian motion, independently of their drift and scale.
    """
    require(t > s > 0.0, f"need 0 < s < t, got s={s}, t={t}")
    return _gaussian_rho_surface(math.sqrt(s / t), (s, t), "closed_form", {"family": "gaussian"})


def _ou_rho(alpha: float, s: float, t: float) -> float:
    if alpha == 0.0:
        return math.sqrt(s / t)
    if alpha > 0.0:
        # sqrt(phi(s)/phi(t)) for phi(t) = (e^{2 a t}-1)/(2a), overflow-safe
        log_ratio = (2.0 * alpha * (s - t)
                     + math.log1p(-math.exp(-2.0 * alpha * s))
                     - math.log1p(-math.exp(-2.0 * alpha * t)))
        return math.exp(0.5 * log_ratio)
    return math.sqrt(math.expm1(2.0 * alpha * s) / math.expm1(2.0 * alpha * t))


def ou_closed_form(alpha: float, s: float, t: float) -> CopulaSurface:
    """Ornstein-Uhlenbeck copula via the monotone time change into the Brownian one.

    Depends on alpha only (not on the drift level or noise amplitude); the
    alpha -> 0 limit is the Brownian copula.
    """
    require(t > s > 0.0, f"need 0 < s < t, got s={s}, t={t}")
    require(np.isfinite(alpha), "alpha must be finite")
    return _gaussian_rho_surface(_ou_rho(alpha, s, t), (s, t), "time_change",
                                 {"family": "ou", "alpha": alpha})


def rbm_closed_form(s: float, t: float) -> CopulaSurface:
    """Copula of reflected Brownian motion |B| started at 0.

    A two-term mixture of Gaussian copula kernels evaluated at half-normal
    quantiles zt(u) = Phi^{-1}((1+u)/2):

        c(u,v) = [phi((zt_v - rho zt_u)/w) + phi((zt_v + rho zt_u)/w)]
                 / (2 w phi(zt_v)),       rho = sqrt(s/t), w = sqrt(1-rho^2).
    """
    require(t > s > 0.0, f"need 0 < s < t, got s={s}, t={t}")
    rho = math.sqrt(s / t)
    w = math.sqrt(1.0 - rho * rho)

    def dens(u, v):
        zu = special.norm_quantile((1.0 + u) / 2.0)
        zv = special.norm_quantile((1.0 + v) / 2.0)
        return (special.norm_pdf((zv - rho * zu) / w)
                + special.norm_pdf((zv + rho * zu) / w)) / (2.0 * w * special.norm_pdf(zv))

    def cond(u, v):
        zu = special.norm_quantile((1.0 + u) / 2.0)
        zv = special.norm_quantile((1.0 + v) / 2.0)
        return (special.norm_cdf((zv - rho * zu) / w)
                + special.norm_cdf((zv + rho * zu) / w) - 1.0)

    return CopulaSurface(dens, cond, time_pair=(s, t),
                         provenance="closed_form", params={"family": "rbm"})


def cir_closed_form(alpha: float, gamma: float, x0: float, s: float, t: float) -> CopulaSurface:
    """Copula of the square-root mean-reverting (cir) family in chi-square form.

    Uses the kernel parametrization fixed in `models` written in the canonical
    state units sigma^2 = 4 alpha, in which  K(r) = 1/(1 - e^{-alpha r})  and

        K(r) X_{s+r} | X_s = x  ~  chi2nc(gamma, K(r) e^{-alpha r} x),

    so the surface depends on (alpha, gamma, x0, s, t) only; ``x0`` is the
    initial state in those canonical units (x0 = 0 starts the process at the
    lower boundary, giving the central chi-square marginals of the
    reflected-Brownian construction when gamma = 1).
    """
    require(alpha > 0.0, "alpha must be positive")
    require(gamma > 0.0, "gamma must be positive")
    require(x0 >= 0.0, "x0 must be nonnegative")
    require(t > s > 0.0, f"need 0 < s < t, got s={s}, t={t}")

    d = t - s
    K = lambda r: 1.0 / (-math.expm1(-alpha * r))
    A, Bs, Bt = K(d), K(s), K(t)
    lam_s = Bs * math.exp(-alpha * s) * x0
    lam_t = Bt * math.exp(-alpha * t) * x0
    decay = math.exp(-alpha * d)

    def dens(u, v):
        xi_u = special.chi2nc_quantile(u, gamma, lam_s)
        xi_v = special.chi2nc_quantile(v, gamma, lam_t)
        lam_tr = (A / Bs) * decay * xi_u
        num = A * special.chi2nc_pdf((A / Bt) * xi_v, gamma, lam_tr)
        den = Bt * special.chi2nc_pdf(xi_v, gamma, lam_t)
        return num / den

    def cond(u, v):
        xi_u = special.chi2nc_quantile(u, gamma, lam_s)
        xi_v = special.chi2nc_quantile(v, gamma, lam_t)
        return special.chi2nc_cdf((A / Bt) * xi_v, gamma, (A / Bs) * decay * xi_u)

    return CopulaSurface(dens, cond, time_pair=(s, t), provenance="closed_form",
                         params={"family": "cir", "alpha": alpha, "gamma": gamma, "x0": x0})


def independence_surface(time_pair=(1.0, 2.0)) -> CopulaSurface:
    """The independence copula, c = 1; used as a negative control."""
    dens = lambda u, v: np.ones(np.broadcast(u, v).shape)
    cond = lambda u, v: np.broadcast_arrays(u, v)[1].copy()
    return CopulaSurface(dens, cond, time_pair=time_pair, provenance="independence")


# ---------------------------------------------------------------------------
# Grid evaluation and CSV round trip
# ---------------------------------------------------------------------------

def grid_eval(surface: CopulaSurface, n: int) -> np.ndarray:
    """n x n density matrix at cell midpoints; rows index v, columns index u."""
    require(n >= 2, "grid size n must be at least 2")
    mids = (np.arange(n) + 0.5) / n
    return surface.density(mids[None, :], mids[:, None])


def cdf_on_grid(surface: CopulaSurface, us, vs) -> np.ndarray:
    """Copula CDF on a sorted grid: C[i, j] = C(us[i], vs[j]).

    The conditional of each v over each u-strip [us[i-1], us[i]] (us[-1] = 0)
    is one integral of the same Gauss-Legendre rounds; strips are summed in u.
    """
    us = np.asarray(us, dtype=float)
    vs = _unit(vs, "v")
    require(np.all(np.diff(us) > 0) and us[0] > 0.0 and us[-1] <= 1.0,
            "us must be strictly increasing in (0, 1]")
    edges = np.concatenate(([0.0], us))[:, None]
    strips = _gauss_legendre(surface.conditional, edges[:-1], edges[1:], vs[None, :])
    return np.cumsum(strips, axis=0)


def cell_masses(surface: CopulaSurface, m: int) -> np.ndarray:
    """Exact copula mass of each cell of the m x m uniform grid.

    mass[i, j] = P(U in cell_j, V in cell_i); rows index v, columns index u.
    """
    edges = np.linspace(0.0, 1.0, m + 1)
    cdf_grid = np.zeros((m + 1, m + 1))            # [i_u, j_v]
    cdf_grid[1:, 1:-1] = cdf_on_grid(surface, edges[1:], edges[1:-1])
    cdf_grid[1:, -1] = edges[1:]                   # C(u, 1) = u
    inc = np.diff(np.diff(cdf_grid, axis=0), axis=1)
    return inc.T


def write_grid_csv(surface: CopulaSurface, n: int, path) -> np.ndarray:
    """Write the grid CSV: `# copula,<provenance>,s=<s>,t=<t>,n=<n>` + n rows."""
    matrix = grid_eval(surface, n)
    s, t = surface.time_pair
    with open(path, "w") as fh:
        fh.write(f"# copula,{surface.provenance},s={s:.17g},t={t:.17g},n={n}\n")
        for i in range(n):
            fh.write(",".join(f"{v:.17g}" for v in matrix[i]) + "\n")
    return matrix


def read_grid_csv(path) -> tuple[np.ndarray, dict]:
    """Parse a grid CSV written by `write_grid_csv`; returns (matrix, meta)."""
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.startswith("# copula,"):
            raise DomainError(f"not a copula grid CSV: {path}")
        parts = header[2:].split(",")
        meta = {"provenance": parts[1]}
        for item in parts[2:]:
            key, val = item.split("=")
            meta[key] = float(val) if key in ("s", "t") else int(val)
        matrix = np.loadtxt(fh, delimiter=",", ndmin=2)
    if matrix.shape != (meta["n"], meta["n"]):
        raise DomainError("grid CSV shape does not match its header")
    return matrix, meta
