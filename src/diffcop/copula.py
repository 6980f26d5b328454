"""Copula surfaces of diffusions.

The copula density between observations at times s < t of a diffusion with
transition density f and marginals F is the quotient

    c_{s,t}(u, v) = f_{t|s}(F_t^{-1}(v) | F_s^{-1}(u)) / f_t(F_t^{-1}(v)),

and the conditional (the transition distribution of the uniformized process)

    C_{t|s}(v | u) = F_{t|s}(F_t^{-1}(v) | F_s^{-1}(u)).

Closed forms are provided for the Brownian family (a Gaussian copula with
rho = sqrt(s/t)), the Ornstein-Uhlenbeck family (the same copula on the
clock phi(t) = (e^{2 alpha t} - 1)/(2 alpha) of `_numerics.clock`), reflected Brownian
motion (a two-term mixture of Gaussian copula kernels in half-normal
quantiles), and the square-root mean-reverting (cir) family in noncentral
chi-square form.

CDFs, and conditionals of surfaces without a conditional core, are integrals
of the surface over the unit interval.  Each runs in probit coordinates,
int_a^b g(w) dw = int g(Phi(z)) phi(z) dz over z in [Phi^-1(a), Phi^-1(b)],
by `_numerics.integrate`, the package's one adaptive Gauss-Legendre engine,
with all points of a call in one batch.  Near w = 0 a conditional C(v|w)
behaves like 1 - c w^k (k = rho^2/(1 - rho^2) for the Gaussian copula), which
cost a rule in w a dozen or more bisection rounds toward 0; in z it is a
smooth, Gaussian-weighted integrand that takes a few rounds.  At short lags
C(v|w) steps from 1 to 0 near w = v over a width in w that a rule in w could
miss altogether; in z that width is about sqrt(1 - rho^2), and the rounds
resolve it like any other feature.  The z range is cut at |z| <= 8.5, where
Phi(-8.5) = 9.5e-18, and the nodes map back to w = Phi(z), clamped to
1 - 1e-12 from above (see `_unit_integral`).
"""

from __future__ import annotations

import math
import numbers
from typing import Callable

import numpy as np

from ._numerics import clock, integrate, require
from .errors import DomainError
from .models import Model
from .special import (_chi2nc_cdf, _chi2nc_pdf, _chi2nc_quantile, _norm_cdf, _norm_pdf,
                      _norm_quantile)

__all__ = [
    "CopulaSurface", "from_transition", "gaussian_closed_form", "ou_closed_form",
    "rbm_closed_form", "cir_closed_form", "independence_surface",
    "conditional", "cdf", "grid_eval", "cdf_on_grid", "cell_masses",
    "write_grid_csv", "read_grid_csv",
]

_CLAMP = 1e-12   # corner clamp before quantile evaluation
_Z_END = 8.5     # probit range of the unit-interval integrals: Phi(-8.5) = 9.5e-18
_W_END = float(_norm_cdf(-_Z_END))


def _unit(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not ((arr >= 0.0) & (arr <= 1.0)).all():           # NaN fails the comparisons too
        raise DomainError(f"{name} must lie in [0, 1]")
    return arr


def _clamp(w) -> np.ndarray:
    return np.minimum(np.maximum(w, _CLAMP), 1.0 - _CLAMP)    # np.clip costs twice as much


def _probit(w) -> np.ndarray:
    """Phi^-1(w) for w in [0, 1], cut to |z| <= 8.5 (so 0 and 1 map to the cut)."""
    w = np.asarray(w, dtype=float)
    z = _norm_quantile(np.maximum(np.minimum(w, 1.0 - w), _W_END))
    return np.where(w < 0.5, z, -z)


def _unit_integral(f: Callable, lo, hi, at) -> np.ndarray:
    """int_lo^hi f(w, at) dw for lo, hi, at in [0, 1], integrated in z = Phi^-1(w).

    The engine integrates f(Phi(z), Phi(z_at)) phi(z) over [z_lo, z_hi], with
    its panel cut at z_at = Phi^-1(at), so ``f`` receives ``at`` within a few
    ulps.  z is cut to |z| <= 8.5, so an end at 0 or 1 drops the integral of f
    below Phi(-8.5) = 9.5e-18 or above 1 - 9.5e-18.  For a conditional,
    0 <= f <= 1, that is at most 9.5e-18 per end.  For a density (the
    conditional fallback) it is the conditional mass C(9.5e-18 | u), which the
    density's size does not bound; on the Gaussian copula it is at most 9e-13
    for u >= 1e-6, and 9e-7 at the clamp u = 1e-12.

    Nodes map back to w = Phi(z) clamped to at most 1 - 1e-12, since Phi
    rounds to 1 above z = 8.3.  Below they stay unclamped, at least 9.5e-18:
    reading a density at 1e-12 in place of its mass below 1e-12 would put
    the fallback off by up to 5x at u = 1e-12 and short lags.
    """
    w = lambda z: np.minimum(_norm_cdf(z), 1.0 - _CLAMP)
    return integrate(lambda z, z_at: f(w(z), w(z_at)) * _norm_pdf(z),
                     _probit(lo), _probit(hi), _probit(at))


class CopulaSurface:
    """Evaluable copula: density c(u,v), conditional C(v|u), CDF C(u,v).

    A core callable ``core(u, v)`` receives two arrays that broadcast against
    each other and returns their broadcast shape.  It applies the quantile
    transform of each argument at that argument's own shape and evaluates the
    kernel on the broadcast mesh, so ``core(u[None, :], v[:, None])`` solves
    len(u) + len(v) quantiles for the whole grid.  The public methods clamp
    the unit square corners at 1e-12 and return a float for scalar arguments;
    `density` evaluates a scalar pair as a 1 x 1 grid, which agrees with the
    same cell of any grid to round-off (1e-14).
    The CDF integrates the conditional over u and, without a conditional
    core, the conditional integrates the density over v.  Both integrate in
    probit coordinates z = Phi^-1(w) over |z| <= 8.5, by the adaptive
    Gauss-Legendre rounds of `_numerics.integrate`, which pass the nodes of
    every point to one core call (see `_unit_integral` for the range bound
    and the clamp).
    """

    def __init__(self, density_core: Callable, conditional_core: Callable | None = None,
                 *, time_pair: tuple[float, float], provenance: str,
                 params: dict | None = None):
        require(time_pair[1] > time_pair[0] > 0.0, f"need 0 < s < t, got {time_pair}")
        self._density_core = density_core
        self._conditional_core = conditional_core
        self.time_pair = (float(time_pair[0]), float(time_pair[1]))
        self.provenance = provenance
        self.params = dict(params or {})

    def _eval(self, core: Callable, u, v):
        out = core(u, v)
        return float(out) if np.ndim(out) == 0 else out

    def density(self, u, v):
        u, v = _clamp(_unit(u, "u")), _clamp(_unit(v, "v"))
        if np.ndim(u) == np.ndim(v) == 0:
            # a 1 x 1 grid: the chi-square kernels' mesh route (`special._mesh_pdf`) gives
            # a grid's cell and the same point alone one value
            return float(self._density_core(np.reshape(u, (1, 1)), np.reshape(v, (1, 1)))[0, 0])
        return self._eval(self._density_core, u, v)

    def conditional(self, u, v):
        return self._eval(self._conditional, _unit(u, "u"), _unit(v, "v"))

    def cdf(self, u, v):
        # C(u, 0) = 0 exactly: the clamped conditional C(1e-12|w) would integrate to ~1e-12
        u, v = _unit(u, "u"), _unit(v, "v")
        return self._eval(lambda u, v: _unit_integral(
            self._conditional, 0.0, np.where(v > 0.0, u, 0.0), v), u, v)

    def _conditional(self, u, v):
        """C(v|u) for u, v already in [0, 1], such as quadrature nodes: clamped, unchecked."""
        u, v = _clamp(u), _clamp(v)
        if self._conditional_core is not None:
            return self._conditional_core(u, v)
        return _unit_integral(lambda y, u: self._density_core(u, y), 0.0, v, u)


def conditional(surface: CopulaSurface, u, v):
    """C_{t|s}(v|u), the uniformized transition distribution of the surface."""
    return surface.conditional(u, v)


def cdf(surface: CopulaSurface, u, v):
    """The copula CDF C_{s,t}(u, v) = int_0^u C_{t|s}(v|w) dw.

    Integrated in z = Phi^-1(w) over [-8.5, Phi^-1(u)] by Gauss-Legendre rounds,
    with nodes mapped back to w = Phi(z) <= 1 - 1e-12; the cut range costs at
    most 9.5e-18 per end.
    """
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
        zu, zv = _norm_quantile(u), _norm_quantile(v)
        return _norm_pdf((zv - rho * zu) / w) / (w * _norm_pdf(zv))

    def cond(u, v):
        zu, zv = _norm_quantile(u), _norm_quantile(v)
        return _norm_cdf((zv - rho * zu) / w)

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
    # sqrt(phi(s)/phi(t)) on the clock phi = clock(2 alpha, .), read as clock(-2|alpha|, .)
    # with the factor e^{2 alpha (s - t)} taken out for alpha > 0: nothing overflows
    a = -2.0 * abs(alpha)
    return math.exp(max(alpha, 0.0) * (s - t)) * math.sqrt(clock(a, s) / clock(a, t))


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
        zu, zv = _norm_quantile((1.0 + u) / 2.0), _norm_quantile((1.0 + v) / 2.0)
        return (_norm_pdf((zv - rho * zu) / w)
                + _norm_pdf((zv + rho * zu) / w)) / (2.0 * w * _norm_pdf(zv))

    def cond(u, v):
        zu, zv = _norm_quantile((1.0 + u) / 2.0), _norm_quantile((1.0 + v) / 2.0)
        return _norm_cdf((zv - rho * zu) / w) + _norm_cdf((zv + rho * zu) / w) - 1.0

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
    K = lambda r: 1.0 / (alpha * clock(-alpha, r))
    A, Bs, Bt = K(d), K(s), K(t)
    lam_s = Bs * math.exp(-alpha * s) * x0
    lam_t = Bt * math.exp(-alpha * t) * x0
    decay = math.exp(-alpha * d)

    def dens(u, v):
        xi_u = _chi2nc_quantile(u, gamma, lam_s)
        xi_v = _chi2nc_quantile(v, gamma, lam_t)
        lam_tr = (A / Bs) * decay * xi_u
        num = A * _chi2nc_pdf((A / Bt) * xi_v, gamma, lam_tr)
        den = Bt * _chi2nc_pdf(xi_v, gamma, lam_t)
        return num / den

    def cond(u, v):
        xi_u = _chi2nc_quantile(u, gamma, lam_s)
        xi_v = _chi2nc_quantile(v, gamma, lam_t)
        return _chi2nc_cdf((A / Bt) * xi_v, gamma, (A / Bs) * decay * xi_u)

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

def _require_size(n, least: int, name: str) -> None:
    require(isinstance(n, numbers.Integral) and n >= least,
            f"grid size {name} must be an integer of at least {least}, got {n!r}")


def grid_eval(surface: CopulaSurface, n: int) -> np.ndarray:
    """n x n density matrix at cell midpoints; rows index v, columns index u."""
    _require_size(n, 2, "n")
    mids = (np.arange(n) + 0.5) / n
    return surface.density(mids[None, :], mids[:, None])


def cdf_on_grid(surface: CopulaSurface, us, vs) -> np.ndarray:
    """Copula CDF on a sorted grid: C[i, j] = C(us[i], vs[j]).

    The conditional of each v over each u-strip [us[i-1], us[i]] (us[-1] = 0)
    is one integral of the same Gauss-Legendre rounds, in probit coordinates as
    in `cdf` (|z| <= 8.5, nodes w = Phi(z) <= 1 - 1e-12); strips are summed in u.
    """
    us = np.asarray(us, dtype=float)
    vs = _unit(vs, "v")
    require(np.all(np.diff(us) > 0) and us[0] > 0.0 and us[-1] <= 1.0,
            "us must be strictly increasing in (0, 1]")
    edges = np.concatenate(([0.0], us))[:, None]
    strips = _unit_integral(surface._conditional, edges[:-1], edges[1:], vs[None, :])
    return np.cumsum(strips, axis=0)


def cell_masses(surface: CopulaSurface, m: int) -> np.ndarray:
    """Exact copula mass of each cell of the m x m uniform grid.

    mass[i, j] = P(U in cell_j, V in cell_i); rows index v, columns index u.
    """
    _require_size(m, 1, "m")
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
