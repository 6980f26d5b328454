"""Independent reference values for the benchmark's correctness gate.

Nothing here imports diffcop.  Every quantity is recomputed from the model
definitions stated in the diffcop documentation, through scipy's compiled
routes: ``scipy.stats.ncx2`` (Boost) for the noncentral chi-square laws,
``ndtr``/``ndtri`` for the Gaussian law and Owen's T function for the
bivariate-normal CDF.  First-passage times are compared with an independent
numpy sample of the exact Gaussian AR(1) on the same time grid.

Conventions match diffcop's outputs: a density grid has rows indexed by v and
columns by u; ``C[i, j] = C(us[i], vs[j])`` for CDF grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri, owens_t
from scipy.stats import ncx2

TINY = np.finfo(float).tiny
GROSS_REL_TOL = 1e-2       # relative error that makes a run incorrect ...
GROSS_FLOOR = 1e-12        # ... wherever the reference is at least the surface clamp level
KS_ALPHA = 1e-6            # per-column KS test level for sampled ensembles


@dataclass
class Check:
    """Outcome of checking one operation's output against its reference."""

    checked: int = 0       # values compared with a reference
    bad: int = 0           # of those, beyond the workload's relative tolerance
    gross: int = 0         # of those, beyond GROSS_REL_TOL (reference >= GROSS_FLOOR)
    worst: float = 0.0     # largest relative error where the reference >= GROSS_FLOOR
    invalid: str = ""      # non-finite or out-of-range output; the operation failed

    def add(self, other: "Check") -> "Check":
        self.checked += other.checked
        self.bad += other.bad
        self.gross += other.gross
        self.worst = max(self.worst, other.worst)
        self.invalid = self.invalid or other.invalid
        return self


def compare(values, ref, rel_tol: float) -> Check:
    """Relative comparison wherever the reference is a normal float."""
    val = np.asarray(values, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if val.shape != ref.shape:
        return Check(invalid=f"shape {val.shape} != reference shape {ref.shape}")
    normal = np.isfinite(ref) & (np.abs(ref) >= TINY)
    with np.errstate(divide="ignore", invalid="ignore"):
        err = np.abs(val - ref) / np.abs(ref)
    bad = normal & ~(err <= rel_tol)
    floor = normal & (np.abs(ref) >= GROSS_FLOOR)
    gross = floor & ~(err <= GROSS_REL_TOL)
    worst = float(np.nanmax(np.where(floor, err, 0.0), initial=0.0))
    return Check(checked=int(normal.sum()), bad=int(bad.sum()), gross=int(gross.sum()),
                 worst=worst if np.isfinite(worst) else math.inf)


def require_range(values, lo=-np.inf, hi=np.inf, what="value") -> Check:
    """Fail the operation on non-finite output or output outside [lo, hi]."""
    arr = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(arr)):
        return Check(invalid=f"non-finite {what}")
    if np.any(arr < lo) or np.any(arr > hi):
        return Check(invalid=f"{what} outside [{lo}, {hi}]")
    return Check()


# ---------------------------------------------------------------------------
# Square-root (cir) family: K(r) X_{s+r} | X_s = x ~ ncx2(gamma, K(r) e^{-alpha r} x)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SqrtLaw:
    """A cir-family law started at (0, x0) with scale K(r) = 4 alpha / (sigma^2 (1 - e^{-alpha r}))."""

    alpha: float
    gamma: float
    sigma: float
    x0: float

    @classmethod
    def cir(cls, alpha, beta, sigma, x0):
        return cls(alpha, 4.0 * beta / sigma ** 2, sigma, x0)

    @classmethod
    def canonical(cls, alpha, gamma, x0):
        """The units of ``cir_closed_form``: sigma^2 = 4 alpha."""
        return cls(alpha, gamma, 2.0 * math.sqrt(alpha), x0)

    @classmethod
    def squared_rayleigh(cls, a, b, y0):
        """X = Y^2 for dY = (a/Y + b Y) dt + dB is a cir(-2b, 2a + 1, 2) started at y0^2."""
        return cls(-2.0 * b, 2.0 * a + 1.0, 2.0, y0 * y0)

    @classmethod
    def squared_bessel(cls, delta, y0):
        """X = Y^2 for dY = (delta/Y) dt + dB is a cir(0, 2 delta + 1, 2) started at y0^2."""
        return cls(0.0, 2.0 * delta + 1.0, 2.0, y0 * y0)

    def scale(self, r: float) -> float:
        if self.alpha == 0.0:
            return 4.0 / (self.sigma ** 2 * r)
        return 4.0 * self.alpha / (self.sigma ** 2 * -math.expm1(-self.alpha * r))

    def _lam(self, r, x):
        return self.scale(r) * math.exp(-self.alpha * r) * np.asarray(x, dtype=float)

    def cdf(self, t, x):
        return ncx2.cdf(self.scale(t) * np.asarray(x, dtype=float), self.gamma, self._lam(t, self.x0))

    def quantile(self, t, p):
        return ncx2.ppf(p, self.gamma, self._lam(t, self.x0)) / self.scale(t)

    def pdf(self, t, x):
        k = self.scale(t)
        return k * ncx2.pdf(k * np.asarray(x, dtype=float), self.gamma, self._lam(t, self.x0))

    def transition_pdf(self, s, y, t, x):
        k = self.scale(t - s)
        return k * ncx2.pdf(k * np.asarray(x, dtype=float), self.gamma, self._lam(t - s, y))

    def copula_density(self, s, t, us, vs):
        """c(u, v) = f_{t|s}(F_t^{-1}(v) | F_s^{-1}(u)) / f_t(F_t^{-1}(v)), rows v, columns u."""
        xu = self.quantile(s, np.asarray(us, dtype=float))
        xv = self.quantile(t, np.asarray(vs, dtype=float))
        num = self.transition_pdf(s, xu[None, :], t, xv[:, None])
        return num / self.pdf(t, xv)[:, None]


@dataclass(frozen=True)
class RootLaw:
    """The law of Y = sqrt(X) for a cir-family X."""

    square: SqrtLaw

    def cdf(self, t, y):
        return self.square.cdf(t, np.square(np.asarray(y, dtype=float)))


# ---------------------------------------------------------------------------
# Gaussian family
# ---------------------------------------------------------------------------

def bm_rho(s: float, t: float) -> float:
    """corr(B_s, B_t) of a Brownian motion started at a point at time 0."""
    return math.sqrt(s / t)


def ou_rho(alpha: float, s: float, t: float) -> float:
    """corr(X_s, X_t) of an OU process started at a point at time 0."""
    if alpha == 0.0:
        return math.sqrt(s / t)
    return math.exp(-alpha * (t - s)) * math.sqrt(
        math.expm1(-2.0 * alpha * s) / math.expm1(-2.0 * alpha * t))


def gaussian_copula_density(rho, us, vs):
    a = ndtri(np.asarray(us, dtype=float))[None, :]
    b = ndtri(np.asarray(vs, dtype=float))[:, None]
    q = 1.0 - rho * rho
    return np.exp(-(rho * rho * (a * a + b * b) - 2.0 * rho * a * b) / (2.0 * q)) / math.sqrt(q)


def rbm_copula_density(rho, us, vs):
    """Copula density of |B| started at 0: the folded Gaussian pair."""
    a = ndtri((1.0 + np.asarray(us, dtype=float)) / 2.0)[None, :]
    b = ndtri((1.0 + np.asarray(vs, dtype=float)) / 2.0)[:, None]
    w = math.sqrt(1.0 - rho * rho)
    phi = lambda z: np.exp(-0.5 * z * z)
    return (phi((b - rho * a) / w) + phi((b + rho * a) / w)) / (2.0 * w * phi(b))


def bvn_cdf(h, k, rho):
    """Bivariate standard normal CDF P(Z1 <= h, Z2 <= k) by Owen's T function."""
    h, k = np.broadcast_arrays(np.asarray(h, dtype=float), np.asarray(k, dtype=float))
    r = math.sqrt(1.0 - rho * rho)
    with np.errstate(divide="ignore", invalid="ignore"):
        ah = np.where(h == 0.0, np.copysign(np.inf, k - rho * h), (k - rho * h) / (h * r))
        ak = np.where(k == 0.0, np.copysign(np.inf, h - rho * k), (h - rho * k) / (k * r))
    hk = h * k
    beta = np.where((hk < 0.0) | ((hk == 0.0) & (h + k < 0.0)), 0.5, 0.0)
    out = 0.5 * ndtr(h) + 0.5 * ndtr(k) - owens_t(h, ah) - owens_t(k, ak) - beta
    origin = 0.25 + math.asin(rho) / (2.0 * math.pi)
    return np.where((h == 0.0) & (k == 0.0), origin, out)


def gaussian_copula_cdf(rho, us, vs):
    us, vs = np.asarray(us, dtype=float), np.asarray(vs, dtype=float)
    return bvn_cdf(ndtri(us)[:, None], ndtri(vs)[None, :], rho)


def rbm_copula_cdf(rho, us, vs):
    """P(|Z1| <= h, |Z2| <= k) with h, k the half-normal quantiles of u, v."""
    h = ndtri((1.0 + np.asarray(us, dtype=float)) / 2.0)[:, None]
    k = ndtri((1.0 + np.asarray(vs, dtype=float)) / 2.0)[None, :]
    return (bvn_cdf(h, k, rho) - bvn_cdf(-h, k, rho)
            - bvn_cdf(h, -k, rho) + bvn_cdf(-h, -k, rho))


def cell_masses_from_cdf(cdf_fn, m: int):
    """Masses of the m x m uniform grid (rows v, columns u) from a copula CDF C(u, v)."""
    edges = np.linspace(0.0, 1.0, m + 1)
    inner = edges[1:-1]
    grid = np.zeros((m + 1, m + 1))                 # [u edge, v edge]
    grid[1:-1, 1:-1] = cdf_fn(inner, inner)
    grid[-1, :] = edges                             # C(1, v) = v
    grid[:, -1] = edges                             # C(u, 1) = u
    return np.diff(np.diff(grid, axis=0), axis=1).T


@dataclass(frozen=True)
class OULaw:
    """dX = (-alpha X + beta) dt + sigma dB started at (0, x0)."""

    alpha: float
    beta: float
    sigma: float
    x0: float

    def mean(self, t):
        m = self.beta / self.alpha
        return m + (self.x0 - m) * math.exp(-self.alpha * t)

    def var(self, t):
        return self.sigma ** 2 * -math.expm1(-2.0 * self.alpha * t) / (2.0 * self.alpha)

    def cdf(self, t, x):
        return ndtr((np.asarray(x, dtype=float) - self.mean(t)) / math.sqrt(self.var(t)))

    def quantile(self, t, p):
        return self.mean(t) + math.sqrt(self.var(t)) * ndtri(np.asarray(p, dtype=float))

    def uniformized_coefficients(self, us, t):
        """(drift, diffusion) of U_t = F_t(X_t) at the points us."""
        sd = math.sqrt(self.var(t))
        z = ndtri(np.asarray(us, dtype=float))
        x = self.mean(t) + sd * z
        dens = np.exp(-0.5 * z * z) / (math.sqrt(2.0 * math.pi) * sd)
        dmean = -self.alpha * (self.x0 - self.beta / self.alpha) * math.exp(-self.alpha * t)
        dsd = self.sigma ** 2 * math.exp(-2.0 * self.alpha * t) / (2.0 * sd)
        dF_dt = -dens * (dmean + z * dsd)
        dens_dx = -z * dens / sd
        drift = dF_dt + (-self.alpha * x + self.beta) * dens + 0.5 * self.sigma ** 2 * dens_dx
        return drift, self.sigma * dens


@dataclass(frozen=True)
class GBMLaw:
    """X_t = x0 exp(mu t + sigma B_t); dX = (mu + sigma^2/2) X dt + sigma X dB."""

    mu: float
    sigma: float
    x0: float

    def cdf(self, t, x):
        m, sd = math.log(self.x0) + self.mu * t, self.sigma * math.sqrt(t)
        return ndtr((np.log(np.asarray(x, dtype=float)) - m) / sd)

    def uniformized_coefficients(self, us, t):
        sd = self.sigma * math.sqrt(t)
        z = ndtri(np.asarray(us, dtype=float))
        x = np.exp(math.log(self.x0) + self.mu * t + sd * z)
        phi = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        dens = phi / (sd * x)
        dF_dt = -phi * (self.mu + z * self.sigma / (2.0 * math.sqrt(t))) / sd
        dens_dx = -dens * (z / sd + 1.0) / x
        sig_x = self.sigma * x
        drift = dF_dt + (self.mu + 0.5 * self.sigma ** 2) * x * dens + 0.5 * sig_x ** 2 * dens_dx
        return drift, sig_x * dens


# ---------------------------------------------------------------------------
# Sampled ensembles
# ---------------------------------------------------------------------------

def ks_columns(paths, times, cdf) -> Check:
    """One checked value per time column: the KS distance to the law ``cdf(t, x)``.

    A column is bad when its distance exceeds the asymptotic critical value at
    level KS_ALPHA, and gross when it exceeds twice that value.
    """
    paths = np.asarray(paths, dtype=float)
    n = paths.shape[0]
    crit = math.sqrt(-0.5 * math.log(KS_ALPHA / 2.0) / n)
    out = Check()
    hi = np.arange(1, n + 1) / n
    lo = np.arange(0, n) / n
    for i, t in enumerate(times):
        f = np.asarray(cdf(float(t), np.sort(paths[:, i])), dtype=float)
        dist = max(np.max(hi - f), np.max(f - lo))
        out.checked += 1
        out.bad += int(not dist <= crit)
        out.gross += int(not dist <= 2.0 * crit)
    return out


def uniform_cdf(t, u):
    return np.clip(np.asarray(u, dtype=float), 0.0, 1.0)


def ar1_first_passage(law: OULaw, grid, levels, n_paths: int, seed) -> np.ndarray:
    """First grid time at which an OU path reaches ``levels[k]``; NaN if it never does.

    The OU observed on a time grid is a Gaussian AR(1), so it is sampled exactly
    with numpy's generator, independently of diffcop's sampler.
    """
    rng = np.random.default_rng(seed)
    m = law.beta / law.alpha
    state = np.full(n_paths, law.x0)
    fpt = np.full(n_paths, np.nan)
    alive = np.ones(n_paths, dtype=bool)
    prev = 0.0
    for t, level in zip(grid, levels):
        dt = float(t) - prev
        decay = math.exp(-law.alpha * dt)
        sd = law.sigma * math.sqrt(-math.expm1(-2.0 * law.alpha * dt) / (2.0 * law.alpha))
        state[alive] = m + (state[alive] - m) * decay + sd * rng.standard_normal(int(alive.sum()))
        crossed = alive & (state >= level)
        fpt[crossed] = t
        alive &= ~crossed
        prev = float(t)
    return fpt


def first_passage(times, expected) -> Check:
    """Two checked values for a sample of first-passage times (NaN = censored).

    The share of paths that pass by the horizon is compared with the reference
    sample's by a two-proportion z test, and the passage times of the paths that
    pass by a two-sample KS test.  Each is bad beyond its critical value at level
    KS_ALPHA and gross beyond twice that value.
    """
    times, expected = np.asarray(times, dtype=float), np.asarray(expected, dtype=float)
    n1, n2 = times.size, expected.size
    a, b = np.sort(times[np.isfinite(times)]), np.sort(expected[np.isfinite(expected)])
    p1, p2, pooled = a.size / n1, b.size / n2, (a.size + b.size) / (n1 + n2)
    se = math.sqrt(pooled * (1.0 - pooled) * (1.0 / n1 + 1.0 / n2))
    z = abs(p1 - p2) / se if se > 0.0 else (0.0 if p1 == p2 else math.inf)
    stats = [(z, float(ndtri(1.0 - KS_ALPHA / 2.0)))]
    if a.size and b.size:
        points = np.union1d(a, b)
        dist = np.max(np.abs(np.searchsorted(a, points, "right") / a.size
                             - np.searchsorted(b, points, "right") / b.size))
        crit = math.sqrt(-0.5 * math.log(KS_ALPHA / 2.0) * (a.size + b.size) / (a.size * b.size))
        stats.append((dist, crit))
    out = Check()
    for stat, crit in stats:
        out.checked += 1
        out.bad += int(not stat <= crit)
        out.gross += int(not stat <= 2.0 * crit)
    return out
