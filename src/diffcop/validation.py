"""Acceptance and invariant suite, shared by the CLI `validate` command and pytest.

Each criterion function returns a `CriterionResult` bundling its sub-checks
with measured values, tolerances and runtime; suites group criteria by the
module that owns them.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import copula, models, special, stt, uniformize
from .recombine import model_marginal_family, recombine as build_recombined
from ._numerics import integrate

__all__ = ["CheckResult", "CriterionResult", "run_criterion", "run_suite",
           "suite_names", "format_result", "CRITERIA"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    comparator: str = "<="     # how measured relates to tolerance when passing


@dataclass(frozen=True)
class CriterionResult:
    number: int
    title: str
    checks: list[CheckResult]
    runtime: float
    runtime_cap: float | None = None

    @property
    def passed(self) -> bool:
        ok = all(c.passed for c in self.checks)
        if self.runtime_cap is not None:
            ok = ok and self.runtime <= self.runtime_cap
        return ok


def _check(name, measured, tolerance, comparator="<="):
    if comparator == "<=":
        ok = measured <= tolerance
    elif comparator == ">=":
        ok = measured >= tolerance
    else:
        raise ValueError(comparator)
    return CheckResult(name, bool(ok), float(measured), float(tolerance), comparator)


def _mesh(grid: np.ndarray):
    """Surface arguments (u, v) spanning grid x grid, u along columns."""
    return grid[None, :], grid[:, None]


# ---------------------------------------------------------------------------
# 1. special functions
# ---------------------------------------------------------------------------

def _criterion_1() -> list[CheckResult]:
    checks = []

    p_grid = np.arange(0.01, 0.995, 0.01)
    err = np.max(np.abs(special.norm_cdf(special.norm_quantile(p_grid)) - p_grid))
    checks.append(_check("normal quantile/cdf round trip", err, 1e-10))

    worst_mass, worst_rt = 0.0, 0.0
    ps = np.arange(0.05, 0.951, 0.05)
    for nu in (1.0, 2.0, 4.0, 25.0):
        for lam in (0.0, 1.0, 10.0, 100.0):
            mid = nu + lam
            mass = (integrate(lambda z: special.chi2nc_pdf(z, nu, lam), 0.0, mid,
                              abs_tol=1e-9, rel_tol=1e-9)
                    + integrate(lambda z: special.chi2nc_pdf(z, nu, lam), mid, np.inf,
                                abs_tol=1e-9, rel_tol=1e-9))
            worst_mass = max(worst_mass, abs(mass - 1.0))
            q = special.chi2nc_quantile(ps, nu, lam)
            worst_rt = max(worst_rt, float(np.max(np.abs(
                special.chi2nc_cdf(q, nu, lam) - ps))))
    checks.append(_check("noncentral chi-square total mass", worst_mass, 1e-6))
    checks.append(_check("noncentral chi-square quantile round trip", worst_rt, 1e-8))

    worst_rel = 0.0
    for nu in (2.0, 3.0, 4.0, 25.0):
        for lam in (0.5, 1.0, 10.0, 50.0):
            for z in (0.4, 2.0, 10.0, 30.0, 50.0):
                a = special.chi2nc_pdf(z, nu, lam)
                b = special.chi2nc_pdf_bessel_form(z, nu, lam)
                worst_rel = max(worst_rel, abs(a - b) / abs(b))
    checks.append(_check("scipy (Boost) vs Bessel-series density (rel)", worst_rel, 1e-8))
    return checks


# ---------------------------------------------------------------------------
# 2. copula validity (uniform margins)
# ---------------------------------------------------------------------------

def _figure1_surfaces():
    alpha, s, t, x0 = 0.1, 30.0, 30.5, 10.0
    return {
        "gaussian(1,2)": copula.gaussian_closed_form(1.0, 2.0),
        "ou(a=0.1,30,30.5)": copula.ou_closed_form(alpha, s, t),
        "rbm(1,2)": copula.rbm_closed_form(1.0, 2.0),
        "cir(g=1)": copula.cir_closed_form(alpha, 1.0, 0.0, s, t),
        "cir(g=6.25)": copula.cir_closed_form(alpha, 6.25, x0, s, t),
        "cir(g=625)": copula.cir_closed_form(alpha, 625.0, x0, s, t),
    }


def _criterion_2() -> list[CheckResult]:
    checks = []
    for label, surf in _figure1_surfaces().items():
        worst = 0.0
        for v in np.arange(0.1, 0.91, 0.1):
            mass = integrate(lambda u: float(surf.density(u, v)), 0.0, 1.0,
                             abs_tol=1e-8, rel_tol=1e-8, points=[v])
            worst = max(worst, abs(mass - 1.0))
        for u in (0.3, 0.7):
            mass = integrate(lambda v: float(surf.density(u, v)), 0.0, 1.0,
                             abs_tol=1e-8, rel_tol=1e-8, points=[u])
            worst = max(worst, abs(mass - 1.0))
        checks.append(_check(f"uniform margins {label}", worst, 1e-5))
    return checks


# ---------------------------------------------------------------------------
# 3. Theorem: monotone transformation <=> shared copula (time-changed)
# ---------------------------------------------------------------------------

def _chain_setups():
    cir_p = {"alpha": 1.0, "beta": 1.0, "sigma": 0.8}
    gamma = 4.0 * cir_p["beta"] / cir_p["sigma"] ** 2          # 6.25
    a, b = (gamma - 1.0) / 2.0, -cir_p["alpha"] / 2.0
    x0_cir = 1.2
    y0_ray = 2.0 * math.sqrt(x0_cir) / cir_p["sigma"]

    ou_p = {"alpha": 0.8, "beta": 0.5, "sigma": 0.7}
    rbm_x0 = 0.3
    sc_p = {"alpha": 0.6, "sigma": 1.1}

    setups = []
    setups.append((
        "ou_to_bm",
        models.make_model("ou", ou_p, x0=0.3),
        stt.builtin_chain("ou_to_bm", **ou_p),
        lambda T: models.make_model("bm", x0=float(T.psi(0.0, 0.3))),
    ))
    setups.append((
        "cir_to_rayleigh",
        models.make_model("cir", cir_p, x0=x0_cir),
        stt.builtin_chain("cir_to_rayleigh", sigma=cir_p["sigma"]),
        lambda T: models.make_model("rayleigh", {"a": a, "b": b}, x0=y0_ray),
    ))
    setups.append((
        "rayleigh_to_bessel",
        models.make_model("rayleigh", {"a": a, "b": b}, x0=y0_ray),
        stt.builtin_chain("rayleigh_to_bessel", b=b),
        lambda T: models.make_model("bessel", {"delta": a}, x0=y0_ray),
    ))
    setups.append((
        "cir_to_bessel",
        models.make_model("cir", cir_p, x0=x0_cir),
        stt.builtin_chain("cir_to_bessel", alpha=cir_p["alpha"], sigma=cir_p["sigma"]),
        lambda T: models.make_model("bessel", {"delta": a}, x0=y0_ray),
    ))
    setups.append((
        "bm_to_special_cir",
        models.make_model("rbm", x0=rbm_x0),
        stt.builtin_chain("bm_to_special_cir", **sc_p),
        lambda T: models.make_model("cir_special", sc_p,
                                    x0=sc_p["sigma"] ** 2 * rbm_x0 ** 2 / 4.0),
    ))
    return setups


def _criterion_3() -> list[CheckResult]:
    grid = np.linspace(0.1, 0.9, 9)
    time_pairs = [(0.5, 1.0), (1.0, 2.0), (2.0, 2.5)]
    checks = []
    for name, source, chain, target_factory in _chain_setups():
        target = target_factory(chain)
        worst = 0.0
        for (s, t) in time_pairs:
            cx = copula.from_transition(source, s, t)
            cy = copula.from_transition(target, float(chain.phi(s)), float(chain.phi(t)))
            diff = cx.density(*_mesh(grid)) - cy.density(*_mesh(grid))
            worst = max(worst, float(np.max(np.abs(diff))))
        checks.append(_check(f"chain {name}", worst, 1e-8))
    return checks


# ---------------------------------------------------------------------------
# 4. Theorem: non-monotone transformation copula (|BM| vs reflected BM)
# ---------------------------------------------------------------------------

def _criterion_4() -> list[CheckResult]:
    bm = models.make_model("bm", x0=0.0)
    trans = stt.absolute_value()
    surf = stt.nonmonotone_copula(bm, trans, 1.0, 2.0)
    ref = copula.rbm_closed_form(1.0, 2.0)
    pts = np.linspace(0.1, 0.9, 5)
    worst = float(np.max(np.abs(surf.density(*_mesh(pts)) - ref.density(*_mesh(pts)))))
    checks = [_check("nonmonotone(|BM|) vs reflected-BM mixture", worst, 1e-10)]

    weight_err = 0.0
    for t in (1.0, 2.0):
        for q in (0.2, 0.7, 1.5, 3.0):
            _, w = stt.preimage_weights(bm, trans, t, q)
            weight_err = max(weight_err, abs(float(w.sum()) - 1.0))
    checks.append(_check("preimage weights sum to 1", weight_err, 0.0))
    return checks


# ---------------------------------------------------------------------------
# 5. parameter irrelevance
# ---------------------------------------------------------------------------

def _criterion_5() -> list[CheckResult]:
    grid = np.linspace(0.15, 0.85, 5)
    s, t = 0.8, 1.5

    alpha = 0.7
    surfaces = [copula.from_transition(
        models.make_model("ou", {"alpha": alpha, "beta": be, "sigma": sg}, x0=0.4), s, t)
        for (be, sg) in [(0.0, 1.0), (5.0, 0.3), (-2.0, 10.0)]]
    meshes = [sf.density(*_mesh(grid)) for sf in surfaces]
    worst_ou = max(float(np.max(np.abs(m - meshes[0]))) for m in meshes[1:])
    checks = [_check("ou copula invariant under (beta, sigma)", worst_ou, 1e-12)]

    alpha_c, gamma = 0.6, 4.0
    sigma_ref, x0_ref = 1.0, 0.9
    surfaces = []
    for sg in (1.0, 0.3, 5.0):
        be = gamma * sg ** 2 / 4.0
        x0 = x0_ref * sg ** 2 / sigma_ref ** 2    # state-space scale invariance
        surfaces.append(copula.from_transition(
            models.make_model("cir", {"alpha": alpha_c, "beta": be, "sigma": sg}, x0=x0),
            s, t))
    meshes = [sf.density(*_mesh(grid)) for sf in surfaces]
    worst_cir = max(float(np.max(np.abs(m - meshes[0]))) for m in meshes[1:])
    checks.append(_check("cir copula invariant under (beta, sigma) at fixed gamma",
                         worst_cir, 1e-8))
    return checks


# ---------------------------------------------------------------------------
# 6. Monte-Carlo check of the uniformized transition law
# ---------------------------------------------------------------------------

def _criterion_6() -> list[CheckResult]:
    model = models.make_model("ou", {"alpha": 1.0, "beta": 0.5, "sigma": 0.9}, x0=0.2)
    s, t = 0.5, 1.0
    n = 200_000
    ens = uniformize.simulate_uniformized(model, [s, t], n, seed=20240)
    us, vs = ens.paths[:, 0], ens.paths[:, 1]

    checks = []
    ks_u = uniformize.ks_statistic(us, lambda x: x)
    ks_v = uniformize.ks_statistic(vs, lambda x: x)
    checks.append(_check("uniform marginals (KS)", max(ks_u, ks_v), 0.01))

    surf = copula.ou_closed_form(1.0, s, t)
    ec = uniformize.empirical_copula(us, vs)
    edges, chat = ec.cdf_grid(20)
    exact_cdf = copula.cdf_on_grid(surf, edges[1:-1], edges[1:-1])
    worst = float(np.max(np.abs(chat[1:-1, 1:-1] - exact_cdf)))
    checks.append(_check("empirical vs analytic copula CDF (sup)", worst, 0.01))

    m = 10
    emp = ec.binned_density(m)
    exact = copula.cell_masses(surf, m) * m * m
    checks.append(_check("binned density mean abs cell error",
                         float(np.mean(np.abs(emp - exact))), 0.05))
    return checks


# ---------------------------------------------------------------------------
# 7. backward-equation residual
# ---------------------------------------------------------------------------

def _criterion_7() -> list[CheckResult]:
    bm = models.make_model("bm", x0=0.0)
    surf = copula.gaussian_closed_form(1.0, 2.0)
    r_coarse = uniformize.kolmogorov_copula_residual(surf, bm, h_u=1e-3, h_s=1e-4)
    r_fine = uniformize.kolmogorov_copula_residual(surf, bm, h_u=5e-4, h_s=1e-4)
    checks = [_check("Gaussian conditional residual", r_coarse, 1e-3)]
    ratio = r_coarse / r_fine
    checks.append(_check("second-order convergence (ratio in [3, 5], lower)", ratio, 3.0, ">="))
    checks.append(_check("second-order convergence (ratio in [3, 5], upper)", ratio, 5.0, "<="))
    neg = uniformize.kolmogorov_copula_residual(
        copula.independence_surface((1.0, 2.0)), bm, h_u=1e-3, h_s=1e-4)
    checks.append(_check("independence negative control", neg, 0.1, ">="))
    return checks


# ---------------------------------------------------------------------------
# 8. Figure-1 regime checks
# ---------------------------------------------------------------------------

def _criterion_8() -> list[CheckResult]:
    alpha, s, t, x0 = 0.1, 30.0, 30.5, 10.0
    checks = []

    cir625 = copula.cir_closed_form(alpha, 625.0, x0, s, t)
    ou = copula.ou_closed_form(alpha, s, t)
    grid = np.linspace(0.2, 0.8, 13)
    u, v = _mesh(grid)
    cond_sup = float(np.max(np.abs(cir625.conditional(u, v) - ou.conditional(u, v))))
    dens_sup = float(np.max(np.abs(cir625.density(u, v) - ou.density(u, v))))
    checks.append(_check("gamma=625 vs ou, conditional sup on [0.2,0.8]^2", cond_sup, 0.05))
    # raw-density sup reported for transparency; intrinsically ~0.135 at gamma=625
    checks.append(_check("gamma=625 vs ou, density sup (reported, not gated)",
                         dens_sup, np.inf))

    cir1 = copula.cir_closed_form(alpha, 1.0, 0.0, s, t)
    phi_inv = lambda tau: math.expm1(alpha * tau) / alpha
    rbm = copula.rbm_closed_form(phi_inv(s), phi_inv(t))
    pts = np.linspace(0.1, 0.9, 5)
    worst = float(np.max(np.abs(cir1.density(*_mesh(pts)) - rbm.density(*_mesh(pts)))))
    checks.append(_check("gamma=1 equals time-changed reflected-BM copula", worst, 1e-8))

    cir625b = copula.cir_closed_form(alpha, 6.25, x0, s, t)
    hi_grid = np.linspace(0.9025, 0.9975, 10)
    lo_grid = np.linspace(0.0025, 0.0975, 10)
    hi = float(np.max(cir625b.density(*_mesh(hi_grid))))
    lo = float(np.max(cir625b.density(*_mesh(lo_grid))))
    checks.append(_check("gamma=6.25 corner asymmetry (ratio)", hi / lo, 2.0, ">="))
    return checks


# ---------------------------------------------------------------------------
# 9. recombination
# ---------------------------------------------------------------------------

def _criterion_9() -> list[CheckResult]:
    alpha, gamma, x0 = 0.1, 625.0, 10.0
    sigma_c = 2.0 * math.sqrt(alpha)                    # canonical units
    target_model = models.make_model(
        "cir", {"alpha": alpha, "beta": gamma * alpha, "sigma": sigma_c}, x0=x0)
    source = models.make_model("ou", {"alpha": alpha, "beta": 0.2, "sigma": 0.5}, x0=2.0)
    process = build_recombined(source, model_marginal_family(target_model),
                                  probe_time=30.0)

    s, t, n = 30.0, 30.5, 200_000
    z_ens = process.sample_paths([s, t], n, seed=501)
    checks = []

    marg = target_model.marginal(s)
    ks = uniformize.ks_statistic(z_ens.paths[:, 0], lambda x: marg.cdf(x))
    checks.append(_check("recombined marginal KS at t=30", ks, 0.01))

    x_ens = models.simulate_paths(source, [s, t], n, seed=502)
    ec_z = uniformize.empirical_copula(uniformize.pseudo_observations(z_ens.paths[:, 0]),
                                       uniformize.pseudo_observations(z_ens.paths[:, 1]))
    ec_x = uniformize.empirical_copula(uniformize.pseudo_observations(x_ens.paths[:, 0]),
                                       uniformize.pseudo_observations(x_ens.paths[:, 1]))
    _, cz = ec_z.cdf_grid(50)
    _, cx = ec_x.cdf_grid(50)
    checks.append(_check("copula preservation, two-sample sup", float(np.max(np.abs(cz - cx))),
                         0.015))

    xs = np.linspace(-1.0, 5.0, 25)
    mapped = np.asarray(process.map(s, xs), dtype=float)
    mono = float(np.min(np.diff(mapped)))
    checks.append(_check("recombination map strictly increasing (min step)", mono, 0.0, ">="))
    return checks


# ---------------------------------------------------------------------------
# 10. cir kernel vs Euler-Maruyama oracle
# ---------------------------------------------------------------------------

def _criterion_10() -> list[CheckResult]:
    alpha, beta, sigma, x_init, gap = 1.0, 1.0, 0.8, 1.2, 0.25
    model = models.make_model("cir", {"alpha": alpha, "beta": beta, "sigma": sigma}, x0=x_init)
    rng = np.random.default_rng(777)
    n = 100_000
    term = models.euler_maruyama(
        lambda x, t: -alpha * x + beta,
        lambda x, t: sigma * np.sqrt(x),
        x_init, 0.0, gap, 1e-4, n, rng, clip_floor=0.0)

    gamma = 4.0 * beta / sigma ** 2
    twoc = model.kernel._twoc(gap)
    lam = twoc * math.exp(-alpha * gap) * x_init
    mean_exact = (gamma + lam) / twoc
    var_exact = 2.0 * (gamma + 2.0 * lam) / twoc ** 2

    em_mean = float(term.mean())
    em_var = float(term.var(ddof=1))
    se_mean = float(term.std(ddof=1)) / math.sqrt(n)
    centered = (term - em_mean) ** 2
    se_var = float(centered.std(ddof=1)) / math.sqrt(n)

    checks = [
        _check("conditional mean within 3 SE (|z|)", abs(em_mean - mean_exact) / se_mean, 3.0),
        _check("conditional variance within 3 SE (|z|)", abs(em_var - var_exact) / se_var, 3.0),
    ]
    # the factor-2 alternative parametrization is rejected decisively
    alt_mean = mean_exact / 2.0
    checks.append(_check("factor-2 alternative rejected (|z|)",
                         abs(em_mean - alt_mean) / se_mean, 10.0, ">="))
    return checks


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

CRITERIA: dict[int, tuple[str, object, float | None]] = {
    1: ("special-function round trips and dual-route agreement", _criterion_1, 5.0),
    2: ("copula uniform margins", _criterion_2, 60.0),
    3: ("monotone transformation chains share the copula", _criterion_3, 60.0),
    4: ("non-monotone copula of |BM|", _criterion_4, None),
    5: ("parameter irrelevance of ou/cir copulas", _criterion_5, None),
    6: ("Monte-Carlo uniformized transition law", _criterion_6, 120.0),
    7: ("backward-equation residual", _criterion_7, None),
    8: ("Figure-1 regime checks", _criterion_8, 60.0),
    9: ("recombination: ou copula with cir marginals", _criterion_9, 120.0),
    10: ("cir kernel vs Euler-Maruyama oracle", _criterion_10, None),
}

_SUITES = {
    "special_fn": (1,),
    "models": (10,),
    "copula": (2, 5, 8),
    "stt": (3, 4),
    "uniformize": (6, 7),
    "recombine": (9,),
    "all": tuple(range(1, 11)),
}


def suite_names() -> tuple[str, ...]:
    return tuple(_SUITES)


def run_criterion(number: int) -> CriterionResult:
    title, fn, cap = CRITERIA[number]
    start = time.perf_counter()
    checks = fn()
    elapsed = time.perf_counter() - start
    return CriterionResult(number=number, title=title, checks=checks,
                           runtime=elapsed, runtime_cap=cap)


def run_suite(name: str) -> list[CriterionResult]:
    if name not in _SUITES:
        raise KeyError(f"unknown suite '{name}'; known: {', '.join(_SUITES)}")
    return [run_criterion(k) for k in _SUITES[name]]


def format_result(result: CriterionResult) -> str:
    status = "PASS" if result.passed else "FAIL"
    cap = f" < {result.runtime_cap:g}s" if result.runtime_cap is not None else ""
    lines = [f"{status} criterion {result.number}: {result.title} "
             f"[{result.runtime:.2f}s{cap}]"]
    for c in result.checks:
        mark = "ok " if c.passed else "BAD"
        lines.append(f"  {mark} {c.name}: measured {c.measured:.6g} {c.comparator} "
                     f"{c.tolerance:g}")
    return "\n".join(lines)
